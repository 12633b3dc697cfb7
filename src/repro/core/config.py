"""Resolver configuration knobs (the CLI flags of Section 3.2), and the
bound checks every configuration's ``__post_init__`` shares."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .trace import SpanTracer


@dataclass
class ResolverConfig:
    """Tunable lookup behaviour shared by iterative and external modes."""

    #: Per-query timeout when talking to authoritative servers.
    iteration_timeout: float = 2.0
    #: Per-query timeout when talking to an external recursive resolver.
    external_timeout: float = 3.0
    #: Extra attempts after the first (ZDNS ``--retries``).
    retries: int = 2
    #: Hard cap on queries per lookup (guards referral loops).
    max_queries: int = 64
    #: Referral depth per owner name.
    max_referrals: int = 10
    #: CNAME chain hops to follow (RFC 8659-style chasing).
    max_cname_chase: int = 10
    #: Recursion depth for glueless NS resolution.
    max_glueless_depth: int = 4
    #: Retry over TCP when a UDP response comes back truncated.
    tcp_on_truncated: bool = True
    #: Retry external lookups that return SERVFAIL/REFUSED (ZDNS does;
    #: MassDNS records them as final answers).
    retry_servfail: bool = True
    #: Reject structurally bogus responses (wrong question echoed, not
    #: a response) instead of interpreting them.
    validate_responses: bool = True
    #: Also strip out-of-bailiwick records (poisoning defence).  Off by
    #: default here because the simulated registries attach cross-zone
    #: glue as a performance simplification; turn on against servers
    #: that keep glue in-bailiwick.
    strict_bailiwick: bool = False
    #: Keep each query's full response JSON on its Appendix C row.
    record_trace: bool = False
    #: The run's :class:`~repro.core.trace.SpanTracer` (clock, span-id
    #: counter, span sink), or None to record nothing.  While set, every
    #: lookup records its steps — delegation walk, cache probe, query
    #: attempt, TCP retry, glueless chase — on ``LookupResult.trace``,
    #: which renders both the Appendix C rows and, when the tracer has a
    #: sink, the span rows.  The default tracer has no clock and no sink:
    #: rows only.  The scan runner sets None when nothing consumes rows
    #: or spans; lookup behaviour is identical either way.  Like
    #: :attr:`health`, left out of equality and of a checkpoint's fingerprint.
    tracer: SpanTracer | None = field(default_factory=SpanTracer, compare=False)
    #: Exponential backoff with decorrelated jitter between retry
    #: attempts: the first pause draws uniform from
    #: ``[backoff_base, 3*backoff_base]`` and each subsequent pause from
    #: ``[backoff_base, 3*previous]``, capped at :attr:`backoff_cap`
    #: (the AWS "decorrelated jitter" schedule).  ``0.0`` (the default)
    #: disables backoff entirely — no delays, no RNG draws — so default
    #: scans replay byte-identically to pre-backoff builds.
    backoff_base: float = 0.0
    #: Upper bound on one backoff pause, seconds.
    backoff_cap: float = 10.0
    #: DNSSEC validation (iterative mode).  When on, every query is
    #: sent with EDNS DO, answers collect their RRSIGs, and after each
    #: lookup the machine walks the chain of trust from the root and
    #: attaches a security status (secure/insecure/bogus/indeterminate)
    #: to the result.  Off (the default) is byte-identical to a
    #: pre-DNSSEC build: no DO bit, no signed material on the wire.
    dnssec: bool = False
    #: Root trust anchor: the DS-style digest of the root zone's
    #: DNSKEY.  None means trust-on-first-use (accept whatever root
    #: DNSKEY arrives) — fine in simulation, where the runner normally
    #: pins the real anchor derived from the zone synthesiser.
    trust_anchor: bytes | None = None
    #: A :class:`repro.core.health.ServerHealthTracker` (or None).  When
    #: set, the iterative machine records per-server successes/failures
    #: and orders each layer's candidate servers healthy-first, shedding
    #: load away from blacked-out or storming servers (§3's
    #: load-balancing, made failure-aware).  None costs one attribute
    #: read per layer.
    health: Any = field(default=None, compare=False)

    def __post_init__(self):
        at_least("retries", self.retries, 0)  # a negative count sends no query
        above("iteration_timeout", self.iteration_timeout, 0)
        above("external_timeout", self.external_timeout, 0)
        at_least("backoff_base", self.backoff_base, 0)
        if not self.backoff_cap >= self.backoff_base:
            raise ValueError(
                "backoff_cap must be >= backoff_base "
                f"(got {self.backoff_cap} < {self.backoff_base})"
            )
        for name in ("max_queries", "max_referrals", "max_cname_chase", "max_glueless_depth"):
            at_least(name, getattr(self, name), 1)


# Each rule names its field (``pyzdns`` swaps in the flag) and is written
# negated, so NaN breaks it too; None (an option left off) passes.


def at_least(name: str, value, bound) -> None:
    """Raise ``ValueError`` unless ``value >= bound``."""
    if value is not None and not value >= bound:
        raise ValueError(f"{name} must be >= {bound} (got {value})")


def above(name: str, value, bound) -> None:
    """Raise ``ValueError`` unless ``value > bound``."""
    if value is not None and not value > bound:
        raise ValueError(f"{name} must be > {bound} (got {value})")


def within(name: str, value, low: int, high: int) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if value is not None and not low <= value <= high:
        raise ValueError(f"{name} must be {low}..{high} (got {value})")


def port(text: str) -> int:
    """A TCP/UDP port number from command-line text: the ``type=`` of
    both CLIs' ``--http-port``, and the PORT of ``--live-resolver``."""
    number = int(text)
    within("port", number, 0, 65535)
    return number


@dataclass
class ClientCostModel:
    """CPU cost the scanning client pays per operation, in seconds.

    Calibrated so 24 cores saturate near the paper's observed ~95K
    queries/second (Section 4.1): roughly 250 us of client CPU per
    query round trip, split between send and receive work.
    """

    per_send: float = 125e-6
    per_receive: float = 125e-6
    #: One-time CPU per lookup: question construction, result encoding.
    per_lookup: float = 0.0
    #: Extra CPU per iterative step: cache lookups/insertions.
    per_cache_op: float = 35e-6
    #: Cost of creating+destroying a socket per query when the
    #: socket-reuse optimisation is disabled (ablation): socket/bind/
    #: close syscalls plus kernel ephemeral-port allocation and fd
    #: teardown, which get expensive with tens of thousands of fds
    #: churning ("exorbitantly expensive", Section 3.4).
    per_socket_setup: float = 900e-6

    @classmethod
    def for_iterative(cls) -> "ClientCostModel":
        """Iterative resolution pays referral parsing and cache
        maintenance on *every* query it sends, so its per-packet cost is
        higher than stub mode's.  Calibrated so a 24-core scanner with
        ~2.3 queries per warm-cache A resolution saturates near the
        paper's ~18K iterative resolutions/s (Table 2) — and so that
        throughput scales with queries-per-lookup, which is what makes
        cache-size effects visible (Figure 2)."""
        return cls(per_send=280e-6, per_receive=280e-6)

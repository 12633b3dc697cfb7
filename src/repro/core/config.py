"""Resolver configuration knobs (the CLI flags of Section 3.2), and the
bound checks every configuration's ``__post_init__`` shares."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..net.sockets import DEFAULT_PORTS_PER_IP
from .cache import CACHE_EVICTIONS, CACHE_POLICIES
from .trace import SpanTracer

#: Where a stack's lookups go: its own recursion, a public resolver of
#: the simulated Internet, or ``resolver_ips``.
SCAN_MODES = ("iterative", "google", "cloudflare", "external")


@dataclass
class ResolverConfig:
    """Everything one resolver stack (:class:`repro.core.Resolver`) is
    built from.  Every rule is checked at construction (``ValueError``):
    the field bounds, ``mode`` / ``cache_policy`` / ``cache_eviction``
    among the known values, ``dnssec`` requiring ``mode="iterative"``,
    ``mode="external"`` requiring ``resolver_ips``, ``gc_period`` and
    ``gc_pause`` set together (the pause shorter), and ``backoff_cap``
    not below ``backoff_base``."""

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
    #: Where lookups go (one of :data:`SCAN_MODES`).
    mode: str = "iterative"
    #: The recursive resolvers of ``mode="external"``.
    resolver_ips: list[str] = field(default_factory=list)
    #: The scanning subnet: sockets bind from a /``source_prefix`` of
    #: source addresses, ``ports_per_ip`` ports each.
    source_prefix: int = 32
    ports_per_ip: int = DEFAULT_PORTS_PER_IP
    #: Delegation cache entries, what the cache keeps and what it drops
    #: when full (iterative mode; see :mod:`repro.core.cache`).
    cache_size: int = 600_000
    cache_policy: str = "selective"
    cache_eviction: str = "random"
    #: Simulated client CPU cores (None = lookups charge no client CPU).
    cores: int | None = None
    #: None = the mode's calibrated default: iterative lookups pay
    #: per-lookup cache and referral-parsing CPU on top of packet costs.
    costs: ClientCostModel | None = None
    #: *Go's* GC pauses in virtual time (``net.cpu.GCModel``; None = none);
    #: the paper's tuned config is frequent short pauses.
    gc_period: float | None = None
    gc_pause: float | None = None
    #: One long-lived socket per worker (Section 3.4); False is the ablation.
    reuse_sockets: bool = True
    #: The one seed of the stack's random streams: the machines' server
    #: order and backoff jitter, the cache's random eviction and the
    #: driver's query ids.  None = the universe's seed.
    seed: int | None = None

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
        for name in (
            "max_queries", "max_referrals", "max_cname_chase", "max_glueless_depth",
            "cache_size", "cores", "ports_per_ip",
        ):
            at_least(name, getattr(self, name), 1)
        within("source_prefix", self.source_prefix, 0, 32)
        for name, known in (
            ("mode", SCAN_MODES),
            ("cache_policy", CACHE_POLICIES),
            ("cache_eviction", CACHE_EVICTIONS),
        ):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)} (got {value!r})")
        if self.dnssec and self.mode != "iterative":
            raise ValueError("dnssec requires mode iterative")
        if self.mode == "external" and not self.resolver_ips:
            raise ValueError("mode external requires resolver_ips")
        if (self.gc_period is None) != (self.gc_pause is None):
            raise ValueError("gc_period and gc_pause are set together")
        above("gc_period", self.gc_period, 0)
        at_least("gc_pause", self.gc_pause, 0)
        if self.gc_period is not None and not self.gc_pause < self.gc_period:
            # every instant would fall inside a pause: no lookup ever runs
            raise ValueError(
                f"gc_pause must be < gc_period (got {self.gc_pause} >= {self.gc_period})"
            )


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

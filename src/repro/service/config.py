"""Service-mode configuration (the ``python -m repro.service`` flags).

Mirrors the batch framework's ``ScanConfig`` idiom: one dataclass, all
virtual-time quantities in seconds, every random draw derived from
``seed`` through named streams — so one integer pins the entire run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import above, at_least


@dataclass
class ServiceConfig:
    """Everything a resolver-service run depends on."""

    seed: int = 2022
    #: Virtual seconds the daemon serves before draining.
    duration: float = 3600.0

    # -- client population -------------------------------------------------
    #: Distinct names the stub clients query (corpus slice ``[0, n)``).
    catalog_size: int = 400
    #: Zipf exponent of the query mix (rank-frequency skew).
    zipf_s: float = 1.1
    #: Mean client arrival rate at the diurnal midpoint, queries/second.
    base_qps: float = 8.0
    #: Period of the diurnal load curve (one virtual "day").
    diurnal_period: float = 1800.0
    #: Peak-to-trough swing, ``0 <= depth < 1``: the instantaneous rate
    #: is ``base_qps * (1 + depth * sin(...))``, phased to start at the
    #: trough (the service warms up during the quiet night).
    diurnal_depth: float = 0.5

    # -- resolver pool -----------------------------------------------------
    workers: int = 8
    cores: int = 4
    cache_capacity: int = 8192
    cache_eviction: str = "lru"
    retries: int = 2
    #: Resolve the whole catalog once at t=0 (cache warming); warm jobs
    #: are excluded from client-facing latency and availability stats.
    warm_catalog: bool = True

    # -- cache lifetimes ---------------------------------------------------
    #: RFC 8767 serve-stale window past expiry (None disables).
    stale_ttl: float | None = 3600.0
    #: RFC 2308 negative-cache TTL for NXDOMAIN/NODATA outcomes.
    negative_ttl: float = 900.0

    # -- prefetch ----------------------------------------------------------
    #: Sweep cadence; 0 disables prefetch entirely.
    prefetch_interval: float = 30.0
    #: Refresh an entry when its remaining TTL drops to/below this...
    prefetch_threshold: float = 60.0
    #: ...and it drew at least this many hits since it was stored.
    prefetch_min_hits: int = 3

    # -- zone deltas and revalidation --------------------------------------
    #: Zone mutations published over the run, evenly spaced unless
    #: ``delta_times`` pins them explicitly.
    deltas: int = 0
    delta_times: tuple[float, ...] = ()
    #: ``incremental`` (invalidate only the affected delegation
    #: subtree), ``flush`` (drop the whole cache — comparison
    #: baseline), or ``off`` (publish but do not revalidate).
    revalidation: str = "incremental"

    # -- DNSSEC ------------------------------------------------------------
    #: Validate every upstream resolution against the chain of trust
    #: (DO bit on every query, security memos in the cache, RRSIG-aware
    #: answer TTLs).  Off = byte-identical pre-DNSSEC behaviour.
    dnssec: bool = False

    # -- adversity ---------------------------------------------------------
    #: Upstream blackout windows ``(start, end)``: every authoritative
    #: server stops answering inside each window.
    blackouts: tuple[tuple[float, float], ...] = ()

    # -- observation -------------------------------------------------------
    #: Check upstream resolutions 1, K+1, 2K+1, … (successful or
    #: failed) against the differential oracle (0 disables, negative is
    #: an error; the oracle builds a second universe).
    oracle_check_every: int = 0
    #: Event-log interval summary cadence.
    status_interval: float = 60.0
    metrics: bool = True
    #: Codec fidelity of the simulated fabric (see SimNetwork).
    wire_mode: str = "sampled"
    #: Simulator event budget (guards runaway configurations).
    max_events: int = 30_000_000

    def __post_init__(self) -> None:
        if not self.duration > 0:  # negated, so NaN fails too
            raise ValueError("duration must be positive")
        if not self.workers >= 1:
            raise ValueError("need at least one worker")
        above("base_qps", self.base_qps, 0)
        for name in ("catalog_size", "cache_capacity"):
            at_least(name, getattr(self, name), 1)
        at_least("oracle_check_every", self.oracle_check_every, 0)
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must be in [0, 1)")
        if self.revalidation not in ("incremental", "flush", "off"):
            raise ValueError(f"unknown revalidation mode {self.revalidation!r}")
        for start, end in self.blackouts:
            if not end > start:  # so NaN fails too
                raise ValueError(f"empty blackout window {(start, end)!r}")

    def resolved_delta_times(self) -> tuple[float, ...]:
        """Explicit ``delta_times``, or ``deltas`` spread evenly across
        the run (never at t=0, never at the very end)."""
        if self.delta_times:
            return tuple(sorted(self.delta_times))
        if self.deltas <= 0:
            return ()
        step = self.duration / (self.deltas + 1)
        return tuple(step * (i + 1) for i in range(self.deltas))

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "catalog_size": self.catalog_size,
            "zipf_s": self.zipf_s,
            "base_qps": self.base_qps,
            "diurnal_period": self.diurnal_period,
            "diurnal_depth": self.diurnal_depth,
            "workers": self.workers,
            "cache_capacity": self.cache_capacity,
            "cache_eviction": self.cache_eviction,
            "stale_ttl": self.stale_ttl,
            "negative_ttl": self.negative_ttl,
            "prefetch_interval": self.prefetch_interval,
            "prefetch_threshold": self.prefetch_threshold,
            "prefetch_min_hits": self.prefetch_min_hits,
            "deltas": list(self.resolved_delta_times()),
            "revalidation": self.revalidation,
            "dnssec": self.dnssec,
            "blackouts": [list(w) for w in self.blackouts],
            "oracle_check_every": self.oracle_check_every,
        }

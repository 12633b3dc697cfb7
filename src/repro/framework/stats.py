"""Run-time statistics aggregation (Section 3.2's framework duty).

:class:`ScanStats` is the one count of a scan.  Everything else reads
it: the status line, each telemetry delta's six counters, the shard
executor's ``task_done`` payload (the only place completion times
travel), and the registry's ``engine`` scope, which
:meth:`ScanStats.publish_metrics` brings up to date at the points the
registry is read (each delta's dump and the end of the run), the way
the cache publishes its ``cache`` scope.  Recording a lookup touches no
registry.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields

#: Statuses counted as timeouts by :attr:`ScanStats.timeouts`, the
#: status line, and the telemetry views — one definition for all three.
TIMEOUT_STATUSES = ("TIMEOUT", "ITERATIVE_TIMEOUT")

@dataclass
class ScanStats:
    """Aggregated outcome of one scan, measured in virtual time.

    ``queries_sent`` is counted where a query leaves, on each worker's
    socket (UDP and TCP alike), so a composite module's lookups count
    every query they send; ``retries_used`` comes from the machine's
    :class:`~repro.core.LookupResult` on the row, so it counts the
    retries of that one lookup.
    """

    total: int = 0
    successes: int = 0
    by_status: Counter = field(default_factory=Counter)
    started_at: float = 0.0
    finished_at: float = 0.0
    threads_requested: int = 0
    threads_running: int = 0
    queries_sent: int = 0
    retries_used: int = 0
    completion_times: list = field(default_factory=list)
    #: What :meth:`publish_metrics` last published, by counter name.
    _published: dict = field(default_factory=dict, repr=False, compare=False)

    def record(self, status: str, now: float, queries: int = 0, retries: int = 0) -> None:
        self.total += 1
        self.by_status[status] += 1
        if status in ("NOERROR", "NXDOMAIN"):
            self.successes += 1
        self.finished_at = max(self.finished_at, now)
        self.completion_times.append(now)
        self.queries_sent += queries
        self.retries_used += retries

    def publish_metrics(self, scope) -> None:
        """Bring the counters under ``scope`` (the run's ``engine``
        scope) up to this scan's counts: ``lookups``, ``successes``,
        ``queries_sent``, ``retries_used`` and one ``status.<STATUS>``
        per status, in the order each status first ended a lookup.

        Counters only grow, so each call adds what is new since the
        last one: a registry shared by several scans sums them.
        """
        published = self._published
        counts = [
            ("lookups", self.total),
            ("successes", self.successes),
            ("queries_sent", self.queries_sent),
            ("retries_used", self.retries_used),
        ]
        counts += ((f"status.{status}", count) for status, count in self.by_status.items())
        for name, value in counts:
            scope.counter(name).inc(value - published.get(name, 0))
            published[name] = value

    def counters(self) -> dict:
        """This scan's counts under the names a telemetry delta and the
        status line give them."""
        return {
            "done": self.total,
            "successes": self.successes,
            "timeouts": self.timeouts,
            "retries": self.retries_used,
            "queries_sent": self.queries_sent,
        }

    def to_state(self) -> dict:
        """Plain-data export for cross-process aggregation (the shard
        workers of :mod:`repro.framework.parallel` ship this in their
        ``task_done`` payload; :meth:`from_state` and :meth:`merge`
        rebuild the fleet-wide view in the parent)."""
        state = {key: getattr(self, key) for key in STATE_KEYS}
        state["by_status"] = dict(self.by_status)
        state["completion_times"] = list(self.completion_times)
        return state

    @classmethod
    def from_state(cls, state: dict) -> "ScanStats":
        """Inverse of :meth:`to_state`.  A state with a missing or an
        unknown key raises :class:`ValueError`."""
        if not isinstance(state, dict) or set(state) != set(STATE_KEYS):
            keys = sorted(state) if isinstance(state, dict) else type(state).__name__
            raise ValueError(f"not a ScanStats state: {keys}")
        return cls(
            **dict(
                state,
                by_status=Counter(state["by_status"]),
                completion_times=list(state["completion_times"]),
            )
        )

    def merge(self, other: "ScanStats") -> "ScanStats":
        """Fold another scan's stats into this one (in place).

        Counts, statuses, and completion times pool; the time window
        widens to cover both scans.  Shards of a multi-process run all
        start their virtual clocks at zero and run concurrently, so the
        merged ``duration`` is the slowest shard's — the fleet-wide
        virtual wall clock — and rate properties read as fleet rates.
        Returns self for chaining.
        """
        self.total += other.total
        self.successes += other.successes
        self.by_status.update(other.by_status)
        if other.total or other.finished_at:
            self.started_at = min(self.started_at, other.started_at)
            self.finished_at = max(self.finished_at, other.finished_at)
        self.threads_requested += other.threads_requested
        self.threads_running += other.threads_running
        self.queries_sent += other.queries_sent
        self.retries_used += other.retries_used
        self.completion_times.extend(other.completion_times)
        return self

    @property
    def duration(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def timeouts(self) -> int:
        """Lookups that ended in any timeout status."""
        return sum(self.by_status.get(status, 0) for status in TIMEOUT_STATUSES)

    @property
    def success_rate(self) -> float:
        return self.successes / self.total if self.total else 0.0

    @property
    def successes_per_second(self) -> float:
        return self.successes / self.duration if self.duration > 0 else 0.0

    @property
    def lookups_per_second(self) -> float:
        return self.total / self.duration if self.duration > 0 else 0.0

    @property
    def steady_rate(self) -> float:
        """Lookups/second between the 10th and 90th percentile
        completions: excludes ramp-up and straggler-tail artifacts, the
        way sustained-throughput plots are usually measured.

        Degenerate scans fall back to :attr:`lookups_per_second`
        (itself 0.0 at zero duration): fewer than 10 completions, or a
        burst where the 10th and 90th percentiles coincide — including
        the zero-duration case where every lookup lands on one instant.
        """
        times = self.completion_times
        if not times:
            return 0.0
        if len(times) < 10:
            return self.lookups_per_second
        ordered = sorted(times)
        lo = ordered[len(ordered) // 10]
        hi = ordered[(9 * len(ordered)) // 10]
        if hi <= lo:
            return self.lookups_per_second
        # Count the completions actually inside (lo, hi] rather than
        # assuming the index-based percentile samples bracket exactly
        # 80% of them — with ties or sizes not divisible by 10 they
        # don't, and the hardcoded 0.8*n numerator overstated the rate.
        inside = bisect_right(ordered, hi) - bisect_right(ordered, lo)
        return inside / (hi - lo)

    @property
    def steady_successes_per_second(self) -> float:
        return self.steady_rate * self.success_rate

    @property
    def queries_per_second(self) -> float:
        return self.queries_sent / self.duration if self.duration > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "successes": self.successes,
            "success_rate": round(self.success_rate, 4),
            "statuses": dict(self.by_status),
            "duration_s": round(self.duration, 3),
            "successes_per_second": round(self.successes_per_second, 1),
            "queries_per_second": round(self.queries_per_second, 1),
            "threads_requested": self.threads_requested,
            "threads_running": self.threads_running,
            "queries_sent": self.queries_sent,
            "retries_used": self.retries_used,
        }


#: The keys of :meth:`ScanStats.to_state`: every field but the private one.
STATE_KEYS = tuple(f.name for f in fields(ScanStats) if not f.name.startswith("_"))

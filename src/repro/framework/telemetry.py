"""Live scan telemetry: the streaming delta protocol and fleet views.

The storage layer (:mod:`repro.obs`) can *record* a scan; this module is
what lets an operator *watch* one from outside the process.  Two
pieces:

* :class:`TelemetryDelta` — the versioned message a running scan emits:
  :class:`~repro.framework.runner.ScanRunner` builds one every
  :data:`DEFAULT_DELTA_INTERVAL` virtual seconds and once more, complete,
  at the end, and shard workers stream them to the parent over the
  executor's pipes.  A delta is a cumulative snapshot of one *task*'s
  six progress counters (:data:`COUNTERS`) and its metrics-registry
  dump, so its size does not grow with the task.  *Cumulative* is the
  load-bearing property: a lost or coalesced delta costs freshness,
  never correctness.  A delta is never what a scan's result is folded
  from — the executor's ``task_done`` payload is, and it is also what a
  checkpoint persists (:mod:`repro.framework.checkpoint`), so on resume
  a durable task's delta is rebuilt from it.
  Since v2 a delta is keyed by ``(shard, segment)`` — work stealing
  splits a shard into segment tasks — and carries the scheduling
  annotations the parent stamps on receipt (``owner``, ``worker``,
  ``stolen_from``, ``resumed``).
* :class:`FleetView` — the fold.  It keeps the latest delta per task
  and rebuilds both the fleet aggregate and per-*shard* rows (segments
  grouped back together) on demand, so the HTTP control plane and the
  fleet status line read one consistent snapshot without ever touching
  scan state.  A single-process scan feeds it directly
  (``ScanRunner(progress=fleet.update)``) as a one-shard fleet, so
  ``/status.json`` has one shape however the scan runs.

The view is read-only over the scan: the HTTP server thread only calls
``status_snapshot()`` / ``prometheus()``, never mutates, which is what
keeps the server-on and server-off runs byte-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Iterable

from ..obs import MetricsRegistry

__all__ = [
    "DEFAULT_DELTA_INTERVAL",
    "DELTA_VERSION",
    "FleetView",
    "TelemetryDelta",
    "fold_metrics",
]

#: Wire version of :class:`TelemetryDelta`.  Bump when fields change
#: meaning; consumers (the parent fold, the checkpoint journal) must
#: reject versions they do not understand rather than misread them.
#: v2: deltas are per ``(shard, segment)`` task and carry
#: owner/worker/stolen_from/resumed scheduling state.  v3: the
#: ``stats`` block and the ``cursor`` (always equal to ``done``) are gone.
DELTA_VERSION = 3

#: A delta's progress counters, summed alike over a shard's segments and
#: over the fleet.
COUNTERS = ("done", "successes", "timeouts", "retries", "queries_sent", "in_flight")

#: Interval, in *virtual* seconds on the scan's clock, between deltas.
#: Deterministic for a fixed corpus (virtual timers fire at the same
#: points regardless of wall-clock load), so the message sequence itself
#: is reproducible.
DEFAULT_DELTA_INTERVAL = 0.5


@dataclass
class TelemetryDelta:
    """One task's cumulative progress snapshot (pipe message).

    Everything is *cumulative since task start*, so the parent can
    always overwrite its previous view of the task; ``seq`` orders
    deltas and exposes gaps.  The counters are the task's
    :meth:`ScanStats.counters() <repro.framework.stats.ScanStats.counters>`
    and its ``in_flight`` gauge, and ``metrics`` is
    ``MetricsRegistry.dump()`` — the mergeable format the end-of-scan
    fold uses, so the live fleet registry and the final one are the same
    fold at different times.

    Workers fill the progress fields; the executor parent stamps the
    scheduling fields (``owner``/``worker``/``stolen_from``) on receipt
    and sets ``resumed`` on deltas replayed from a checkpoint journal.
    """

    shard: int
    seq: int
    #: Segment index of this task within its shard (``--steal-quantum``
    #: pre-segments shards at fixed boundaries; 0 for whole-shard tasks).
    segment: int = 0
    #: Total segments in this shard's decomposition.
    segments: int = 1
    done: int = 0
    successes: int = 0
    timeouts: int = 0
    retries: int = 0
    queries_sent: int = 0
    in_flight: int = 0
    #: Virtual-clock reading in the task's simulator at emission time.
    virtual_now: float = 0.0
    #: Names assigned to this task (the task-local total target).
    target: int | None = None
    complete: bool = False
    #: Worker index that nominally owns the task's shard.
    owner: int | None = None
    #: Worker index actually running the task.
    worker: int | None = None
    #: When stolen: the owner the task was reassigned away from.
    stolen_from: int | None = None
    #: True when this delta was replayed from a checkpoint journal.
    resumed: bool = False
    metrics: list | None = None
    version: int = DELTA_VERSION

    @property
    def key(self) -> tuple[int, int]:
        return (self.shard, self.segment)

    def to_payload(self) -> dict:
        """Plain-dict form (JSON-safe apart from the metrics tuples)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "TelemetryDelta":
        version = payload.get("version", 0)
        if version != DELTA_VERSION:
            raise ValueError(
                f"telemetry delta version {version} != supported {DELTA_VERSION}"
            )
        return cls(**payload)


#: Registry scopes surfaced verbatim in ``/status.json`` so an operator
#: sees *where* the fleet is hurting without scraping ``/metrics``.
_STATUS_SCOPES = ("faults", "health")


def _relabel_for(shard_index: int):
    """Metric renamer: per-shard labels for the scopes where summing
    would destroy the signal (which server slice was faulted / unhealthy
    in *this* shard's chaos stream, how many packets *this* shard's
    codec handled), fleet sums for everything else."""

    def relabel(name: str) -> str:
        for scope in ("faults.", "health.", "codec."):
            if name.startswith(scope):
                return f"{scope}shard{shard_index}.{name[len(scope):]}"
        return name

    return relabel


def fold_metrics(dumps: Iterable[tuple[int, list]], enabled: bool = True) -> MetricsRegistry:
    """Fold per-task registry dumps, ``(shard, dump)`` in canonical task
    order, into one fleet registry — the live view and the end-of-scan
    merge both fold through here.

    Counters, gauges and histograms add, with per-shard labels where
    :func:`_relabel_for` keeps them.  Two gauges are ratios, whose sum
    means nothing, so they are recomputed after the fold:
    ``cache.hit_rate`` from the merged hits and misses, and
    ``engine.cpu_utilisation`` as the mean over the tasks that published
    it (each task models its own core pool).
    """
    registry = MetricsRegistry(enabled=enabled)
    cpu_reports = 0
    for shard, dump in dumps:
        registry.merge_dump(dump, rename=_relabel_for(shard))
        cpu_reports += any(name == "engine.cpu_utilisation" for name, _, _ in dump)
    merged = {metric.name: metric for metric in registry}
    if "cache.hit_rate" in merged:
        hits, misses = merged["cache.hits"].value, merged["cache.misses"].value
        merged["cache.hit_rate"].set(round(hits / (hits + misses), 4) if hits + misses else 0.0)
    cpu = merged.get("engine.cpu_utilisation")
    if cpu is not None:
        cpu.set(round(cpu.value / cpu_reports, 4))
    return registry


def _sum_counters(deltas: list[TelemetryDelta]) -> dict:
    """The :data:`COUNTERS` summed over ``deltas``."""
    return {name: sum(getattr(d, name) for d in deltas) for name in COUNTERS}


def _shard_group_row(
    shard: int, deltas: list[TelemetryDelta], info: dict, elapsed: float
) -> dict:
    """One per-shard row of ``/status.json``: the shard's segment tasks
    folded back together, plus ownership/steal/resume state."""
    # Trust whichever source knows about *more* segments: a view may
    # have no plan (a single-process scan) or get it late, and a shard
    # must never read as complete while a segment is unreported.
    segments_total = max(
        info.get("segments") or 0, max(d.segments for d in deltas), 1
    )
    segments_done = sum(1 for d in deltas if d.complete)
    target = info.get("target")
    if target is None:
        known = [d.target for d in deltas if d.target is not None]
        target = sum(known) if known else None
    counters = _sum_counters(deltas)
    owner = info.get("owner")
    if owner is None:
        owner = next((d.owner for d in deltas if d.owner is not None), None)
    return {
        "shard": shard,
        "seq": max(d.seq for d in deltas),
        "target": target,
        **counters,
        "virtual_now": round(max(d.virtual_now for d in deltas), 6),
        "rate_per_s": round(counters["done"] / elapsed, 2) if elapsed > 0 else 0.0,
        "complete": segments_done >= segments_total,
        "segments": segments_total,
        "segments_done": segments_done,
        "owner": owner,
        "workers": sorted({d.worker for d in deltas if d.worker is not None}),
        "steals": sum(1 for d in deltas if d.stolen_from is not None),
        "stolen_from": next(
            (d.stolen_from for d in deltas if d.stolen_from is not None), None
        ),
        "resumed": any(d.resumed for d in deltas),
    }


class FleetView:
    """Thread-safe live state of a scan, folded from its task deltas.

    The executor's parent loop — or, for a single-process scan, the
    runner itself — feeds it (:meth:`update` per delta, :meth:`finish`
    at the end); the HTTP server and the fleet status line read
    consistent snapshots.  All aggregation happens at read
    time from the latest per-task deltas — updates are a dict store
    under a lock, so feeding the view never slows the merge loop.
    ``set_plan`` tells the view the shard decomposition up front, so a
    shard with unreported segments never shows as complete early.
    """

    def __init__(
        self,
        run_info: dict | None = None,
        shards: int = 0,
        target: int | None = None,
        clock=time.monotonic,
    ):
        self._lock = threading.Lock()
        self._deltas: dict[tuple[int, int], TelemetryDelta] = {}
        #: per-shard plan: ``{shard: {"segments", "target", "owner"}}``.
        self._plan: dict[int, dict] = {}
        self.run_info = dict(run_info or {})
        self.shards = shards
        self.target = target
        self._clock = clock
        self._started = clock()
        self.complete = False

    def set_plan(self, plan: dict[int, dict]) -> None:
        """Install the executor's shard decomposition (segment counts,
        per-shard targets, nominal owners).

        Merges per shard rather than replacing wholesale: deltas — in
        particular journal replays during ``--resume`` — may legally
        arrive *before* the plan, and a later (or repeated) ``set_plan``
        must refine what the view knows, never erase shards it already
        learned about from another call."""
        with self._lock:
            for shard, info in plan.items():
                self._plan.setdefault(shard, {}).update(info)

    def update(self, delta: TelemetryDelta) -> None:
        """Fold one task delta in (latest-wins per task)."""
        if delta.version != DELTA_VERSION:
            raise ValueError(
                f"telemetry delta version {delta.version} != supported {DELTA_VERSION}"
            )
        with self._lock:
            previous = self._deltas.get(delta.key)
            if previous is None or delta.seq >= previous.seq:
                self._deltas[delta.key] = delta

    def finish(self) -> None:
        """Mark the scan complete (post-scan scrapes see a final view)."""
        with self._lock:
            self.complete = True

    @property
    def elapsed(self) -> float:
        return max(0.0, self._clock() - self._started)

    def _fold(self) -> tuple[dict, list[dict], bool, float]:
        """One consistent read of the latest deltas: the fleet counters,
        the per-shard rows (the fleet's ``shards_complete`` and
        ``steals`` sum theirs), whether the scan is complete, and the
        wall seconds elapsed."""
        with self._lock:
            deltas = sorted(self._deltas.values(), key=lambda d: d.key)
            plan = {shard: dict(info) for shard, info in self._plan.items()}
            complete = self.complete
        elapsed = self.elapsed
        groups: dict[int, list[TelemetryDelta]] = {}
        for delta in deltas:
            groups.setdefault(delta.shard, []).append(delta)
        rows = [
            _shard_group_row(shard, ds, plan.get(shard, {}), elapsed)
            for shard, ds in groups.items()
        ]
        counters = {
            **_sum_counters(deltas),
            "shards_complete": sum(row["complete"] for row in rows),
            "steals": sum(row["steals"] for row in rows),
            "resumed_tasks": sum(1 for d in deltas if d.resumed),
        }
        return counters, rows, complete, elapsed

    def fleet_counters(self) -> dict:
        """Cheap fleet totals (no metrics folding) — what the parent's
        periodic status line and the checkpoint's ``state.json`` read."""
        return self._fold()[0]

    def merged_registry(self) -> MetricsRegistry:
        """Live fleet registry: latest per-task dumps folded together
        by the same fold the end-of-scan merge uses."""
        with self._lock:
            dumps = [
                (key[0], delta.metrics)
                for key, delta in sorted(self._deltas.items())
                if delta.metrics
            ]
        return fold_metrics(dumps)

    def prometheus(self) -> str:
        return self.merged_registry().render_prometheus()

    def status_snapshot(self) -> dict:
        """The ``/status.json`` document: run metadata, fleet totals,
        per-shard progress rows (segments folded back together), and the
        fault/health scopes."""
        from ..obs.status import estimate_eta

        fleet, rows, complete, elapsed = self._fold()
        done, successes = fleet["done"], fleet["successes"]
        average_rate = done / elapsed if elapsed > 0 else 0.0
        eta = None if complete else estimate_eta(done, self.target, average_rate)
        tree = self.merged_registry().tree()
        fleet.update(
            target=self.target,
            success_rate=round(successes / done, 4) if done else 0.0,
            rate_per_s=round(average_rate, 2),
            eta_s=None if eta is None else round(eta, 1),
            virtual_now=max((row["virtual_now"] for row in rows), default=0.0),
            shards=self.shards,
            shards_reporting=len(rows),
            # published when a task finishes: None until one has
            cache_hit_rate=tree.get("cache", {}).get("hit_rate"),
            complete=complete,
        )
        return {
            "version": DELTA_VERSION,
            "run": dict(self.run_info),
            "wall_elapsed_s": round(elapsed, 3),
            "fleet": fleet,
            "shards": rows,
            "scopes": {scope: tree[scope] for scope in _STATUS_SCOPES if scope in tree},
        }


"""Live scan telemetry: the streaming delta protocol and fleet views.

The storage layer (:mod:`repro.obs`) can *record* a scan; this module is
what lets an operator *watch* one from outside the process.  Two
pieces:

* :class:`TelemetryDelta` — the versioned message a running scan emits:
  :class:`~repro.framework.runner.ScanRunner` builds one as a lookup
  finishes once :data:`DEFAULT_DELTA_INTERVAL` wall seconds have passed
  since the last, and once more, complete, at the end, and shard
  workers send them to the parent over the executor's pipes, each
  beside its task's ``(shard, segment)`` key.  A delta is a cumulative snapshot of one *task*'s six progress counters
  (:data:`COUNTERS`) and its metrics-registry dump, so its size does not
  grow with the task.  *Cumulative* is the load-bearing property: a lost
  or coalesced delta costs freshness, never correctness.  A delta is
  never what a scan's result is folded from — the executor's
  ``task_done`` payload is, and it is also what a checkpoint persists
  (:mod:`repro.framework.checkpoint`), so on resume a durable task's
  delta is rebuilt from it.  A delta carries progress only: which task
  it belongs to and who ran it are the plan's business.
* :class:`FleetView` — the fold.  It holds the executor's plan, one
  :class:`PlannedTask` per task (target, owner, worker, steal, resume),
  and the latest delta per task, and rebuilds both the fleet aggregate
  and per-*shard* rows (segments grouped back together) on demand, so
  the HTTP control plane and the fleet status line read one consistent
  snapshot without ever touching scan state.  A single-process scan
  feeds it directly (``ScanRunner(progress=fleet.update)``) as a view
  without a plan — one task of the view's own target — so
  ``/status.json`` has one shape however the scan runs.

The view is read-only over the scan: the HTTP server thread only calls
``status_snapshot()`` / ``prometheus()``, never mutates, which is what
keeps the server-on and server-off runs byte-identical.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from ..core.cache import CacheStats
from ..obs import MetricsRegistry

__all__ = [
    "DEFAULT_DELTA_INTERVAL",
    "DELTA_VERSION",
    "FleetView",
    "PlannedTask",
    "TelemetryDelta",
    "fold_metrics",
    "fold_ratios",
]

#: Wire version of :class:`TelemetryDelta`.  Bump when fields change
#: meaning; the fleet fold rejects versions it does not understand
#: rather than misread them.  v2: deltas are per ``(shard, segment)``
#: task and carry owner/worker/stolen_from/resumed scheduling state.
#: v3: the ``stats`` block and the ``cursor`` (always equal to ``done``)
#: are gone.  v4: progress only — the task key travels beside the delta
#: and the schedule (target, owner, worker, steal, resume) lives in the
#: :class:`FleetView` plan.
DELTA_VERSION = 4

#: A delta's progress counters, summed alike over a shard's segments and
#: over the fleet.
COUNTERS = ("done", "successes", "timeouts", "retries", "queries_sent", "in_flight")

#: Wall seconds between a scan's deltas, checked as each lookup
#: finishes.  The sequence of deltas differs run to run; nothing reads it
#: as a sequence (each is cumulative, the fold keeps the latest), and a
#: timer on the virtual clock would add events to the scan it reports.
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

    A delta says how far a task got, never which task it is or who ran
    it: the key travels beside it (the pipe message, the ``key`` of
    :meth:`FleetView.update`), and the schedule lives in the view's plan
    (:class:`PlannedTask`).
    """

    seq: int = 0
    done: int = 0
    successes: int = 0
    timeouts: int = 0
    retries: int = 0
    queries_sent: int = 0
    in_flight: int = 0
    #: Virtual-clock reading in the task's simulator at emission time.
    virtual_now: float = 0.0
    complete: bool = False
    metrics: list | None = None
    version: int = DELTA_VERSION


@dataclass(frozen=True)
class PlannedTask:
    """One task's entry in a :class:`FleetView` plan: how many names it
    holds and how the executor scheduled it."""

    #: Names assigned to the task (None: not known up front).
    target: int | None
    #: Worker index that nominally owns the task's shard.
    owner: int | None = None
    #: Worker index the task was dispatched to.
    worker: int | None = None
    #: When stolen: the owner the task was reassigned away from.
    stolen_from: int | None = None
    #: True when the task was replayed from a checkpoint journal.
    resumed: bool = False


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


#: The cache counters a hit rate is computed from.
_CACHE_PROBES = ("hits", "misses", "answer_hits", "answer_misses")


def fold_ratios(cache: Mapping[str, int] | None, cpu: list[float]) -> tuple[float | None, float]:
    """The two ratios a fold cannot sum, recomputed over it (the registry
    fold and the executor's report both call this): the hit rate of the
    summed ``cache`` counters by :attr:`CacheStats.hit_rate`'s formula,
    rounded as a scan reports it (None without any), and the mean
    ``cpu`` utilisation (each task models its own core pool)."""
    hit_rate = None
    if cache:
        hit_rate = round(CacheStats(**{n: cache.get(n, 0) for n in _CACHE_PROBES}).hit_rate, 4)
    return hit_rate, sum(cpu) / len(cpu) if cpu else 0.0


def fold_metrics(dumps: Iterable[tuple[int, list]], enabled: bool = True) -> MetricsRegistry:
    """Fold per-task registry dumps, ``(shard, dump)`` in canonical task
    order, into one fleet registry — the live view and the end-of-scan
    merge both fold through here.

    Counters, gauges and histograms add, with per-shard labels where
    :func:`_relabel_for` keeps them.  Two gauges are ratios, whose sum
    means nothing, so :func:`fold_ratios` recomputes them after the fold:
    ``cache.hit_rate`` from the merged counters, and
    ``engine.cpu_utilisation`` over the tasks that published it.
    """
    registry = MetricsRegistry(enabled=enabled)
    cpu = []
    for shard, dump in dumps:
        registry.merge_dump(dump, rename=_relabel_for(shard))
        cpu += [state for name, _, state in dump if name == "engine.cpu_utilisation"]
    merged = {metric.name: metric for metric in registry}
    cache = {n: merged[f"cache.{n}"].value for n in _CACHE_PROBES if f"cache.{n}" in merged}
    hit_rate, cpu_mean = fold_ratios(cache, cpu)
    if hit_rate is not None:
        merged["cache.hit_rate"].set(hit_rate)
    if "engine.cpu_utilisation" in merged:
        merged["engine.cpu_utilisation"].set(round(cpu_mean, 4))
    return registry


def _sum_counters(deltas: list[TelemetryDelta]) -> dict:
    """The :data:`COUNTERS` summed over ``deltas``."""
    return {name: sum(getattr(d, name) for d in deltas) for name in COUNTERS}


def _shard_group_row(
    shard: int, tasks: list[tuple[PlannedTask, TelemetryDelta | None]], elapsed: float
) -> dict:
    """One per-shard row of ``/status.json``: the shard's planned tasks
    and their latest deltas folded back together (a shard reads
    complete once every planned task has sent its complete delta)."""
    planned = [task for task, _ in tasks]
    deltas = [delta for _, delta in tasks if delta is not None]
    targets = [task.target for task in planned]
    counters = _sum_counters(deltas)
    segments_done = sum(1 for d in deltas if d.complete)
    stolen = [task.stolen_from for task in planned if task.stolen_from is not None]
    return {
        "shard": shard,
        "seq": max(d.seq for d in deltas),
        "target": None if None in targets else sum(targets),
        **counters,
        "virtual_now": round(max(d.virtual_now for d in deltas), 6),
        "rate_per_s": round(counters["done"] / elapsed, 2) if elapsed > 0 else 0.0,
        "complete": segments_done == len(planned),
        "segments": len(planned),
        "segments_done": segments_done,
        "owner": planned[0].owner,
        "workers": sorted({task.worker for task in planned if task.worker is not None}),
        "steals": len(stolen),
        "stolen_from": stolen[0] if stolen else None,
        "resumed": any(task.resumed for task in planned),
    }


class FleetView:
    """Thread-safe live state of a scan: the executor's plan, and the
    latest delta of each planned task.

    The executor's parent loop — or, for a single-process scan, the
    runner itself — feeds it (:meth:`update` per delta, :meth:`finish`
    at the end); the HTTP server and the fleet status line read
    consistent snapshots.  All aggregation happens at read time —
    updates are a dict store under a lock, so feeding the view never
    slows the merge loop.  The executor installs its plan
    (:meth:`set_plan`) before any task runs and records each dispatch
    (:meth:`assign`); a view without a plan is one task, ``(0, 0)``, of
    its own ``target``.  The fleet's shard count and target are the
    plan's: its distinct shards and the sum of its tasks' targets.
    """

    def __init__(
        self,
        run_info: dict | None = None,
        target: int | None = None,
        clock=time.monotonic,
    ):
        self._lock = threading.Lock()
        self._deltas: dict[tuple[int, int], TelemetryDelta] = {}
        #: the executor's plan, in canonical task order (None: no plan)
        self._plan: dict[tuple[int, int], PlannedTask] | None = None
        self.run_info = dict(run_info or {})
        #: names of the one task of a view without a plan
        self.target = target
        self._clock = clock
        self._started = clock()
        self.complete = False

    def set_plan(self, plan: dict[tuple[int, int], PlannedTask]) -> None:
        """Install the executor's task plan, one entry per ``(shard,
        segment)`` key."""
        with self._lock:
            self._plan = dict(sorted(plan.items()))

    def assign(self, key: tuple[int, int], worker: int, stolen_from: int | None = None) -> None:
        """Record one dispatch: task ``key`` went to ``worker``, stolen
        from owner ``stolen_from`` unless that is None."""
        with self._lock:
            self._plan[key] = replace(self._plan[key], worker=worker, stolen_from=stolen_from)

    def schedule(self) -> dict[tuple[int, int], PlannedTask]:
        """The plan as it stands, in canonical task order."""
        return self._read()[0]

    def update(self, delta: TelemetryDelta, key: tuple[int, int] = (0, 0)) -> None:
        """Fold in the latest delta of task ``key`` (latest-wins per
        task; by default the one task of a view without a plan)."""
        if delta.version != DELTA_VERSION:
            raise ValueError(
                f"telemetry delta version {delta.version} != supported {DELTA_VERSION}"
            )
        with self._lock:
            previous = self._deltas.get(key)
            if previous is None or delta.seq >= previous.seq:
                self._deltas[key] = delta

    def finish(self) -> None:
        """Mark the scan complete (post-scan scrapes see a final view)."""
        with self._lock:
            self.complete = True

    @property
    def elapsed(self) -> float:
        return max(0.0, self._clock() - self._started)

    def _read(self) -> tuple[dict, dict, bool]:
        """One consistent read: the plan, the latest delta of each
        planned task that has reported (in plan order), and whether the
        scan is complete."""
        with self._lock:
            plan = {(0, 0): PlannedTask(self.target)} if self._plan is None else dict(self._plan)
            deltas = {key: self._deltas[key] for key in plan if key in self._deltas}
            return plan, deltas, self.complete

    def _fold(self) -> tuple[dict, list[dict], dict, bool, float]:
        """The fleet counters, the per-shard rows of the shards that
        have reported, the plan's shape (shard count and target), whether
        the scan is complete, and the wall seconds elapsed."""
        plan, deltas, complete = self._read()
        elapsed = self.elapsed
        groups: dict[int, list[tuple[PlannedTask, TelemetryDelta | None]]] = {}
        for key, task in plan.items():
            groups.setdefault(key[0], []).append((task, deltas.get(key)))
        rows = [
            _shard_group_row(shard, tasks, elapsed)
            for shard, tasks in groups.items()
            if any(delta is not None for _, delta in tasks)
        ]
        counters = {
            **_sum_counters(list(deltas.values())),
            "shards_complete": sum(row["complete"] for row in rows),
            "steals": sum(1 for task in plan.values() if task.stolen_from is not None),
            "resumed_tasks": sum(1 for task in plan.values() if task.resumed),
        }
        targets = [task.target for task in plan.values()]
        shape = {"shards": len(groups), "target": None if None in targets else sum(targets)}
        return counters, rows, shape, complete, elapsed

    def fleet_counters(self) -> dict:
        """Cheap fleet totals (no metrics folding) — what the parent's
        periodic status line reads."""
        return self._fold()[0]

    def merged_registry(self) -> MetricsRegistry:
        """Live fleet registry: latest per-task dumps folded together
        by the same fold the end-of-scan merge uses."""
        _, deltas, _ = self._read()
        return fold_metrics(
            (key[0], delta.metrics) for key, delta in deltas.items() if delta.metrics
        )

    def prometheus(self) -> str:
        return self.merged_registry().render_prometheus()

    def status_snapshot(self) -> dict:
        """The ``/status.json`` document: run metadata, fleet totals,
        per-shard progress rows (segments folded back together), and the
        fault/health scopes."""
        from ..obs.status import estimate_eta

        fleet, rows, shape, complete, elapsed = self._fold()
        done, successes = fleet["done"], fleet["successes"]
        average_rate = done / elapsed if elapsed > 0 else 0.0
        eta = None if complete else estimate_eta(done, shape["target"], average_rate)
        tree = self.merged_registry().tree()
        fleet.update(
            target=shape["target"],
            success_rate=round(successes / done, 4) if done else 0.0,
            rate_per_s=round(average_rate, 2),
            eta_s=None if eta is None else round(eta, 1),
            virtual_now=max((row["virtual_now"] for row in rows), default=0.0),
            shards=shape["shards"],
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


"""Multi-process shard executor: true multi-core scans, durable and
work-stealing.

The paper's headline result is ZDNS saturating a 24-core server with
tens of thousands of goroutines.  A single CPython interpreter cannot —
the GIL serialises the simulator's pure-Python hot loop — so this module
supplies the missing layer: ``--processes N`` forks N workers and the
parent dispatches *tasks* to them over duplex pipes, merging the
per-task JSONL streams and telemetry into one fleet-wide result.

Design invariants, in order:

1. **Task decomposition is independent of process count and schedule.**
   The corpus is split into ``shards`` logical shards (``i % shards``,
   exactly as ZMap-style ``--shards/--shard`` manual sharding does);
   ``steal_quantum`` optionally pre-segments each shard's name list at
   fixed boundaries (``0, Q, 2Q, …``), giving ``(shard, segment)``
   tasks.  Every task is hermetic — its own simulated Internet (same
   ecosystem seed, so the same universe), its own network/driver/cache
   RNG streams derived via :func:`repro.net.derive_seed` — so the
   merged bytes are a pure function of ``(seed, shards, quantum)``:
   identical for any process count *and any steal schedule*.  Without a
   quantum each shard is one task with the same seed streams as ever,
   so default output is unchanged.
2. **Merged output is order-normalized.**  Rows are emitted in canonical
   ``(shard, segment)`` order, each task in its deterministic completion
   order: the head task streams live while later tasks buffer, and each
   task's stream is flushed the moment every earlier task has finished.
   The merged file equals the concatenation of the per-shard files a
   manual ``--shards S --shard k`` fleet would have produced.
3. **Telemetry merges, not samples.**  ``ScanStats`` fold together
   (status counts, completion times, retries — each task's travel once,
   in its ``task_done`` payload), metrics registries merge
   (counter/gauge sums, histogram bucket adds, ratio gauges recomputed
   — see :func:`~repro.framework.telemetry.fold_metrics`), cache,
   DNSSEC and differential-oracle tallies sum (each task samples its own
   lookups 1, K+1, …), and fault-injection / server-health scopes are
   relabelled per shard (``faults.* -> faults.shardK.*``) so a
   post-mortem can still tell which slice of the fleet saw the trouble.
4. **Scheduling is dynamic; bytes are not.**  Workers *pull*: each sends
   ``ready`` and the parent hands it the lowest pending segment of a
   shard it owns (``shard % processes``), or — when its own shards are
   drained — *steals* the tail segment of the shard with the most
   pending work.  Stealing moves wall-clock, never bytes (invariant 1),
   and every steal boundary is a task boundary, so stealing composes
   with checkpoint/resume.
5. **Durability is at task granularity.**  With ``checkpoint_dir`` the
   parent spools each task's row/span bytes and journals its mergeable
   payload on completion, then rewrites ``state.json`` to match — see
   :mod:`repro.framework.checkpoint`.  ``resume=True`` validates
   the journal against the scan's config fingerprint, replays durable
   tasks from the spool byte-for-byte, re-runs only the incomplete ones
   with re-derived RNG streams, and folds stats/metrics in canonical
   task order — an interrupted-then-resumed scan is byte-identical to
   an uninterrupted one (rows, stats, metrics, spans).

Workers stream line batches over the pipes as they complete, so the
parent overlaps merging with scanning; a final per-task payload carries
the mergeable stats/metrics state.  The parent installs its task plan in
a :class:`~repro.framework.telemetry.FleetView` before any worker forks
and records each dispatch (worker, steal) there: the view is the one
record of the schedule, and the report's steals and resumed tasks read
it.  When a fleet view or the status line asks for them, workers also
stream :class:`~repro.framework.telemetry.TelemetryDelta` progress
snapshots (polled on the wall clock as each lookup finishes), each
beside its task key, and the parent folds them into the view; a
checkpoint alone streams none.  The authoritative end-of-scan merge
comes only from the final ``task_done`` payloads, so the live path can
never perturb the determinism contract.
A task's lines belong to one of two *streams* — ``rows`` (the output
file) and ``spans`` (``--spans-file``, shard-tagged) — and every stage
of the merge (worker sink, pipe message, parent buffer, checkpoint
spool, journal replay) handles both through one code path keyed by
stream.
``fork`` is preferred (the corpus is inherited copy-on-write); the spec
is picklable, so ``spawn`` platforms work too, just with a higher
start-up cost.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, TextIO

from ..core.config import at_least
from ..net import derive_seed
from ..obs.status import StatusLine
from .io import DEFAULT_LOGICAL_SHARDS, encode_row, names_digest, shard
from .runner import ScanConfig, ScanReport, ScanRunner
from .stats import ScanStats
from .telemetry import FleetView, PlannedTask, TelemetryDelta, fold_metrics, fold_ratios

__all__ = [
    "DEFAULT_LOGICAL_SHARDS",
    "ParallelReport",
    "check_executor",
    "run_parallel_scan",
]

#: Rows per pipe message.  Large enough to amortise pickling, small
#: enough that the parent's merge (and status line) stays live.
_ROW_BATCH = 256


@dataclass(frozen=True)
class _ShardTask:
    """One hermetic unit of work: a contiguous slice of one shard.

    ``start``/``stop`` index into the shard's own name list (after the
    ``i % shards`` partition).  A whole-shard task (``segments == 1``)
    derives the exact RNG streams the pre-quantum executor used, so the
    default decomposition's bytes are unchanged; segment tasks fold the
    slice start into the derivation so every segment is an independent,
    reproducible sub-scan.
    """

    shard: int
    segment: int
    start: int
    stop: int
    segments: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.shard, self.segment)

    def seed_streams(self) -> tuple:
        if self.segments == 1:
            return (self.shard,)
        return (self.shard, "seg", self.start)


def _plan_tasks(shard_sizes: list[int], quantum: int | None) -> list[_ShardTask]:
    """The canonical task list: shards in order, segments in order."""
    tasks = []
    for shard_index, size in enumerate(shard_sizes):
        if quantum is None or quantum >= size or size == 0:
            tasks.append(_ShardTask(shard_index, 0, 0, size, 1))
            continue
        starts = list(range(0, size, quantum))
        for segment, start in enumerate(starts):
            tasks.append(
                _ShardTask(
                    shard_index, segment, start, min(start + quantum, size), len(starts)
                )
            )
    return tasks


@dataclass
class _ShardSpec:
    """Everything a worker needs to run tasks (picklable)."""

    names: list[str]
    shards: int
    #: The config every task runs, seed aside: ``metrics`` as the caller
    #: set it, ``collect_spans`` iff the parent merges a spans file, no
    #: ``status_interval`` (the parent emits the fleet-wide line).
    config: ScanConfig
    wire_mode: str = "always"
    fault_plan: str | None = None
    chaos_seed: int | None = None
    add_timestamp: bool = True
    #: Stream telemetry deltas (a fleet view or the parent's status line
    #: reads them).
    stream_deltas: bool = False


class _PipeSink:
    """Worker-side sink for one line stream of one task: encodes each
    row and ships the lines in ``("lines", key, stream, lines)`` batches.

    Encoding happens in the worker — that is the point of the exercise:
    JSON serialisation parallelises across cores instead of serialising
    in the parent.  The ``spans`` stream tags each span row with its
    shard, so a merged spans file is the concatenation of the per-shard
    spans files, shard 0 first.
    """

    def __init__(self, conn, key: tuple[int, int], stream: str, add_timestamp: bool = False):
        self._conn = conn
        self._key = key
        self._stream = stream
        self._add_timestamp = add_timestamp
        self._lines: list[str] = []

    def __call__(self, row: dict) -> None:
        if self._stream == "spans":
            row["shard"] = self._key[0]
        self._lines.append(encode_row(row, self._add_timestamp))
        if len(self._lines) >= _ROW_BATCH:
            self.flush()

    def flush(self) -> None:
        if self._lines:
            self._conn.send(("lines", self._key, self._stream, self._lines))
            self._lines = []


def _run_task(task: _ShardTask, spec: _ShardSpec, conn) -> None:
    """One hermetic sub-scan: own Internet, own RNG streams, own cache."""
    from ..ecosystem import EcosystemParams, build_internet

    base_seed = spec.config.seed
    streams = task.seed_streams()
    chaos_base = spec.chaos_seed if spec.chaos_seed is not None else base_seed
    internet = build_internet(
        params=EcosystemParams(seed=base_seed),
        wire_mode=spec.wire_mode,
        net_seed=derive_seed(base_seed, "net", *streams),
        # workers read the plan from its spec string, not a pickled plan
        faults=spec.fault_plan,
        chaos_seed=derive_seed(chaos_base, "chaos", *streams),
    )

    config = replace(spec.config, seed=derive_seed(base_seed, "scan", *streams))
    sink = _PipeSink(conn, task.key, "rows", spec.add_timestamp)
    span_sink = _PipeSink(conn, task.key, "spans") if config.collect_spans else None
    sinks = [sink] if span_sink is None else [sink, span_sink]
    shard_names = list(shard(spec.names, spec.shards, task.shard))
    task_names = shard_names[task.start:task.stop]

    def send_delta(delta: TelemetryDelta) -> None:
        if delta.complete:
            # flush row/span batches *before* the complete delta, so the
            # delta always reaches the parent ahead of task_done
            for each in sinks:
                each.flush()
        conn.send(("delta", task.key, delta))

    report = ScanRunner(
        internet,
        config,
        sink=sink,
        span_sink=span_sink,
        progress=send_delta if spec.stream_deltas else None,
    ).run(task_names)
    for each in sinks:
        each.flush()
    registry = report.registry
    payload = {
        "stats": report.stats.to_state(),
        "metrics": registry.dump() if registry is not None else [],
        "cache": report.cache_stats,
        "cpu_utilisation": report.cpu_utilisation,
        "dnssec": report.dnssec_stats,
    }
    if report.oracle_stats is not None:  # so a non-oracle journal resumes on older trees
        payload["oracle"] = report.oracle_stats
    conn.send(("task_done", task.key, payload))


def _worker_main(worker_index: int, spec: _ShardSpec, conn, inherited=()) -> None:
    """Worker process entry point: pull tasks until the parent says stop.

    The worker is stateless between tasks — each task builds its own
    simulated Internet — which is what makes dynamic dispatch and
    stealing free of correctness consequences.

    ``inherited`` holds parent-side pipe ends this fork inherited (its
    own, plus earlier workers').  They MUST be closed here: a leaked
    parent end keeps a sibling's pipe open after the parent dies, so no
    worker would ever see EOF and orphans would hang forever — exactly
    the failure mode the durability suite's parent-kill tests exercise.
    """
    for extra in inherited:
        extra.close()
    try:
        while True:
            conn.send(("ready", worker_index, None))
            directive = conn.recv()
            if not directive or directive[0] != "task":
                break
            _run_task(directive[1], spec, conn)
    except EOFError:  # parent went away: nothing left to report to
        pass
    except BaseException:
        import traceback  # the failure path only, as multiprocessing's own bootstrap does

        try:
            conn.send(("error", worker_index, traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    else:
        try:
            conn.send(("done", worker_index, None))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


@dataclass
class ParallelReport(ScanReport):
    """Fleet-wide outcome of a multi-process scan: the merged
    :class:`~repro.framework.runner.ScanReport` (``cpu_utilisation`` is
    the mean across tasks — each task models its own core pool; the
    executor never profiles) plus the executor's own shape: per-shard
    summaries, the process/shard/task topology, and the durability
    outcome (steals, resumed tasks).
    """

    shard_summaries: list[dict] = field(default_factory=list)
    processes: int = 0
    shards: int = 0
    #: Total tasks in the decomposition (== shards unless steal_quantum
    #: segmented some shards).
    tasks: int = 0
    rows_written: int = 0
    #: Shard-tagged span rows merged into the spans file.
    spans_written: int = 0
    #: Tasks handed to a worker other than their shard's owner, and
    #: each steal in canonical task order (both read from the plan).
    steals: int = 0
    steal_events: list[dict] = field(default_factory=list)
    #: Tasks replayed from a checkpoint journal instead of re-run.
    resumed_tasks: int = 0

    def summary(self) -> dict:
        """A single-process run's summary plus an ``mp`` topology block.

        Deliberately silent about steals and resume: the summary (like
        the rows, stats, and metrics) must be byte-identical whether the
        scan ran straight through, was stolen from, or was resumed.
        """
        summary = super().summary()
        summary["mp"] = {"processes": self.processes, "shards": self.shards}
        return summary


def _add_counts(totals: dict | None, counts: dict | None) -> dict | None:
    """Key-wise sum of one task's tallies into the fleet's (``None``:
    no task has kept any yet)."""
    if counts is None:
        return totals
    totals = {} if totals is None else totals
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value
    return totals


def _mp_context():
    """Prefer ``fork`` (copy-on-write corpus, no re-import); fall back
    to the platform default (``spawn`` on macOS/Windows — the spec is
    picklable, so it works, just slower to start).  ``multiprocessing``
    loads here, when a scan forks, not with this module: an in-process
    scan never pays for it."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def check_executor(
    *,
    processes: int,
    shards: int | None = None,
    steal_quantum: int | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> None:
    """The shard executor's own argument rules, written once:
    :func:`run_parallel_scan` checks its arguments here, and ``pyzdns``
    its flags before it opens any output.  Raises ``ValueError``."""
    at_least("processes", processes, 1)
    at_least("shards", shards, 1)
    at_least("steal_quantum", steal_quantum, 1)
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")


def run_parallel_scan(
    names: Iterable[str],
    config: ScanConfig,
    *,
    processes: int,
    out: TextIO,
    shards: int | None = None,
    wire_mode: str = "always",
    status_stream: TextIO | None = None,
    fault_plan: str | None = None,
    chaos_seed: int | None = None,
    add_timestamp: bool = True,
    span_out: TextIO | None = None,
    fleet_view: FleetView | None = None,
    steal_quantum: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_fsync: str = "always",
    resume: bool = False,
) -> ParallelReport:
    """Run one scan across ``processes`` OS processes.

    ``names`` is materialised once and decomposed into ``shards``
    logical shards (default :data:`DEFAULT_LOGICAL_SHARDS`), each
    optionally pre-segmented every ``steal_quantum`` names into
    independent tasks.  Workers pull tasks dynamically — owners first,
    then stealing from stragglers — and merged rows are written to
    ``out`` in canonical task order (see the module docstring for why
    that order is the normal form).  Given ``span_out``, task-tagged
    resolution spans merge into it with the same ordered merge.
    ``config.metrics`` keeps the merged registry; ``config.status_interval``
    prints the parent's fleet-wide status line at most every that many
    wall seconds, polled as worker messages arrive (a busy worker sends
    a delta at least every ``DEFAULT_DELTA_INTERVAL``).  ``fleet_view``
    (when given) receives streamed telemetry deltas — hang the HTTP
    control plane off it; the fleet status line reads the same view.

    ``checkpoint_dir`` journals every completed task and rewrites
    ``state.json`` after each (fsync per ``checkpoint_fsync``);
    ``resume=True`` loads that journal, replays durable tasks
    byte-for-byte and re-runs only the rest.

    Determinism contract: for a fixed ``(config.seed, shards,
    steal_quantum)`` the merged output bytes, merged stats, and merged
    metrics are identical for *any* process count, steal schedule, or
    interrupt/resume history — those are purely wall-clock knobs.
    """
    check_executor(
        processes=processes,
        shards=shards,
        steal_quantum=steal_quantum,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    shards = DEFAULT_LOGICAL_SHARDS if shards is None else shards
    names = list(names)
    total_names = len(names)
    shard_sizes = [len(range(k, total_names, shards)) for k in range(shards)]
    tasks = _plan_tasks(shard_sizes, steal_quantum)
    order = [task.key for task in tasks]
    #: topology clamp — also what the mp.processes gauge and the summary
    #: report, *independent* of how many workers a resume actually forks
    #: (a resumed run must publish the same metrics as an uninterrupted
    #: one)
    processes = min(processes, len(tasks))

    spec = _ShardSpec(
        names=names,
        shards=shards,
        config=replace(config, status_interval=None, collect_spans=span_out is not None),
        wire_mode=wire_mode,
        fault_plan=fault_plan,
        chaos_seed=chaos_seed,
        add_timestamp=add_timestamp,
        # deltas feed the fleet view and the parent status line; without
        # either the workers stream none
        stream_deltas=fleet_view is not None or config.status_interval is not None,
    )

    # ---- durability: journal / resume -------------------------------------
    writer = None
    journal = None
    restored: dict[tuple[int, int], dict] = {}
    if checkpoint_dir is not None:
        from .checkpoint import CheckpointJournal, CheckpointWriter, config_fingerprint

        fingerprint = config_fingerprint(
            config=spec.config,
            shards=shards,
            steal_quantum=steal_quantum,
            wire_mode=wire_mode,
            fault_plan=fault_plan,
            chaos_seed=chaos_seed,
            add_timestamp=add_timestamp,
            names_digest=names_digest(names),
        )
        plan = {
            "shards": shards,
            "quantum": steal_quantum,
            "names": total_names,
            "tasks": [[t.shard, t.segment, t.start, t.stop] for t in tasks],
        }
        if resume:
            journal = CheckpointJournal.load(checkpoint_dir)
            journal.validate(fingerprint=fingerprint, plan=plan)
            restored = journal.tasks
        writer = CheckpointWriter(
            checkpoint_dir,
            fingerprint=fingerprint,
            plan=plan,
            fsync=checkpoint_fsync,
            resume=resume,
            restored=restored,
        )

    # the plan is the one record of the schedule: installed before any
    # worker forks, each dispatch recorded in it as it happens
    fleet = fleet_view if fleet_view is not None else FleetView()
    fleet.set_plan(
        {
            task.key: PlannedTask(
                target=task.stop - task.start,
                owner=task.shard % processes,
                resumed=task.key in restored,
            )
            for task in tasks
        }
    )
    if resume:
        fleet.run_info["resumed_from"] = os.fspath(checkpoint_dir)
        fleet.run_info["resumed_tasks"] = len(restored)
    if spec.stream_deltas:
        # a durable task's final delta, rebuilt from its payload: the view
        # (and the status line's done counter) starts where the journal
        # left off (nothing reads the view's deltas unless they stream)
        for key, record in restored.items():
            payload = record["payload"]
            stats = ScanStats.from_state(payload["stats"])
            fleet.update(
                TelemetryDelta(
                    **stats.counters(),
                    virtual_now=stats.finished_at,
                    complete=True,
                    metrics=payload["metrics"],
                ),
                key,
            )

    pending: dict[int, deque[_ShardTask]] = {
        s: deque(t for t in tasks if t.shard == s and t.key not in restored)
        for s in range(shards)
    }
    live_tasks = sum(len(queue) for queue in pending.values())
    spawn = min(processes, live_tasks)

    ctx = _mp_context()
    workers, connections = [], []
    for index in range(spawn):
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            # every parent-side end alive at this fork rides along so the
            # child can close its inherited copies (see _worker_main)
            args=(index, spec, child_conn, tuple(connections) + (parent_conn,)),
            daemon=True,
        )
        process.start()
        child_conn.close()  # each end belongs to exactly one side
        workers.append(process)
        connections.append(parent_conn)

    # one output per line stream; a stream's lines for a task that is
    # not yet the head of the canonical order wait in its buffer
    outputs = {"rows": out} if span_out is None else {"rows": out, "spans": span_out}
    buffers: dict[str, dict[tuple[int, int], list[str]]] = {stream: {} for stream in outputs}
    written = {"rows": 0, "spans": 0}
    payloads: dict[tuple[int, int], dict] = {
        key: record["payload"] for key, record in restored.items()
    }
    done_keys: set[tuple[int, int]] = set(restored)
    errors: list[tuple[int, str]] = []
    flush_index = 0
    status = None
    if config.status_interval is not None:
        status = StatusLine(
            config.status_interval, fleet.fleet_counters, stream=status_stream, target=total_names
        )

    def advance() -> None:
        """Flush every consecutively finished task in canonical order,
        then let the new head task's buffer catch up so its subsequent
        batches stream directly."""
        nonlocal flush_index
        while flush_index < len(order) and order[flush_index] in done_keys:
            key = order[flush_index]
            for stream, handle in outputs.items():
                if key in restored:
                    lines = journal.lines_for(stream, key)
                    written[stream] += len(lines)
                else:
                    lines = buffers[stream].pop(key, ())
                handle.writelines(lines)
            flush_index += 1
        if flush_index < len(order):
            for stream, handle in outputs.items():
                handle.writelines(buffers[stream].pop(order[flush_index], ()))

    def next_task(worker: int) -> tuple[_ShardTask | None, int | None]:
        """Dispatch: lowest pending segment of an owned shard, else
        steal the *tail* segment of the shard with the most pending work
        (the straggler keeps its head, the thief takes the far end — a
        deterministic cursor boundary, because segments are pre-cut)."""
        for shard_index in range(worker, shards, processes):
            if pending[shard_index]:
                return pending[shard_index].popleft(), None
        victims = [s for s in range(shards) if pending[s]]
        if not victims:
            return None, None
        victim = max(victims, key=lambda s: (len(pending[s]), s))
        return pending[victim].pop(), victim % processes

    from multiprocessing.connection import wait  # loaded with the fork (`_mp_context`)

    advance()  # restored prefix replays immediately; output streams from it
    try:
        live = set(connections)
        while live:
            for conn in wait(list(live)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # a SIGKILLed worker closes mid-protocol: drop it;
                    # its unfinished assignment surfaces at the end
                    live.discard(conn)
                    continue
                kind = message[0]
                if kind == "ready":
                    _, worker_index, _ = message
                    task, stolen_from = next_task(worker_index)
                    if task is None:
                        conn.send(("stop", None))
                    else:
                        fleet.assign(task.key, worker_index, stolen_from)
                        conn.send(("task", task))
                elif kind == "lines":
                    _, key, stream, lines = message
                    written[stream] += len(lines)
                    if writer is not None:
                        writer.spool(stream, key, lines)
                    if flush_index < len(order) and key == order[flush_index]:
                        outputs[stream].writelines(lines)
                    else:
                        buffers[stream].setdefault(key, []).extend(lines)
                elif kind == "delta":
                    _, key, delta = message
                    fleet.update(delta, key)
                elif kind == "task_done":
                    _, key, payload = message
                    payloads[key] = payload
                    done_keys.add(key)
                    if writer is not None:
                        writer.task_done(key, payload)
                    advance()
                elif kind == "done":
                    live.discard(conn)
                elif kind == "error":
                    _, worker_index, formatted = message
                    errors.append((worker_index, formatted))
                    live.discard(conn)
            if status is not None:
                status.poll()
        for process in workers:
            process.join()
    finally:
        for process in workers:
            if process.is_alive():  # pragma: no cover - error unwind only
                process.terminate()
                process.join()
        if writer is not None:
            writer.finalize(complete=len(done_keys) == len(order))

    if errors:
        details = "\n\n".join(
            f"[worker {index}]\n{formatted}" for index, formatted in errors
        )
        raise RuntimeError(f"parallel scan worker(s) crashed:\n{details}")
    if len(done_keys) != len(order):
        missing = [key for key in order if key not in done_keys]
        hint = (
            f" (checkpoint journal at {checkpoint_dir} — resume to continue)"
            if checkpoint_dir is not None
            else ""
        )
        raise RuntimeError(
            f"workers exited without finishing tasks {missing}{hint}"
        )
    advance()
    fleet.finish()
    if status is not None:
        status.finish()

    # ---- fold the fleet together ------------------------------------------
    # canonical task order everywhere: a resumed run folds journal
    # payloads and live payloads through the identical sequence, so the
    # merged stats/metrics are byte-identical to an uninterrupted run's
    merged_stats = ScanStats()
    per_shard_stats: dict[int, ScanStats] = {}
    cache_stats = dnssec_stats = oracle_stats = None
    for task in tasks:
        payload = payloads[task.key]
        task_stats = ScanStats.from_state(payload["stats"])
        merged_stats.merge(task_stats)
        per_shard_stats.setdefault(task.shard, ScanStats()).merge(task_stats)
        cache_stats = _add_counts(cache_stats, payload["cache"])
        dnssec_stats = _add_counts(dnssec_stats, payload["dnssec"])
        oracle_stats = _add_counts(oracle_stats, payload.get("oracle"))
    registry = None
    if config.metrics:
        registry = fold_metrics((task.shard, payloads[task.key]["metrics"]) for task in tasks)
    shard_summaries = [
        {
            "shard": shard_index,
            "total": shard_stats.total,
            "successes": shard_stats.successes,
            "duration_s": round(shard_stats.duration, 3),
            "queries_sent": shard_stats.queries_sent,
        }
        for shard_index, shard_stats in sorted(per_shard_stats.items())
    ]
    hit_rate, cpu_utilisation = fold_ratios(
        cache_stats, [payloads[task.key]["cpu_utilisation"] for task in tasks]
    )
    if cache_stats is not None:
        cache_stats["hit_rate"] = hit_rate
    if registry is not None:
        mp_scope = registry.scope("mp")
        mp_scope.gauge("processes").set(processes)
        mp_scope.gauge("shards").set(shards)
        mp_scope.gauge("rows_merged").set(written["rows"])

    schedule = fleet.schedule()
    steal_events = [
        {"shard": t.shard, "segment": t.segment, "start": t.start, "stop": t.stop,
         "from": schedule[t.key].stolen_from, "to": schedule[t.key].worker}
        for t in tasks
        if schedule[t.key].stolen_from is not None
    ]
    return ParallelReport(
        stats=merged_stats,
        registry=registry,
        metrics=registry.snapshot() if registry is not None else {},
        cache_stats=cache_stats,
        cpu_utilisation=cpu_utilisation,
        dnssec_stats=dnssec_stats,
        oracle_stats=oracle_stats,
        shard_summaries=shard_summaries,
        processes=processes,
        shards=shards,
        tasks=len(tasks),
        rows_written=written["rows"],
        spans_written=written["spans"],
        steals=len(steal_events),
        steal_events=steal_events,
        resumed_tasks=sum(1 for entry in schedule.values() if entry.resumed),
    )

"""Durable scan state: the ``--checkpoint-dir`` journal and exact resume.

A billion-name scan must survive crashes.  The shard executor
(:mod:`repro.framework.parallel`) decomposes a scan into hermetic
*tasks* — ``(shard, segment)`` slices of the corpus, each resolved in
its own simulated Internet with RNG streams derived from the scan seed —
so the unit of durability is the task: once a task's output rows are on
disk and its mergeable payload is journaled, a future run never needs to
repeat it.  This module owns that on-disk state.

Layout of a checkpoint directory::

    journal.jsonl          append-only WAL (versioned header first)
    state.json             atomic (tmp + rename) operator snapshot: the
                           journaled tasks and their summed counters,
                           rewritten after each task record
    spool/shard-K.seg-S.rows    raw merged-output bytes of one task
    spool/shard-K.seg-S.spans   raw span bytes of one task (``--spans-file``)

``journal.jsonl`` records, one JSON object per line:

* ``header`` — journal version, the scan *config fingerprint* (see
  :func:`config_fingerprint`), and the task plan.  Written first (and
  fsynced under ``always``); a journal whose header cannot be read is
  rejected whole.
* ``task`` — one completed task: spool byte/line counts (the spool is
  flushed and fsynced *before* this record, so a record implies a valid
  spool) and the task's mergeable ``payload``: one ``ScanStats`` state,
  one metrics dump, cache counters, CPU utilisation and DNSSEC tallies
  (and, only for an ``--oracle-check`` scan, the oracle's tallies).
  On resume the fleet view's delta for the task is rebuilt from it.
  (Journals written before the delta lost its ``stats`` block also hold
  the task's final delta under ``delta``; loading ignores it.)
* ``resume`` — appended when a later session resumes this journal.

Failure model: the journal is append-only, so the only corruption a
crash can produce is a torn final line — :meth:`CheckpointJournal.load`
tolerates exactly that (the torn record is discarded) and treats any
*earlier* unparsable line, a bad header, a ``task`` record with a
missing or unknown key, or a spool shorter than its journaled byte
count as real corruption (:class:`CheckpointError`).
The fsync policy trades durability for speed: ``always`` fsyncs the
journal's header (or ``resume`` record), and spool, journal and
``state.json`` at every task completion; ``never`` leaves all flushing
to the OS.

Exact resume leans on determinism, not on snapshotting simulator
internals: completed tasks are *replayed from the spool* byte-for-byte,
incomplete tasks are *re-run from scratch* with their derived RNG
streams (a task is hermetic, so the rerun is byte-identical to the lost
first attempt), and the merge fold walks tasks in canonical order — so
an interrupted-then-resumed scan emits the same rows, stats, metrics,
and spans as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import fields
from typing import Iterable

from .stats import ScanStats

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointWriter",
    "JOURNAL_VERSION",
    "config_fingerprint",
    "restore_metrics_dump",
]

#: Version of the journal format.  Bump when record shapes change;
#: readers reject versions they do not understand.
JOURNAL_VERSION = 1

JOURNAL_NAME = "journal.jsonl"
STATE_NAME = "state.json"
SPOOL_DIR = "spool"

#: Accepted ``--checkpoint-fsync`` policies.
FSYNC_POLICIES = ("always", "never")

#: The line streams a task spools, each with its ``task`` record keys
#: (line count, byte count).  A stream's name is its spool file suffix.
STREAMS = {"rows": ("rows", "row_bytes"), "spans": ("spans", "span_bytes")}

#: The keys of a ``task`` record's payload (what a shard worker's
#: ``task_done`` message carries); an oracle task's also holds ``oracle``.
PAYLOAD_KEYS = ("stats", "metrics", "cache", "cpu_utilisation", "dnssec")


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot be used: missing, corrupt,
    truncated, or written by an incompatible scan configuration."""


def config_fingerprint(
    *,
    config,
    shards: int,
    steal_quantum: int | None,
    wire_mode: str,
    fault_plan: str | None,
    chaos_seed: int | None,
    add_timestamp: bool,
    names_digest: str,
) -> str:
    """SHA-256 fingerprint of everything that shapes a scan's bytes.

    Two runs with equal fingerprints produce byte-identical merged
    output — that is the property resume validation leans on.  The
    fingerprint covers the full :class:`ScanConfig` as the tasks run it
    (so whether metrics and spans are collected; minus
    ``status_interval``, which only affects stderr), the shard/segment
    topology, the fault plan, and a digest of the input names.
    Deliberately *not* covered: the process count (a pure wall-clock
    knob), the checkpoint fsync policy, and what the config leaves out
    of its equality (its span tracer and health tracker).
    """
    material = {f.name: getattr(config, f.name) for f in fields(config) if f.compare}
    material.pop("status_interval", None)
    material["__topology__"] = {
        "shards": shards,
        "steal_quantum": steal_quantum,
        "wire_mode": wire_mode,
        "fault_plan": fault_plan,
        "chaos_seed": chaos_seed,
        "add_timestamp": add_timestamp,
        "names": names_digest,
    }
    canonical = json.dumps(
        material, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def restore_metrics_dump(dump: Iterable) -> list[tuple]:
    """Undo the JSON round-trip on a ``MetricsRegistry.dump()``.

    JSON turns the dump's tuples into lists and — the part that would
    silently corrupt a merge — histogram bucket keys from ints into
    strings.  ``merge_dump`` adds buckets keyed by exact value, so a
    restored dump must match the live format bit-for-bit.
    """
    restored = []
    for entry in dump:
        name, kind, state = entry
        if kind == "histogram":
            state = dict(state)
            state["buckets"] = {
                int(index): count for index, count in state["buckets"].items()
            }
        restored.append((name, kind, state))
    return restored


def _restore_task_record(record: dict) -> tuple[tuple[int, int], dict]:
    """The task key and the record, its payload checked and its metrics
    dump restored.  The loader turns the exception a malformed record
    raises into a :class:`CheckpointError`."""
    shard, segment = record["key"]
    key = (int(shard), int(segment))
    payload = record["payload"]
    if not isinstance(payload, dict) or set(payload) - {"oracle"} != set(PAYLOAD_KEYS):
        keys = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        raise ValueError(f"payload keys {keys} != {sorted(PAYLOAD_KEYS)}")
    ScanStats.from_state(payload["stats"])
    record = dict(record, payload=dict(payload, metrics=restore_metrics_dump(payload["metrics"])))
    record.pop("delta", None)  # a journal from before v3 deltas: the payload holds its counts
    return key, record


def _spool_name(key: tuple[int, int], stream: str) -> str:
    return f"shard-{key[0]}.seg-{key[1]}.{stream}"


class CheckpointWriter:
    """Parent-side journal writer for one executor session.

    The *parent* merge loop is the only writer — workers never touch the
    checkpoint directory, so a SIGKILLed worker cannot corrupt it.  Each
    stream (:data:`STREAMS`) spools as its pipe batches arrive; a task
    becomes durable at :meth:`task_done` (spool flush + fsync, then the
    journal record), which then rewrites ``state.json`` atomically: every
    journaled task (a resumed session is seeded with the ``restored``
    records) and their counters, summed from the payloads — what is
    durable, not what is in flight.
    """

    def __init__(
        self,
        directory: str,
        *,
        fingerprint: str,
        plan: dict,
        fsync: str = "always",
        resume: bool = False,
        restored: dict | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}, not {fsync!r}")
        self.directory = directory
        self.fingerprint = fingerprint
        self.plan = plan
        self._fsync = fsync
        journal_path = os.path.join(directory, JOURNAL_NAME)
        if not resume and os.path.exists(journal_path):
            raise CheckpointError(
                f"checkpoint directory already holds a journal: {journal_path} "
                "(resume it, or point --checkpoint-dir at a fresh directory)"
            )
        os.makedirs(os.path.join(directory, SPOOL_DIR), exist_ok=True)
        self._journal = open(journal_path, "a", encoding="utf-8")
        #: open spool handles by (task key, stream); first write in a
        #: session truncates (an incomplete task's stale spool must not
        #: survive the rerun)
        self._spools: dict[tuple[tuple[int, int], str], object] = {}
        self._counts: dict[tuple[int, int], dict] = {}
        self._done: set[tuple[int, int]] = set()
        self._counters: dict[str, int] = {}
        for key, record in (restored or {}).items():
            self._journaled(key, record["payload"])
        self._closed = False
        if resume:
            self._append({"kind": "resume", "time": time.time()})
        else:
            self._append(
                {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "fingerprint": fingerprint,
                    "plan": plan,
                    "time": time.time(),
                }
            )

    # -- internals ----------------------------------------------------------

    def _append(self, record: dict) -> None:
        self._journal.write(json.dumps(record, sort_keys=True) + "\n")
        self._journal.flush()
        if self._fsync == "always":
            os.fsync(self._journal.fileno())

    def _journaled(self, key: tuple[int, int], payload: dict) -> None:
        self._done.add(key)
        for name, value in ScanStats.from_state(payload["stats"]).counters().items():
            self._counters[name] = self._counters.get(name, 0) + value

    def _count(self, key: tuple[int, int]) -> dict:
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = {name: 0 for pair in STREAMS.values() for name in pair}
        return counts

    # -- streaming input from the merge loop --------------------------------

    def spool(self, stream: str, key: tuple[int, int], lines: list[str]) -> None:
        """Append one batch of a task's ``rows`` or ``spans`` lines."""
        data = "".join(lines).encode("utf-8")
        handle = self._spools.get((key, stream))
        if handle is None:
            path = os.path.join(self.directory, SPOOL_DIR, _spool_name(key, stream))
            handle = self._spools[(key, stream)] = open(path, "wb")
        handle.write(data)
        counts = self._count(key)
        lines_key, bytes_key = STREAMS[stream]
        counts[lines_key] += len(lines)
        counts[bytes_key] += len(data)

    # -- durability points --------------------------------------------------

    def task_done(self, key: tuple[int, int], payload: dict) -> None:
        """Make one finished task durable.

        Order matters: spool flush (+fsync under ``always``) *before*
        the journal record, so a ``task`` record is a guarantee that the
        spool bytes it counts exist; ``state.json`` follows the record.
        """
        sync = self._fsync == "always"
        for stream in STREAMS:
            handle = self._spools.get((key, stream))
            if handle is not None:
                handle.flush()
                if sync:
                    os.fsync(handle.fileno())
        counts = self._count(key)
        self._append(
            {
                "kind": "task",
                "key": list(key),
                **counts,
                "payload": payload,
            }
        )
        self._journaled(key, payload)
        self._write_state(complete=False)

    def _write_state(self, *, complete: bool) -> None:
        """Write ``state.json`` beside itself, then rename it into place,
        so readers never observe a half-written file."""
        state = {
            "version": JOURNAL_VERSION,
            "fingerprint": self.fingerprint,
            "tasks_planned": len(self.plan.get("tasks", ())),
            "tasks_done": sorted(list(key) for key in self._done),
            "complete": complete,
            "counters": dict(self._counters),
            "updated": time.time(),
        }
        path = os.path.join(self.directory, STATE_NAME)
        with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True)
            handle.flush()
            if self._fsync == "always":
                os.fsync(handle.fileno())
        os.replace(f"{path}.tmp", path)

    def finalize(self, *, complete: bool) -> None:
        """Close everything; safe to call once, in any exit path — an
        incomplete journal is exactly what resume consumes.  Nothing is
        left to sync: under ``always`` each record and finished task's
        spool was synced as it became durable, and an unfinished task's
        spool is rewritten when the task reruns."""
        if self._closed:
            return
        self._closed = True
        for handle in self._spools.values():
            handle.close()
        self._journal.close()
        self._write_state(complete=complete)


class CheckpointJournal:
    """A loaded (and validated) checkpoint directory.

    ``tasks`` maps ``(shard, segment)`` to the journal's ``task``
    record, with metric dumps restored to their live in-memory format
    (see :func:`restore_metrics_dump`); :meth:`lines_for` replays one
    stream of a durable task's exact output bytes.  ``resume`` records
    are history for operators, and the ``delta`` records an older
    writer journaled on its cadence were freshness only; loading skips
    both.
    """

    def __init__(
        self, directory: str, *, version: int, fingerprint: str, plan: dict, tasks: dict
    ):
        self.directory = directory
        self.version = version
        self.fingerprint = fingerprint
        self.plan = plan
        self.tasks = tasks

    @classmethod
    def load(cls, directory: str) -> "CheckpointJournal":
        path = os.path.join(directory, JOURNAL_NAME)
        if not os.path.exists(path):
            raise CheckpointError(f"no checkpoint journal at {path}")
        with open(path, "rb") as handle:
            raw_lines = handle.read().split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()  # trailing newline of the last complete record
        if not raw_lines:
            raise CheckpointError(f"empty checkpoint journal at {path}")
        try:
            header = json.loads(raw_lines[0])
        except ValueError as error:
            raise CheckpointError(f"unreadable journal header in {path}: {error}")
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(f"journal {path} does not start with a header record")
        version = header.get("version")
        if version != JOURNAL_VERSION:
            raise CheckpointError(
                f"journal version {version} != supported {JOURNAL_VERSION} ({path})"
            )
        tasks: dict[tuple[int, int], dict] = {}
        last = len(raw_lines) - 1
        for number, raw in enumerate(raw_lines[1:], start=1):
            try:
                record = json.loads(raw)
                if not isinstance(record, dict) or "kind" not in record:
                    raise ValueError("not a journal record")
            except ValueError as error:
                if number == last:
                    break  # torn tail from a crash mid-append: discard
                raise CheckpointError(
                    f"corrupt journal record at {path}:{number + 1}: {error}"
                )
            if record["kind"] == "task":
                try:
                    key, record = _restore_task_record(record)
                except (AttributeError, KeyError, TypeError, ValueError) as error:
                    raise CheckpointError(
                        f"malformed task record at {path}:{number + 1}: {error!r}"
                    )
                tasks[key] = record
            # every other record kind (resume, an older writer's delta,
            # unknown) is skipped
        journal = cls(
            directory,
            version=version,
            fingerprint=header.get("fingerprint", ""),
            plan=header.get("plan", {}),
            tasks=tasks,
        )
        journal._check_spools()
        return journal

    def _check_spools(self) -> None:
        """Every journaled task must have its spool bytes on disk — the
        writer fsyncs spools before journal records, so a short spool is
        corruption, not a crash artifact."""
        for key, record in self.tasks.items():
            for stream, (_, bytes_key) in STREAMS.items():
                expected = record.get(bytes_key, 0)
                if not expected:
                    continue
                path = os.path.join(self.directory, SPOOL_DIR, _spool_name(key, stream))
                try:
                    size = os.path.getsize(path)
                except OSError:
                    raise CheckpointError(f"missing checkpoint spool {path}")
                if size < expected:
                    raise CheckpointError(
                        f"truncated checkpoint spool {path}: "
                        f"{size} bytes < journaled {expected}"
                    )

    def validate(self, *, fingerprint: str, plan: dict) -> None:
        """Reject resume under a different scan configuration."""
        if fingerprint != self.fingerprint:
            raise CheckpointError(
                "checkpoint was written by a different scan configuration "
                f"(journal fingerprint {self.fingerprint[:12]}…, "
                f"this run {fingerprint[:12]}…); seed, shards, quantum, "
                "fault plan, flags, and input names must all match"
            )
        if plan != self.plan:
            raise CheckpointError(
                "checkpoint task plan does not match this run's plan"
            )
        stray = sorted(set(self.tasks) - {(t[0], t[1]) for t in plan.get("tasks", ())})
        if stray:
            raise CheckpointError(f"checkpoint journal holds tasks outside its plan: {stray}")

    def lines_for(self, stream: str, key: tuple[int, int]) -> list[str]:
        """The exact ``rows`` or ``spans`` lines a durable task produced
        (read from its spool now, one task at a time)."""
        lines_key, bytes_key = STREAMS[stream]
        record = self.tasks[key]
        expected_lines = record.get(lines_key, 0)
        expected_bytes = record.get(bytes_key, 0)
        if not expected_lines:
            return []
        path = os.path.join(self.directory, SPOOL_DIR, _spool_name(key, stream))
        with open(path, "rb") as handle:
            data = handle.read(expected_bytes)
        if len(data) < expected_bytes:
            raise CheckpointError(
                f"truncated checkpoint spool {path}: "
                f"{len(data)} bytes < journaled {expected_bytes}"
            )
        lines = data.decode("utf-8").splitlines(keepends=True)
        if len(lines) != expected_lines:
            raise CheckpointError(
                f"checkpoint spool {path} holds {len(lines)} {stream}, "
                f"journal recorded {expected_lines}"
            )
        return lines

"""Durability tests: checkpoint journal, exact resume, work stealing.

The heart of this file is the crash matrix: real scans run as
subprocesses, get SIGKILLed at chosen points (a worker mid-task, the
parent right after journaling its Nth task), are resumed from the
checkpoint directory, and the resumed output — rows, stderr stats
summary, metrics dump, spans — must be *byte-identical* to an
uninterrupted run of the same configuration.  Around it: journal
round-trip units, config-fingerprint rejection, corruption detection,
and the steal-boundary determinism property (any steal schedule, any
process count → identical bytes).

Baselines are uninterrupted runs with checkpointing enabled, which
stream no telemetry: their metrics dump equals an un-checkpointed
run's (``TestCheckpointStreamsNothing``).  Kills and steal-forcing
delays come from :mod:`tests.crashpoints`.
"""

import io as io_module
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.framework import ScanConfig, run_parallel_scan
from repro.framework.checkpoint import (
    JOURNAL_NAME,
    JOURNAL_VERSION,
    SPOOL_DIR,
    CheckpointError,
    CheckpointJournal,
    CheckpointWriter,
    config_fingerprint,
    restore_metrics_dump,
)
from repro.framework.io import names_digest
from repro.framework.stats import STATE_KEYS, ScanStats
from repro.obs import MetricsRegistry

from .crashpoints import injected

REPO_ROOT = Path(__file__).resolve().parent.parent
NAMES = 60
SHARDS = 4
QUANTUM = 4  # 15 names/shard -> 4 segments/shard -> 16 tasks


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _corpus():
    tlds = ("com", "net", "org")
    return [f"host{i}.zone{i % 7}.{tlds[i % 3]}" for i in range(NAMES)]


@pytest.fixture(scope="module")
def names_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "names.txt"
    path.write_text("\n".join(_corpus()) + "\n")
    return path


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cli_scan(names_file, workdir, tag, *, processes, checkpoint=None,
              resume=None, crash=None, delay=None, extra=()):
    """One CLI scan as a subprocess, through ``tests/crashpoints.py``
    when a crash or delay is asked for; returns (process, paths)."""
    out = workdir / f"{tag}.jsonl"
    prom = workdir / f"{tag}.prom"
    spans = workdir / f"{tag}.spans"
    if crash is None and delay is None:
        launcher = ["-m", "repro.framework.cli"]
    else:
        launcher = [str(REPO_ROOT / "tests" / "crashpoints.py")]
        launcher += ["--crash", crash] if crash is not None else []
        launcher += ["--delay", delay] if delay is not None else []
        launcher.append("--")
    argv = [
        sys.executable, *launcher, "A",
        "-f", str(names_file), "-o", str(out),
        "--processes", str(processes),
        "--mp-shards", str(SHARDS),
        "--steal-quantum", str(QUANTUM),
        "--no-timestamps",
        "--seed", "7", "--threads", "50",
        "--metrics-out", str(prom),
        "--spans-file", str(spans),
        *extra,
    ]
    if checkpoint is not None:
        argv += ["--checkpoint-dir", str(checkpoint)]
    if resume is not None:
        argv += ["--resume", str(resume)]
    proc = subprocess.run(
        argv, env=_cli_env(),
        capture_output=True, text=True, timeout=120, cwd=str(REPO_ROOT),
    )
    return proc, {"rows": out, "prom": prom, "spans": spans}


def _summary_line(stderr: str) -> str:
    """The stats summary is the last JSON-object line on stderr."""
    lines = [l for l in stderr.splitlines() if l.startswith("{")]
    assert lines, f"no summary on stderr: {stderr!r}"
    return lines[-1]


@pytest.fixture(scope="module")
def baseline_for(names_file, tmp_path_factory):
    """Uninterrupted checkpointed runs, one per process count: the
    byte-identity references.  (The metrics dump and summary include the
    ``mp.processes`` topology gauge, so references are per-p.)"""
    cache = {}

    def build(processes):
        if processes not in cache:
            workdir = tmp_path_factory.mktemp(f"baseline-p{processes}")
            proc, paths = _cli_scan(
                names_file, workdir, "base",
                processes=processes, checkpoint=workdir / "ck",
            )
            assert proc.returncode == 0, proc.stderr
            cache[processes] = {
                "rows": paths["rows"].read_bytes(),
                "prom": paths["prom"].read_bytes(),
                "spans": paths["spans"].read_bytes(),
                "summary": _summary_line(proc.stderr),
            }
        return cache[processes]

    return build


def _assert_identical(paths, proc, baseline):
    assert paths["rows"].read_bytes() == baseline["rows"]
    assert paths["prom"].read_bytes() == baseline["prom"]
    assert paths["spans"].read_bytes() == baseline["spans"]
    assert _summary_line(proc.stderr) == baseline["summary"]


# ---------------------------------------------------------------------------
# journal round-trip units
# ---------------------------------------------------------------------------


def _sample_payload():
    stats = ScanStats()
    stats.record("NOERROR", 1.5, queries=2)
    stats.record("TIMEOUT", 9.0, queries=3, retries=2)
    registry = MetricsRegistry(enabled=True)
    registry.counter("engine.lookups").inc(2)
    registry.histogram("engine.latency").observe(0.25)
    registry.histogram("engine.latency").observe(90.0)
    return {
        "stats": stats.to_state(),
        "metrics": registry.dump(),
        "cache": {"hits": 3, "misses": 1},
        "cpu_utilisation": 0.5,
        "dnssec": None,
    }


class TestJournalRoundTrip:
    def _write_session(self, directory, *, fsync="always"):
        writer = CheckpointWriter(
            str(directory), fingerprint="fp-1", plan={"tasks": [[0, 0, 0, 2]]},
            fsync=fsync,
        )
        writer.spool("rows", (0, 0), ['{"name": "a"}\n'])
        writer.spool("rows", (0, 0), ['{"name": "b"}\n'])
        writer.spool("spans", (0, 0), ['{"span": "lookup"}\n'])
        writer.task_done((0, 0), _sample_payload())
        writer.finalize(complete=True)
        return writer

    def test_task_record_round_trips(self, tmp_path):
        self._write_session(tmp_path)
        journal = CheckpointJournal.load(str(tmp_path))
        assert journal.fingerprint == "fp-1"
        assert set(journal.tasks) == {(0, 0)}
        record = journal.tasks[(0, 0)]
        assert record["rows"] == 2
        assert record["spans"] == 1
        assert "delta" not in record
        assert journal.lines_for("rows", (0, 0)) == ['{"name": "a"}\n', '{"name": "b"}\n']
        assert journal.lines_for("spans", (0, 0)) == ['{"span": "lookup"}\n']

    @pytest.mark.parametrize("fsync", ["always", "never"])
    def test_all_fsync_policies_produce_loadable_journals(self, tmp_path, fsync):
        directory = tmp_path / fsync
        self._write_session(directory, fsync=fsync)
        journal = CheckpointJournal.load(str(directory))
        assert set(journal.tasks) == {(0, 0)}

    def test_restored_payload_matches_live_format_exactly(self, tmp_path):
        """The JSON round-trip must not corrupt the mergeable payload —
        histogram buckets especially, whose int keys JSON stringifies."""
        self._write_session(tmp_path)
        journal = CheckpointJournal.load(str(tmp_path))
        payload = journal.tasks[(0, 0)]["payload"]
        original = _sample_payload()
        assert payload["stats"] == original["stats"]
        assert restore_metrics_dump(original["metrics"]) == payload["metrics"]
        merged = MetricsRegistry(enabled=True)
        merged.merge_dump(payload["metrics"])
        hist = merged.snapshot()["engine.latency"]
        assert hist["count"] == 2
        assert hist["max"] == pytest.approx(90.0)

    def test_fresh_writer_refuses_existing_journal(self, tmp_path):
        self._write_session(tmp_path)
        with pytest.raises(CheckpointError, match="already holds a journal"):
            CheckpointWriter(str(tmp_path), fingerprint="fp-2", plan={})

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            CheckpointWriter(str(tmp_path), fingerprint="f", plan={}, fsync="sometimes")

    def test_rerun_truncates_stale_spool(self, tmp_path):
        """A resumed session re-running a task must overwrite, not
        append to, the crashed attempt's partial spool."""
        writer = CheckpointWriter(str(tmp_path), fingerprint="f", plan={})
        writer.spool("rows", (0, 0), ["stale-line-1\n", "stale-line-2\n"])
        writer.finalize(complete=False)  # crash before task_done
        resumed = CheckpointWriter(
            str(tmp_path), fingerprint="f", plan={}, resume=True
        )
        resumed.spool("rows", (0, 0), ["fresh\n"])
        resumed.task_done((0, 0), _sample_payload())
        resumed.finalize(complete=True)
        journal = CheckpointJournal.load(str(tmp_path))
        assert journal.lines_for("rows", (0, 0)) == ["fresh\n"]


class TestJournalOnDiskShape:
    def test_header_task_record_and_spool_names_are_pinned(self, tmp_path):
        """The journal format is a contract between versions of this
        code: a journal written by one must resume under the other.
        Literals on purpose — renaming a key or a spool file breaks it."""
        writer = CheckpointWriter(str(tmp_path), fingerprint="fp", plan={"tasks": []})
        writer.spool("rows", (2, 1), ['{"name": "a"}\n', '{"name": "b"}\n'])
        writer.spool("spans", (2, 1), ['{"span": "lookup"}\n'])
        writer.task_done((2, 1), _sample_payload())
        writer.finalize(complete=True)
        header, task = [
            json.loads(line) for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert sorted(header) == ["fingerprint", "kind", "plan", "time", "version"]
        assert (header["kind"], header["version"]) == ("header", 1)
        assert sorted(task) == [
            "key", "kind", "payload", "row_bytes", "rows", "span_bytes", "spans",
        ]
        assert sorted(task["payload"]) == [
            "cache", "cpu_utilisation", "dnssec", "metrics", "stats",
        ]
        assert (task["kind"], task["key"]) == ("task", [2, 1])
        assert (task["rows"], task["row_bytes"], task["spans"], task["span_bytes"]) == (
            2, 28, 1, 19,
        )
        assert sorted(os.listdir(tmp_path)) == ["journal.jsonl", "spool", "state.json"]
        assert sorted(os.listdir(tmp_path / "spool")) == [
            "shard-2.seg-1.rows", "shard-2.seg-1.spans",
        ]
        assert (tmp_path / "spool" / "shard-2.seg-1.spans").read_bytes() == (
            b'{"span": "lookup"}\n'
        )


class TestScanPayloadKeys:
    """What a real scan journals per task, pinned: a scan without the
    oracle writes exactly the record shape of trees that refused
    ``--oracle-check`` under the executor (so its journal resumes across
    them, both ways); an oracle scan adds its tallies under ``oracle``."""

    @pytest.mark.parametrize("oracle_check, extra", [(None, []), (3, ["oracle"])])
    def test_task_payload_key_set(self, tmp_path, oracle_check, extra):
        run_parallel_scan(
            _corpus()[:16], ScanConfig(module="A", threads=20, seed=11, oracle_check=oracle_check),
            processes=2, out=io_module.StringIO(), shards=2, checkpoint_dir=str(tmp_path),
        )
        records = [json.loads(line) for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        tasks = [record for record in records if record["kind"] == "task"]
        assert len(tasks) == 2
        for record in tasks:
            assert sorted(record["payload"]) == sorted(
                ["cache", "cpu_utilisation", "dnssec", "metrics", "stats"] + extra
            )
        assert JOURNAL_VERSION == 1


@pytest.mark.parametrize("policy, fsyncs", [("never", 0), ("always", 14)])
def test_the_parent_fsyncs_as_its_policy_says(tmp_path, monkeypatch, policy, fsyncs):
    """``never`` leaves every flush to the OS (the journal header was
    fsynced whatever the policy); ``always`` syncs the header, each of
    the 4 tasks' spool, record and ``state.json``, and the last
    ``state.json``."""
    synced = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), fsync(fd))[1])
    run_parallel_scan(
        _corpus()[:40], ScanConfig(module="A", threads=20, seed=11),
        processes=2, out=io_module.StringIO(), shards=4, checkpoint_dir=str(tmp_path),
        checkpoint_fsync=policy,
    )
    assert len(synced) == fsyncs


def _journal_with_one_task(tmp_path):
    writer = CheckpointWriter(
        str(tmp_path), fingerprint="fp-good", plan={"tasks": [[0, 0, 0, 1]]}
    )
    writer.spool("rows", (0, 0), ['{"name": "x"}\n'])
    writer.task_done((0, 0), _sample_payload())
    writer.finalize(complete=False)
    return tmp_path


class TestJournalRejection:
    def _journal_path(self, directory):
        return directory / JOURNAL_NAME

    def _valid_dir(self, tmp_path):
        return _journal_with_one_task(tmp_path)

    def test_missing_journal(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            CheckpointJournal.load(str(tmp_path / "nowhere"))

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        journal = CheckpointJournal.load(str(self._valid_dir(tmp_path)))
        with pytest.raises(CheckpointError, match="different scan configuration"):
            journal.validate(fingerprint="fp-other", plan=journal.plan)

    def test_plan_mismatch_rejected(self, tmp_path):
        journal = CheckpointJournal.load(str(self._valid_dir(tmp_path)))
        with pytest.raises(CheckpointError, match="plan does not match"):
            journal.validate(
                fingerprint="fp-good", plan={"tasks": [[0, 0, 0, 99]]}
            )

    def test_torn_final_line_is_tolerated(self, tmp_path):
        """A crash mid-append tears exactly the last line; resume must
        treat the journal as valid minus that record."""
        self._valid_dir(tmp_path)
        path = self._journal_path(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "task", "key": [9, 9], "truncat')
        journal = CheckpointJournal.load(str(tmp_path))
        assert set(journal.tasks) == {(0, 0)}  # torn record discarded

    def test_mid_file_corruption_rejected(self, tmp_path):
        self._valid_dir(tmp_path)
        path = self._journal_path(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(1, "NOT JSON AT ALL\n")
        path.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="corrupt journal record"):
            CheckpointJournal.load(str(tmp_path))

    def test_version_mismatch_rejected(self, tmp_path):
        self._valid_dir(tmp_path)
        path = self._journal_path(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["version"] = JOURNAL_VERSION + 1
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="journal version"):
            CheckpointJournal.load(str(tmp_path))

    def test_headerless_journal_rejected(self, tmp_path):
        (tmp_path / SPOOL_DIR).mkdir()
        self._journal_path(tmp_path).write_text('{"kind": "task"}\n')
        with pytest.raises(CheckpointError, match="header"):
            CheckpointJournal.load(str(tmp_path))

    def test_truncated_spool_rejected(self, tmp_path):
        self._valid_dir(tmp_path)
        spool = tmp_path / SPOOL_DIR / "shard-0.seg-0.rows"
        spool.write_bytes(spool.read_bytes()[:3])
        with pytest.raises(CheckpointError, match="truncated checkpoint spool"):
            CheckpointJournal.load(str(tmp_path))


def _mangle_first_task(directory, mangle):
    """Rewrite the first ``task`` record of the journal in ``directory``
    through ``mangle(record)``."""
    path = directory / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    number = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "task")
    record = json.loads(lines[number])
    mangle(record)
    lines[number] = json.dumps(record, sort_keys=True) + "\n"
    path.write_text("".join(lines))


class TestTaskRecordErrors:
    """A ``task`` record that cannot be what a writer wrote ends in a
    :class:`CheckpointError` naming the record, never a bare
    ``KeyError`` or ``TypeError`` the CLI would print as a traceback;
    an optional part that a reader does not use is ignored."""

    _valid_dir = staticmethod(_journal_with_one_task)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda r: r.pop("payload"),
            lambda r: r.pop("key"),
            lambda r: r.update(key=[0]),
            lambda r: r.update(payload=["not", "a", "payload"]),
            lambda r: r["payload"].pop("stats"),
            lambda r: r["payload"].update(surprise=1),
            lambda r: r["payload"]["stats"].pop("total"),
            lambda r: r["payload"]["stats"].update(cursor=3),
            lambda r: r["payload"].update(stats=None),
            lambda r: r["payload"].update(metrics=[["engine.lookups", "counter"]]),
            lambda r: r["payload"].update(metrics=[["h", "histogram", {"buckets": 3}]]),
        ],
        ids=[
            "no-payload", "no-key", "short-key", "payload-not-a-dict", "no-stats",
            "unknown-payload-key", "stats-missing-key", "stats-unknown-key",
            "stats-not-a-dict", "short-metric", "histogram-without-buckets",
        ],
    )
    def test_mangled_task_record_is_a_checkpoint_error(self, tmp_path, mangle):
        _mangle_first_task(self._valid_dir(tmp_path), mangle)
        with pytest.raises(CheckpointError, match=r"malformed task record at .*journal.jsonl:2"):
            CheckpointJournal.load(str(tmp_path))

    def test_a_delta_of_any_shape_is_ignored(self, tmp_path):
        """The final delta an older writer journaled beside the payload
        (v2: with ``stats`` and ``cursor``) is not read, whatever keys it
        has."""
        _mangle_first_task(
            self._valid_dir(tmp_path),
            lambda r: r.update(delta={"version": 2, "cursor": 1, "stats": {}, "surprise": 1}),
        )
        journal = CheckpointJournal.load(str(tmp_path))
        assert "delta" not in journal.tasks[(0, 0)]
        assert journal.tasks[(0, 0)]["payload"]["stats"] == _sample_payload()["stats"]

    def test_task_outside_the_plan_is_rejected(self, tmp_path):
        self._valid_dir(tmp_path)
        _mangle_first_task(tmp_path, lambda r: r.update(key=[5, 0], rows=0, row_bytes=0))
        journal = CheckpointJournal.load(str(tmp_path))
        with pytest.raises(CheckpointError, match=r"outside its plan: \[\(5, 0\)\]"):
            journal.validate(fingerprint="fp-good", plan=journal.plan)

    def test_mangled_payload_fails_resume_with_checkpoint_error(self, tmp_path):
        corpus = _corpus()
        _run_in_process(corpus, processes=1, quantum=QUANTUM, checkpoint_dir=str(tmp_path))
        _mangle_first_task(tmp_path, lambda r: r["payload"]["stats"].pop("completion_times"))
        with pytest.raises(CheckpointError, match="malformed task record"):
            _run_in_process(
                corpus, processes=1, quantum=QUANTUM, checkpoint_dir=str(tmp_path), resume=True,
            )


class TestConfigFingerprint:
    def _fingerprint(self, *, seed=7, shards=4, quantum=4, digest="d", metrics=False, **extra):
        defaults = dict(
            wire_mode="always", fault_plan=None, chaos_seed=None, add_timestamp=False,
        )
        defaults.update(extra)
        return config_fingerprint(
            config=ScanConfig(module="A", seed=seed, metrics=metrics),
            shards=shards, steal_quantum=quantum, names_digest=digest,
            **defaults,
        )

    def test_sensitive_to_everything_that_shapes_bytes(self):
        base = self._fingerprint()
        assert base != self._fingerprint(seed=8)
        assert base != self._fingerprint(shards=5)
        assert base != self._fingerprint(quantum=None)
        assert base != self._fingerprint(digest="other")
        assert base != self._fingerprint(fault_plan="mild")
        assert base != self._fingerprint(add_timestamp=True)
        assert base != self._fingerprint(metrics=True)

    def test_insensitive_to_wall_clock_knobs(self):
        """status_interval only shapes stderr; it must not block resume."""
        quiet = ScanConfig(module="A", seed=7, status_interval=None)
        chatty = ScanConfig(module="A", seed=7, status_interval=0.5)
        kwargs = dict(
            shards=4, steal_quantum=4, wire_mode="always", fault_plan=None,
            chaos_seed=None, add_timestamp=False, names_digest="d",
        )
        assert config_fingerprint(config=quiet, **kwargs) == config_fingerprint(
            config=chatty, **kwargs
        )

    def test_runtime_companions_never_reach_it(self):
        """The span tracer and the health tracker are run-time objects
        (their reprs carry addresses): a fingerprint must not see them,
        and must see every resolver setting a scan inherits."""
        from repro.core import SpanTracer

        kwargs = dict(
            shards=4, steal_quantum=4, wire_mode="always", fault_plan=None,
            chaos_seed=None, add_timestamp=False, names_digest="d",
        )
        plain = config_fingerprint(config=ScanConfig(seed=7), **kwargs)
        busy = ScanConfig(seed=7, tracer=SpanTracer(clock=lambda: 1.0, sink=print), health=object())
        assert config_fingerprint(config=busy, **kwargs) == plain
        assert config_fingerprint(config=ScanConfig(seed=7, max_queries=9), **kwargs) != plain

    def test_names_digest_is_order_sensitive(self):
        assert names_digest(["a", "b"]) != names_digest(["b", "a"])
        assert names_digest(["ab"]) != names_digest(["a", "b"])
        assert names_digest(["a", "b"]) == names_digest(iter(["a", "b"]))


# ---------------------------------------------------------------------------
# steal-boundary determinism (in-process)
# ---------------------------------------------------------------------------


def _run_in_process(corpus, *, processes, quantum=None, crash=None, delay=None,
                    checkpoint_dir=None, resume=False, metrics=False):
    out = io_module.StringIO()
    with injected(crash=crash, delay=delay):
        report = run_parallel_scan(
            corpus,
            ScanConfig(module="A", mode="iterative", threads=50, seed=11, metrics=metrics),
            processes=processes,
            out=out,
            shards=SHARDS,
            add_timestamp=False,
            steal_quantum=quantum,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    return out.getvalue(), report


class TestStealDeterminism:
    @pytest.fixture(scope="class")
    def corpus(self):
        return _corpus()

    def test_any_steal_schedule_yields_identical_bytes(self, corpus):
        """The property the whole design rests on: bytes are a function
        of (seed, shards, quantum) — never of which worker ran what.
        Different worker delays force different steal schedules."""
        reference, _ = _run_in_process(corpus, processes=1, quantum=QUANTUM)
        stolen = 0
        for schedule in (None, "0:0.3", "1:0.2", "2:0.25"):
            text, report = _run_in_process(
                corpus, processes=3, quantum=QUANTUM, delay=schedule
            )
            assert text == reference, f"schedule {schedule} changed bytes"
            stolen += report.steals
        assert stolen >= 1  # at least one schedule actually stole

    def test_forced_steal_is_observable(self, corpus):
        """Slowing worker 0 to a crawl guarantees the other workers
        drain its shards: steals must be reported, with provenance."""
        text, report = _run_in_process(
            corpus, processes=3, quantum=QUANTUM, delay="0:0.5"
        )
        assert report.steals >= 1
        assert report.tasks == SHARDS * 4
        for event in report.steal_events:
            assert event["to"] != event["from"]
            assert event["stop"] > event["start"]

    def test_quantum_covering_shard_matches_legacy_decomposition(self, corpus):
        """steal_quantum >= shard size degenerates to whole-shard tasks,
        which must reproduce the historical (no-quantum) bytes exactly —
        the legacy per-shard RNG stream contract."""
        legacy, legacy_report = _run_in_process(corpus, processes=2)
        huge, huge_report = _run_in_process(corpus, processes=2, quantum=10_000)
        assert huge == legacy
        assert legacy_report.tasks == SHARDS
        assert huge_report.tasks == SHARDS

    def test_worker_death_between_tasks_self_heals(self, corpus):
        """A worker SIGKILLed between tasks is not fatal: survivors
        steal its queue and the scan completes with identical bytes."""
        reference, _ = _run_in_process(corpus, processes=2, quantum=QUANTUM)
        text, report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, crash="worker:0:after:1"
        )
        assert text == reference
        assert report.stats.total == NAMES


# ---------------------------------------------------------------------------
# in-process resume round trip
# ---------------------------------------------------------------------------


class TestResumeInProcess:
    def test_resume_of_complete_journal_replays_everything(self, tmp_path):
        corpus = _corpus()
        first, first_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM,
            checkpoint_dir=str(tmp_path),
        )
        second, second_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert second == first
        assert first_report.resumed_tasks == 0
        assert second_report.resumed_tasks == second_report.tasks == SHARDS * 4
        assert second_report.stats.to_json() == first_report.stats.to_json()

    def test_resume_reruns_only_unjournaled_tasks(self, tmp_path):
        """Resume is work-proportional by count: with the journal cut
        back to its first 10 of 16 task records (what a parent killed
        after its 10th checkpoint leaves), exactly 10 tasks replay, the
        other 6 re-run, and the result is the uninterrupted one."""
        corpus = _corpus()
        first, first_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM,
            checkpoint_dir=str(tmp_path),
        )
        journal = tmp_path / JOURNAL_NAME
        kept, tasks = [], 0
        for line in journal.read_text().splitlines(keepends=True):
            if tasks == 10:
                break
            kept.append(line)
            tasks += json.loads(line)["kind"] == "task"
        journal.write_text("".join(kept))
        resumed, report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert report.resumed_tasks == 10
        assert report.tasks == first_report.tasks == SHARDS * 4
        assert resumed == first
        assert report.stats.to_json() == first_report.stats.to_json()

    def test_resume_against_wrong_corpus_is_rejected(self, tmp_path):
        corpus = _corpus()
        _run_in_process(
            corpus, processes=1, quantum=QUANTUM,
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(CheckpointError, match="different scan configuration"):
            _run_in_process(
                corpus[:-1] + ["sneaky.extra.com"], processes=1, quantum=QUANTUM,
                checkpoint_dir=str(tmp_path), resume=True,
            )

    def test_resume_without_journal_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            _run_in_process(
                _corpus(), processes=1, quantum=QUANTUM,
                checkpoint_dir=str(tmp_path), resume=True,
            )


def _shapes(node) -> dict:
    """How many ``ScanStats`` states and metrics dumps ``node`` (a
    parsed journal record) holds, at any depth."""
    found = {"stats": 0, "metrics": 0}

    def walk(node):
        if isinstance(node, dict):
            found["stats"] += set(node) == set(STATE_KEYS)
            children = node.values()
        elif isinstance(node, list):
            found["metrics"] += bool(node) and all(
                isinstance(entry, list) and len(entry) == 3
                and entry[1] in ("counter", "gauge", "histogram")
                for entry in node
            )
            children = node
        else:
            return
        for child in children:
            walk(child)

    walk(node)
    return found


class TestOneCountPerTask:
    """Each count of a task is journaled once, and nothing is journaled
    that resume does not read."""

    def test_task_record_holds_one_stats_block_and_one_metrics_dump(self, tmp_path):
        # a scan without metrics journals an empty dump: keep them to count
        _run_in_process(
            _corpus(), processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path), metrics=True,
        )
        records = [json.loads(line) for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()]
        tasks = [record for record in records if record["kind"] == "task"]
        assert len(tasks) == SHARDS * 4
        for record in tasks:
            assert _shapes(record) == {"stats": 1, "metrics": 1}, record["key"]
            assert set(record["payload"]["stats"]) == set(STATE_KEYS)

    def test_per_task_state_writes_append_nothing_to_the_journal(self, tmp_path):
        """Each task rewrites ``state.json``; it appends nothing to the
        journal that resume would skip."""
        run_parallel_scan(
            _corpus(), ScanConfig(module="A", threads=50, seed=11), processes=2,
            out=io_module.StringIO(), shards=SHARDS, steal_quantum=QUANTUM,
            checkpoint_dir=str(tmp_path),
        )
        kinds = [
            json.loads(line)["kind"] for line in (tmp_path / JOURNAL_NAME).read_text().splitlines()
        ]
        assert kinds == ["header"] + ["task"] * (SHARDS * 4)
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["complete"] and state["counters"]["done"] == NAMES

    def test_state_after_resume_lists_every_journaled_task(self, tmp_path):
        """A resumed session's ``state.json`` covers the tasks earlier
        sessions journaled, not only its own, and its counters sum every
        journaled payload."""
        corpus = _corpus()
        _run_in_process(corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path))
        journal = tmp_path / JOURNAL_NAME
        kept, tasks = [], 0
        for line in journal.read_text().splitlines(keepends=True):
            if tasks == 3:
                break
            kept.append(line)
            tasks += json.loads(line)["kind"] == "task"
        journal.write_text("".join(kept))
        _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path), resume=True,
        )
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["complete"] is True
        assert state["tasks_planned"] == SHARDS * 4
        assert state["tasks_done"] == [[shard, segment] for shard in range(SHARDS) for segment in range(4)]
        assert state["counters"]["done"] == NAMES

    def test_resume_rebuilds_the_fleet_view_from_payloads(self, tmp_path):
        """The fleet view of a resumed scan starts where the journal left
        off: each durable task's counters come from its payload."""
        from repro.framework import FleetView

        corpus = _corpus()
        first, first_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path),
        )
        fleet = FleetView()
        run_parallel_scan(
            corpus, ScanConfig(module="A", mode="iterative", threads=50, seed=11),
            processes=2, out=io_module.StringIO(), shards=SHARDS, add_timestamp=False,
            steal_quantum=QUANTUM, checkpoint_dir=str(tmp_path), resume=True,
            fleet_view=fleet,
        )
        counters = fleet.fleet_counters()
        stats = first_report.stats
        assert (counters["done"], counters["successes"], counters["timeouts"]) == (
            stats.total, stats.successes, stats.timeouts,
        )
        assert (counters["retries"], counters["queries_sent"]) == (
            stats.retries_used, stats.queries_sent,
        )
        assert counters["resumed_tasks"] == SHARDS * 4
        assert counters["shards_complete"] == SHARDS
        snapshot = fleet.status_snapshot()
        assert [row["target"] for row in snapshot["shards"]] == [15] * SHARDS
        assert all(row["resumed"] and row["complete"] for row in snapshot["shards"])


class TestCheckpointStreamsNothing:
    """A checkpoint reads task payloads only: with no fleet view and no
    status interval, no task sends a telemetry delta, and the scan's
    metrics equal the same scan's without ``--checkpoint-dir``."""

    def _forbid_deltas(self, monkeypatch):
        """Make a worker fail its task if it sends a delta (forked
        workers inherit the patched ``_run_task``)."""
        from repro.framework import parallel

        class NoDeltas:
            def __init__(self, conn):
                self._conn = conn

            def send(self, message):
                assert message[0] != "delta", "a task streamed a telemetry delta"
                self._conn.send(message)

        run_task = parallel._run_task
        monkeypatch.setattr(
            parallel, "_run_task", lambda task, spec, conn: run_task(task, spec, NoDeltas(conn))
        )

    def test_checkpointed_scan_sends_no_delta(self, tmp_path, monkeypatch):
        self._forbid_deltas(monkeypatch)
        text, report = _run_in_process(
            _corpus(), processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path),
        )
        assert report.stats.total == NAMES
        # the check bites: a fleet view asks for deltas, and the first
        # one fails its worker
        from repro.framework import FleetView

        with pytest.raises(RuntimeError, match="streamed a telemetry delta"):
            run_parallel_scan(
                _corpus(), ScanConfig(module="A", threads=50, seed=11), processes=2,
                out=io_module.StringIO(), shards=SHARDS, steal_quantum=QUANTUM,
                fleet_view=FleetView(),
            )

    def test_resume_without_a_reader_rebuilds_no_delta(self, tmp_path, monkeypatch):
        """With no fleet view and no status line nothing reads a delta,
        so a resume rebuilds none from the journaled payloads; its rows
        and summary are still the uninterrupted scan's."""
        from repro.framework import FleetView

        corpus = _corpus()
        first, first_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path),
        )

        def refuse(self, delta, key=(0, 0)):
            raise AssertionError("a delta was folded with nothing to read it")

        monkeypatch.setattr(FleetView, "update", refuse)
        resumed, report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path), resume=True,
        )
        assert report.resumed_tasks == SHARDS * 4
        assert resumed == first
        assert report.summary() == first_report.summary()

    def test_checkpointed_metrics_equal_the_plain_scans(self, names_file, tmp_path):
        plain, plain_paths = _cli_scan(names_file, tmp_path, "plain", processes=2)
        checkpointed, paths = _cli_scan(
            names_file, tmp_path, "ck", processes=2, checkpoint=tmp_path / "ck",
        )
        assert plain.returncode == checkpointed.returncode == 0, checkpointed.stderr
        assert b"scheduler_timers_scheduled" in paths["prom"].read_bytes()
        for key in ("rows", "prom", "spans"):
            assert paths[key].read_bytes() == plain_paths[key].read_bytes(), key
        assert _summary_line(checkpointed.stderr) == _summary_line(plain.stderr)


class TestResumeAcrossDeltaVersions:
    """``JOURNAL_VERSION`` stayed 1 when the delta lost its ``stats``
    block: a journal whose task records still carry the v2 final delta
    resumes here.  (One written here has no ``delta``, which the older
    loader's ``record.get("delta")`` allows; the verify SKILL's
    cross-tree resume step checks that direction.)"""

    def _v2_delta(self, record) -> dict:
        """The final delta an older writer journaled for ``record``."""
        shard, segment = record["key"]
        stats = record["payload"]["stats"]
        return {
            "shard": shard, "seq": 9, "segment": segment, "segments": 4,
            "done": stats["total"], "successes": stats["successes"], "timeouts": 0,
            "retries": stats["retries_used"], "queries_sent": stats["queries_sent"],
            "in_flight": 0, "virtual_now": stats["finished_at"], "cursor": stats["total"],
            "target": stats["total"], "complete": True, "owner": shard % 2, "worker": 1,
            "stolen_from": None, "resumed": False, "stats": stats,
            "metrics": record["payload"]["metrics"], "version": 2,
        }

    @pytest.mark.parametrize("kept", [SHARDS * 4, 7])
    def test_journal_with_v2_deltas_resumes_byte_identically(self, tmp_path, kept):
        corpus = _corpus()
        first, first_report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path),
        )
        journal = tmp_path / JOURNAL_NAME
        lines, tasks = [], 0
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "task":
                if tasks == kept:
                    break
                tasks += 1
                record["delta"] = self._v2_delta(record)
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        journal.write_text("".join(lines))
        resumed, report = _run_in_process(
            corpus, processes=2, quantum=QUANTUM, checkpoint_dir=str(tmp_path), resume=True,
        )
        assert report.resumed_tasks == kept
        assert resumed == first
        assert report.summary() == first_report.summary()
        assert report.registry.dump() == first_report.registry.dump()


# ---------------------------------------------------------------------------
# the crash matrix (subprocess SIGKILL + resume, byte-identity)
# ---------------------------------------------------------------------------


@pytest.mark.crash
class TestCrashMatrix:
    """SIGKILL at every interesting point; resume; demand exact bytes."""

    @pytest.mark.parametrize("processes", [1, 4])
    @pytest.mark.parametrize("kill_after", [1, 3, 5])
    def test_parent_killed_after_kth_checkpoint(
        self, names_file, tmp_path, baseline_for, processes, kill_after
    ):
        baseline = baseline_for(processes)
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=processes,
            checkpoint=ck, crash=f"parent:after:{kill_after}",
        )
        assert proc.returncode == -9  # SIGKILL, no cleanup ran
        journal = CheckpointJournal.load(str(ck))
        assert len(journal.tasks) >= kill_after
        # the snapshot a kill leaves is the journal's: state.json is
        # rewritten as each task record lands, never on a timer
        state = json.loads((ck / "state.json").read_text())
        assert state["tasks_done"] == sorted(list(key) for key in journal.tasks)
        assert state["counters"]["done"] == sum(
            ScanStats.from_state(record["payload"]["stats"]).counters()["done"]
            for record in journal.tasks.values()
        )
        resumed, paths = _cli_scan(
            names_file, tmp_path, "res", processes=processes, resume=ck
        )
        assert resumed.returncode == 0, resumed.stderr
        _assert_identical(paths, resumed, baseline)

    @pytest.mark.parametrize("processes", [1, 4])
    @pytest.mark.parametrize("kill_during", [1, 2])
    def test_worker_killed_mid_task(
        self, names_file, tmp_path, baseline_for, processes, kill_during
    ):
        """SIGKILL a worker inside a task (before its first message
        reaches the pipe).  The session fails fast with a resume hint; the journal
        holds every task completed so far; resume is exact."""
        baseline = baseline_for(processes)
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=processes,
            checkpoint=ck, crash=f"worker:0:during:{kill_during}",
        )
        assert proc.returncode != 0
        assert "resume to continue" in proc.stderr
        resumed, paths = _cli_scan(
            names_file, tmp_path, "res", processes=processes, resume=ck
        )
        assert resumed.returncode == 0, resumed.stderr
        _assert_identical(paths, resumed, baseline)

    def test_double_crash_chain(self, names_file, tmp_path, baseline_for):
        """Parent killed mid-scan; then the *resume session's parent* is
        killed too; the second resume still lands on exact bytes.

        Both kills use ``parent:after:N`` so they fire deterministically:
        a worker-kill first would let the surviving worker steal and
        drain nearly every task, leaving the resume session too short
        for its own kill to trigger."""
        baseline = baseline_for(2)
        ck = tmp_path / "ck"
        first, _ = _cli_scan(
            names_file, tmp_path, "int1", processes=2,
            checkpoint=ck, crash="parent:after:3",
        )
        assert first.returncode == -9
        assert len(CheckpointJournal.load(ck).tasks) >= 3
        second, _ = _cli_scan(
            names_file, tmp_path, "int2", processes=2,
            resume=ck, crash="parent:after:3",
        )
        assert second.returncode == -9
        final, paths = _cli_scan(
            names_file, tmp_path, "res", processes=2, resume=ck
        )
        assert final.returncode == 0, final.stderr
        _assert_identical(paths, final, baseline)

    def test_crash_after_forced_steal_resumes_exactly(self, names_file, tmp_path, baseline_for):
        baseline = baseline_for(2)
        """Steal boundaries are checkpoints: a scan that stole work and
        then lost its parent resumes to the same bytes."""
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=2, checkpoint=ck,
            crash="parent:after:6", delay="0:0.15",
        )
        assert proc.returncode == -9
        resumed, paths = _cli_scan(
            names_file, tmp_path, "res", processes=2, resume=ck
        )
        assert resumed.returncode == 0, resumed.stderr
        _assert_identical(paths, resumed, baseline)

    def test_resume_under_different_process_count(
        self, names_file, tmp_path, baseline_for
    ):
        """The process count is a wall-clock knob, not scan config: a
        4-process scan may resume with 1 process.  Rows and spans are
        byte-identical; the metrics dump and summary match except for
        the ``mp.processes`` topology gauge, which honestly reports the
        resume session's own process count."""
        baseline = baseline_for(4)
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=4,
            checkpoint=ck, crash="parent:after:3",
        )
        assert proc.returncode == -9
        resumed, paths = _cli_scan(
            names_file, tmp_path, "res", processes=1, resume=ck
        )
        assert resumed.returncode == 0, resumed.stderr
        assert paths["rows"].read_bytes() == baseline["rows"]
        assert paths["spans"].read_bytes() == baseline["spans"]

        def strip_mp_processes(prom_bytes):
            return [
                line for line in prom_bytes.splitlines()
                if b"mp_processes" not in line
            ]

        assert strip_mp_processes(paths["prom"].read_bytes()) == (
            strip_mp_processes(baseline["prom"])
        )
        resumed_summary = json.loads(_summary_line(resumed.stderr))
        base_summary = json.loads(baseline["summary"])
        assert resumed_summary["mp"]["processes"] == 1
        assert base_summary["mp"]["processes"] == 4
        resumed_summary["mp"].pop("processes")
        base_summary["mp"].pop("processes")
        assert resumed_summary == base_summary

    def test_oracle_scan_killed_then_resumed(self, names_file, tmp_path):
        """Each journaled task carries its oracle tallies, so a killed
        then resumed ``--oracle-check`` scan folds the same oracle block
        — and the same rows, spans, metrics and summary — as an
        uninterrupted one."""
        oracle = ("--oracle-check", "3")
        base, base_paths = _cli_scan(
            names_file, tmp_path, "base", processes=2, checkpoint=tmp_path / "base-ck",
            extra=oracle,
        )
        assert base.returncode == 0, base.stderr
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=2, checkpoint=ck,
            crash="parent:after:3", extra=oracle,
        )
        assert proc.returncode == -9
        resumed, paths = _cli_scan(
            names_file, tmp_path, "res", processes=2, resume=ck, extra=oracle,
        )
        assert resumed.returncode == 0, resumed.stderr
        baseline = {key: base_paths[key].read_bytes() for key in ("rows", "prom", "spans")}
        baseline["summary"] = _summary_line(base.stderr)
        _assert_identical(paths, resumed, baseline)
        # 16 tasks of 4, 4, 4 and 3 names per shard: lookups 1 and 4 of each
        # full segment, lookup 1 of the last
        assert json.loads(baseline["summary"])["oracle"] == {
            "agreed": 28, "checked": 28, "divergences": 0, "inconclusive": 0,
        }

    def test_corrupted_journal_fails_resume_cleanly(self, names_file, tmp_path):
        ck = tmp_path / "ck"
        proc, _ = _cli_scan(
            names_file, tmp_path, "int", processes=2,
            checkpoint=ck, crash="parent:after:3",
        )
        assert proc.returncode == -9
        journal = ck / JOURNAL_NAME
        lines = journal.read_text().splitlines(keepends=True)
        lines[1] = "garbage not json\n"
        journal.write_text("".join(lines))
        resumed, _ = _cli_scan(
            names_file, tmp_path, "res", processes=2, resume=ck
        )
        assert resumed.returncode != 0
        assert "corrupt journal record" in resumed.stderr

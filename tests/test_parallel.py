"""Tests for the multi-process shard executor and its building blocks.

Covers the determinism contract (same seed, any process count, identical
merged bytes), the exact-partition property of ``io.shard``, the merge
semantics of stats and metrics, and the CLI's eager validation of bad
shard/process topologies (clean usage errors, never tracebacks).
"""

import io as io_module
import json
import random

import pytest

from repro.framework import FleetView, ScanConfig, run_parallel_scan
from repro.framework.cli import main
from repro.framework.io import shard
from repro.framework.parallel import _plan_tasks, _run_task, _ShardSpec
from repro.framework.stats import ScanStats
from repro.framework.telemetry import fold_metrics
from repro.obs import MetricsRegistry, parse_prometheus
from repro.workloads import CorpusConfig, DomainCorpus


# ---------------------------------------------------------------------------
# io.shard: exact partition property
# ---------------------------------------------------------------------------


class TestShardPartition:
    def test_partitions_exactly_randomised(self):
        """For any (size, shards): shards are pairwise disjoint and their
        union, re-interleaved by position, is exactly the input."""
        rng = random.Random(2024)
        for _ in range(50):
            size = rng.randrange(0, 200)
            shards = rng.randrange(1, 12)
            items = [f"item-{i}" for i in range(size)]
            parts = [list(shard(items, shards, k)) for k in range(shards)]
            # pairwise disjoint
            seen = set()
            for part in parts:
                overlap = seen & set(part)
                assert not overlap, f"items in two shards: {overlap}"
                seen.update(part)
            # union == input, and positions interleave back exactly
            assert sorted(seen) == sorted(items)
            reassembled = [None] * size
            for k, part in enumerate(parts):
                for j, item in enumerate(part):
                    reassembled[j * shards + k] = item
            assert reassembled == items

    def test_single_shard_is_identity(self):
        items = ["a", "b", "c"]
        assert list(shard(items, 1, 0)) == items

    def test_more_shards_than_items(self):
        items = ["a", "b"]
        parts = [list(shard(items, 5, k)) for k in range(5)]
        assert parts == [["a"], ["b"], [], [], []]

    def test_validation_is_eager(self):
        """A bad spec must raise at the call, not at the first next()."""
        with pytest.raises(ValueError):
            shard(["a"], 0, 0)
        with pytest.raises(ValueError):
            shard(["a"], 2, 2)
        with pytest.raises(ValueError):
            shard(["a"], 2, -1)

    def test_generator_preserves_order(self):
        items = [str(i) for i in range(10)]
        assert list(shard(items, 3, 1)) == ["1", "4", "7"]


# ---------------------------------------------------------------------------
# merge semantics: ScanStats and MetricsRegistry
# ---------------------------------------------------------------------------


class TestScanStatsMerge:
    def _stats(self, statuses, start, finish):
        stats = ScanStats(started_at=start)
        now = start
        for status in statuses:
            now += 0.5
            stats.record(status, now, queries=2, retries=1)
        stats.finished_at = finish
        return stats

    def test_merge_sums_counts_and_statuses(self):
        a = self._stats(["NOERROR", "TIMEOUT"], start=0.0, finish=2.0)
        b = self._stats(["NOERROR", "NOERROR", "NXDOMAIN"], start=0.0, finish=5.0)
        a.merge(b)
        assert a.total == 5
        assert a.by_status["NOERROR"] == 3
        assert a.by_status["TIMEOUT"] == 1
        assert a.by_status["NXDOMAIN"] == 1
        assert a.queries_sent == 10
        assert a.retries_used == 5
        # merged duration = the slowest shard (virtual clocks all start
        # at zero and shards run concurrently)
        assert a.duration == 5.0
        assert len(a.completion_times) == 5

    def test_state_round_trip(self):
        stats = self._stats(["NOERROR", "SERVFAIL"], start=0.0, finish=3.0)
        clone = ScanStats.from_state(stats.to_state())
        assert clone.to_json() == stats.to_json()
        assert clone.completion_times == stats.completion_times


class TestMetricsMerge:
    def _shard_registry(self, base):
        registry = MetricsRegistry()
        registry.counter("lookups.total").inc(base)
        registry.gauge("queue.depth").set(base)
        hist = registry.histogram("lookup.seconds")
        for value in (0.01 * base, 0.1 * base, 1.0):
            hist.observe(value)
        registry.scope("faults").counter("injected").inc(base)
        return registry

    def test_counters_and_gauges_sum(self):
        merged = MetricsRegistry()
        merged.merge_dump(self._shard_registry(2).dump())
        merged.merge_dump(self._shard_registry(3).dump())
        snap = merged.snapshot()
        assert snap["lookups.total"] == 5
        assert snap["queue.depth"] == 5

    def test_histogram_buckets_add(self):
        merged = MetricsRegistry()
        merged.merge_dump(self._shard_registry(2).dump())
        merged.merge_dump(self._shard_registry(3).dump())
        hist = merged.snapshot()["lookup.seconds"]
        assert hist["count"] == 6
        # min/max widen across shards
        assert hist["min"] == pytest.approx(0.02)
        assert hist["max"] == pytest.approx(1.0)

    def test_relabel_renames_scoped_metrics(self):
        merged = MetricsRegistry()
        for index in (0, 1):
            merged.merge_dump(
                self._shard_registry(1).dump(),
                rename=lambda name, k=index: (
                    f"faults.shard{k}.{name[len('faults.'):]}"
                    if name.startswith("faults.")
                    else name
                ),
            )
        snap = merged.snapshot()
        assert snap["faults.shard0.injected"] == 1
        assert snap["faults.shard1.injected"] == 1
        assert "faults.injected" not in snap
        # unscoped metrics still summed under the original name
        assert snap["lookups.total"] == 2


# ---------------------------------------------------------------------------
# the executor: determinism across process counts
# ---------------------------------------------------------------------------


NAMES = 48


@pytest.fixture(scope="module")
def corpus():
    return list(DomainCorpus(CorpusConfig(seed=91)).fqdns(NAMES))


def _config(metrics=False, **overrides):
    return ScanConfig(
        module="A", mode="iterative", threads=50, seed=11, metrics=metrics, **overrides
    )


def _run(corpus, processes, shards=4, metrics=False, **overrides):
    out = io_module.StringIO()
    report = run_parallel_scan(
        corpus,
        _config(metrics=metrics, **overrides),
        processes=processes,
        out=out,
        shards=shards,
        add_timestamp=False,
    )
    return out.getvalue(), report


class TestApiValidation:
    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads"):
            run_parallel_scan(
                ["a.com", "b.com"], ScanConfig(threads=0), processes=2, out=io_module.StringIO()
            )

    @pytest.mark.parametrize("interval", [0, -1.0])
    def test_status_interval_must_be_positive(self, interval):
        status = io_module.StringIO()
        with pytest.raises(ValueError, match="status_interval"):
            run_parallel_scan(
                ["a.com", "b.com", "c.net", "d.org"], _config(status_interval=interval),
                processes=2, out=io_module.StringIO(), status_stream=status,
            )
        assert status.getvalue() == ""


class TestParallelDeterminism:
    def test_merged_output_independent_of_process_count(self, corpus):
        """The determinism contract: for fixed (seed, shards) the merged
        bytes, stats, and metrics are identical for any process count."""
        out_1, report_1 = _run(corpus, processes=1, metrics=True)
        out_4, report_4 = _run(corpus, processes=4, metrics=True)
        assert out_1 == out_4
        assert out_1.count("\n") == NAMES
        assert report_1.stats.to_json() == report_4.stats.to_json()
        # topology gauges describe the run, not the scan: exclude them
        snap_1 = {k: v for k, v in report_1.metrics.items() if not k.startswith("mp.")}
        snap_4 = {k: v for k, v in report_4.metrics.items() if not k.startswith("mp.")}
        assert snap_1 == snap_4

        # ...and that merged registry is exactly the fold of the per-task
        # registries: re-run every task in-process through the worker's
        # own code path and fold the dumps as the parent does
        class Collector:
            payload = None

            def send(self, message):
                if message[0] == "task_done":
                    self.payload = message[2]

        spec = _ShardSpec(
            names=corpus, shards=4, config=_config(metrics=True), add_timestamp=False,
        )
        dumps = []
        for task in _plan_tasks([len(list(shard(corpus, 4, k))) for k in range(4)], None):
            collector = Collector()
            _run_task(task, spec, collector)
            dumps.append((task.shard, collector.payload["metrics"]))
        assert fold_metrics(dumps).snapshot() == snap_4

    def test_ratio_gauges_are_recomputed_not_summed(self, corpus):
        """Regression: the fold summed every gauge, so the merged
        ``cache.hit_rate`` of an 8-shard run read as the sum of eight
        hit rates (> 1) and ``engine.cpu_utilisation`` as the sum of the
        task utilisations."""
        _, report = _run(corpus, processes=2, shards=8, metrics=True, dnssec=True)
        metrics = report.metrics
        assert metrics["cache.hit_rate"] == report.cache_stats["hit_rate"] <= 1
        assert metrics["engine.cpu_utilisation"] == pytest.approx(
            report.cpu_utilisation, abs=1e-4
        )

    def test_hit_rate_counts_answer_probes(self, corpus):
        """The merged ``cache.hit_rate``, in the report and the registry,
        is ``CacheStats.hit_rate`` of the merged counters, answer probes
        included, as a single-process scan reports it; both folds used
        ``hits / (hits + misses)``.  Only the ``all`` policy probes
        answers, and each name is scanned twice so that some hit."""
        _, report = _run(corpus * 2, processes=1, shards=1, metrics=True, cache_policy="all")
        cache = report.cache_stats
        assert cache["answer_hits"] > 0
        hits = cache["hits"] + cache["answer_hits"]
        probes = hits + cache["misses"] + cache["answer_misses"]
        assert report.metrics["cache.hit_rate"] == cache["hit_rate"] == round(hits / probes, 4)

    def test_rows_cover_every_name_exactly_once(self, corpus):
        out, report = _run(corpus, processes=2)
        names = [json.loads(line)["name"] for line in out.splitlines()]
        assert sorted(names) == sorted(corpus)
        assert report.rows_written == NAMES
        assert report.stats.total == NAMES

    def test_output_is_shard_grouped(self, corpus):
        """Order normalisation: the merged stream is the concatenation
        of the per-shard streams in shard-index order."""
        shards = 4
        out, _ = _run(corpus, processes=2, shards=shards)
        names = [json.loads(line)["name"] for line in out.splitlines()]
        expected = []
        for k in range(shards):
            expected.extend(shard(corpus, shards, k))
        assert sorted(names[:12]) == sorted(expected[:12])  # shard 0 first
        assert sorted(names) == sorted(expected)

    def test_shard_summaries_cover_topology(self, corpus):
        _, report = _run(corpus, processes=3, shards=5)
        assert report.processes == 3
        assert report.shards == 5
        assert [s["shard"] for s in report.shard_summaries] == [0, 1, 2, 3, 4]
        assert sum(s["total"] for s in report.shard_summaries) == NAMES

    def test_processes_clamped_to_shards(self, corpus):
        _, report = _run(corpus, processes=8, shards=2)
        assert report.processes == 2

    def test_worker_crash_raises_with_traceback(self, corpus):
        out = io_module.StringIO()
        config = _config()
        config.module = "A"
        with pytest.raises(RuntimeError, match="worker"):
            run_parallel_scan(
                corpus,
                config,
                processes=2,
                out=out,
                shards=2,
                fault_plan="no-such-plan",  # resolve_plan raises in-worker
                add_timestamp=False,
            )


# ---------------------------------------------------------------------------
# spans under --processes: shard-tagged, merged shard-ordered
# ---------------------------------------------------------------------------


class TestParallelSpans:
    def _run_spans(self, corpus, processes, shards=4):
        out, spans = io_module.StringIO(), io_module.StringIO()
        report = run_parallel_scan(
            corpus,
            _config(),
            processes=processes,
            out=out,
            shards=shards,
            add_timestamp=False,
            span_out=spans,
        )
        return spans.getvalue(), report

    def test_span_stream_independent_of_process_count(self, corpus):
        spans_1, report_1 = self._run_spans(corpus, processes=1)
        spans_4, report_4 = self._run_spans(corpus, processes=4)
        assert spans_1 == spans_4
        assert report_1.spans_written == report_4.spans_written > 0

    def test_spans_are_shard_tagged_and_shard_ordered(self, corpus):
        shards = 4
        text, report = self._run_spans(corpus, processes=2, shards=shards)
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == report.spans_written
        tags = [row["shard"] for row in rows]
        assert set(tags) == set(range(shards))
        # merged stream is grouped by shard index, shard 0 first
        assert tags == sorted(tags)

    def test_span_count_matches_single_process_equivalent(self, corpus):
        """The executor must not lose or duplicate spans: one lookup
        root span per name, exactly as a 1-process scan produces."""
        text, _ = self._run_spans(corpus, processes=3)
        rows = [json.loads(line) for line in text.splitlines()]
        lookups = [row for row in rows if row["span"] == "lookup"]
        assert len(lookups) == NAMES
        names = sorted(row["name"] for row in lookups)
        assert names == sorted(corpus)


# ---------------------------------------------------------------------------
# streaming telemetry: deltas fold into a live FleetView
# ---------------------------------------------------------------------------


class TestFleetTelemetry:
    def test_fleet_view_sees_every_shard_complete(self, corpus):
        fleet = FleetView(run_info={"module": "A"})
        out = io_module.StringIO()
        run_parallel_scan(
            corpus,
            _config(),
            processes=2,
            out=out,
            shards=4,
            add_timestamp=False,
            fleet_view=fleet,
        )
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["done"] == NAMES
        assert snapshot["fleet"]["target"] == NAMES
        assert snapshot["fleet"]["complete"] is True
        assert snapshot["fleet"]["shards_complete"] == 4
        assert snapshot["run"]["module"] == "A"
        rows = snapshot["shards"]
        assert [row["shard"] for row in rows] == [0, 1, 2, 3]
        for row in rows:
            assert row["complete"] is True
            assert row["done"] == row["target"]
            assert row["seq"] >= 1
        assert sum(row["done"] for row in rows) == NAMES

    def test_fleet_prometheus_renders_merged_registry(self, corpus):
        fleet = FleetView()
        out = io_module.StringIO()
        run_parallel_scan(
            corpus,
            _config(),
            processes=2,
            out=out,
            shards=2,
            add_timestamp=False,
            fleet_view=fleet,
        )
        families = parse_prometheus(fleet.prometheus())
        assert families["pyzdns_engine_lookups"]["samples"][0][2] == float(NAMES)

    def test_deltas_do_not_perturb_merged_output(self, corpus):
        """The live path reads, never writes: output bytes are identical
        with and without a fleet view attached."""
        plain, _ = _run(corpus, processes=2)
        fleet = FleetView()
        out = io_module.StringIO()
        run_parallel_scan(
            corpus,
            _config(),
            processes=2,
            out=out,
            shards=4,
            add_timestamp=False,
            fleet_view=fleet,
        )
        assert out.getvalue() == plain

    def test_every_task_final_delta_observed(self, corpus):
        """Regression for the final-delta race: each worker must flush
        its complete=True delta *before* the pipe sentinel, and the
        runner must emit that final delta after end-of-run metric
        publishing.  If either ordering slips, the fastest-finishing
        task's terminal state silently never reaches the fleet."""
        for processes in (1, 2):
            fleet = FleetView()
            out = io_module.StringIO()
            run_parallel_scan(
                corpus,
                _config(),
                processes=processes,
                out=out,
                shards=4,
                steal_quantum=4,
                add_timestamp=False,
                fleet_view=fleet,
            )
            snapshot = fleet.status_snapshot()
            assert snapshot["fleet"]["complete"] is True
            assert snapshot["fleet"]["done"] == NAMES
            rows = snapshot["shards"]
            assert len(rows) == 4
            for row in rows:
                assert row["complete"] is True, row
                assert row["done"] == row["target"]
                assert row["segments_done"] == row["segments"] == 3
            # The merged live registry is built purely from deltas; a
            # dropped final delta loses that task's tail of lookups.
            families = parse_prometheus(fleet.prometheus())
            lookups = sum(
                value
                for _, _, value in families["pyzdns_engine_lookups"]["samples"]
            )
            assert lookups == float(NAMES)

    def test_final_delta_does_not_grow_with_the_task(self, monkeypatch):
        """A delta carries counters and a metrics dump, no per-lookup
        list: the final delta of a 4,000-name task, pickled into its pipe
        message, is at most 1.1 times a 1,000-name task's.  The cadence
        is wall-clock, so it is set to 0 here: a delta follows every
        lookup, whatever the host's speed."""
        import pickle

        from repro.ecosystem import EcosystemParams, build_internet
        from repro.framework import ScanRunner, runner

        monkeypatch.setattr(runner, "DEFAULT_DELTA_INTERVAL", 0)

        def final_delta_bytes(count):
            names = DomainCorpus(CorpusConfig(seed=2022)).fqdns(count)
            deltas = []
            ScanRunner(
                build_internet(params=EcosystemParams(seed=2022), wire_mode="always"),
                ScanConfig(threads=1000, source_prefix=28, seed=2022),
                progress=deltas.append,
            ).run(names)
            final = deltas[-1]
            assert final.complete and final.done == count
            assert len(deltas) > 2  # cadence deltas went out too
            return len(pickle.dumps(("delta", (0, 0), final)))

        small, large = final_delta_bytes(1000), final_delta_bytes(4000)
        assert large <= 1.1 * small, (small, large)

    def test_fleet_status_line_carries_target(self, corpus):
        """The parent's fleet-wide status line shows done/target (and an
        eta once a rate exists)."""
        out, status = io_module.StringIO(), io_module.StringIO()
        run_parallel_scan(
            corpus,
            _config(status_interval=0.02),
            processes=2,
            out=out,
            shards=4,
            add_timestamp=False,
            status_stream=status,
        )
        for line in status.getvalue().splitlines():
            assert f"/{NAMES} done" in line


# ---------------------------------------------------------------------------
# CLI: bad topologies exit as clean usage errors
# ---------------------------------------------------------------------------


class TestCliValidation:
    def _expect_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        return capsys.readouterr().err

    def test_shards_must_be_positive(self, capsys):
        err = self._expect_usage_error(["A", "--shards", "0"], capsys)
        assert "--shards" in err

    def test_shard_index_in_range(self, capsys):
        err = self._expect_usage_error(["A", "--shards", "2", "--shard", "2"], capsys)
        assert "--shard" in err

    def test_negative_shard_index(self, capsys):
        err = self._expect_usage_error(["A", "--shards", "2", "--shard", "-1"], capsys)
        assert "--shard" in err

    def test_processes_must_be_positive(self, capsys):
        err = self._expect_usage_error(["A", "--processes", "0"], capsys)
        assert "--processes" in err

    def test_mp_shards_must_be_positive(self, capsys):
        err = self._expect_usage_error(
            ["A", "--processes", "2", "--mp-shards", "0"], capsys
        )
        assert "--mp-shards" in err

    def test_mp_shards_requires_processes(self, capsys):
        err = self._expect_usage_error(["A", "--mp-shards", "4"], capsys)
        assert "--mp-shards requires --processes" in err

    def test_processes_rejects_live_resolver(self, capsys):
        err = self._expect_usage_error(
            ["A", "--processes", "2", "--live-resolver", "127.0.0.1:53"], capsys
        )
        assert "simulated" in err

    def test_http_port_rejects_live_resolver(self, capsys):
        err = self._expect_usage_error(
            ["A", "--http-port", "0", "--live-resolver", "127.0.0.1:53"], capsys
        )
        assert "--http-port" in err

    @pytest.mark.parametrize(
        "flags", [["--fault-plan", "severe"], ["--chaos-seed", "3"]], ids=["plan", "seed"]
    )
    def test_live_resolver_rejects_fault_injection(self, tmp_path, capsys, flags):
        """A live scan injects no faults: it ran, exit 0, with none."""
        names_file = tmp_path / "names.txt"
        names_file.write_text("a.com\n")
        out = tmp_path / "rows.jsonl"
        err = self._expect_usage_error(
            ["A", "-f", str(names_file), "-o", str(out), "--quiet", "--timeout", "0.1",
             "--retries", "0", "--live-resolver", "127.0.0.1:9", *flags],
            capsys,
        )
        assert f"{flags[0]} applies to simulated scans only" in err
        assert not out.exists()

    def test_http_port_range_checked(self, capsys):
        err = self._expect_usage_error(["A", "--http-port", "70000"], capsys)
        assert "--http-port" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "0"],
            ["--threads", "-3"],
            ["-p", "2", "--threads", "0"],
            ["--retries", "-1"],
            ["--cores", "0"],
            ["--cache-size", "0"],
            ["--source-prefix", "33"],
            ["--timeout", "0"],
            ["--timeout", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_numeric_flags_checked(self, tmp_path, capsys, argv):
        """Each once ran: an empty or query-less scan that exited 0, or
        a ValueError traceback."""
        names_file = tmp_path / "names.txt"
        names_file.write_text("a.com\nb.com\n")
        out = tmp_path / "rows.jsonl"
        err = self._expect_usage_error(
            ["A", "-f", str(names_file), "-o", str(out), "--quiet", *argv], capsys
        )
        assert f"{argv[-2]} must be" in err
        assert not out.exists()

    def test_external_mode_needs_name_servers(self, tmp_path, capsys):
        """It ran into ``ValueError: external mode needs resolver_ips``."""
        out = tmp_path / "rows.jsonl"
        err = self._expect_usage_error(["A", "--mode", "external", "-o", str(out)], capsys)
        assert "--mode external requires --name-servers" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "plan, message",
        [
            ("nosuch", "neither a file nor a bundled plan name"),
            ("missing.json", "neither a file nor a bundled plan name"),
            ("bad-field.json", "unknown field 'p'"),
            ("bad-value.json", "probability must be in [0, 1]"),
            ("not-json.json", "invalid JSON"),
        ],
    )
    def test_bad_fault_plan_is_a_usage_error(self, tmp_path, capsys, plan, message):
        """A bundled name or a path that does not exist exited 1 with no
        usage line; a plan file that is not a valid plan raised a
        ``PlanError`` traceback."""
        (tmp_path / "bad-field.json").write_text('{"directives":[{"kind":"loss","p":2}]}')
        (tmp_path / "bad-value.json").write_text('{"directives":[{"kind":"loss","probability":2}]}')
        (tmp_path / "not-json.json").write_text("directives: []")
        names_file = tmp_path / "names.txt"
        names_file.write_text("a.com\n")
        out = tmp_path / "rows.jsonl"
        spec = plan if plan == "nosuch" else str(tmp_path / plan)
        err = self._expect_usage_error(
            ["A", "-f", str(names_file), "-o", str(out), "--fault-plan", spec], capsys
        )
        assert "usage:" in err and message in err
        assert not out.exists()

    def test_unknown_module_is_clean(self, capsys):
        self._expect_usage_error(["NOSUCHMODULE"], capsys)

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_status_interval_must_be_positive(self, tmp_path, capsys, interval):
        """Rejected before the scan, with or without --processes: the
        single-process status emitter raises mid-scan, and the fleet
        status loop prints nothing at 0 and spins below it."""
        names_file = tmp_path / "names.txt"
        names_file.write_text("a.com\nb.com\nc.net\nd.org\n")
        err = self._expect_usage_error(
            ["A", "-f", str(names_file), "--threads", "4", "--status-interval", interval],
            capsys,
        )
        assert "--status-interval must be > 0" in err

    def test_checkpoint_interval_is_gone(self, capsys):
        """``state.json`` follows the journal, so no cadence is left to set."""
        err = self._expect_usage_error(["A", "-p", "2", "--checkpoint-interval", "1"], capsys)
        assert "unrecognized arguments: --checkpoint-interval" in err


class TestCliParallel:
    """End-to-end through the CLI entry point."""

    def test_cli_determinism_across_process_counts(self, tmp_path, corpus):
        names_file = tmp_path / "names.txt"
        names_file.write_text("\n".join(corpus) + "\n")
        outputs = []
        for tag, procs in (("p1", "1"), ("p2", "2")):
            out = tmp_path / f"out-{tag}.jsonl"
            code = main(
                [
                    "A",
                    "--input-file", str(names_file),
                    "--output-file", str(out),
                    "--processes", procs,
                    "--mp-shards", "3",
                    "--no-timestamps",
                    "--quiet",
                    "--seed", "7",
                    "--threads", "50",
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == NAMES

    @pytest.mark.parametrize("interval", ["inf", "1e300"])
    def test_status_interval_beyond_the_scan_prints_one_line(self, tmp_path, capsys, interval):
        """An interval no scan reaches is accepted and prints only the
        final line; the parent's wait once took it as a timeout and died
        with an ``OverflowError``."""
        names_file = tmp_path / "names.txt"
        names_file.write_text("a.com\nb.com\n")
        code = main(
            ["A", "-f", str(names_file), "-o", str(tmp_path / "rows.jsonl"), "-p", "2",
             "--threads", "4", "--quiet", "--status-interval", interval]
        )
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("t=") and "2/2 done" in lines[0], lines

    def test_dnssec_summary_survives_processes(self, tmp_path, corpus, capsys):
        """Regression: ``--processes N --dnssec`` printed no ``dnssec``
        block, though the single-process summary carries one."""
        names_file = tmp_path / "names.txt"
        names_file.write_text("\n".join(corpus) + "\n")
        summaries = []
        for procs in ("1", "2"):
            code = main(
                [
                    "A", "--input-file", str(names_file),
                    "--output-file", str(tmp_path / f"out-{procs}.jsonl"),
                    "--processes", procs, "--dnssec", "--no-timestamps",
                    "--seed", "7", "--threads", "50",
                ]
            )
            assert code == 0
            summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert summary.pop("mp")["processes"] == int(procs)
            summaries.append(summary)
        assert summaries[0] == summaries[1]
        dnssec = summaries[0]["dnssec"]
        states = ("secure", "insecure", "bogus", "indeterminate")
        assert sum(dnssec[state] for state in states) == summaries[0]["total"] == NAMES

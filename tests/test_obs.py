"""Tests for the observability stack: metrics registry, spans, status
line, metadata, and their wiring through the scan runner and CLI."""

import io
import json
import random

import pytest

from repro.core import (
    IterativeMachine,
    ResolverConfig,
    SelectiveCache,
    SendQuery,
    SpanTracer,
    Status,
    Trace,
)
from repro.dnslib import RRType
from repro.framework import ScanConfig, ScanRunner
from repro.framework.stats import ScanStats
from repro.obs import (
    MetricsRegistry,
    NullInstrument,
    StatusLine,
    build_run_metadata,
    estimate_eta,
    format_status_line,
    parse_prometheus,
    write_metadata,
)
from repro.obs.metrics import NULL_REGISTRY, bucket_bounds, bucket_index


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("lookups")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5
        assert registry.snapshot() == {"lookups": 5}

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        gauge.set(17)
        assert gauge.snapshot() == 17

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_scope_qualifies_names(self):
        registry = MetricsRegistry()
        engine = registry.scope("engine")
        engine.counter("lookups").inc()
        engine.scope("status").counter("NOERROR").inc()
        assert set(registry.snapshot()) == {"engine.lookups", "engine.status.NOERROR"}

    def test_disabled_registry_hands_out_shared_null(self):
        registry = MetricsRegistry(enabled=False)
        a = registry.counter("a")
        b = registry.scope("x").histogram("b")
        assert isinstance(a, NullInstrument) and a is b
        a.inc()
        b.observe(3.0)
        assert len(registry) == 0
        assert registry.snapshot() == {}

    def test_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("anything").inc()
        assert len(NULL_REGISTRY) == 0


class TestHistogram:
    def test_bucket_boundaries_contain_their_values(self):
        # powers of two sit at bucket lower edges; 1.5x points split them
        for value in (
            0.001, 0.0013, 0.0015, 0.5, 0.74, 0.75, 1.0, 1.49, 1.5, 2.0, 250.0, 1000.0
        ):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high, (value, low, high)

    def test_bucket_split_at_three_quarters(self):
        # [0.5, 0.75) and [0.75, 1.0) are distinct half-octave buckets
        assert bucket_index(0.74) != bucket_index(0.76)
        assert bucket_bounds(bucket_index(0.5)) == (0.5, 0.75)
        assert bucket_bounds(bucket_index(0.75)) == (0.75, 1.0)

    def test_non_positive_values_share_underflow_bucket(self):
        assert bucket_index(0.0) == bucket_index(-5.0)
        low, high = bucket_bounds(bucket_index(0.0))
        assert low < 0.0 and high == 0.0

    def test_quantiles_bounded_by_observations(self):
        histogram = MetricsRegistry().histogram("latency")
        values = [0.001 * (i + 1) for i in range(100)]
        for value in values:
            histogram.observe(value)
        p50, p99 = histogram.quantile(0.5), histogram.quantile(0.99)
        assert min(values) <= p50 <= p99 <= max(values)
        # half-octave buckets bound relative error: p50 within [0.025, 0.1]
        assert 0.025 <= p50 <= 0.1

    def test_single_value_quantiles_are_exact(self):
        histogram = MetricsRegistry().histogram("h")
        for _ in range(10):
            histogram.observe(0.042)
        assert histogram.quantile(0.5) == pytest.approx(0.042)
        assert histogram.quantile(0.99) == pytest.approx(0.042)

    def test_quantile_validation_and_empty(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_snapshot_summary(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        histogram.observe(3.0)
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(4.0)
        assert snap["min"] == 1.0 and snap["max"] == 3.0


class TestPrometheusRendering:
    def _registry(self):
        registry = MetricsRegistry()
        registry.scope("engine").counter("lookups").inc(42)
        registry.scope("cache").gauge("hit_rate").set(0.991)
        h = registry.scope("engine").histogram("queries_per_lookup")
        for value in (0.5, 3, 3, 700):
            h.observe(value)
        return registry

    def test_render_counters_gauges_histograms(self):
        text = self._registry().render_prometheus()
        assert "# HELP pyzdns_engine_lookups" in text
        assert "# TYPE pyzdns_engine_lookups counter" in text
        assert "pyzdns_engine_lookups 42" in text
        assert "# TYPE pyzdns_cache_hit_rate gauge" in text
        assert "pyzdns_cache_hit_rate 0.991" in text
        # exposition-format histogram: cumulative buckets ending at +Inf,
        # plus _sum/_count — no summary quantiles
        assert "# TYPE pyzdns_engine_queries_per_lookup histogram" in text
        assert 'pyzdns_engine_queries_per_lookup_bucket{le="+Inf"} 4' in text
        assert "pyzdns_engine_queries_per_lookup_count 4" in text
        assert "quantile=" not in text

    def test_round_trip_through_parser(self):
        """The rendering must survive a strict exposition-format parser:
        name grammar, TYPE-before-samples, le-ordered cumulative buckets,
        +Inf == _count, _sum/_count presence."""
        families = parse_prometheus(self._registry().render_prometheus())
        assert families["pyzdns_engine_lookups"]["type"] == "counter"
        assert families["pyzdns_engine_lookups"]["samples"][0][2] == 42.0
        hist = families["pyzdns_engine_queries_per_lookup"]
        assert hist["type"] == "histogram"
        buckets = [s for s in hist["samples"] if s[0].endswith("_bucket")]
        counts = [value for _, _, value in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1][1]["le"] == "+Inf"
        assert buckets[-1][2] == 4.0

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus("9bad_name 1\n")
        with pytest.raises(ValueError):
            parse_prometheus("ok_metric notanumber\n")
        with pytest.raises(ValueError):
            # buckets must be cumulative
            parse_prometheus(
                "# TYPE h histogram\n"
                'h_bucket{le="1"} 5\nh_bucket{le="2"} 3\nh_bucket{le="+Inf"} 5\n'
                "h_sum 4\nh_count 5\n"
            )
        with pytest.raises(ValueError):
            # +Inf bucket must equal _count
            parse_prometheus(
                "# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 4\nh_sum 4\nh_count 5\n'
            )

    def test_merged_fleet_registry_round_trips(self):
        """A multi-shard merged dump (relabelled scopes and all) still
        renders valid exposition text."""
        fleet = MetricsRegistry()
        for shard in range(2):
            worker = MetricsRegistry()
            worker.scope("engine").counter("lookups").inc(10 + shard)
            worker.scope("faults").counter("injected").inc(shard)
            worker.scope("engine").histogram("latency").observe(0.01 * (shard + 1))
            rename = lambda name, s=shard: (
                f"faults.shard{s}.{name[len('faults.'):]}"
                if name.startswith("faults.")
                else name
            )
            fleet.merge_dump(worker.dump(), rename=rename)
        families = parse_prometheus(fleet.render_prometheus())
        assert families["pyzdns_engine_lookups"]["samples"][0][2] == 21.0
        assert "pyzdns_faults_shard0_injected" in families
        assert "pyzdns_faults_shard1_injected" in families

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert parse_prometheus("") == {}


class TestSpans:
    def test_parent_child_nesting(self):
        rows = []
        tracer = SpanTracer(sink=rows.append)
        trace, interleaved = Trace(tracer), Trace(tracer)
        root = trace.open("lookup", name="example.com")
        interleaved.open("lookup", name="other.com")  # another lookup of the run
        trace.open("step", depth=0)
        trace.close("NOERROR")
        trace.close("NOERROR")
        # span ids count run-wide; parents come from each lookup's own stack
        assert rows[0]["span"] == "step" and rows[0]["id"] == 3
        assert rows[0]["parent"] == root.id == 1
        assert rows[1]["span"] == "lookup" and rows[1]["parent"] is None

    def test_unwind_closes_each_open_step_once(self):
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0])
        rows = []
        trace = Trace(SpanTracer(clock=lambda: next(clock), sink=rows.append))
        trace.open("lookup")
        trace.open("step")
        trace.open("glueless")
        trace.unwind("ITER_LIMIT")
        lookup, step, glueless = trace.steps
        assert (glueless.status, glueless.end) == ("ITER_LIMIT", 3.0)
        assert (step.status, step.end) == ("ITER_LIMIT", 4.0)
        assert lookup.end is None  # the lookup closes itself
        assert [row["span"] for row in rows] == ["glueless", "step"]

    def test_sink_streams_rows(self):
        rows = []
        trace = Trace(SpanTracer(clock=lambda: 0.0, sink=rows.append))
        trace.open("x", name="a.com")
        trace.close("NOERROR")
        assert rows == [
            {
                "span": "x",
                "id": 1,
                "parent": None,
                "start": 0.0,
                "end": 0.0,
                "duration": 0.0,
                "status": "NOERROR",
                "name": "a.com",
            }
        ]

    def test_span_rows_write_as_json_lines(self):
        from repro.framework import JsonLineSink

        handle = io.StringIO()
        trace = Trace(SpanTracer(sink=JsonLineSink(handle)))
        trace.open("x")
        trace.close("NOERROR")
        assert json.loads(handle.getvalue())["span"] == "x"

    def test_no_tracer_records_nothing(self):
        trace = Trace(None)
        assert trace.open("lookup") is None
        trace.close("NOERROR")
        assert trace.steps == [] and trace.to_json() == []


class TestMachineSpans:
    """Span trees produced by the actual resolution machine — driven by
    scripted responses, including a timeout/retry race."""

    def _resolve(self, responses, config=None):
        """Drive one A lookup where the leaf server yields ``responses``
        (a list; None entries are timeouts) and return the span rows."""
        from tests.test_machine import answer_msg, referral_msg, ROOTS

        rows = []
        config = config or ResolverConfig(retries=2)
        config.tracer = SpanTracer(clock=lambda: 0.0, sink=rows.append)
        machine = IterativeMachine(
            SelectiveCache(capacity=100), ROOTS, config, random.Random(0)
        )
        script = iter(responses)

        def respond(effect):
            assert isinstance(effect, SendQuery)
            if effect.server_ip in ROOTS:
                return referral_msg("com", ["10.0.0.1"])
            if effect.server_ip == "10.0.0.1":
                return referral_msg("example.com", ["10.1.0.1"])
            return next(script)

        gen = machine.resolve("www.example.com", RRType.A)
        try:
            effect = next(gen)
            while True:
                effect = gen.send(respond(effect))
        except StopIteration as stop:
            result = stop.value
        return result, rows

    def test_clean_lookup_has_nested_query_spans(self):
        from tests.test_machine import answer_msg

        result, rows = self._resolve([answer_msg("www.example.com", [])])
        assert result.status == Status.NOERROR
        lookup = [r for r in rows if r["span"] == "lookup"]
        steps = [r for r in rows if r["span"] == "step"]
        queries = [r for r in rows if r["span"] == "query"]
        assert len(lookup) == 1 and lookup[0]["parent"] is None
        assert len(steps) == 1 and steps[0]["parent"] == lookup[0]["id"]
        assert len(queries) == 3  # root, com, example.com
        assert all(q["parent"] == steps[0]["id"] for q in queries)
        assert [q["try_count"] for q in queries] == [1, 1, 1]
        cache_probes = [r for r in rows if r["span"] == "cache_probe"]
        assert len(cache_probes) == 1 and cache_probes[0]["status"] == "miss"

    def test_timeout_race_spans_record_each_attempt(self):
        from tests.test_machine import answer_msg

        # leaf times out twice, then answers on the third attempt
        result, rows = self._resolve([None, None, answer_msg("www.example.com", [])])
        assert result.status == Status.NOERROR
        leaf = [
            r for r in rows
            if r["span"] == "query" and r.get("name_server") == "10.1.0.1:53"
        ]
        assert [q["try_count"] for q in leaf] == [1, 2, 3]
        assert [q["status"] for q in leaf] == ["TIMEOUT", "TIMEOUT", "NOERROR"]
        # parent step span carries the final outcome
        step = [r for r in rows if r["span"] == "step"][0]
        assert step["status"] == "NOERROR"
        assert all(q["parent"] == step["id"] for q in leaf)

    def test_budget_spent_at_tcp_fallback_closes_every_span(self):
        from tests.test_machine import answer_msg

        config = ResolverConfig(retries=0, max_queries=3)
        result, rows = self._resolve([answer_msg("www.example.com", [], truncated=True)], config)
        assert result.status == Status.ITER_LIMIT
        # every span opened (ids count from 1) was closed and streamed
        assert config.tracer.started == len(rows) == 6
        leaf = [r for r in rows if r["span"] == "query" and r["name_server"] == "10.1.0.1:53"]
        assert [(q.get("protocol"), q["status"]) for q in leaf] == [(None, "TRUNCATED")]

    def test_exhausted_retries_close_every_span(self):
        result, rows = self._resolve([None, None, None])
        assert result.status == Status.ITERATIVE_TIMEOUT
        assert all(row["end"] >= row["start"] for row in rows)
        lookup = [r for r in rows if r["span"] == "lookup"][0]
        assert lookup["status"] == "ITERATIVE_TIMEOUT"


class TestStatusLine:
    def _watch(self, interval, schedule, finish_at):
        """A status line on a fake clock: each (time, status) records a
        completion and polls, each (time, None) polls alone, as the
        executor's receive loop does on a message that finishes no lookup."""
        now = [0.0]
        stats, stream = ScanStats(), io.StringIO()
        status = StatusLine(interval, stats.counters, stream=stream, clock=lambda: now[0])
        for when, outcome in schedule:
            now[0] = when
            if outcome is not None:
                stats.record(outcome, when)
            status.poll()
        now[0] = finish_at
        status.finish()
        return stream.getvalue().splitlines()

    def test_interval_math_on_its_clock(self):
        lines = self._watch(
            1.0,
            [(0.2, "NOERROR"), (0.4, "NOERROR"), (1.0, None), (1.3, "TIMEOUT"),
             (2.0, None), (2.7, "NOERROR"), (3.0, None)],
            finish_at=3.5,
        )
        # lines at t=1, 2, 3: rates are completions per 1s interval
        assert len(lines) == 3
        assert lines[0].startswith("t=1.0s; 2 done; 2.0/s now; 2.0/s avg")
        assert lines[1].startswith("t=2.0s; 3 done; 1.0/s now")
        assert "1 timeouts" in lines[1]
        assert lines[2].startswith("t=3.0s; 4 done; 1.0/s now")

    def test_finish_emits_final_line(self):
        lines = self._watch(10.0, [(0.5, "NOERROR")], finish_at=0.6)
        assert len(lines) == 1 and "1 done" in lines[0]

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            StatusLine(0, ScanStats().counters)

    def test_format_line_shape(self):
        line = format_status_line(
            elapsed=5.0, total=1234, interval_rate=800.0, average_rate=246.8,
            success_rate=0.972, in_flight=50, timeouts=12, retries=34,
            cache_hit_rate=0.991,
        )
        assert line == (
            "t=5.0s; 1234 done; 800.0/s now; 246.8/s avg; 97.2% ok; "
            "50 in-flight; 12 timeouts; 34 retries; cache 99.1%"
        )
        line = format_status_line(
            elapsed=2.0, total=100, interval_rate=50.0, average_rate=50.0,
            success_rate=0.97, in_flight=20, timeouts=1, retries=2,
            cache_hit_rate=None, target=500, eta=estimate_eta(100, 500, 50.0),
        )
        assert line.startswith("t=2.0s; 100/500 done; eta 8s; 50.0/s now")

    def test_cache_segment_optional(self):
        line = format_status_line(
            elapsed=1.0, total=1, interval_rate=1.0, average_rate=1.0,
            success_rate=1.0, in_flight=0, timeouts=0, retries=0,
            cache_hit_rate=None,
        )
        assert "cache" not in line


class TestMetadata:
    def test_round_trip(self, tmp_path):
        summary = {"total": 25, "statuses": {"NOERROR": 25}}
        metadata = build_run_metadata(
            summary,
            args={"module": "A", "threads": 5, "_private": "dropped"},
            wall_seconds=1.23456,
            virtual_seconds=9.87,
            metrics={"engine.lookups": 25},
        )
        path = tmp_path / "meta.json"
        write_metadata(path, metadata)
        data = json.loads(path.read_text())
        assert data["total"] == 25
        assert data["statuses"] == {"NOERROR": 25}
        assert data["args"] == {"module": "A", "threads": 5}
        assert data["durations"] == {"wall_s": 1.235, "virtual_s": 9.87}
        assert data["metrics"] == {"engine.lookups": 25}
        assert data["tool"]["name"] == "pyzdns-repro"
        assert "profile" not in data

    def test_profile_is_not_a_metadata_argument(self):
        """The cProfile hook is gone; a per-function call count is the
        verify recipe's job, not the metadata file's."""
        with pytest.raises(TypeError):
            build_run_metadata({"total": 0}, profile={"top": 25, "report": "..."})


class TestScanStatsRegistryMirror:
    def test_publish_mirrors_records(self):
        registry = MetricsRegistry()
        stats = ScanStats()
        stats.record("NOERROR", 1.0, queries=3, retries=1)
        stats.record("TIMEOUT", 2.0, queries=6)
        stats.publish_metrics(registry.scope("engine"))
        stats.record("NOERROR", 3.0, queries=1)
        stats.publish_metrics(registry.scope("engine"))
        assert registry.snapshot() == {
            "engine.lookups": 3,
            "engine.successes": 2,
            "engine.queries_sent": 10,
            "engine.retries_used": 1,
            "engine.status.NOERROR": 2,
            "engine.status.TIMEOUT": 1,
        }
        assert all(type(metric).__name__ == "Counter" for metric in registry)

    def test_publishing_into_a_shared_registry_sums_scans(self):
        registry = MetricsRegistry()
        for status in ("NOERROR", "SERVFAIL"):
            stats = ScanStats()
            stats.record(status, 1.0, queries=2)
            stats.publish_metrics(registry.scope("engine"))
            stats.publish_metrics(registry.scope("engine"))  # idempotent
        snap = registry.snapshot()
        assert (snap["engine.lookups"], snap["engine.queries_sent"]) == (2, 4)
        assert (snap["engine.status.NOERROR"], snap["engine.status.SERVFAIL"]) == (1, 1)

    def test_unattached_stats_register_nothing(self):
        """Recording a lookup publishes nothing: a scan's counts reach a
        registry only through ``publish_metrics``."""
        stats = ScanStats()
        stats.record("NOERROR", 1.0)
        assert stats._published == {}
        assert not hasattr(stats, "attach")

    def test_scan_engine_scope_is_published_in_first_seen_order(self):
        """The run's ``engine`` scope lists the four counters, the
        histogram and the gauge first, then one counter per status in the
        order each status first ended a lookup, all ahead of the
        end-of-run scopes: the order the Prometheus dump prints."""
        from repro.ecosystem import build_internet
        from repro.framework import ScanConfig, ScanRunner
        from repro.workloads import CorpusConfig, DomainCorpus

        names = list(DomainCorpus(CorpusConfig(seed=11)).fqdns(40))
        report = ScanRunner(build_internet(), ScanConfig(threads=10, seed=3, metrics=True)).run(names)
        engine = [name for name in report.metrics if name.startswith("engine.")]
        statuses = [f"engine.status.{status}" for status in report.stats.by_status]
        assert engine == [
            "engine.lookups", "engine.successes", "engine.queries_sent",
            "engine.retries_used", "engine.queries_per_lookup", "engine.inflight",
            *statuses, "engine.cpu_utilisation", "engine.threads_running",
        ]
        order = list(report.metrics)
        first_scheduler = next(i for i, name in enumerate(order) if name.startswith("scheduler."))
        assert order.index(statuses[-1]) < first_scheduler
        assert report.metrics["engine.lookups"] == report.stats.total == 40
        assert report.metrics["engine.queries_sent"] == report.stats.queries_sent
        assert 0 < report.metrics["engine.queries_per_lookup"]["count"] <= 40


@pytest.fixture(scope="module")
def small_scan_names():
    from repro.workloads import CorpusConfig, DomainCorpus

    return list(DomainCorpus(CorpusConfig(seed=11)).fqdns(60))


def _renderings_agree(rows, spans) -> int:
    """Check that a scan's output rows and span rows render the same
    steps: every span's parent chain ends at a ``lookup``; per lookup the
    span tree holds ``queries`` query spans; and each lookup has one
    non-cached Appendix C row per query span that is not a TCP retry and
    one cached row per cache hit.  Returns the queries sent."""
    by_id = {(span.get("shard"), span["id"]): span for span in spans}
    seen = {}
    for span in spans:
        lookup = span
        while lookup["parent"] is not None:
            lookup = by_id[(span.get("shard"), lookup["parent"])]
        assert lookup["span"] == "lookup", span
        counts = seen.setdefault(id(lookup), {"query": 0, "tcp": 0, "hit": 0})
        if span["span"] == "query":
            counts["query"] += 1
            counts["tcp"] += span.get("protocol") == "tcp"
        elif span["span"] == "cache_probe":
            counts["hit"] += span["status"] in ("hit", "answer_hit")
    lookups = [span for span in spans if span["span"] == "lookup"]
    assert len(lookups) == len(seen) == len(rows)
    from_spans = []
    for lookup in lookups:
        counts = seen[id(lookup)]
        assert lookup["queries"] == counts["query"]
        from_spans.append((lookup["name"], counts["query"] - counts["tcp"], counts["hit"]))
    from_rows = sorted(
        (
            row["name"],
            sum(not step["cached"] for step in row.get("trace", ())),
            sum(step["cached"] for step in row.get("trace", ())),
        )
        for row in rows
    )
    assert from_rows == sorted(from_spans)
    return sum(counts["query"] for counts in seen.values())


class TestRunnerIntegration:
    def _run(self, names, **kwargs):
        from repro.ecosystem import EcosystemParams, build_internet

        internet = build_internet(params=EcosystemParams(seed=11))
        config = ScanConfig(threads=10, seed=11, **kwargs)
        return ScanRunner(internet, config).run(names)

    def test_metrics_cover_engine_scheduler_cache(self, small_scan_names):
        report = self._run(small_scan_names, metrics=True)
        metrics = report.metrics
        assert metrics["engine.lookups"] == 60
        assert metrics["engine.inflight"] == 0  # all lookups drained
        assert metrics["scheduler.events_executed"] > 0
        assert "scheduler.peak_ready_depth" in metrics
        assert "cache.hit_rate" in metrics
        assert "net.packets_delivered" in metrics or any(
            key.startswith("net.") for key in metrics
        )
        assert report.registry.enabled

    def test_metrics_match_legacy_stats(self, small_scan_names):
        report = self._run(small_scan_names, metrics=True)
        assert report.metrics["engine.queries_sent"] == report.stats.queries_sent
        assert report.metrics["engine.successes"] == report.stats.successes
        statuses = {
            key.rsplit(".", 1)[1]: value
            for key, value in report.metrics.items()
            if key.startswith("engine.status.")
        }
        assert statuses == dict(report.stats.by_status)

    def test_disabled_run_records_nothing(self, small_scan_names):
        report = self._run(small_scan_names)
        assert report.metrics == {}
        assert not report.registry.enabled
        assert report.spans is None

    def test_status_interval_emits_and_terminates(self, small_scan_names):
        stream = io.StringIO()
        from repro.ecosystem import EcosystemParams, build_internet

        internet = build_internet(params=EcosystemParams(seed=11))
        config = ScanConfig(threads=10, seed=11, status_interval=0.5)
        report = ScanRunner(internet, config, status_stream=stream).run(small_scan_names)
        lines = stream.getvalue().splitlines()
        assert lines, "no status lines emitted"
        assert all("in-flight" in line for line in lines)
        # final line reports the full scan
        assert f"{report.stats.total} done" in lines[-1]

    def test_a_tiny_status_interval_still_ends(self, small_scan_names):
        """An interval too small to move a clock (a virtual timer of it
        re-armed at the same instant forever) prints a line per poll and
        lets the scan end."""
        from repro.ecosystem import EcosystemParams, build_internet

        stream = io.StringIO()
        config = ScanConfig(threads=10, seed=11, status_interval=1e-300, max_events=100_000)
        internet = build_internet(params=EcosystemParams(seed=11))
        report = ScanRunner(internet, config, status_stream=stream).run(small_scan_names[:1])
        assert report.stats.total == 1
        assert "1 done" in stream.getvalue().splitlines()[-1]

    def test_span_collection_on_report(self, small_scan_names):
        report = self._run(small_scan_names, collect_spans=True)
        # every span opened (ids count from 1) was closed and kept
        assert sorted(row["id"] for row in report.spans) == list(range(1, len(report.spans) + 1))
        lookups = [row for row in report.spans if row["span"] == "lookup"]
        assert len(lookups) == 60

    def test_deterministic_across_runs(self, small_scan_names):
        first = self._run(small_scan_names, metrics=True)
        second = self._run(small_scan_names, metrics=True)
        assert first.metrics == second.metrics

    def test_metrics_status_and_spans_together(self, small_scan_names):
        """Every layer on at once, as a monitored scan runs: streamed
        spans form closed trees, status lines flow, the report feeds the
        metadata builder, the rows and spans are two renderings of the
        same steps (also through the shard executor, validating, with
        faults that force TCP retries), and the results equal an
        unwatched scan's."""
        from repro.ecosystem import EcosystemParams, build_internet
        from repro.framework import run_parallel_scan

        rows, spans, status = [], [], io.StringIO()
        report = ScanRunner(
            build_internet(params=EcosystemParams(seed=11)),
            ScanConfig(threads=10, seed=11, metrics=True, status_interval=1.0,
                       collect_spans=True),
            sink=rows.append,
            span_sink=spans.append,
            status_stream=status,
        ).run(small_scan_names)
        assert report.stats.total == 60
        lines = status.getvalue().splitlines()
        assert lines and all("/s avg" in line for line in lines)
        assert report.metrics["engine.lookups"] == 60
        assert report.metrics["engine.inflight"] == 0

        ids = {row["id"] for row in spans}
        children = [row for row in spans if row["parent"] is not None]
        assert children and all(row["parent"] in ids for row in children)
        assert all(row["end"] >= row["start"] for row in spans)
        assert sum(row["span"] == "lookup" for row in spans) == 60
        assert _renderings_agree(rows, spans) == report.stats.queries_sent

        rows_out, spans_out = io.StringIO(), io.StringIO()
        sharded = run_parallel_scan(
            small_scan_names, ScanConfig(threads=10, seed=11, dnssec=True),
            processes=2, out=rows_out, span_out=spans_out, add_timestamp=False,
            fault_plan="moderate",
        )
        sent = _renderings_agree(
            [json.loads(line) for line in rows_out.getvalue().splitlines()],
            [json.loads(line) for line in spans_out.getvalue().splitlines()],
        )
        assert sent == sharded.stats.queries_sent

        metadata = build_run_metadata(
            report.stats.to_json(),
            args={"module": "A", "threads": 10},
            wall_seconds=0.5,
            virtual_seconds=report.stats.duration,
            metrics=report.metrics,
        )
        assert metadata["total"] == 60
        assert metadata["durations"]["wall_s"] == 0.5
        assert metadata["metrics"]["engine.lookups"] == 60

        # watching changes nothing about what the scan resolves
        plain = self._run(small_scan_names).stats
        assert report.stats.to_json() == plain.to_json()
        assert report.stats.duration == plain.duration


class TestCliObservability:
    @pytest.fixture()
    def names_file(self, tmp_path):
        from repro.workloads import CorpusConfig, DomainCorpus

        corpus = DomainCorpus(CorpusConfig(seed=3))
        path = tmp_path / "names.txt"
        path.write_text("\n".join(corpus.fqdns(20)))
        return str(path)

    def test_all_three_exports(self, names_file, tmp_path, capsys):
        from repro.framework.cli import main

        meta = tmp_path / "meta.json"
        prom = tmp_path / "metrics.prom"
        spans = tmp_path / "spans.jsonl"
        out = tmp_path / "out.jsonl"
        code = main([
            "A", "-f", names_file, "-o", str(out), "--threads", "5",
            "--seed", "5", "--quiet",
            "--status-interval", "1.0",
            "--metadata-file", str(meta),
            "--metrics-out", str(prom),
            "--spans-file", str(spans),
        ])
        assert code == 0
        # status stream went to stderr
        captured = capsys.readouterr()
        assert "in-flight" in captured.err

        data = json.loads(meta.read_text())
        assert data["total"] == 20
        assert data["args"]["threads"] == 5
        assert data["durations"]["wall_s"] >= 0
        assert data["metrics"]["engine.lookups"] == 20

        text = prom.read_text()
        assert "pyzdns_engine_lookups 20" in text
        assert "pyzdns_scheduler_events_executed" in text
        assert "pyzdns_cache_hit_rate" in text

        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        assert rows and any(row["span"] == "lookup" for row in rows)
        parents = {row["id"] for row in rows}
        assert all(
            row["parent"] in parents for row in rows if row["parent"] is not None
        )

    def test_watching_leaves_the_metrics_alone(self, names_file, tmp_path):
        """A status line and a control plane read the scan and schedule
        nothing on it: the ``--metrics-out`` dump, scheduler counters
        included, is byte-identical watched and unwatched, in one process
        and across the shard executor."""
        from repro.framework.cli import main

        def dump(tag, *flags):
            path = tmp_path / f"{tag}.prom"
            code = main([
                "A", "-f", names_file, "-o", str(tmp_path / f"{tag}.jsonl"),
                "--threads", "5", "--seed", "5", "--quiet", "--no-timestamps",
                "--metrics-out", str(path), *flags,
            ])
            assert code == 0
            return path.read_bytes()

        plain = dump("plain")
        assert dump("watched", "--status-interval", "0.5") == plain
        assert dump("served", "--http-port", "0") == plain
        assert dump("p2watched", "-p", "2", "--status-interval", "0.05") == dump("p2", "-p", "2")

    def test_flags_parse(self):
        from repro.framework.cli import build_parser

        args = build_parser().parse_args([
            "A", "--status-interval", "2.5", "--metrics-out", "-",
            "--spans-file", "s.jsonl",
        ])
        assert args.status_interval == 2.5
        assert args.metrics_out == "-"

"""Tests for the live scan control plane (repro.framework.telemetry +
repro.obs.server): the versioned delta protocol, the fleet fold (fed
by the shard executor or by a single-process scan), ETA estimation, and
the HTTP endpoints.
"""

import io
import json
import pickle
import urllib.error
import urllib.request

from dataclasses import fields

import pytest

from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import (
    DELTA_VERSION,
    FleetView,
    ScanConfig,
    ScanRunner,
    TelemetryDelta,
    run_parallel_scan,
)
from repro.framework.telemetry import PlannedTask
from repro.obs import MetricsRegistry, estimate_eta, parse_prometheus
from repro.obs.server import DASHBOARD_HTML, TelemetryServer
from repro.workloads import CorpusConfig, DomainCorpus


# ---------------------------------------------------------------------------
# TelemetryDelta: the versioned wire message
# ---------------------------------------------------------------------------


class TestTelemetryDelta:
    def test_field_set_is_progress_only(self):
        """A delta says how far a task got: its key travels beside it and
        its schedule lives in the view's plan.  Literals on purpose."""
        assert [f.name for f in fields(TelemetryDelta)] == [
            "seq", "done", "successes", "timeouts", "retries", "queries_sent",
            "in_flight", "virtual_now", "complete", "metrics", "version",
        ]
        assert DELTA_VERSION == 4

    def test_payload_round_trip(self):
        """The pipe carries the delta object itself."""
        delta = TelemetryDelta(
            seq=7, done=120, successes=110, timeouts=4, retries=9,
            queries_sent=500, in_flight=12, virtual_now=8.25, complete=False,
            metrics=[("engine.lookups", "counter", 120)],
        )
        clone = pickle.loads(pickle.dumps(("delta", (3, 0), delta)))
        assert clone == ("delta", (3, 0), delta)

    def test_unknown_version_rejected(self):
        """A v3 delta (scheduling fields on board) is not misread."""
        with pytest.raises(ValueError, match="version 3"):
            FleetView().update(TelemetryDelta(seq=1, version=3))

    def test_fleet_view_rejects_unknown_version(self):
        delta = TelemetryDelta(seq=1)
        delta.version = DELTA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            FleetView().update(delta)

    def test_v2_scheduling_fields_round_trip(self):
        """The ownership/steal/resume annotations that v2 put on each
        delta round trip through the plan: installed, then recorded at
        dispatch."""
        fleet = FleetView()
        fleet.set_plan({
            (2, 0): PlannedTask(target=20, owner=2),
            (2, 1): PlannedTask(target=40, owner=2, resumed=True),
        })
        fleet.assign((2, 0), worker=0, stolen_from=2)
        schedule = fleet.schedule()
        assert list(schedule) == [(2, 0), (2, 1)]
        assert schedule[(2, 0)] == PlannedTask(target=20, owner=2, worker=0, stolen_from=2)
        assert schedule[(2, 1)] == PlannedTask(target=40, owner=2, resumed=True)


# ---------------------------------------------------------------------------
# FleetView: latest-wins folding and fleet aggregation
# ---------------------------------------------------------------------------


def _delta(seq, done, complete=False, metrics=None):
    return TelemetryDelta(
        seq=seq, done=done, successes=done, queries_sent=3 * done,
        in_flight=5, virtual_now=float(seq), complete=complete, metrics=metrics,
    )


def _planned(shards, target=100, **kwargs):
    """A view planned as ``shards`` whole-shard tasks of ``target`` names."""
    fleet = FleetView(**kwargs)
    fleet.set_plan({(shard, 0): PlannedTask(target=target, owner=shard) for shard in range(shards)})
    return fleet


class TestFleetView:
    def test_latest_delta_wins_per_shard(self):
        fleet = FleetView()
        fleet.update(_delta(seq=1, done=10))
        fleet.update(_delta(seq=3, done=30))
        fleet.update(_delta(seq=2, done=20))  # stale: arrived late
        assert fleet.fleet_counters()["done"] == 30

    def test_counters_sum_across_shards(self):
        fleet = _planned(3, target=300)
        for shard in range(3):
            fleet.update(_delta(seq=1, done=10 * (shard + 1)), (shard, 0))
        counters = fleet.fleet_counters()
        assert counters["done"] == 60
        assert counters["in_flight"] == 15
        assert counters["shards_complete"] == 0

    def test_snapshot_shape_and_eta(self):
        clock_value = [0.0]
        fleet = _planned(
            2, target=50, run_info={"module": "A"}, clock=lambda: clock_value[0],
        )
        clock_value[0] = 2.0  # 2s elapsed
        fleet.update(_delta(seq=4, done=20), (0, 0))
        fleet.update(_delta(seq=4, done=30, complete=True), (1, 0))
        snapshot = fleet.status_snapshot()
        assert snapshot["version"] == DELTA_VERSION
        assert snapshot["fleet"]["done"] == 50
        assert snapshot["fleet"]["rate_per_s"] == 25.0
        # 50 remaining at 25/s
        assert snapshot["fleet"]["eta_s"] == 2.0
        assert snapshot["fleet"]["shards_reporting"] == 2
        assert snapshot["fleet"]["shards_complete"] == 1
        assert [row["shard"] for row in snapshot["shards"]] == [0, 1]
        assert [row["target"] for row in snapshot["shards"]] == [50, 50]
        assert json.dumps(snapshot)  # JSON-serialisable end to end

    def test_merged_registry_relabels_scoped_metrics(self):
        def dump_for(shard):
            registry = MetricsRegistry(enabled=True)
            registry.scope("engine").counter("lookups").inc(10)
            registry.scope("faults").counter("injected").inc(shard + 1)
            return registry.dump()

        fleet = _planned(2)
        for shard in range(2):
            fleet.update(_delta(seq=1, done=10, metrics=dump_for(shard)), (shard, 0))
        snap = fleet.merged_registry().snapshot()
        assert snap["engine.lookups"] == 20
        assert snap["faults.shard0.injected"] == 1
        assert snap["faults.shard1.injected"] == 2

    def test_finish_marks_complete_and_clears_eta(self):
        fleet = FleetView(target=100)
        fleet.update(_delta(seq=1, done=100, complete=True))
        fleet.finish()
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["complete"] is True
        assert snapshot["fleet"]["eta_s"] is None

    def test_set_plan_holds_shard_incomplete_until_all_segments(self):
        """A shard pre-segmented for work stealing must not show complete
        until *every* segment task has reported complete — even if all
        segments seen so far are done."""
        fleet = FleetView()
        fleet.set_plan({(0, segment): PlannedTask(target=10, owner=0) for segment in range(3)})
        for segment in (0, 1):
            fleet.update(_delta(seq=1, done=10, complete=True), (0, segment))
        snapshot = fleet.status_snapshot()
        row = snapshot["shards"][0]
        assert row["complete"] is False
        assert row["segments_done"] == 2 and row["segments"] == 3
        assert row["target"] == 30
        assert snapshot["fleet"]["shards_complete"] == 0
        fleet.update(_delta(seq=1, done=10, complete=True), (0, 2))
        snapshot = fleet.status_snapshot()
        assert snapshot["shards"][0]["complete"] is True
        assert snapshot["fleet"]["shards_complete"] == 1

    def test_status_rows_carry_ownership_steal_and_resume_state(self):
        fleet = FleetView(run_info={"module": "A"})
        fleet.run_info["resumed_from"] = "/scans/ck"
        fleet.set_plan({
            (0, 0): PlannedTask(target=10, owner=0, resumed=True),
            (0, 1): PlannedTask(target=10, owner=0),
            (1, 0): PlannedTask(target=20, owner=1),
        })
        fleet.assign((0, 1), worker=1, stolen_from=0)
        fleet.assign((1, 0), worker=1)
        fleet.update(_delta(seq=0, done=10, complete=True), (0, 0))
        fleet.update(_delta(seq=1, done=10, complete=True), (0, 1))
        fleet.update(_delta(seq=1, done=20, complete=True), (1, 0))
        snapshot = fleet.status_snapshot()
        assert snapshot["run"]["resumed_from"] == "/scans/ck"
        assert snapshot["fleet"]["steals"] == 1
        assert snapshot["fleet"]["resumed_tasks"] == 1
        by_shard = {row["shard"]: row for row in snapshot["shards"]}
        assert by_shard[0]["owner"] == 0
        assert by_shard[0]["workers"] == [1]  # the resumed task ran in no worker
        assert by_shard[0]["steals"] == 1
        assert by_shard[0]["stolen_from"] == 0
        assert by_shard[0]["resumed"] is True
        assert by_shard[1]["workers"] == [1]
        assert by_shard[1]["steals"] == 0
        assert by_shard[1]["stolen_from"] is None
        assert by_shard[1]["resumed"] is False
        counters = fleet.fleet_counters()
        assert counters["steals"] == 1
        assert counters["resumed_tasks"] == 1
        assert json.dumps(snapshot)  # stays JSON-serialisable

    def test_shards_and_target_are_read_from_the_plan(self):
        """The fleet's shard count is the plan's distinct shards and its
        target the sum of the planned tasks' targets; a view without a
        plan is its one implicit task."""
        fleet = FleetView(target=999)
        fleet.set_plan({
            (0, 0): PlannedTask(target=4), (0, 1): PlannedTask(target=3),
            (1, 0): PlannedTask(target=7), (2, 0): PlannedTask(target=0),
        })
        planned = fleet.status_snapshot()["fleet"]
        assert (planned["shards"], planned["target"]) == (3, 14)
        unplanned = FleetView(target=12).status_snapshot()["fleet"]
        assert (unplanned["shards"], unplanned["target"]) == (1, 12)
        assert FleetView().status_snapshot()["fleet"]["target"] is None

    def test_deltas_outside_the_plan_are_not_counted(self):
        """The plan is the one record of which tasks exist: a view
        without one is task (0, 0) alone."""
        fleet = FleetView(target=10)
        fleet.update(_delta(seq=1, done=10, complete=True))
        fleet.update(_delta(seq=1, done=99, complete=True), (1, 0))
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["done"] == 10
        assert [(row["shard"], row["target"]) for row in snapshot["shards"]] == [(0, 10)]


# ---------------------------------------------------------------------------
# estimate_eta
# ---------------------------------------------------------------------------


class TestEstimateEta:
    def test_basic_extrapolation(self):
        assert estimate_eta(100, 500, 50.0) == pytest.approx(8.0)

    def test_no_target_or_rate(self):
        assert estimate_eta(100, None, 50.0) is None
        assert estimate_eta(100, 0, 50.0) is None
        assert estimate_eta(0, 500, 0.0) is None

    def test_target_reached_is_zero(self):
        assert estimate_eta(500, 500, 50.0) == 0.0
        assert estimate_eta(600, 500, 50.0) == 0.0


# ---------------------------------------------------------------------------
# FleetView + TelemetryServer: single-process control plane end to end
# ---------------------------------------------------------------------------


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


class TestServerEndpoints:
    def test_endpoints_serve_live_scan_state(self):
        internet = build_internet(params=EcosystemParams(seed=5))
        names = list(DomainCorpus(CorpusConfig(seed=5)).fqdns(60))
        fleet = FleetView(run_info={"module": "A", "mode": "iterative"})
        server = TelemetryServer(
            status=fleet.status_snapshot, metrics=fleet.prometheus
        ).start()
        try:
            assert server.port > 0
            # before the first delta: empty but well-formed documents
            status, ctype, body = _get(f"{server.url}/status.json")
            assert status == 200 and ctype == "application/json"
            early = json.loads(body)
            assert early["fleet"]["done"] == 0
            assert early["shards"] == []

            fleet.target = len(names)
            report = ScanRunner(
                internet,
                ScanConfig(module="A", threads=30, seed=5),
                progress=fleet.update,
                target=len(names),
            ).run(names)
            fleet.finish()

            status, _, body = _get(f"{server.url}/status.json")
            snapshot = json.loads(body)
            assert snapshot["fleet"]["done"] == report.stats.total == 60
            assert snapshot["fleet"]["target"] == 60
            assert snapshot["fleet"]["complete"] is True
            assert snapshot["run"]["module"] == "A"
            assert snapshot["fleet"]["cache_hit_rate"] >= 0.0
            assert len(snapshot["shards"]) == 1

            status, ctype, body = _get(f"{server.url}/metrics")
            assert status == 200 and "text/plain" in ctype
            families = parse_prometheus(body.decode("utf-8"))
            assert families["pyzdns_engine_lookups"]["samples"][0][2] == 60.0
            assert any(name.startswith("pyzdns_codec_") for name in families)

            status, ctype, body = _get(f"{server.url}/")
            assert status == 200 and "text/html" in ctype
            assert b"status.json" in body and b"<svg" in body
        finally:
            server.stop()

    def test_unknown_path_is_404(self):
        fleet = FleetView()
        with TelemetryServer(status=fleet.status_snapshot, metrics=fleet.prometheus) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/nope")
            assert excinfo.value.code == 404

    def test_provider_error_is_500_not_crash(self):
        def broken():
            raise RuntimeError("boom")

        with TelemetryServer(status=broken, metrics=lambda: "") as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/status.json")
            assert excinfo.value.code == 500
            # the server survives the provider error
            status, _, _ = _get(f"{server.url}/metrics")
            assert status == 200

    def test_status_json_reports_resume_and_steal_state(self):
        """During a resumed scan, /status.json must expose where the run
        came from and per-shard ownership/steal annotations — the bits
        an operator checks after restarting a crashed fleet."""
        fleet = FleetView(run_info={"module": "A", "resumed_from": "/scans/ck"})
        fleet.set_plan({
            (0, 0): PlannedTask(target=10, owner=0, resumed=True),
            (0, 1): PlannedTask(target=10, owner=0),
            (1, 0): PlannedTask(target=10, owner=1),
            (1, 1): PlannedTask(target=10, owner=1),
        })
        fleet.assign((1, 1), worker=0, stolen_from=1)
        fleet.update(TelemetryDelta(seq=0, done=10, complete=True), (0, 0))
        fleet.update(TelemetryDelta(seq=1, done=4), (1, 1))
        with TelemetryServer(
            status=fleet.status_snapshot, metrics=fleet.prometheus
        ) as server:
            status, _, body = _get(f"{server.url}/status.json")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["run"]["resumed_from"] == "/scans/ck"
        assert snapshot["fleet"]["steals"] == 1
        assert snapshot["fleet"]["resumed_tasks"] == 1
        by_shard = {row["shard"]: row for row in snapshot["shards"]}
        assert by_shard[0]["owner"] == 0 and by_shard[0]["resumed"] is True
        assert by_shard[0]["complete"] is False  # 1 of 2 segments reported
        assert by_shard[1]["stolen_from"] == 1

    def test_stop_is_idempotent_and_start_rebinds(self):
        fleet = FleetView()
        server = TelemetryServer(status=fleet.status_snapshot, metrics=fleet.prometheus)
        server.start()
        first_port = server.port
        server.stop()
        server.stop()
        server.start()
        assert server.port != 0
        status, _, _ = _get(f"{server.url}/")
        assert status == 200
        server.stop()
        assert first_port > 0


def _key_paths(document, prefix=""):
    """Every key path of a JSON document; list items share one path."""
    if isinstance(document, dict):
        paths = set()
        for key, value in document.items():
            paths.add(f"{prefix}.{key}")
            paths |= _key_paths(value, f"{prefix}.{key}")
        return paths
    if isinstance(document, list):
        return set().union(*(_key_paths(item, f"{prefix}[]") for item in document))
    return set()


class TestOneStatusShape:
    def test_single_process_status_matches_one_process_executor(self):
        """A single-process scan streams the same deltas into the same
        FleetView as the shard executor: ``/status.json`` has one shape."""
        names = list(DomainCorpus(CorpusConfig(seed=5)).fqdns(40))
        config = ScanConfig(module="A", threads=20, seed=5)

        single = FleetView(run_info={"module": "A"}, target=len(names))
        ScanRunner(
            build_internet(params=EcosystemParams(seed=5)),
            config,
            progress=single.update,
            target=len(names),
        ).run(names)
        single.finish()

        fleet = FleetView(run_info={"module": "A"})
        run_parallel_scan(
            names, config, processes=1, out=io.StringIO(), shards=1,
            add_timestamp=False, fleet_view=fleet,
        )

        single_doc, fleet_doc = single.status_snapshot(), fleet.status_snapshot()
        assert _key_paths(single_doc) == _key_paths(fleet_doc)
        assert single_doc["fleet"]["done"] == fleet_doc["fleet"]["done"] == 40
        assert single_doc["fleet"]["complete"] and fleet_doc["fleet"]["complete"]
        assert 0.0 <= single_doc["fleet"]["cache_hit_rate"] <= 1.0


class TestDashboard:
    def test_dashboard_is_self_contained(self):
        """No external scripts, stylesheets, or fonts: the dashboard must
        render from a scan box with no internet access."""
        lowered = DASHBOARD_HTML.lower()
        assert "<script src" not in lowered
        assert "<link" not in lowered
        assert "@import" not in lowered
        assert "http://" not in lowered and "https://" not in lowered

    def test_dashboard_polls_status_and_draws_shards(self):
        assert 'fetch("status.json"' in DASHBOARD_HTML
        assert "shards" in DASHBOARD_HTML
        assert "prefers-color-scheme: dark" in DASHBOARD_HTML

    def test_dashboard_renders_ownership_and_resume_state(self):
        """The fleet table draws the v2 scheduling columns: owner, steal
        and resume badges, segment progress, and the resumed-from line."""
        assert "<th>owner</th>" in DASHBOARD_HTML
        assert "stolen" in DASHBOARD_HTML
        assert "resumed" in DASHBOARD_HTML
        assert "resumed_from" in DASHBOARD_HTML
        assert "segments_done" in DASHBOARD_HTML


# ---------------------------------------------------------------------------
# degenerate rate math and out-of-order resume folding (regression)
# ---------------------------------------------------------------------------


class TestEstimateEtaDegenerateRates:
    """ZeroDivision/NaN/inf hardening: a poisoned rate must yield None,
    never a negative, infinite, or NaN ETA — NaN fails every ``<=``
    comparison, so it used to sail straight into ``/status.json`` where
    ``json.dumps`` emits an invalid bare ``NaN`` token."""

    def test_nan_rate_is_none(self):
        assert estimate_eta(100, 500, float("nan")) is None

    def test_inf_rate_is_none(self):
        assert estimate_eta(100, 500, float("inf")) is None
        assert estimate_eta(100, 500, float("-inf")) is None

    def test_negative_rate_is_none(self):
        assert estimate_eta(100, 500, -3.0) is None

    def test_tiny_rate_overflowing_to_inf_is_none(self):
        assert estimate_eta(0, 10**9, 5e-324) is None

    def test_eta_segment_omitted_for_degenerate_values(self):
        from repro.obs import format_status_line

        for eta in (float("nan"), float("inf"), -1.0):
            line = format_status_line(
                elapsed=1.0, total=10, interval_rate=1.0, average_rate=1.0,
                success_rate=1.0, in_flight=0, timeouts=0, retries=0,
                cache_hit_rate=None, target=100, eta=eta,
            )
            assert "eta" not in line
        line = format_status_line(
            elapsed=1.0, total=10, interval_rate=1.0, average_rate=1.0,
            success_rate=1.0, in_flight=0, timeouts=0, retries=0,
            cache_hit_rate=None, target=100, eta=45.0,
        )
        assert "eta 45s" in line

    def test_snapshot_with_zero_elapsed_and_empty_window_is_json_safe(self):
        """A snapshot taken before any time passed (or any delta landed)
        must still serialise: no ZeroDivisionError, no NaN leak."""
        fleet = FleetView(target=100, clock=lambda: 0.0)
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["eta_s"] is None
        assert snapshot["fleet"]["rate_per_s"] == 0.0
        text = json.dumps(snapshot)
        assert "NaN" not in text and "Infinity" not in text


class TestResumeFoldOrdering:
    """Regression (--resume): the executor installs its plan, resumed
    tasks marked, before anything else; replayed final deltas and live
    ones then arrive in any order, and the fold reads the schedule from
    the plan alone."""

    def _resumed_view(self):
        fleet = FleetView()
        fleet.set_plan({
            (0, 0): PlannedTask(target=20, owner=0, resumed=True),
            (0, 1): PlannedTask(target=10, owner=0, resumed=True),
        })
        return fleet

    def _replayed_final(self, done, metrics=None):
        return TelemetryDelta(done=done, successes=done, complete=True, metrics=metrics)

    def test_counters_survive_out_of_order_fold(self):
        fleet = self._resumed_view()
        fleet.update(self._replayed_final(done=10), (0, 1))
        row = fleet.status_snapshot()["shards"][0]
        assert (row["complete"], row["segments"], row["segments_done"]) == (False, 2, 1)
        fleet.update(self._replayed_final(done=20), (0, 0))
        counters = fleet.fleet_counters()
        assert counters["done"] == 30
        assert counters["resumed_tasks"] == 2
        assert counters["steals"] == 0
        assert counters["shards_complete"] == 1
        row = fleet.status_snapshot()["shards"][0]
        assert row["complete"] is True
        assert row["resumed"] is True
        assert row["target"] == 30

    def test_merged_registry_folds_replayed_metrics(self):
        def dump_for(value):
            registry = MetricsRegistry(enabled=True)
            registry.scope("engine").counter("lookups").inc(value)
            return registry.dump()

        fleet = self._resumed_view()
        fleet.update(self._replayed_final(done=7, metrics=dump_for(7)), (0, 1))
        fleet.update(self._replayed_final(done=5, metrics=dump_for(5)), (0, 0))
        assert fleet.merged_registry().snapshot()["engine.lookups"] == 12

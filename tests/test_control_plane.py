"""Tests for the live scan control plane (repro.framework.telemetry +
repro.obs.server): the versioned delta protocol, the fleet fold (fed
by the shard executor or by a single-process scan), ETA estimation, and
the HTTP endpoints.
"""

import io
import json
import urllib.error
import urllib.request

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
from repro.obs import MetricsRegistry, estimate_eta, parse_prometheus
from repro.obs.server import DASHBOARD_HTML, TelemetryServer
from repro.workloads import CorpusConfig, DomainCorpus


# ---------------------------------------------------------------------------
# TelemetryDelta: the versioned wire message
# ---------------------------------------------------------------------------


class TestTelemetryDelta:
    def test_payload_round_trip(self):
        delta = TelemetryDelta(
            shard=3, seq=7, done=120, successes=110, timeouts=4, retries=9,
            queries_sent=500, in_flight=12, virtual_now=8.25,
            target=400, complete=False,
        )
        clone = TelemetryDelta.from_payload(delta.to_payload())
        assert clone == delta

    def test_unknown_version_rejected(self):
        payload = TelemetryDelta(shard=0, seq=1).to_payload()
        payload["version"] = DELTA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            TelemetryDelta.from_payload(payload)

    def test_fleet_view_rejects_unknown_version(self):
        delta = TelemetryDelta(shard=0, seq=1)
        delta.version = DELTA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            FleetView().update(delta)

    def test_v2_scheduling_fields_round_trip(self):
        """v2 deltas are per (shard, segment) task and carry the
        ownership/steal/resume annotations end to end."""
        delta = TelemetryDelta(
            shard=2, segment=1, segments=4, seq=3, done=40, target=60,
            owner=2, worker=0, stolen_from=1, resumed=True, complete=True,
        )
        clone = TelemetryDelta.from_payload(delta.to_payload())
        assert clone == delta
        assert clone.key == (2, 1)
        assert (clone.owner, clone.worker, clone.stolen_from, clone.resumed) == (
            2, 0, 1, True,
        )


# ---------------------------------------------------------------------------
# FleetView: latest-wins folding and fleet aggregation
# ---------------------------------------------------------------------------


def _delta(shard, seq, done, complete=False, metrics=None):
    return TelemetryDelta(
        shard=shard, seq=seq, done=done, successes=done, queries_sent=3 * done,
        in_flight=5, virtual_now=float(seq), target=100, complete=complete,
        metrics=metrics,
    )


class TestFleetView:
    def test_latest_delta_wins_per_shard(self):
        fleet = FleetView(shards=2)
        fleet.update(_delta(0, seq=1, done=10))
        fleet.update(_delta(0, seq=3, done=30))
        fleet.update(_delta(0, seq=2, done=20))  # stale: arrived late
        assert fleet.fleet_counters()["done"] == 30

    def test_counters_sum_across_shards(self):
        fleet = FleetView(shards=3, target=300)
        for shard in range(3):
            fleet.update(_delta(shard, seq=1, done=10 * (shard + 1)))
        counters = fleet.fleet_counters()
        assert counters["done"] == 60
        assert counters["in_flight"] == 15
        assert counters["shards_complete"] == 0

    def test_snapshot_shape_and_eta(self):
        clock_value = [0.0]
        fleet = FleetView(
            run_info={"module": "A"}, shards=2, target=100,
            clock=lambda: clock_value[0],
        )
        clock_value[0] = 2.0  # 2s elapsed
        fleet.update(_delta(0, seq=4, done=20))
        fleet.update(_delta(1, seq=4, done=30, complete=True))
        snapshot = fleet.status_snapshot()
        assert snapshot["version"] == DELTA_VERSION
        assert snapshot["fleet"]["done"] == 50
        assert snapshot["fleet"]["rate_per_s"] == 25.0
        # 50 remaining at 25/s
        assert snapshot["fleet"]["eta_s"] == 2.0
        assert snapshot["fleet"]["shards_reporting"] == 2
        assert snapshot["fleet"]["shards_complete"] == 1
        assert [row["shard"] for row in snapshot["shards"]] == [0, 1]
        assert json.dumps(snapshot)  # JSON-serialisable end to end

    def test_merged_registry_relabels_scoped_metrics(self):
        def dump_for(shard):
            registry = MetricsRegistry(enabled=True)
            registry.scope("engine").counter("lookups").inc(10)
            registry.scope("faults").counter("injected").inc(shard + 1)
            return registry.dump()

        fleet = FleetView(shards=2)
        for shard in range(2):
            fleet.update(_delta(shard, seq=1, done=10, metrics=dump_for(shard)))
        snap = fleet.merged_registry().snapshot()
        assert snap["engine.lookups"] == 20
        assert snap["faults.shard0.injected"] == 1
        assert snap["faults.shard1.injected"] == 2

    def test_finish_marks_complete_and_clears_eta(self):
        fleet = FleetView(shards=1, target=100)
        fleet.update(_delta(0, seq=1, done=100, complete=True))
        fleet.finish()
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["complete"] is True
        assert snapshot["fleet"]["eta_s"] is None

    def test_set_plan_holds_shard_incomplete_until_all_segments(self):
        """A shard pre-segmented for work stealing must not show complete
        until *every* segment task has reported complete — even if all
        segments seen so far are done."""
        fleet = FleetView(shards=1, target=30)
        fleet.set_plan({0: {"segments": 3, "target": 30, "owner": 0}})
        for segment in (0, 1):
            fleet.update(TelemetryDelta(
                shard=0, segment=segment, segments=3, seq=1, done=10,
                target=10, complete=True,
            ))
        snapshot = fleet.status_snapshot()
        row = snapshot["shards"][0]
        assert row["complete"] is False
        assert row["segments_done"] == 2 and row["segments"] == 3
        assert snapshot["fleet"]["shards_complete"] == 0
        fleet.update(TelemetryDelta(
            shard=0, segment=2, segments=3, seq=1, done=10,
            target=10, complete=True,
        ))
        snapshot = fleet.status_snapshot()
        assert snapshot["shards"][0]["complete"] is True
        assert snapshot["fleet"]["shards_complete"] == 1

    def test_status_rows_carry_ownership_steal_and_resume_state(self):
        fleet = FleetView(shards=2, target=40, run_info={"module": "A"})
        fleet.run_info["resumed_from"] = "/scans/ck"
        fleet.update(TelemetryDelta(
            shard=0, segment=0, segments=2, seq=1, done=10, target=10,
            owner=0, worker=0, complete=True, resumed=True,
        ))
        fleet.update(TelemetryDelta(
            shard=0, segment=1, segments=2, seq=1, done=10, target=10,
            owner=0, worker=1, stolen_from=0, complete=True,
        ))
        fleet.update(TelemetryDelta(
            shard=1, segment=0, segments=1, seq=1, done=20, target=20,
            owner=1, worker=1, complete=True,
        ))
        snapshot = fleet.status_snapshot()
        assert snapshot["run"]["resumed_from"] == "/scans/ck"
        assert snapshot["fleet"]["steals"] == 1
        assert snapshot["fleet"]["resumed_tasks"] == 1
        by_shard = {row["shard"]: row for row in snapshot["shards"]}
        assert by_shard[0]["owner"] == 0
        assert by_shard[0]["workers"] == [0, 1]
        assert by_shard[0]["steals"] == 1
        assert by_shard[0]["stolen_from"] == 0
        assert by_shard[0]["resumed"] is True
        assert by_shard[1]["steals"] == 0
        assert by_shard[1]["stolen_from"] is None
        assert by_shard[1]["resumed"] is False
        counters = fleet.fleet_counters()
        assert counters["steals"] == 1
        assert counters["resumed_tasks"] == 1
        assert json.dumps(snapshot)  # stays JSON-serialisable


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
        fleet = FleetView(run_info={"module": "A", "mode": "iterative"}, shards=1)
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
        fleet = FleetView(
            shards=2, target=40,
            run_info={"module": "A", "resumed_from": "/scans/ck"},
        )
        fleet.set_plan({
            0: {"segments": 2, "target": 20, "owner": 0},
            1: {"segments": 2, "target": 20, "owner": 1},
        })
        fleet.update(TelemetryDelta(
            shard=0, segment=0, segments=2, seq=1, done=10, target=10,
            owner=0, worker=0, complete=True, resumed=True,
        ))
        fleet.update(TelemetryDelta(
            shard=1, segment=1, segments=2, seq=1, done=4, target=10,
            owner=1, worker=0, stolen_from=1,
        ))
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

        single = FleetView(run_info={"module": "A"}, shards=1, target=len(names))
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
        fleet = FleetView(shards=1, target=100, clock=lambda: 0.0)
        snapshot = fleet.status_snapshot()
        assert snapshot["fleet"]["eta_s"] is None
        assert snapshot["fleet"]["rate_per_s"] == 0.0
        text = json.dumps(snapshot)
        assert "NaN" not in text and "Infinity" not in text


class TestResumeFoldOrdering:
    """Regression (--resume): a resumed run replays the journal before
    the executor lays out the plan, so a replayed shard's *final* delta
    can reach the FleetView before its ``set_plan`` segments.  The fold
    must trust whichever source knows about more segments, and a later
    ``set_plan`` must refine — never erase — what replay taught it."""

    def _replayed_final(self, shard, segment, segments, done):
        return TelemetryDelta(
            shard=shard, segment=segment, segments=segments, seq=9,
            done=done, successes=done, target=done, owner=shard, worker=1,
            stolen_from=0 if segment else None, resumed=True, complete=True,
        )

    def test_final_delta_before_set_plan_keeps_shard_incomplete(self):
        fleet = FleetView(shards=1, target=30)
        # replay: segment 0 of 3 arrives complete, before any plan
        fleet.update(self._replayed_final(0, segment=0, segments=3, done=10))
        row = fleet.status_snapshot()["shards"][0]
        assert row["complete"] is False  # 1 of 3 segments
        assert row["segments"] == 3
        # the plan lands afterwards: must not shrink or reset anything
        fleet.set_plan({0: {"segments": 3, "target": 30, "owner": 0}})
        row = fleet.status_snapshot()["shards"][0]
        assert row["complete"] is False
        assert (row["segments"], row["segments_done"]) == (3, 1)

    def test_counters_survive_out_of_order_fold(self):
        fleet = FleetView(shards=1, target=30)
        fleet.update(self._replayed_final(0, segment=1, segments=2, done=10))
        fleet.set_plan({0: {"segments": 2, "target": 30, "owner": 0}})
        fleet.update(self._replayed_final(0, segment=0, segments=2, done=20))
        counters = fleet.fleet_counters()
        assert counters["done"] == 30
        assert counters["resumed_tasks"] == 2
        assert counters["steals"] == 1  # segment 1 carried stolen_from=0
        assert counters["shards_complete"] == 1
        row = fleet.status_snapshot()["shards"][0]
        assert row["complete"] is True
        assert row["resumed"] is True

    def test_set_plan_merges_instead_of_replacing(self):
        """A second set_plan (the executor refreshing owners) must not
        drop shards or fields learned earlier."""
        fleet = FleetView(shards=2, target=40)
        fleet.set_plan({0: {"segments": 2, "target": 20, "owner": 0}})
        fleet.set_plan({1: {"segments": 1, "target": 20, "owner": 1}})
        fleet.set_plan({0: {"owner": 5}})  # partial refinement
        fleet.update(TelemetryDelta(shard=0, segment=0, segments=2, seq=1,
                                    done=10, target=10, complete=True))
        fleet.update(TelemetryDelta(shard=1, segment=0, segments=1, seq=1,
                                    done=20, target=20, complete=True))
        snapshot = fleet.status_snapshot()
        by_shard = {row["shard"]: row for row in snapshot["shards"]}
        assert by_shard[0]["owner"] == 5  # refined
        assert by_shard[0]["segments"] == 2  # preserved from the first call
        assert by_shard[0]["complete"] is False
        assert by_shard[1]["complete"] is True

    def test_merged_registry_folds_replayed_metrics(self):
        def dump_for(value):
            registry = MetricsRegistry(enabled=True)
            registry.scope("engine").counter("lookups").inc(value)
            return registry.dump()

        fleet = FleetView(shards=1)
        # replayed metrics land before the plan; both must fold
        fleet.update(TelemetryDelta(shard=0, segment=0, segments=2, seq=1,
                                    done=5, complete=True,
                                    metrics=dump_for(5)))
        fleet.set_plan({0: {"segments": 2}})
        fleet.update(TelemetryDelta(shard=0, segment=1, segments=2, seq=1,
                                    done=7, complete=True,
                                    metrics=dump_for(7)))
        assert fleet.merged_registry().snapshot()["engine.lookups"] == 12

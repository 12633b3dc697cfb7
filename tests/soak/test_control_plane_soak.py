"""The live control plane under a real 4-process scan.

A poller thread scrapes ``/status.json`` and ``/metrics`` every ~25 ms
while the scan runs.  Every poll must parse; the fleet ``done`` counter
must never go backwards and must be seen strictly between 0 and the
total at least once (live progress, not just a final snapshot); some
poll must show a shard row with progress; every ``/metrics`` scrape
must pass the strict exposition parser; and the merged output must be
byte-identical to the same scan with no server attached.

Mid-run polls depend on wall-clock timing, hence the ``soak`` marker:
run with ``pytest -m soak tests/soak``.
"""

import io
import json
import threading
import urllib.request

import pytest

from repro.framework import FleetView, ScanConfig, run_parallel_scan
from repro.obs import parse_prometheus
from repro.obs.server import TelemetryServer
from repro.workloads import DomainCorpus

pytestmark = pytest.mark.soak

NAMES = 6000
SEED = 2022


def _scan(names, fleet=None):
    out = io.StringIO()
    run_parallel_scan(
        names,
        ScanConfig(
            module="A", mode="iterative", threads=2000, source_prefix=28,
            cache_size=600_000, seed=SEED,
        ),
        processes=4,
        out=out,
        shards=8,
        add_timestamp=False,
        fleet_view=fleet,
    )
    return out.getvalue()


def test_live_polls_during_a_four_process_scan():
    names = list(DomainCorpus().fqdns(NAMES, start=0))
    fleet = FleetView(run_info={"module": "A"})
    server = TelemetryServer(status=fleet.status_snapshot, metrics=fleet.prometheus).start()
    done_series, errors = [], []
    shard_progress = metrics_scrapes = 0
    stop = threading.Event()

    def poll():
        nonlocal shard_progress, metrics_scrapes
        while not stop.is_set():
            try:
                with urllib.request.urlopen(f"{server.url}/status.json", timeout=5) as r:
                    snapshot = json.loads(r.read())
                done_series.append(snapshot["fleet"]["done"])
                shard_progress += any(row["done"] > 0 for row in snapshot["shards"])
                with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as r:
                    parse_prometheus(r.read().decode("utf-8"))
                metrics_scrapes += 1
            except Exception as error:  # noqa: BLE001 - collected, asserted below
                errors.append(repr(error))
            stop.wait(0.025)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        watched = _scan(names, fleet)
    finally:
        stop.set()
        poller.join(timeout=10)
        server.stop()
    assert not poller.is_alive()

    assert errors == []
    assert done_series == sorted(done_series)
    assert any(0 < done < NAMES for done in done_series), done_series
    assert shard_progress > 0
    assert metrics_scrapes > 0
    assert watched == _scan(names)

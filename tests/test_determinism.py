"""Determinism regression: the CLI run twice with the same seed must be
byte-identical — output rows, virtual duration, and (with a fault plan)
injected adversity.  This is the replay contract every debugging and
chaos workflow leans on; it runs tier-1 so drift is caught at the PR
that introduces it.

The fig1/fig2/table2-shaped scans at the bottom (plus fig1 at 6,000
names) pin what a scan resolves to literal virtual-time fingerprints,
under both wire modes: the codec may not change a result, and neither
may anything off by default (``--dnssec`` off sets no DO bit, stores no
memo) — and under ``always`` not one packet may fail to decode."""

import io
import json

import pytest

from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import JsonLineSink, ScanConfig, ScanRunner
from repro.framework.cli import main
from repro.workloads import CorpusConfig, DomainCorpus, dense_ptr_targets

NAMES = 500


@pytest.fixture(scope="module")
def names_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("determinism") / "names.txt"
    path.write_text("\n".join(DomainCorpus(CorpusConfig(seed=41)).fqdns(NAMES)) + "\n")
    return path


def _run_cli(tmp_path, names_file, tag, extra_args=()):
    out = tmp_path / f"out-{tag}.jsonl"
    meta = tmp_path / f"meta-{tag}.json"
    code = main(
        [
            "A",
            "--input-file", str(names_file),
            "--output-file", str(out),
            "--metadata-file", str(meta),
            "--no-timestamps",
            "--quiet",
            "--seed", "77",
            "--threads", "100",
            *extra_args,
        ]
    )
    assert code == 0
    return out.read_bytes(), json.loads(meta.read_text())


def test_same_seed_is_byte_identical(tmp_path, names_file):
    output_a, meta_a = _run_cli(tmp_path, names_file, "a")
    output_b, meta_b = _run_cli(tmp_path, names_file, "b")
    assert output_a == output_b
    assert output_a.count(b"\n") == NAMES
    # virtual time is part of the replay contract; wall time is not
    assert meta_a["durations"]["virtual_s"] == meta_b["durations"]["virtual_s"]
    assert meta_a["statuses"] == meta_b["statuses"]
    assert meta_a["metrics"] == meta_b["metrics"]


def test_chaos_run_is_byte_identical(tmp_path, names_file):
    chaos = ("--fault-plan", "moderate", "--chaos-seed", "5",
             "--backoff", "0.05", "--server-health")
    output_a, meta_a = _run_cli(tmp_path, names_file, "ca", chaos)
    output_b, meta_b = _run_cli(tmp_path, names_file, "cb", chaos)
    assert output_a == output_b
    assert meta_a["durations"]["virtual_s"] == meta_b["durations"]["virtual_s"]
    assert meta_a["metrics"] == meta_b["metrics"]
    assert meta_a["metrics"]["faults.total_activations"] > 0


def test_different_chaos_seed_diverges(tmp_path, names_file):
    base = ("--fault-plan", "moderate", "--backoff", "0.05")
    output_a, _ = _run_cli(tmp_path, names_file, "s5", ("--chaos-seed", "5", *base))
    output_b, _ = _run_cli(tmp_path, names_file, "s6", ("--chaos-seed", "6", *base))
    assert output_a != output_b


SHAPE_SEED = 2022

#: Virtual-time fingerprints of the paper-shaped scans below.  A change
#: that legitimately moves one edits the literal in its own diff.
SHAPE_FINGERPRINTS = {
    "e2e": {
        "duration_virtual_s": 8.405485,
        "queries_sent": 11481,
        "statuses": {"ITERATIVE_TIMEOUT": 176, "NOERROR": 4232, "NXDOMAIN": 1592},
        "successes": 5824,
        "total": 6000,
    },
    "fig1": {
        "duration_virtual_s": 6.451903,
        "queries_sent": 2363,
        "statuses": {"ITERATIVE_TIMEOUT": 29, "NOERROR": 839, "NXDOMAIN": 332},
        "successes": 1171,
        "total": 1200,
    },
    "fig2": {
        "cache_evictions": 2276,
        "cache_hit_rate": 0.9935,
        "duration_virtual_s": 7.016994,
        "queries_sent": 6058,
        "statuses": {"ITERATIVE_TIMEOUT": 111, "NOERROR": 1095, "NXDOMAIN": 794},
        "successes": 1889,
        "total": 2000,
    },
    "table2": {
        "duration_virtual_s": 4.98223,
        "queries_sent": 1626,
        "statuses": {"NOERROR": 1057, "NXDOMAIN": 404, "SERVFAIL": 39},
        "successes": 1461,
        "total": 1500,
    },
}


def _shape_scan(shape, wire_mode):
    internet = build_internet(params=EcosystemParams(seed=SHAPE_SEED), wire_mode=wire_mode)
    if shape in ("fig1", "e2e"):
        # iterative A scan from a /28; "e2e" is the same at 5x the names
        threads, count = (400, 1200) if shape == "fig1" else (2000, 6000)
        config = ScanConfig(
            module="A", mode="iterative", threads=threads, source_prefix=28,
            cache_size=600_000, seed=SHAPE_SEED,
        )
        names = list(DomainCorpus().fqdns(count, start=0))
    elif shape == "fig2":
        # reverse scan under a small random-eviction cache
        config = ScanConfig(
            module="PTRIP", mode="iterative", threads=500, source_prefix=28,
            cache_size=1500, cache_eviction="random", seed=SHAPE_SEED,
        )
        names = dense_ptr_targets(2000, 0, seed=SHAPE_SEED)
    else:
        # forwarding through a public recursive resolver
        config = ScanConfig(
            module="A", mode="external", resolver_ips=[internet.google_ip],
            threads=400, retries=3, seed=SHAPE_SEED,
        )
        names = list(DomainCorpus().fqdns(1500, start=20_000))
    return ScanRunner(internet, config).run(names)


@pytest.mark.parametrize("wire_mode", ["always", "never"])
@pytest.mark.parametrize("shape", sorted(SHAPE_FINGERPRINTS))
def test_paper_shapes_match_pinned_fingerprints(shape, wire_mode):
    report = _shape_scan(shape, wire_mode)
    stats = report.stats
    fingerprint = {
        "total": stats.total,
        "successes": stats.successes,
        "statuses": dict(stats.by_status),
        "queries_sent": stats.queries_sent,
        "duration_virtual_s": round(stats.duration, 6),
    }
    if shape == "fig2":
        fingerprint["cache_hit_rate"] = report.cache_stats["hit_rate"]
        fingerprint["cache_evictions"] = report.cache_stats["evictions"]
    assert fingerprint == SHAPE_FINGERPRINTS[shape]
    if wire_mode == "always":
        # equal fingerprints prove nothing if every packet fell back to
        # its original object: each one decoded
        assert report.network_stats["wire_validations"] > 0
        assert report.network_stats["wire_errors"] == 0


# -- case: what a name is spelled as never depends on wire mode or order -----

#: A corpus base domain, and its ``www`` name (a CNAME to the apex at
#: seed 2022), asked first in upper case.
_MIXED_CASE = ["D7306587-9.com", "www.d7306587-9.com"]


def _rows(names, wire_mode):
    internet = build_internet(params=EcosystemParams(seed=SHAPE_SEED), wire_mode=wire_mode)
    out = io.StringIO()
    config = ScanConfig(module="A", mode="iterative", threads=1, seed=SHAPE_SEED)
    ScanRunner(internet, config, sink=JsonLineSink(out, add_timestamp=False)).run(names)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_wire_mode_keeps_the_spelling_of_mixed_case_names():
    """Name compression may not point one spelling at another: a scan
    reads the same rows whether or not every packet crosses the codec."""
    assert _rows(_MIXED_CASE, "always") == _rows(_MIXED_CASE, "never")


@pytest.mark.parametrize("wire_mode", ["always", "never"])
def test_zone_data_is_spelled_the_same_whoever_asks_first(wire_mode):
    """The ``www`` CNAME target is the zone's spelling of the apex, not
    the spelling of the first query that built the zone's profile."""
    alone = _rows(_MIXED_CASE[1:], wire_mode)[0]
    after_upper = _rows(_MIXED_CASE, wire_mode)[1]
    assert after_upper["data"]["answers"] == alone["data"]["answers"]
    assert alone["data"]["answers"][0]["answer"] == "d7306587-9.com."

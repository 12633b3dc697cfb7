"""The memory budget: what a lookup leaves behind once it is done.

Bytes, counted with ``tracemalloc`` in fresh interpreters
(``TestBytes``): what a scan retains per name, with its universe kept
and dropped, and what a lookup holds while in flight.  And structural
checks (DESIGN.md "State that outlives a lookup" has the full-size
numbers):

* nothing of a finished lookup outlives its row — a routine drops its
  ``LookupResult`` (and with it the whole step list) before it starts
  the next lookup, in the scan runner and in the dig baseline alike;
* one ``Name`` per exact spelling while anything holds it — the text
  parser, the wire decoder and ``concatenate`` / ``child`` all hand out
  the live instance — and none once nothing does;
* a dropped universe is freed, its per-universe memos with it;
* and both happen by reference count: the event loop runs the cyclic
  collector with a 50,000-object nursery (``LOOP_GC_NURSERY``), which
  would hide a cycle that only a collection frees.

And what a lookup holds while it waits (its in-flight shape): four
generator levels from the module down to the query it awaits, steps
without a dict each, one machine for every lookup of a scan, and one
slotted object per packet in flight.
"""

import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from repro.baselines import DigBaseline
from repro.core import Resolver, ResolverConfig, SelectiveCache, SendQuery
from repro.core.machine import ExternalMachine, IterativeMachine
from repro.dnslib import Message, RRType
from repro.dnslib.message import clear_codec_caches
from repro.dnslib.name import Name
from repro.ecosystem.content import soa_for
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import ScanConfig, ScanRunner
from repro.modules import ModuleContext, get_module
from repro.net import TimerHandle

from .test_memo_budget import distinct_names, scan


@pytest.fixture()
def lookups(monkeypatch):
    """Weak references to every finished lookup's result, in finishing
    order, and for each lookup whether every earlier result was already
    gone when it began."""
    finished: list[weakref.ref] = []
    released_at_start: list[bool] = []
    for machine in (IterativeMachine, ExternalMachine):

        def watched(self, name, qtype, _resolve=machine.resolve):
            released_at_start.append(all(ref() is None for ref in finished))
            result = yield from _resolve(self, name, qtype)
            finished.append(weakref.ref(result))
            return result

        monkeypatch.setattr(machine, "resolve", watched)
    return finished, released_at_start


def three_names() -> list[str]:
    return distinct_names(3, offset=2022 * 6000)


def live_names() -> list[Name]:
    return [obj for obj in gc.get_objects() if type(obj) is Name]


class TestReleasedAtItsRow:
    def test_scan_runner(self, lookups):
        finished, released_at_start = lookups
        rows = []
        internet = build_internet(params=EcosystemParams(seed=2022))
        config = ScanConfig(threads=1, seed=2022)
        ScanRunner(internet, config, sink=rows.append).run(three_names())
        assert [row["name"] for row in rows] == three_names()
        assert len(finished) == 3
        assert released_at_start == [True, True, True]

    def test_dig_forked(self, lookups):
        finished, released_at_start = lookups
        internet = build_internet(params=EcosystemParams(seed=2022))
        report = DigBaseline(internet).run_forked(
            three_names(), internet.cloudflare_ip, processes=1
        )
        assert report.stats.total == 3
        assert len(finished) == 3
        assert released_at_start == [True, True, True]

    def test_dig_batch_trace(self, lookups):
        finished, released_at_start = lookups
        internet = build_internet(params=EcosystemParams(seed=2022))
        report = DigBaseline(internet).run_batch_trace(three_names())
        assert report.stats.total == 3
        assert len(finished) == 3
        assert released_at_start == [True, True, True]


@pytest.mark.parametrize("dnssec", [False, True], ids=["plain", "dnssec"])
def test_one_name_per_spelling(dnssec):
    """Mid-scan (at row 150 of 300) every live name is the only one of
    its spelling; once the scan and its universe are dropped, no input
    name outlives them but those the process-lifetime memos hold."""
    names = distinct_names(300, offset=2022 * 6000)
    mid_scan: list[Name] = []

    def sink(row) -> None:
        sink.rows += 1
        if sink.rows == 150:
            mid_scan.extend(live_names())

    sink.rows = 0
    universe = EcosystemParams(seed=2022, **({"p_tld_signed": 1.0} if dnssec else {}))
    internet = build_internet(params=universe, wire_mode="always")
    config = ScanConfig(threads=100, source_prefix=28, seed=2022, dnssec=dnssec)
    ScanRunner(internet, config, sink=sink).run(names)
    spellings = {name.labels for name in mid_scan}
    assert len(mid_scan) > 150  # lookups in flight, caches and memos hold names
    assert len(spellings) == len(mid_scan), (
        f"{len(mid_scan) - len(spellings)} of {len(mid_scan)} live names duplicate a spelling"
    )

    del internet, mid_scan, spellings
    clear_codec_caches()  # NS / CNAME targets: a CNAME's target may be an input
    soa_for.cache_clear()  # negative answers' zones: an apex input may be one
    gc.collect()
    inputs = {Name.from_text(name).labels for name in names}  # made afresh, then dropped
    held = [name.to_text() for name in live_names() if name.labels in inputs]
    assert held == [], f"{len(held)} input names outlive their scan: {held[:5]}"


def test_a_dropped_universe_is_freed():
    """A synthesiser's memos are its own and hold nothing that refers
    back to it: dropping the universe frees it by reference count."""
    internet = build_internet(params=EcosystemParams(seed=2022), wire_mode="always")
    config = ScanConfig(threads=100, source_prefix=28, seed=2022)
    ScanRunner(internet, config, sink=lambda row: None).run(three_names())
    assert internet.synth.profile(Name.from_text("example.com")) is not None
    synth = weakref.ref(internet.synth)
    del internet
    gc.collect()
    assert synth() is None


@pytest.mark.parametrize("dnssec", [False, True], ids=["plain", "dnssec"])
def test_scan_leaves_no_cyclic_garbage(dnssec, no_garbage):
    names = distinct_names(300, offset=2022 * 6000)
    with no_garbage():
        scan(names, dnssec=dnssec)


class TestInFlightShape:
    def test_generator_depth_at_the_first_query(self):
        """module.lookup -> resolve -> _walk -> _query_layer: the CNAME
        loop lives in ``resolve`` and a walk opens its own step."""
        context = ModuleContext(mode="iterative", root_ips=["198.41.0.4"], cache=SelectiveCache())
        lookup = get_module("A").lookup("www.example.com", context)
        assert type(next(lookup)) is SendQuery
        depth, level = 0, lookup
        while level is not None:
            depth += 1
            level = level.gi_yieldfrom
        assert depth == 4

    @pytest.mark.parametrize("record_trace", [False, True], ids=["rows", "trace"])
    def test_steps_keep_no_dict(self, record_trace):
        """A step's attributes are a tuple against shared names; the one
        dict a step may hold is a ``--trace`` query's ``results`` block."""
        internet = build_internet(params=EcosystemParams(seed=2022))
        resolver = Resolver(internet, config=ResolverConfig(record_trace=record_trace))
        steps = []
        for name in three_names():
            steps += resolver.lookup(name, RRType.A).trace.steps
        assert {step.kind for step in steps} >= {"lookup", "step", "cache_probe", "query"}
        results = 0
        for step in steps:
            assert not hasattr(step, "__dict__")
            held = [getattr(step, slot) for slot in type(step).__slots__]
            held += [item for value in held if type(value) is tuple for item in value]
            dicts = [value for value in held if isinstance(value, dict)]
            if dicts:
                assert record_trace and step.kind == "query" and dicts == [step.row]
                results += 1
        assert (results > 0) == record_trace

    def test_one_machine_per_scan(self):
        context = Resolver(build_internet(params=EcosystemParams(seed=2022))).context
        assert context.machine() is context.machine()

    def test_a_packet_in_flight_is_one_slotted_object(self):
        internet = build_internet(params=EcosystemParams(seed=2022))
        socket = Resolver(internet).socket()
        socket.query(internet.root_ips[0], Message.make_query("com", RRType.NS), 2.0)
        (event,) = [
            entry[2] for entry in internet.sim._heap if type(entry[2]) is not TimerHandle
        ]
        assert inspect.ismethod(event)
        assert hasattr(type(event.__self__), "__slots__")
        assert not hasattr(event.__self__, "__dict__")


REPO_ROOT = Path(__file__).resolve().parent.parent
#: Names in the small scan; the large one scans 4N.
N = 1000
#: Retained bytes per name and in-flight bytes per lookup, on CPython
#: 3.11 with ``PYTHONHASHSEED=0``.  Two runs of one tree read the same
#: byte; the tolerance is for a CPython patch release.
BYTES = {
    (3, 11): {"kept": 2255, "dropped": 346, "in_flight": 3770},
}
TOLERANCE = 0.02
#: Ceilings on any version: retained bytes per name with the universe
#: kept and dropped (3,271 and 2,140 when the codec pinned every name
#: and answer address and a universe's profile memos outlived it).
CEILINGS = {"kept": 2400, "dropped": 400}


def measure(count: int, threads: int) -> dict:
    """Traced bytes of one ``scan_wire``-shaped scan of ``count`` names
    (runs in the fresh interpreter :func:`measured` starts).  Set-up —
    the names and the universe — is left out.  ``kept``: still allocated
    with the universe, the runner (its cache and report) and the rows it
    wrote to memory all held; ``dropped``: once they are let go;
    ``peak``: the high-water mark during the scan."""
    import io

    from repro.framework import JsonLineSink

    names = distinct_names(count, offset=2022 * 6000)
    internet = build_internet(params=EcosystemParams(seed=2022), wire_mode="always")
    config = ScanConfig(threads=threads, source_prefix=28, seed=2022)
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    runner = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO()))
    runner.run(names)
    gc.collect()
    kept, peak = tracemalloc.get_traced_memory()
    del internet, runner
    gc.collect()
    dropped = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"kept": kept - base, "dropped": dropped - base, "peak": peak - base}


_MEASURED: dict[tuple[int, int], dict] = {}


def measured(*runs: tuple[int, int]) -> list[dict]:
    """:func:`measure` for each ``(count, threads)``, each in a fresh
    interpreter with ``PYTHONHASHSEED=0``, side by side (once per session)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = {
        run: subprocess.Popen(
            [sys.executable, "-m", "tests.test_memory_budget", *map(str, run)],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for run in runs
        if run not in _MEASURED
    }
    for run, proc in started.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        _MEASURED[run] = json.loads(out)
    return [_MEASURED[run] for run in runs]


class TestBytes:
    """Retained bytes per name = (bytes after 4N names − after N) ÷ 3N;
    in-flight bytes per lookup = (traced peak at 1,000 threads − at 10)
    ÷ 990, on N names."""

    def readings(self) -> dict:
        small, large, few = measured((N, 1000), (4 * N, 1000), (N, 10))
        readings = {
            held: (large[held] - small[held]) / (3 * N) for held in ("kept", "dropped")
        }
        readings["in_flight"] = (small["peak"] - few["peak"]) / 990
        print(f"bytes: {readings}")  # pytest -s: the readings
        return readings

    def test_retained_and_in_flight_bytes(self):
        readings = self.readings()
        for held, ceiling in CEILINGS.items():
            assert readings[held] <= ceiling, f"{held}: {readings[held]:.0f} B per name"
        pinned = BYTES.get(sys.version_info[:2])
        if pinned is None:
            pytest.skip(f"no byte literals for CPython {sys.version_info[:2]}; read {readings}")
        moved = {
            key: (round(value), pinned[key])
            for key, value in readings.items()
            if abs(value - pinned[key]) > TOLERANCE * pinned[key]
        }
        assert not moved, f"read vs pinned {moved}"


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]), int(sys.argv[2]))))

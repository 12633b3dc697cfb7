"""The memory budget: what a lookup leaves behind once it is done.

Structural checks, no RSS or byte thresholds (DESIGN.md "State that
outlives a lookup" has the measured bytes):

* nothing of a finished lookup outlives its row — a routine drops its
  ``LookupResult`` (and with it the whole step list) before it starts
  the next lookup, in the scan runner and in the dig baseline alike;
* one ``Name`` per exact spelling — the text parser, the wire decoder
  and ``concatenate`` / ``child`` all hand out the interned instance;
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
import weakref

import pytest

from repro.baselines import DigBaseline
from repro.core import Resolver, ResolverConfig, SelectiveCache, SendQuery
from repro.core.machine import ExternalMachine, IterativeMachine
from repro.dnslib import Message, RRType
from repro.dnslib.message import clear_codec_caches
from repro.dnslib.name import Name
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
    names = distinct_names(300, offset=2022 * 6000)
    clear_codec_caches()  # a fresh interning table: earlier tests' names stay out of it
    before = live_names()
    seen = {id(name) for name in before}
    scan(names, dnssec=dnssec)
    made = [name for name in live_names() if id(name) not in seen]
    spellings = {name.labels for name in made}
    assert len(made) > len(names)  # the scan's names are all still held
    assert len(spellings) == len(made), (
        f"{len(made) - len(spellings)} of {len(made)} live names duplicate a spelling"
    )


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

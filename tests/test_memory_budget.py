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
"""

import gc
import weakref

import pytest

from repro.baselines import DigBaseline
from repro.core.machine import ExternalMachine, IterativeMachine
from repro.dnslib.message import clear_codec_caches
from repro.dnslib.name import Name
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import ScanConfig, ScanRunner

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

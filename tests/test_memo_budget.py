"""The memo budget: every ``functools.lru_cache`` under ``repro.*`` —
process-lifetime ones at module or class level, and the per-universe
ones a ``ZoneSynthesizer`` builds on itself — named here with the
traffic that hits it and held to a hit ratio on real scan and service
traffic — pinned like ``TestEventBudget`` pins events per exchange.
The test finds every memo alive after that traffic, wherever it is kept,
so a memo cannot come back, or a new one arrive, without its traffic
being written down (ROADMAP aim 2: "caches, memos and fast paths stay
only if an ablation on real scan traffic shows they pay").  DESIGN.md
"State that outlives a lookup" has the full-size numbers this is the
small, fast copy of; ``pytest -s`` prints the table.
"""

import functools
import gc
import importlib
import io
import pkgutil

import repro
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import JsonLineSink, ScanConfig, ScanRunner
from repro.service import ResolverService, ServiceConfig
from repro.workloads import DomainCorpus

#: Every memo left, named by the function it wraps, and what traffic it is for.
MEMOS = {
    "repro.dnslib.message._flags_to_int": "every encode: a scan uses six flag words",
    "repro.dnslib.message._flags_from_int": "every decode: the same six",
    "repro.dnslib.rdata._util.bytes_to_ipv6": "AAAA decode (slow path is stdlib ipaddress); idle on A scans",
    "repro.dnslib.rdata.names._single_name_instance": "NS/CNAME/PTR decode: a provider's nameservers recur",
    "repro.dnslib.text_format._joined": "zone-file parsing only: relative owner + origin per line",
    "repro.dnslib.text_format._rdata_from_text": "zone-file parsing only: repeated rdata strings",
    "repro.ecosystem.content.soa_for": "negative answers: one SOA per zone",
    "repro.ecosystem.zonegen._draw_dnssec_profile": (
        "ZoneSynthesizer._dnssec_profile, one per universe: DO queries, a zone's keys per generation"
    ),
    "repro.ecosystem.zonegen._draw_profile": (
        "ZoneSynthesizer._profile, one per universe: TLD and provider servers read one base's profile"
    ),
}
#: A memo that sees this much traffic ...
BUSY_PROBES = 500
#: ... must hit at least this often.
MIN_HIT_RATIO = 0.10


def import_every_module() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def live_memos() -> dict[str, list]:
    """Every ``lru_cache`` alive whose function is defined under
    ``repro`` — at module level, on a class or built on an instance —
    keyed by ``module.qualname`` of that function (seen through a
    ``partial``, as a per-universe memo wraps one)."""
    found: dict[str, list] = {}
    for obj in gc.get_objects():
        if not isinstance(obj, functools._lru_cache_wrapper):
            continue
        function = getattr(obj, "__wrapped__", None)
        function = getattr(function, "func", function)
        module = getattr(function, "__module__", None) or ""
        if module.split(".")[0] == "repro":
            found.setdefault(f"{module}.{function.__qualname__}", []).append(obj)
    return found


def distinct_names(count: int, offset: int) -> list[str]:
    corpus = DomainCorpus()
    names: dict[str, None] = {}
    while len(names) < count:
        names.setdefault(corpus.fqdn(offset))
        offset += 1
    return list(names)


def scan(names, dnssec: bool):
    """Scan ``names`` in a universe of their own; returns the universe."""
    universe = EcosystemParams(seed=2022, **({"p_tld_signed": 1.0} if dnssec else {}))
    internet = build_internet(params=universe, wire_mode="always")
    config = ScanConfig(threads=100, source_prefix=28, seed=2022, dnssec=dnssec)
    report = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO())).run(names)
    assert report.stats.total == len(names)
    return internet


def test_memo_budget():
    import_every_module()
    # traffic is counted from here: what earlier tests' memos hold, and
    # the memos themselves (kept alive, so no new one reuses an id), stay out
    before = {
        id(memo): (memo, memo.cache_info())
        for memos in live_memos().values()
        for memo in memos
    }

    names = distinct_names(300, offset=2022 * 6000)
    service = ResolverService(
        ServiceConfig(seed=2022, duration=300.0, base_qps=20.0, catalog_size=400, deltas=2)
    )
    service.run()
    universes = [scan(names, dnssec=False), scan(names, dnssec=True), service.internet]

    found = live_memos()
    assert sorted(found) == sorted(MEMOS), "a memo came or went: write its traffic down in MEMOS"
    table = {}
    for name, memos in found.items():
        hits = probes = size = 0
        for memo in memos:
            info = memo.cache_info()
            _, earlier = before.get(id(memo), (memo, info._replace(hits=0, misses=0)))
            hits += info.hits - earlier.hits
            probes += info.hits + info.misses - earlier.hits - earlier.misses
            size += info.currsize
        table[name] = (hits, probes, size)
    report = "\n".join(
        f"{name:<58} {hits:>7} / {probes:<7} size {size}"
        for name, (hits, probes, size) in sorted(table.items())
    )
    print(report)  # pytest -s: the per-memo table
    idle = [
        name
        for name, (hits, probes, _) in table.items()
        if probes >= BUSY_PROBES and hits < MIN_HIT_RATIO * probes
    ]
    assert not idle, f"memos that do not pay on scan + service traffic: {idle}\n{report}"
    # the traffic reached the per-universe memos at all
    assert table["repro.ecosystem.zonegen._draw_profile"][0] > 0, report
    assert table["repro.ecosystem.zonegen._draw_dnssec_profile"][0] > 0, report
    # each universe alive to here has memos of its own
    assert len(found["repro.ecosystem.zonegen._draw_profile"]) >= len(universes), report

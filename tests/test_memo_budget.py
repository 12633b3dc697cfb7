"""The memo budget: every process-lifetime ``functools.lru_cache`` under
``repro.*``, named here with the traffic that hits it and held to a hit
ratio on real scan and service traffic — pinned like ``TestEventBudget``
pins events per exchange.  A memo cannot come back, or a new one arrive,
without its traffic being written down (ROADMAP aim 2: "caches, memos
and fast paths stay only if an ablation on real scan traffic shows they
pay").  DESIGN.md "State that outlives a lookup" has the full-size
numbers this is the small, fast copy of; ``pytest -s`` prints the table.
"""

import importlib
import io
import pkgutil

import repro
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import JsonLineSink, ScanConfig, ScanRunner
from repro.service import ResolverService, ServiceConfig
from repro.workloads import DomainCorpus

#: Every memo left, and what traffic it is for.
MEMOS = {
    "repro.dnslib.message._flags_to_int": "every encode: a scan uses six flag words",
    "repro.dnslib.message._flags_from_int": "every decode: the same six",
    "repro.dnslib.name._interned": "one Name per spelling (parsed, decoded, joined): TLD / base / NS names recur",
    "repro.dnslib.name._from_text": "server construction and referrals re-parse nameserver names",
    "repro.dnslib.rdata._util.bytes_to_ipv6": "AAAA decode (slow path is stdlib ipaddress); idle on A scans",
    "repro.dnslib.rdata.address._a_instance": "A decode: glue addresses recur across referrals",
    "repro.dnslib.rdata.names._single_name_instance": "NS/CNAME/PTR decode: a provider's nameservers recur",
    "repro.dnslib.text_format._joined": "zone-file parsing only: relative owner + origin per line",
    "repro.dnslib.text_format._rdata_from_text": "zone-file parsing only: repeated rdata strings",
    "repro.ecosystem.content.soa_for": "negative answers: one SOA per zone",
    "repro.ecosystem.zonegen.ZoneSynthesizer._dnssec_profile": "DO queries: a zone's keys, per generation",
    "repro.ecosystem.zonegen.ZoneSynthesizer._profile": "TLD and provider servers read one base's profile",
}
#: A memo that sees this much traffic ...
BUSY_PROBES = 500
#: ... must hit at least this often.
MIN_HIT_RATIO = 0.10


def memos() -> dict:
    """``module.qualname`` -> wrapper, for every ``lru_cache`` defined at
    module level or on a class in any ``repro`` module."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != info.name:
                continue
            if hasattr(obj, "cache_info"):
                found[f"{info.name}.{obj.__qualname__}"] = obj
            elif isinstance(obj, type):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "cache_info"):
                        found[f"{info.name}.{member.__qualname__}"] = member
    return found


def distinct_names(count: int, offset: int) -> list[str]:
    corpus = DomainCorpus()
    names: dict[str, None] = {}
    while len(names) < count:
        names.setdefault(corpus.fqdn(offset))
        offset += 1
    return list(names)


def scan(names, dnssec: bool) -> None:
    universe = EcosystemParams(seed=2022, **({"p_tld_signed": 1.0} if dnssec else {}))
    internet = build_internet(params=universe, wire_mode="always")
    config = ScanConfig(threads=100, source_prefix=28, seed=2022, dnssec=dnssec)
    report = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO())).run(names)
    assert report.stats.total == len(names)


def test_memo_budget():
    found = memos()
    assert sorted(found) == sorted(MEMOS), "a memo came or went: write its traffic down in MEMOS"
    for memo in found.values():
        memo.cache_clear()  # counters too: what follows is all this test's traffic

    names = distinct_names(300, offset=2022 * 6000)
    scan(names, dnssec=False)
    scan(names, dnssec=True)
    ResolverService(
        ServiceConfig(seed=2022, duration=300.0, base_qps=20.0, catalog_size=400, deltas=2)
    ).run()

    table = {name: memo.cache_info() for name, memo in found.items()}
    report = "\n".join(
        f"{name:<58} {info.hits:>7} / {info.hits + info.misses:<7} size {info.currsize}"
        for name, info in sorted(table.items())
    )
    print(report)  # pytest -s: the per-memo table
    idle = [
        name
        for name, info in table.items()
        if info.hits + info.misses >= BUSY_PROBES
        and info.hits < MIN_HIT_RATIO * (info.hits + info.misses)
    ]
    assert not idle, f"memos that do not pay on scan + service traffic: {idle}\n{report}"
    # the traffic reached the memos at all
    assert table["repro.ecosystem.zonegen.ZoneSynthesizer._profile"].hits > 0, report
    assert table["repro.ecosystem.zonegen.ZoneSynthesizer._dnssec_profile"].hits > 0, report


"""Run-phase calls per lookup, in total and per top-level package.

A count is the interpreter's ``call`` plus ``c_call`` profile events
while ``Simulator.run`` runs (the run phase: building the universe and
reporting are left out), divided by the lookups made.  The scan is the
ledger's ``scan_wire`` shape: 3,000 distinct corpus names from index
``seed * 6000``, 1,000 threads, a /28 source prefix, rows encoded to
memory.  ``--service`` counts the ledger's ``service_soak`` daemon
instead, per client query.  Counts are exact for a fixed seed,
``PYTHONHASHSEED`` and CPython minor version, so two trees compare to
the hundredth.

Run from a tree's root::

    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/calls_per_lookup.py
    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/calls_per_lookup.py --wire-mode never
    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/calls_per_lookup.py --dnssec
    PYTHONHASHSEED=0 PYTHONPATH=src python benchmarks/calls_per_lookup.py --service

``--dnssec`` signs every TLD and validates, as ``scan_dnssec`` does.
A ``call`` is charged to the package of the code it enters (``core``,
``dnslib``, ...; ``stdlib`` for the standard library and frozen import
machinery; ``generated`` for the ``<string>`` code dataclasses
compile), a ``c_call`` to ``C``.  ``tests/test_work_budget.py`` pins
:func:`count_run_phase`'s counts for 300 names.
"""

from __future__ import annotations

import argparse
import collections
import io
import os
import sys
import sysconfig

COUNT = 3000


def count_calls(work) -> collections.Counter:
    """Call ``work()`` and count the profile events of every
    ``Simulator.run`` it makes, by package."""
    import repro
    from repro.net import Simulator

    source = os.path.dirname(repro.__file__) + os.sep
    stdlib = sysconfig.get_paths()["stdlib"] + os.sep
    counts: collections.Counter = collections.Counter()
    packages: dict[str, str] = {}

    def package_of(filename: str) -> str:
        if filename.startswith(source):
            return filename[len(source):].split(os.sep)[0].removesuffix(".py")
        if filename.startswith((stdlib, "<frozen ")):
            return "stdlib"
        return "generated" if filename == "<string>" else "other"

    def profiler(frame, event, arg) -> None:
        if event == "call":
            filename = frame.f_code.co_filename
            package = packages.get(filename)
            if package is None:
                package = packages[filename] = package_of(filename)
            counts[package] += 1
        elif event == "c_call":
            counts["C"] += 1

    run = Simulator.run

    def counted(self, *args, **kwargs):
        sys.setprofile(profiler)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.setprofile(None)

    Simulator.run = counted
    try:
        work()
    finally:
        Simulator.run = run
    return counts


def count_run_phase(
    count: int = COUNT,
    wire_mode: str = "always",
    seed: int = 2022,
    dnssec: bool = False,
    metrics: bool = False,
) -> collections.Counter:
    """The run-phase calls of a ``count``-name A scan, by package."""
    from repro.ecosystem import EcosystemParams, build_internet
    from repro.framework import JsonLineSink, ScanConfig, ScanRunner
    from repro.workloads import DomainCorpus

    corpus, names, index = DomainCorpus(), {}, seed * 2 * COUNT
    while len(names) < count:
        names.setdefault(corpus.fqdn(index))
        index += 1
    signed = {"p_tld_signed": 1.0} if dnssec else {}
    internet = build_internet(params=EcosystemParams(seed=seed, **signed), wire_mode=wire_mode)
    config = ScanConfig(threads=1000, source_prefix=28, seed=seed, dnssec=dnssec, metrics=metrics)

    def scan() -> None:
        report = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO())).run(list(names))
        assert report.stats.total == count

    return count_calls(scan)


def count_service(seed: int = 2022) -> tuple[collections.Counter, int]:
    """The run-phase calls of the ``service_soak`` daemon, by package,
    and the client queries it served."""
    from repro.service import ResolverService, ServiceConfig

    service = ResolverService(
        ServiceConfig(seed=seed, duration=1800.0, base_qps=40.0, catalog_size=4000, deltas=12)
    )
    reports = []
    counts = count_calls(lambda: reports.append(service.run()))
    return counts, reports[0].counters["queries"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wire-mode", default="always", choices=("always", "never"))
    parser.add_argument("--dnssec", action="store_true")
    parser.add_argument("--service", action="store_true")
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args()
    if args.service:
        counts, lookups = count_service(args.seed)
    else:
        counts, lookups = count_run_phase(COUNT, args.wire_mode, args.seed, args.dnssec), COUNT
    print(f"total\t{sum(counts.values()) / lookups:.2f}")
    for package, count in sorted(counts.items()):
        print(f"{package}\t{count / lookups:.2f}")


if __name__ == "__main__":
    main()

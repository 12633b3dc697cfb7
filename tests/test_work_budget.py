"""The work budget: the interpreter calls a scan's run phase makes, per
top-level package, as literals — pinned the way ``TestEventBudget``
(``tests/test_engine.py``) pins simulator events per exchange.

Seconds on a shared host spread by a quarter between samples; calls do
not move at all for a fixed seed and CPython minor version.  Each case
runs in a fresh interpreter (process-lifetime memos and the codec's
counters would otherwise carry an earlier test's traffic into the
count), builds the simulated Internet, and counts ``call`` and
``c_call`` profile events from the moment ``Simulator.run`` starts
until it returns: the run phase, with set-up and reporting left out.  A
``call`` is charged to the package of the code it enters (``core``,
``dnslib``, ``ecosystem``, ``framework``, ``modules``, ``net``,
``obs``; ``stdlib``, frozen import machinery included; ``generated``
for the ``<string>`` code that dataclasses compile), a ``c_call`` to
``C``.

A change that moves a count edits the literal in its own diff and says
why.  ``pytest -s`` prints every count.  The literals are CPython 3.11's
(3.12 inlines comprehensions, so a comprehension stops being a call);
on any other version the test prints its counts and skips.

To see which functions a count is made of, run :func:`count_run_phase`'s
profiler keyed by ``frame.f_code.co_qualname`` instead of by package, on
the parent and on the change, and diff the two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
NAMES = 300
SEED = 2022

#: Relative slack on each count (a CPython patch release may add or
#: drop a call in the stdlib).
TOLERANCE = 0.002

#: Run-phase calls per package, per case, on CPython 3.11.
#: ``wire``: a 300-name A scan, every packet through the wire codec.
#: ``dnssec``: the same names with validation, every TLD signed.
#: ``metrics``: ``wire`` with the metrics registry on.
BUDGETS = {
    (3, 11): {
        "wire": {
            "C": 201747, "core": 23537, "dnslib": 66836, "ecosystem": 19308,
            "framework": 5426, "generated": 9050, "modules": 1847, "net": 31353,
            "stdlib": 10384,
        },
        "dnssec": {
            "C": 313647, "core": 40904, "dnslib": 123712, "ecosystem": 28832,
            "framework": 5838, "generated": 10849, "modules": 1985, "net": 36589,
            "stdlib": 12114,
        },
        "metrics": {
            "C": 202347, "core": 23537, "dnslib": 66836, "ecosystem": 19308,
            "framework": 5426, "generated": 9050, "modules": 1847, "net": 31353,
            "obs": 1200, "stdlib": 10384,
        },
    },
}

#: What metrics cost a lookup in the run phase: the ``inflight`` gauge's
#: ``inc`` and ``dec``, and the ``queries_per_lookup`` histogram's
#: ``observe`` with its ``bucket_index``, ``dict.get`` and
#: ``math.frexp``.  Every other ``engine`` instrument is published from
#: ``ScanStats`` where the registry is read, after the run phase.
METRICS_CALLS_PER_LOOKUP = 6

CASES = {
    "wire": {"dnssec": False, "metrics": False},
    "dnssec": {"dnssec": True, "metrics": False},
    "metrics": {"dnssec": False, "metrics": True},
}


def count_run_phase(case: str) -> dict:
    """Scan the case's names and return its run-phase calls by package
    (runs in the fresh interpreter :func:`counted` starts)."""
    import collections
    import io
    import sysconfig

    import repro
    from repro.ecosystem import EcosystemParams, build_internet
    from repro.framework import JsonLineSink, ScanConfig, ScanRunner
    from repro.net import Simulator
    from repro.workloads import DomainCorpus

    options = CASES[case]
    corpus, names, index = DomainCorpus(), {}, SEED * 2 * 3000
    while len(names) < NAMES:
        names.setdefault(corpus.fqdn(index))
        index += 1
    signed = {"p_tld_signed": 1.0} if options["dnssec"] else {}
    internet = build_internet(params=EcosystemParams(seed=SEED, **signed), wire_mode="always")
    config = ScanConfig(threads=1000, source_prefix=28, seed=SEED, **options)

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

    def counted_run(self, *args, **kwargs):
        sys.setprofile(profiler)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.setprofile(None)

    Simulator.run = counted_run
    report = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO())).run(list(names))
    assert report.stats.total == NAMES
    return dict(sorted(counts.items()))


_MEASURED: dict[str, dict] = {}


def counted(case: str) -> dict:
    """The case's counts, from a fresh interpreter (once per session)."""
    if case not in _MEASURED:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, __file__, case],
            env=env, capture_output=True, text=True, timeout=600, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        _MEASURED[case] = json.loads(proc.stdout)
    return _MEASURED[case]


def _budget(case: str) -> tuple[dict, dict]:
    counts = counted(case)
    print(f"{case}: {sum(counts.values())} calls {counts}")  # pytest -s: the counts
    budgets = BUDGETS.get(sys.version_info[:2])
    if budgets is None:
        pytest.skip(
            f"no work-budget literals for CPython {sys.version_info[0]}.{sys.version_info[1]}; "
            f"{case} counted {counts}"
        )
    return counts, budgets[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_phase_calls_per_package(case):
    counts, budget = _budget(case)
    assert sorted(counts) == sorted(budget), f"packages {sorted(counts)} != {sorted(budget)}"
    moved = {
        package: (count, budget[package])
        for package, count in counts.items()
        if abs(count - budget[package]) > TOLERANCE * budget[package]
    }
    assert not moved, f"{case}: counted vs pinned {moved}"


def test_metrics_cost_a_fixed_number_of_calls_per_lookup():
    """Metrics on against off, same scan: the difference is the
    instruments observed per lookup and nothing else."""
    counts, _ = _budget("metrics")
    base, _ = _budget("wire")
    extra = {
        package: count - base.get(package, 0)
        for package, count in counts.items()
        if count != base.get(package, 0)
    }
    assert extra == {
        "obs": 4 * NAMES,  # inflight.inc / .dec, observe, bucket_index
        "C": 2 * NAMES,  # dict.get, math.frexp
    }
    assert sum(extra.values()) == METRICS_CALLS_PER_LOOKUP * NAMES


if __name__ == "__main__":
    print(json.dumps(count_run_phase(sys.argv[1])))

"""Start-up: a run compiles and executes only the code it uses.

Every package exports lazily (``repro._lazy``), and optional subsystems
— the oracle, the fault injector, the HTTP control plane, the
checkpoint journal, the zone-file parser and the live transports — are
imported where they are used.  Each check runs in a fresh interpreter,
because this one has imported everything the other tests touch.

Two rules are pinned here:

* importing the benchmark's surface (what ``benchmarks/ledger`` imports)
  loads exactly ``LOADED_REPRO_MODULES`` modules and none of the
  optional ones;
* nothing is first imported inside a run (``ScanRunner.run``,
  ``run_parallel_scan``, ``ResolverService.run``): what a configured run
  needs is imported when its objects are built, so import work is
  start-up time, never run time.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: The public names the wall-time ledger imports.
LEDGER_SURFACE = """
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import JsonLineSink, ScanConfig, ScanRunner, run_parallel_scan
from repro.service import ResolverService, ServiceConfig
from repro.workloads import DomainCorpus
"""

#: ``repro`` modules that surface loads (81 before exports went lazy).
#: A change that legitimately moves it edits the literal in its own diff.
LOADED_REPRO_MODULES = 58

#: Loaded only by the runs that use them.
OPTIONAL = (
    "http.server",
    "repro.core.dnssec",
    "repro.core.health",
    "repro.dnslib.text_format",
    "repro.dnslib.zonefile",
    "repro.faults",
    "repro.framework.checkpoint",
    "repro.modules.lookups",
    "repro.net.encrypted",
    "repro.net.live",
    "repro.obs.metadata",
    "repro.obs.server",
    "repro.oracle",
    "traceback",
)


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ledger_surface_loads_no_optional_subsystem():
    loaded = _python(
        LEDGER_SURFACE
        + "import json, sys\n"
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [name for name in OPTIONAL if name in loaded] == []
    assert len([name for name in loaded if name.split(".")[0] == "repro"]) == LOADED_REPRO_MODULES


#: One run per case, built the way the ledger builds it (small sizes);
#: ``run()`` is the timed call.
_RUNS = {
    "scan": """
internet = build_internet(params=EcosystemParams(seed=2022), wire_mode="always")
config = ScanConfig(module="A", mode="iterative", threads=50, source_prefix=28, seed=2022)
runner = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO()))
run = lambda: runner.run(names)
""",
    "scan_dnssec": """
internet = build_internet(params=EcosystemParams(seed=2022, p_tld_signed=1.0), wire_mode="always")
config = ScanConfig(module="A", mode="iterative", threads=50, source_prefix=28, seed=2022, dnssec=True)
runner = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO()))
run = lambda: runner.run(names)
""",
    "scan_metrics_on": """
internet = build_internet(params=EcosystemParams(seed=2022), wire_mode="never")
config = ScanConfig(
    module="A", mode="iterative", threads=50, source_prefix=28, seed=2022,
    metrics=True, status_interval=1.0,
)
runner = ScanRunner(internet, config, sink=JsonLineSink(io.StringIO()), status_stream=io.StringIO())
run = lambda: runner.run(names)
""",
    "shards": """
config = ScanConfig(module="A", mode="iterative", threads=50, source_prefix=28, seed=2022)
run = lambda: run_parallel_scan(
    names, config, processes=1, out=io.StringIO(), shards=4, wire_mode="always",
    add_timestamp=False,
)
""",
    "service": """
service = ResolverService(
    ServiceConfig(seed=2022, duration=60.0, base_qps=4.0, catalog_size=40, deltas=2)
)
run = service.run
""",
}


@pytest.mark.parametrize("case", sorted(_RUNS))
def test_nothing_is_first_imported_inside_a_run(case):
    code = (
        LEDGER_SURFACE
        + "import io, json, sys\n"
        + "names = [DomainCorpus().fqdn(index) for index in range(60)]\n"
        + _RUNS[case]
        + "before = {name for name in sys.modules if name.startswith('repro')}\n"
        + "run()\n"
        + "after = {name for name in sys.modules if name.startswith('repro')}\n"
        + "print(json.dumps(sorted(after - before)))\n"
    )
    assert _python(code) == []

"""Start-up: a run compiles and executes only the code it uses.

Every package exports lazily (``repro._lazy``), record-type codecs load
through the type table the first time a type is asked for, and optional
subsystems — the oracle, the fault injector, the HTTP control plane, the
checkpoint journal, the zone-file parser, the live transports and
DNSSEC synthesis — are imported where they are used.  Each check runs in
a fresh interpreter, because this one has imported everything the other
tests touch.

Two rules are pinned here:

* importing the benchmark's surface (what ``benchmarks/ledger`` imports)
  loads exactly ``LOADED_REPRO_MODULES`` modules, at most
  ``LOADED_SOURCE_LINES`` lines of source, and none of the optional
  ones;
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

#: ``repro`` modules that surface loads (81 before exports went lazy, 58
#: before record-type codecs and DNSSEC synthesis loaded on first use),
#: and the most source lines they may hold (12,896 at 58 modules; 11,302
#: at 51): with no bytecode cache, every line is compiled at start-up.
#: A change that legitimately moves either edits the literal in its own diff.
LOADED_REPRO_MODULES = 51
LOADED_SOURCE_LINES = 11_400

#: Loaded only by the runs that use them.
OPTIONAL = (
    "http.server",
    "repro.core.dnssec",
    "repro.core.health",
    "repro.dnslib.rdata.dnssec",
    "repro.dnslib.rdata.mail",
    "repro.dnslib.rdata.misc",
    "repro.dnslib.rdata.security",
    "repro.dnslib.rdata.svcb",
    "repro.dnslib.rdata.text",
    "repro.dnslib.text_format",
    "repro.dnslib.zonefile",
    "repro.ecosystem.dnssec",
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
    loaded, lines = _python(
        LEDGER_SURFACE
        + "import json, sys\n"
        + "ours = [m for name, m in sys.modules.items() if name.split('.')[0] == 'repro']\n"
        + "lines = sum(len(open(m.__file__, 'rb').read().splitlines()) for m in ours)\n"
        + "print(json.dumps([sorted(sys.modules), lines]))\n"
    )
    assert [name for name in OPTIONAL if name in loaded] == []
    assert len([name for name in loaded if name.split(".")[0] == "repro"]) == LOADED_REPRO_MODULES
    assert lines <= LOADED_SOURCE_LINES


def test_type_table_loads_a_codec_on_first_use():
    """The record-type table imports a codec module the first time one
    of its types is asked for: listing the types imports none, an
    unknown code gets ``GenericRData`` without one, and MX loads the
    mail codecs (with their shared helpers) and nothing else."""
    steps = _python(
        "import json, sys\n"
        "from repro.dnslib.rdata import GenericRData, rdata_class, registered_types\n"
        "codecs = lambda: sorted(n for n in sys.modules if n.startswith('repro.dnslib.rdata.'))\n"
        "steps = [len(registered_types()), codecs()]\n"
        "steps += [rdata_class(61000) is GenericRData, codecs()]\n"
        "steps += [rdata_class(15).__name__, codecs()]\n"
        "print(json.dumps(steps))\n"
    )
    assert steps == [
        71, [],
        True, [],
        "MX", ["repro.dnslib.rdata._util", "repro.dnslib.rdata.mail"],
    ]


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
    "service_dnssec": """
service = ResolverService(
    ServiceConfig(seed=2022, duration=60.0, base_qps=4.0, catalog_size=40, deltas=2, dnssec=True)
)
run = service.run
""",
}
#: A raw scan of a record type that is not an address or a name loads
#: that type's codec when its runner is built (ANY: every codec).
for _module in ("MX", "TXT", "CAA", "ANY"):
    _RUNS[f"scan_{_module.lower()}"] = _RUNS["scan"].replace('module="A"', f'module="{_module}"')


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


#: Scans whose answers the simulated servers build with a codec of their
#: own: an HTTPS service binding, and a CHAOS-class version.bind TXT.
_ANSWER_CODEC_SCANS = {
    "HTTPS": "[DomainCorpus().fqdn(index) for index in range(60)]",
    "BINDVERSION": "[server.ip for server in internet.provider_servers[:20]]",
}


@pytest.mark.parametrize("module", sorted(_ANSWER_CODEC_SCANS))
def test_the_run_phase_resolves_no_relative_import(module):
    """Inside ``Simulator.run`` nothing runs an ``import`` statement: a
    function-level relative import costs a Python-level
    ``ModuleSpec.parent`` call each time it runs, so the servers reach
    the codecs they answer with through the type table."""
    counts = _python(
        LEDGER_SURFACE
        + "import json, sys\n"
        + "from repro.net import Simulator\n"
        + "internet = build_internet(params=EcosystemParams(seed=2022), wire_mode='always')\n"
        + f"names = {_ANSWER_CODEC_SCANS[module]}\n"
        + f"config = ScanConfig(module='{module}', threads=50, source_prefix=28, seed=2022)\n"
        + "rows = []\n"
        + "runner = ScanRunner(internet, config, sink=rows.append)\n"
        + "calls = [0]\n"
        + "def profiler(frame, event, arg):\n"
        + "    if event == 'call' and frame.f_code.co_qualname == 'ModuleSpec.parent':\n"
        + "        calls[0] += 1\n"
        + "run = Simulator.run\n"
        + "def counted(self, *args, **kwargs):\n"
        + "    sys.setprofile(profiler)\n"
        + "    try:\n"
        + "        return run(self, *args, **kwargs)\n"
        + "    finally:\n"
        + "        sys.setprofile(None)\n"
        + "Simulator.run = counted\n"
        + "runner.run(names)\n"
        + "answers = [a['type'] for row in rows for a in row['data'].get('answers', ())]\n"
        + "versions = [row['data'].get('version') for row in rows]\n"
        + "answered = answers.count('HTTPS') + len(list(filter(None, versions)))\n"
        + "print(json.dumps([calls[0], answered]))\n"
    )
    parent_calls, answered = counts
    assert answered > 0  # the servers built those answers in this run
    assert parent_calls == 0


def test_the_executor_loads_multiprocessing_only_when_a_scan_forks():
    """Naming ``run_parallel_scan`` costs an in-process scan nothing:
    ``multiprocessing`` loads inside ``_mp_context``, when a scan forks."""
    probe = "import sys, repro.framework.parallel; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"

"""A scan configuration is checked once, at construction.

Every rule lives in the configuration that owns the field
(``ResolverConfig``, ``ScanConfig``, the shard executor's
``check_executor``), and ``pyzdns`` turns the ``ValueError`` into one
usage error.  The explicit cases pin each rule; the generated cases
throw hostile values (0, negative, NaN, huge, contradictory pairs) at
every field, through the library and through ``pyzdns``: each is
rejected at construction or scans every name, never an empty or
all-timeout scan.
"""

import dataclasses
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResolverConfig
from repro.core.cache import CACHE_EVICTIONS, CACHE_POLICIES
from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import ScanConfig, ScanRunner
from repro.framework.cli import main
from repro.framework.parallel import check_executor
from repro.framework.runner import SCAN_MODES

SEED = 2022
#: Two names that resolve NOERROR in the seed-2022 universe.
NAMES = ["shop.d4274095-15.com", "m.d26813-12.com"]

#: Examples per generated test, named before running: each builds a
#: universe and scans two names (about 15 ms), so both stay far inside
#: the tier-1 budget.
LIBRARY_EXAMPLES = 300
CLI_EXAMPLES = 150

#: Fields that hold objects rather than values: the cost model, and the
#: run-time companions the runner supplies (span tracer, health tracker).
OBJECT_FIELDS = {"costs", "tracer", "health"}

#: A huge count: 2**40, but 2**16 for the two a scan allocates one of
#: each for (a routine per thread, a heap slot per simulated core), which
#: a host must hold.
HUGE = {"threads": 2**16, "cores": 2**16}

#: The known values of the fields that name one, besides the default.
KNOWN = {
    "mode": SCAN_MODES,
    "cache_policy": CACHE_POLICIES,
    "cache_eviction": CACHE_EVICTIONS,
    "module": ("AAAA", "MXLOOKUP"),
}


def _hostile_values(field: dataclasses.Field):
    kind = field.type.split(" | ")[0]
    if kind == "int":
        huge = HUGE.get(field.name, 2**40)
        return st.one_of(st.just(0), st.integers(max_value=-1), st.just(huge))
    if kind == "float":
        return st.one_of(
            st.just(0.0),
            st.floats(max_value=-0.0, allow_nan=False),
            st.just(math.nan),
            st.sampled_from([1e12, math.inf]),
        )
    if kind == "bool":
        return st.just(not field.default)
    if kind == "str":
        known = [value for value in KNOWN[field.name] if value != field.default]
        return st.one_of(st.just(""), st.text(max_size=6), st.sampled_from(known))
    if kind == "list[str]":
        return st.just([])
    if kind == "bytes":
        return st.binary(max_size=8)
    raise AssertionError(f"no hostile values for {field.name}: {field.type}")


#: Every value-holding field of a scan (ResolverConfig's among them).
HOSTILE = {
    field.name: _hostile_values(field)
    for field in dataclasses.fields(ScanConfig)
    if field.name not in OBJECT_FIELDS
}


def test_every_field_has_hostile_values():
    """A new field joins the generated tests or is named an object."""
    names = {field.name for field in dataclasses.fields(ScanConfig)}
    assert set(HOSTILE) == names - OBJECT_FIELDS
    assert {field.name for field in dataclasses.fields(ResolverConfig)} <= names


@st.composite
def hostile_overrides(draw, fields=tuple(HOSTILE)):
    """One hostile field, or a pair of them (contradictory pairs such as
    ``mode`` with ``dnssec``, or ``backoff_base`` with ``backoff_cap``)."""
    chosen = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2, unique=True))
    return {name: draw(HOSTILE[name]) for name in chosen}


def _config(overrides: dict) -> ScanConfig | None:
    try:
        return ScanConfig(**{"seed": SEED, **overrides})
    except ValueError:
        return None


def _assert_scanned(rows: list[dict]) -> None:
    rows = [row for row in rows if "oracle_divergence" not in row]
    assert len(rows) == len(NAMES), rows
    assert not all("TIMEOUT" in row["status"] for row in rows), rows


@settings(max_examples=LIBRARY_EXAMPLES, deadline=None, derandomize=True, database=None)
@given(overrides=hostile_overrides())
def test_library_rejects_or_scans_every_name(overrides):
    config = _config(overrides)
    if config is None:
        return
    rows = []
    internet = build_internet(params=EcosystemParams(seed=SEED))
    ScanRunner(internet, config, sink=rows.append, status_stream=io.StringIO()).run(NAMES)
    _assert_scanned(rows)


#: The flag that sets each field ``pyzdns`` exposes with a value.
FLAGS = {
    "threads": "--threads",
    "source_prefix": "--source-prefix",
    "cache_size": "--cache-size",
    "retries": "--retries",
    "external_timeout": "--timeout",
    "cores": "--cores",
    "status_interval": "--status-interval",
    "backoff_base": "--backoff",
    "oracle_check": "--oracle-check",
    "mode": "--mode",
    "dnssec": "--dnssec",
}


def _run_cli(argv: list[str]) -> tuple[int, list[str] | None]:
    """``pyzdns`` on NAMES: its exit code and its rows (None: no file)."""
    with tempfile.TemporaryDirectory() as tmp:
        names, out = os.path.join(tmp, "names.txt"), os.path.join(tmp, "rows.jsonl")
        with open(names, "w") as handle:
            handle.write("\n".join(NAMES) + "\n")
        try:
            code = main(["-f", names, "-o", out, "--quiet", "--seed", str(SEED), *argv])
        except SystemExit as exit_:
            code = exit_.code
        if not os.path.exists(out):
            return code, None
        with open(out) as handle:
            return code, handle.read().splitlines()


def _argv(overrides: dict) -> list[str]:
    argv = [overrides.get("module", "A")]
    for name, value in overrides.items():
        if name == "dnssec":
            argv += [FLAGS[name]] if value else []
        elif name != "module":
            argv += [FLAGS[name], str(value)]
    return argv


@settings(max_examples=CLI_EXAMPLES, deadline=None, derandomize=True, database=None)
@given(overrides=hostile_overrides(fields=tuple(FLAGS)))
def test_cli_agrees_with_the_library(overrides):
    """What the library rejects ``pyzdns`` rejects as a usage error
    (exit 2) before it writes a rows file; what it accepts scans every
    name."""
    code, lines = _run_cli(_argv(overrides))
    if _config(overrides) is None:
        assert (code, lines) == (2, None)
    else:
        assert code == 0
        _assert_scanned([json.loads(line) for line in lines])


#: Each rule, one breaking value each: (ScanConfig keywords, pyzdns argv
#: or None where no flag sets the field).
REJECTED = [
    ({"ports_per_ip": 0}, None),
    ({"iteration_timeout": 0}, None),
    ({"external_timeout": 0}, ["A", "--timeout", "0"]),
    ({"retries": -1}, ["A", "--retries", "-1"]),
    ({"backoff_base": -1.0}, ["A", "--backoff", "-1"]),
    ({"backoff_cap": -1.0}, None),
    ({"backoff_base": 20.0}, ["A", "--backoff", "20"]),  # above the default cap
    ({"max_queries": 0}, None),
    ({"max_referrals": 0}, None),
    ({"max_cname_chase": 0}, None),
    ({"max_glueless_depth": 0}, None),
    ({"threads": 0}, ["A", "--threads", "0"]),
    ({"cores": 0}, ["A", "--cores", "0"]),
    ({"cache_size": 0}, ["A", "--cache-size", "0"]),
    ({"source_prefix": 33}, ["A", "--source-prefix", "33"]),
    ({"source_prefix": -1}, ["A", "--source-prefix", "-1"]),
    ({"status_interval": 0.0}, ["A", "--status-interval", "0"]),
    ({"oracle_check": 0}, ["A", "--oracle-check", "0"]),
    ({"max_events": 0}, None),
    ({"module": "NOSUCH"}, ["NOSUCH"]),
    ({"mode": "quantum"}, ["A", "--mode", "quantum"]),
    ({"cache_policy": "most"}, None),
    ({"cache_eviction": "fifo"}, None),
    ({"mode": "google", "dnssec": True}, ["A", "--mode", "google", "--dnssec"]),
    ({"mode": "cloudflare", "oracle_check": 1}, ["A", "--mode", "cloudflare", "--oracle-check", "1"]),
    ({"mode": "external"}, ["A", "--mode", "external"]),
    ({"gc_period": 0.5}, None),
    ({"gc_pause": 0.1}, None),
    ({"gc_period": 0.0, "gc_pause": 0.0}, None),
    ({"gc_pause": -0.1, "gc_period": 0.5}, None),
    ({"gc_period": 0.5, "gc_pause": 0.5}, None),
]


@pytest.mark.parametrize(
    "overrides, argv", REJECTED, ids=[",".join(case) for case, _ in REJECTED]
)
def test_each_rule_rejects_at_construction(overrides, argv):
    with pytest.raises(ValueError, match=next(iter(overrides))):
        ScanConfig(**overrides)
    if argv is not None:
        assert _run_cli(argv) == (2, None)


@pytest.mark.parametrize(
    "overrides",
    [{"retries": -1}, {"iteration_timeout": 0}, {"external_timeout": math.nan},
     {"backoff_base": -1.0}, {"backoff_base": 1.0, "backoff_cap": 0.5}, {"max_queries": 0}],
    ids=lambda overrides: ",".join(overrides),
)
def test_resolver_config_checks_its_own_fields(overrides):
    with pytest.raises(ValueError, match=next(iter(overrides))):
        ResolverConfig(**overrides)


#: The resolver stack's rules, each broken once, reached without a scan:
#: an external stack without IPs used to ask Google, and a validating
#: stub stack built a stack that never validated.
STACK_REJECTED = [
    {"mode": "quantum"},
    {"mode": "external"},
    {"mode": "google", "dnssec": True},
    {"cache_size": 0},
    {"cache_policy": "most"},
    {"cache_eviction": "fifo"},
    {"cores": 0},
    {"ports_per_ip": 0},
    {"source_prefix": 33},
    {"gc_period": 0.5},
    {"gc_pause": 0.1},
    {"gc_period": 0.5, "gc_pause": 0.5},
]


@pytest.mark.parametrize("overrides", STACK_REJECTED, ids=lambda overrides: ",".join(overrides))
def test_resolver_config_holds_the_stack_rules(overrides):
    with pytest.raises(ValueError, match=next(iter(overrides))):
        ResolverConfig(**overrides)


@pytest.mark.parametrize(
    "arguments, flag",
    [
        ({"processes": 0}, "--processes"),
        ({"processes": 2, "shards": 0}, "--mp-shards"),
        ({"processes": 2, "steal_quantum": 0}, "--steal-quantum"),
        ({"processes": 2, "resume": True}, None),
    ],
    ids=lambda value: ",".join(value) if isinstance(value, dict) else str(value),
)
def test_executor_rules_live_in_one_place(arguments, flag, capsys):
    """``run_parallel_scan`` and ``pyzdns`` check the executor's
    arguments through ``check_executor`` alone."""
    with pytest.raises(ValueError, match=next(reversed(arguments))):
        check_executor(**arguments)
    if flag is not None:
        argv = ["A", "-p", str(arguments["processes"])]
        for name, value in arguments.items():
            option = {"shards": "--mp-shards", "checkpoint_dir": "--checkpoint-dir"}.get(
                name, "--" + name.replace("_", "-")
            )
            if name != "processes":
                argv += [option, str(value)]
        assert _run_cli(argv) == (2, None)
        assert f"{flag} " in capsys.readouterr().err

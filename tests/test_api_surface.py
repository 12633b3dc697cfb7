"""Meta-tests on the public API surface: exports exist, are documented,
and the package version is coherent."""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.dnslib",
    "repro.ecosystem",
    "repro.framework",
    "repro.modules",
    "repro.net",
    "repro.obs",
    "repro.oracle",
    "repro.workloads",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_has_docstring(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__.strip()) > 20


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        item = getattr(package, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ or "").strip():
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, undocumented


def test_version():
    assert repro.__version__.count(".") == 2


def test_codec_exports_present():
    """The wire codec's public surface: batch decode, header peeks,
    stats, and the cache reset hook."""
    import repro.dnslib as dnslib

    for name in (
        "CODEC_STATS",
        "clear_codec_caches",
        "decode_many",
        "peek_header",
        "peek_txid",
        "parse_zone_lines",
    ):
        assert name in dnslib.__all__, f"repro.dnslib.__all__ missing {name}"
        assert hasattr(dnslib, name)


def test_codec_objects_carry_no_instance_dict():
    """Scans build tens of thousands of messages and records: all
    slots, no per-instance ``__dict__``; and the stats expose the
    counters telemetry reads."""
    from repro.dnslib import CODEC_STATS, Message, Question, ResourceRecord, codec_memo_stats

    for cls in (Message, Question, ResourceRecord):
        assert "__slots__" in vars(cls)
        assert "__dict__" not in dir(cls)
    for counter in ("decode_calls", "encode_calls"):
        assert counter in CODEC_STATS
    assert all(isinstance(value, int) for value in codec_memo_stats().values())


def test_module_registry_covers_paper_footnote():
    """Every record type from the paper's footnote has a raw module."""
    from repro.modules import available_modules
    from repro.modules.raw import RAW_MODULE_TYPES

    assert len(RAW_MODULE_TYPES) >= 62
    modules = set(available_modules())
    for rrtype in RAW_MODULE_TYPES:
        assert rrtype.name in modules


def test_one_place_builds_a_resolver_stack():
    """The cache, driver, source pool, CPU model and trust anchor are
    built by ``repro.core.Resolver`` alone: the scan runner, the daemon,
    the oracle sweep and shrinker and the baselines take them from the
    stack they build, so a piece cannot be wired two ways."""
    import ast
    import pathlib

    pieces = {"SelectiveCache", "SimDriver", "SourceIPPool", "CPUModel", "trust_anchor_for"}
    allowed = {"core/engine.py"}
    root = pathlib.Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in pieces:
                    sites.add((path.relative_to(root).as_posix(), called))
    assert {path for path, _ in sites} == allowed, sorted(sites)

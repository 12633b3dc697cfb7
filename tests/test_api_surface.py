"""Meta-tests on the public API surface: exports exist, are documented,
and the package version is coherent."""

import importlib
import inspect
import pkgutil

import pytest

import repro

#: ``repro`` and every package under it, found rather than listed, so a
#: new package's ``__all__`` is held to the same rules from day one.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


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


def test_one_config_wires_a_resolver_stack():
    """Every stack setting is a ``ResolverConfig`` field: a ``Resolver(``
    call under ``src/repro`` passes the universe and a config, plus only
    what no config holds (a shared cache or CPU model, the daemon's
    serve-stale window and heat tracking); and ``ScanConfig`` redeclares
    no inherited field but the two whose scan default differs."""
    import ast
    import dataclasses
    import pathlib

    from repro.core import Resolver, ResolverConfig
    from repro.framework import ScanConfig

    extras = ["cache", "cpu", "stale_ttl", "track_heat"]
    assert list(inspect.signature(Resolver).parameters) == ["internet", "config", *extras]
    root = pathlib.Path(repro.__file__).parent
    calls, wired = 0, set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Resolver":
                calls += 1
                keywords = {keyword.arg for keyword in node.keywords}
                if len(node.args) > 2 or keywords - {"config", *extras}:
                    wired.add((path.relative_to(root).as_posix(), node.lineno))
    assert calls >= 3 and not wired, sorted(wired)
    inherited = {field.name for field in dataclasses.fields(ResolverConfig)}
    assert inherited & set(vars(ScanConfig)["__annotations__"]) == {"seed", "cores"}


def test_one_place_attaches_a_fault_plan():
    """A :class:`FaultInjector` is built by ``build_internet`` alone: the
    CLI, each shard task, the daemon's blackouts and the oracle sweep and
    shrinker hand it their plan and chaos seed, so a plan cannot be
    attached two ways."""
    import ast
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "FaultInjector":
                    sites.add(path.relative_to(root).as_posix())
    assert sites == {"ecosystem/universe.py"}, sorted(sites)


def test_watching_schedules_nothing_on_the_simulator():
    """Nothing under ``framework/`` or ``obs/`` sets a timer on the
    simulator: the status line and the telemetry deltas are polled on
    the wall clock by loops that already run, so a watched scan executes
    exactly the events of an unwatched one."""
    import ast
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    sites = set()
    for package in ("framework", "obs"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in ("call_later", "call_at"):
                        sites.add((path.relative_to(root).as_posix(), node.lineno))
    assert not sites, sorted(sites)


def test_the_executor_keeps_no_clock():
    """The shard executor's parent wakes only on worker messages:
    ``framework/parallel.py`` reads no ``time.monotonic`` and calls the
    connection wait with its connections alone, so no deadline (a
    checkpoint cadence, a status line's) can hand the selector a
    timeout, let alone one too large for it."""
    import ast
    import pathlib

    path = pathlib.Path(repro.__file__).parent / "framework" / "parallel.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    waits = {"wait"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "multiprocessing.connection"
        for alias in node.names
        if alias.name == "wait"
    }
    clocks, calls = [], []
    for node in ast.walk(tree):
        named = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if named is not None and getattr(node, named) == "monotonic":
            clocks.append(node.lineno)
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in waits:
                calls.append((node.lineno, len(node.args), [k.arg for k in node.keywords]))
    assert not clocks, clocks
    assert calls and all(args == 1 and not keywords for _, args, keywords in calls), calls


def test_one_place_holds_the_oracle_verdict():
    """``compare_views`` is called and a ``ReferenceResolver`` is built
    inside ``DifferentialOracle`` alone: the runner, the shard tasks, the
    daemon, the sweep and the shrinker hand it lookups, so no caller
    samples, compares or counts a second way."""
    import ast
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "")  # the top-level class or function
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in ("compare_views", "ReferenceResolver"):
                        sites.add((path.relative_to(root).as_posix(), owner, called))
    assert sites == {
        ("oracle/harness.py", "DifferentialOracle", "compare_views"),
        ("oracle/harness.py", "DifferentialOracle", "ReferenceResolver"),
    }, sorted(sites)


def test_one_place_holds_each_config_rule():
    """A scan's rules live in the configs (``ScanConfig``,
    ``ResolverConfig``) and the executor's ``check_executor``:
    ``pyzdns`` turns their ``ValueError`` into a usage error at one site
    (a few ``parser.error`` calls at most), and neither ``ScanRunner``
    nor ``run_parallel_scan`` raises a ``ValueError`` under a test of a
    ``ScanConfig`` field."""
    import ast
    import dataclasses
    import pathlib

    from repro.framework import ScanConfig

    root = pathlib.Path(repro.__file__).parent / "framework"
    cli = ast.parse((root / "cli.py").read_text(encoding="utf-8"))
    usage_errors = [
        node
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "error"
        and getattr(node.func.value, "id", None) == "parser"
    ]
    assert len(usage_errors) <= 5, len(usage_errors)

    fields = {field.name for field in dataclasses.fields(ScanConfig)}
    rechecked = set()
    for path, owner in (("runner.py", "ScanRunner"), ("parallel.py", "run_parallel_scan")):
        tree = ast.parse((root / path).read_text(encoding="utf-8"))
        (top,) = [node for node in tree.body if getattr(node, "name", None) == owner]
        for branch in ast.walk(top):
            if not isinstance(branch, ast.If):
                continue
            raises = [
                node
                for statement in branch.body
                for node in ast.walk(statement)
                if isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"
            ]
            tested = {
                node.attr for node in ast.walk(branch.test) if isinstance(node, ast.Attribute)
            }
            if raises and tested & fields:
                rechecked.add((owner, *sorted(tested & fields)))
    assert not rechecked, sorted(rechecked)


def test_every_setting_is_read():
    """Each field of the four configs is read as an attribute somewhere
    under ``src/repro`` outside its class's ``__post_init__`` and
    ``to_json``: a setting nothing reads is an option that does
    nothing."""
    import ast
    import dataclasses
    import pathlib

    from repro.core import ClientCostModel, ResolverConfig
    from repro.framework import ScanConfig
    from repro.service import ServiceConfig

    configs = (ResolverConfig, ScanConfig, ServiceConfig, ClientCostModel)
    owners = {cls.__name__ for cls in configs}
    root = pathlib.Path(repro.__file__).parent
    read = set()

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in owners:
            for statement in node.body:
                if getattr(statement, "name", None) not in ("__post_init__", "to_json"):
                    visit(statement)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")))
    unread = sorted(
        f"{cls.__name__}.{field.name}"
        for cls in configs
        for field in dataclasses.fields(cls)
        if field.name not in read
    )
    assert not unread, unread


def test_metrics_off_builds_no_registry():
    """Metrics off is no registry, not a disabled one: no
    ``MetricsRegistry(`` call under ``src/repro`` passes an argument,
    ``repro.obs`` exports no null instrument, and a scan that keeps no
    metrics reports ``registry is None``."""
    import ast
    import pathlib

    import repro.obs
    from repro.ecosystem import EcosystemParams, build_internet
    from repro.framework import ScanConfig, ScanRunner

    root = pathlib.Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "MetricsRegistry" and (node.args or node.keywords):
                    sites.add((path.relative_to(root).as_posix(), node.lineno))
    assert not sites, sorted(sites)
    assert not {"NullInstrument", "NULL_REGISTRY"} & set(repro.obs.__all__)
    internet = build_internet(params=EcosystemParams(seed=5))
    report = ScanRunner(internet, ScanConfig(threads=4, seed=5)).run(["www.example-name.com"])
    assert report.registry is None and report.metrics == {}

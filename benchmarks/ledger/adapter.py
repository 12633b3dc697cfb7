"""The ledger's one import surface onto ``repro``.

Everything the benchmark knows about the program lives here, in two
halves:

* the **end-to-end path** — build a workload from its spec, run it
  through the public API (``EcosystemParams``/``build_internet``,
  ``ScanConfig``/``ScanRunner.run``, ``JsonLineSink``,
  ``run_parallel_scan``, ``ServiceConfig``/``ResolverService.run``,
  ``DomainCorpus``, ``Simulator.counters``) and read the numbers off
  the report.  Nothing else in ``repro`` is touched when tracing is off,
  so a refactor behind those names cannot break the numbers it is
  judged by;
* the **probes** of the traced round — spans recorded around the calls
  *into* each layer by wrapping its public functions for this process
  only.  Every probe is soft: a target that is missing or renamed turns
  that layer's metrics into ``None`` with a warning and the run goes on.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import io
import json
import os
import pathlib
import resource
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.ecosystem import EcosystemParams, build_internet  # noqa: E402
from repro.framework import JsonLineSink, ScanConfig, ScanRunner, run_parallel_scan  # noqa: E402
from repro.service import ResolverService, ServiceConfig  # noqa: E402
from repro.workloads import DomainCorpus  # noqa: E402

import tracing  # noqa: E402
from catalogue import SPAN_LAYERS  # noqa: E402


def corpus_names(count: int, offset: int) -> list[str]:
    """The first ``count`` *distinct* FQDNs of the CT-log corpus from
    index ``offset`` on, in corpus order.  Consecutive indices repeat
    names (a family of ~2.5 indices shares a base domain and 40 % of
    draws are its apex — one name in eight is a repeat), and a repeated
    name is an answer-cache hit, so repeats are skipped: about 1.16
    indices are read per name kept."""
    corpus = DomainCorpus()
    names: dict[str, None] = {}
    index = offset
    while len(names) < count:
        names.setdefault(corpus.fqdn(index))
        index += 1
    return list(names)


# -- measuring -------------------------------------------------------------


def _cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _timed(run) -> tuple[object, dict]:
    """Run the workload's run phase; wall and CPU around exactly it."""
    own0, kids0 = _cpu_seconds()
    start = time.perf_counter()
    report = run()
    end = time.perf_counter()
    own1, kids1 = _cpu_seconds()
    return report, {
        "run_started": start,
        "run_wall_s": end - start,
        "cpu_self_s": own1 - own0,
        "cpu_children_s": kids1 - kids0,
    }


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _check_rows(path: str, expected: int, dnssec: bool) -> dict:
    """Digest the row file and count rows the program got wrong: not
    JSON, no status, an internal ``ERROR``, or (validating scans) no
    ``data.dnssec``.  A TIMEOUT or SERVFAIL row is a correct measurement
    of a broken zone: it counts in ``status_failed``, not here."""
    digest = hashlib.sha256()
    rows = bad = 0
    with open(path, "rb") as handle:
        for line in handle:
            digest.update(line)
            rows += 1
            try:
                row = json.loads(line)
                status = row["status"]
                if dnssec:
                    row["data"]["dnssec"]
            except (ValueError, KeyError, TypeError):
                bad += 1
                continue
            if status == "ERROR":
                bad += 1
    return {
        "digest": digest.hexdigest(),
        "row_bytes": os.path.getsize(path),
        "tool_failed": bad + abs(expected - rows),
    }


def _scan_config(spec: dict) -> ScanConfig:
    params = spec["params"]
    observed = spec["variant"] == "metrics_on"
    return ScanConfig(
        module="A",
        mode="iterative",
        threads=params["threads"],
        source_prefix=params["source_prefix"],
        seed=spec["seed"],
        dnssec=params["dnssec"],
        metrics=observed,
        status_interval=1.0 if observed else None,
    )


def _read_names(spec: dict) -> list[str]:
    return pathlib.Path(spec["names_path"]).read_text(encoding="utf-8").split()


def _scan_numbers(stats) -> dict:
    return {
        "ops": stats.total,
        "upstream_queries": stats.queries_sent,
        "status_failed": stats.total - stats.successes,
        "virtual_s": stats.duration,
    }


def _run_scan(spec: dict, started: float, tracer) -> dict:
    params = spec["params"]
    names = _read_names(spec)
    universe = EcosystemParams(seed=spec["seed"], **params.get("ecosystem", {}))
    internet = build_internet(params=universe, wire_mode=params["wire_mode"])
    config = _scan_config(spec)
    warnings: list[str] = []
    with open(spec["rows_path"], "w", encoding="utf-8") as handle:
        sink = JsonLineSink(handle)
        runner = ScanRunner(
            internet,
            config,
            sink=sink,
            status_stream=io.StringIO() if config.metrics else None,
        )
        probed = _install_probes(tracer, internet.network, warnings) if tracer else None

        def run():
            report = runner.run(names)
            handle.flush()
            return report

        setup_s = time.perf_counter() - started
        report, timing = _timed(run)
    result = {"setup_s": setup_s, **timing, **_scan_numbers(report.stats)}
    result["events"] = internet.sim.counters()["events_executed"]
    result.update(_check_rows(spec["rows_path"], len(names), params["dnssec"]))
    if tracer:
        counters = _scan_counters(internet, runner, report, warnings)
        counters["framework.io.rows"] = sink.count
        counters["framework.io.bytes"] = result["row_bytes"]
        result["layers"] = _layer_metrics(tracer, probed, timing, counters, spec)
        result["warnings"] = warnings
    return result


def _run_shards(spec: dict, started: float, _tracer) -> dict:
    params = spec["params"]
    names = _read_names(spec)
    config = _scan_config(spec)
    processes = 1 if spec["variant"] == "reference" else params["processes"]
    with open(spec["rows_path"], "w", encoding="utf-8") as handle:

        def run():
            report = run_parallel_scan(
                names,
                config,
                processes=processes,
                out=handle,
                shards=params["shards"],
                wire_mode=params["wire_mode"],
                add_timestamp=False,
            )
            handle.flush()
            return report

        setup_s = time.perf_counter() - started
        report, timing = _timed(run)
    result = {"setup_s": setup_s, **timing, **_scan_numbers(report.stats)}
    result["events"] = None  # the workers' simulators are out of reach
    result.update(_check_rows(spec["rows_path"], len(names), params["dnssec"]))
    wall = timing["run_wall_s"]
    result["parallel"] = {
        "framework.parallel.parent_cpu_s": timing["cpu_self_s"],
        "framework.parallel.workers_cpu_s": timing["cpu_children_s"],
        "framework.parallel.tasks": report.tasks,
        "framework.parallel.steals": report.steals,
        "framework.parallel.busy_ratio": timing["cpu_children_s"] / (processes * wall),
    }
    return result


def _run_service(spec: dict, started: float, tracer) -> dict:
    config = ServiceConfig(seed=spec["seed"], **spec["params"])
    service = ResolverService(config)
    warnings: list[str] = []
    probed = _install_probes(tracer, service.internet.network, warnings) if tracer else None
    setup_s = time.perf_counter() - started
    report, timing = _timed(service.run)
    counters = report.counters
    queries = counters["queries"]
    latency = report.metrics["service.latency"]
    result = {
        "setup_s": setup_s,
        **timing,
        "ops": queries,
        "upstream_queries": report.network["udp_queries"] + report.network["tcp_queries"],
        "status_failed": counters["failed"],
        "virtual_s": None,  # open loop: the offered rate, not a result
        "events": service.sim.counters()["events_executed"],
        "latency_mean_ms": 1000.0 * latency["sum"] / latency["count"],
        "latency_p99_ms": 1000.0 * latency["p99"],
        "digest": report.determinism_digest(),
        # every client query is answered or refused before the drain ends
        "tool_failed": abs(queries - counters["served"] - counters["failed"]),
    }
    if tracer:
        layer_counters = _service_counters(service, report, warnings)
        result["layers"] = _layer_metrics(tracer, probed, timing, layer_counters, spec)
        result["warnings"] = warnings
    return result


_RUNNERS = {"scan": _run_scan, "shards": _run_shards, "service": _run_service}


def run_sample(spec: dict, started: float) -> dict:
    """One sample of one workload in this (fresh) process.

    ``started`` is the ``perf_counter`` reading taken before this module
    — and with it ``repro`` — was imported, so ``setup_s`` covers the
    imports, reading the inputs and building the simulated Internet.
    """
    tracer = tracing.Tracer() if spec["variant"] == "traced" else None
    result = _RUNNERS[spec["kind"]](spec, started, tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    del result["run_started"]
    return result


# -- layer counters (traced round only) ------------------------------------


def _soft(warnings: list[str], label: str, read):
    """``read()``, or None with a warning when the program no longer has
    what it reads."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError, ImportError) as exc:
        warnings.append(f"{label}: {exc!r}")
        return None


def _common_counters(sim, network, retries, cache_stats, warnings) -> dict:
    out = {}
    scheduler = _soft(warnings, "net.sim counters", sim.counters) or {}
    for metric, key in (
        ("net.sim.events", "events_executed"),
        ("net.sim.timers_scheduled", "timers_scheduled"),
        ("net.sim.timers_cancelled", "timers_cancelled"),
        ("net.sim.peak_heap", "peak_heap_size"),
    ):
        out[metric] = scheduler.get(key)
    for key in ("udp_queries", "tcp_queries", "server_drops"):
        out[f"net.sockets.{key}"] = _soft(warnings, f"net.sockets.{key}", lambda: getattr(network.stats, key))

    def memo_hit_ratio():
        memo = importlib.import_module("repro.dnslib").codec_memo_stats()
        probes = sum(value for key, value in memo.items() if key.endswith("_probes"))
        hits = sum(value for key, value in memo.items() if key.endswith("_hits"))
        return hits / probes if probes else 0.0

    out["dnslib.memo_hit_ratio"] = _soft(warnings, "dnslib.memo_hit_ratio", memo_hit_ratio)
    out["core.machine.retries"] = retries
    out["core.cache.hit_ratio"] = _soft(warnings, "core.cache.hit_ratio", lambda: cache_stats["hit_rate"])
    out["core.cache.evictions"] = _soft(warnings, "core.cache.evictions", lambda: cache_stats["evictions"])
    return out


def _scan_counters(internet, runner, report, warnings) -> dict:
    out = _common_counters(
        internet.sim, internet.network, report.stats.retries_used, report.cache_stats, warnings
    )
    out["core.cache.invalidated"] = _soft(
        warnings, "core.cache.invalidated", lambda: runner.cache.stats.invalidated
    )
    return out


def _service_counters(service, report, warnings) -> dict:
    # the service report does not count retries
    out = _common_counters(service.sim, service.internet.network, None, report.cache, warnings)
    out["core.cache.invalidated"] = _soft(
        warnings, "core.cache.invalidated", lambda: report.cache["invalidated"]
    )
    counters = report.counters
    queries = counters["queries"]
    for metric, read in (
        ("service.daemon.fresh_hit_ratio", lambda: counters["fresh_hits"] / queries),
        ("service.daemon.negative_hit_ratio", lambda: counters["negative_hits"] / queries),
        ("service.daemon.prefetch_refreshed", lambda: counters["prefetch_refreshed"]),
        ("service.daemon.revalidate_jobs", lambda: counters["revalidate_jobs"]),
    ):
        out[metric] = _soft(warnings, metric, read)
    return out


# -- probes ----------------------------------------------------------------

_CACHE_READS = (
    "best_delegation",
    "get_delegation",
    "get_answer",
    "get_negative",
    "get_security",
    "get_stale_answer",
    "get_stale_negative",
    "answer_heat",
)
_CACHE_WRITES = (
    "put_delegation",
    "put_answer",
    "put_negative",
    "put_security",
    "invalidate_subtree",
    "flush",
)

#: (layer, operation, module, class, attribute) — plain method probes.
_METHOD_PROBES = (
    ("net.sim", "run", "repro.net", "Simulator", "run"),
    ("net.sockets", "query_tcp", "repro.net", "SimUDPSocket", "query_tcp"),
    ("net.sockets", "acquire", "repro.net", "SourceIPPool", "acquire"),
    ("net.sockets", "release", "repro.net", "SourceIPPool", "release"),
    ("ecosystem.zonegen", "profile", "repro.ecosystem", "ZoneSynthesizer", "profile"),
    ("ecosystem.zonegen", "host_addresses", "repro.ecosystem", "ZoneSynthesizer", "host_addresses"),
    ("ecosystem.zonegen", "dnssec_profile", "repro.ecosystem", "ZoneSynthesizer", "dnssec_profile"),
    ("framework.io", "sink", "repro.framework", "JsonLineSink", "__call__"),
    ("service.daemon", "run", "repro.service", "ResolverService", "run"),
    *(("core.cache", f"read.{name}", "repro.core", "SelectiveCache", name) for name in _CACHE_READS),
    *(("core.cache", f"write.{name}", "repro.core", "SelectiveCache", name) for name in _CACHE_WRITES),
)

#: (layer, operation, module, function) — module-level function probes.
_FUNCTION_PROBES = (
    ("ecosystem.dnssec", "sign_rrset", "repro.ecosystem.dnssec", "sign_rrset"),
    ("framework.io", "encode_row", "repro.framework.io", "encode_row"),
)


def _patch_method(owner, attribute: str, tracer, name: str, **options) -> None:
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attribute, type(raw)(tracer.wrap(raw.__func__, name, **options)))
    else:
        setattr(owner, attribute, tracer.wrap(raw, name, **options))


def _patch_function(module, attribute: str, tracer, name: str) -> None:
    """Rebind a module-level function everywhere ``repro`` imported it
    by name (``from .dnssec import sign_rrset`` keeps its own binding)."""
    original = getattr(module, attribute)
    traced = tracer.wrap(original, name)
    for candidate in list(sys.modules.values()):
        if getattr(candidate, "__name__", "").startswith("repro") and (
            getattr(candidate, attribute, None) is original
        ):
            setattr(candidate, attribute, traced)


def _install_probes(tracer, network, warnings: list[str]) -> set[str]:
    """Wrap the calls into each layer; returns the layers that have at
    least one working probe."""
    probed: set[str] = set()

    def attempt(layer: str, label: str, install) -> None:
        try:
            install()
        except (AttributeError, ImportError, TypeError) as exc:
            warnings.append(f"probe {layer}/{label} not installed: {exc!r}")
        else:
            probed.add(layer)

    def cls(module: str, name: str):
        return getattr(importlib.import_module(module), name)

    for layer, operation, module, owner, attribute in _METHOD_PROBES:
        attempt(
            layer,
            operation,
            lambda: _patch_method(cls(module, owner), attribute, tracer, f"{layer}/{operation}"),
        )
    for layer, operation, module, attribute in _FUNCTION_PROBES:
        attempt(
            layer,
            operation,
            lambda: _patch_function(
                importlib.import_module(module), attribute, tracer, f"{layer}/{operation}"
            ),
        )

    # which lookup a span belongs to: the driver runs one lookup at a
    # time per socket, and a query is recognised at the server by the
    # (source address, transaction id) it left with
    socket_lookup: dict[int, int] = {}
    in_flight: dict[tuple, int] = {}

    def lookup_of_query(args):
        socket, message = args[0], args[2]
        lookup = socket_lookup.get(id(socket))
        in_flight[(socket.source_ip, message.id)] = lookup
        return lookup

    attempt(
        "net.sockets",
        "query",
        lambda: _patch_method(
            cls("repro.net", "SimUDPSocket"), "query", tracer, "net.sockets/query", lookup_from=lookup_of_query
        ),
    )

    def machine_probe():
        driver = cls("repro.core", "SimDriver")
        execute = driver.execute

        def traced_execute(self, machine_gen, socket, *rest):
            lookup = tracer.sizes["core.machine/lookups"]
            tracer.sizes["core.machine/lookups"] = lookup + 1
            socket_lookup[id(socket)] = lookup
            resumed = tracer.resumptions(machine_gen, "core.machine/resume", lookup)
            return execute(self, resumed, socket, *rest)

        driver.execute = traced_execute

    attempt("core.machine", "resume", machine_probe)

    def validator_probe():
        validator = cls("repro.core", "Validator")
        validate = validator.validate

        def traced_validate(self, *args, **kwargs):
            tracer.sizes["core.dnssec/validations"] += 1
            return tracer.resumptions(validate(self, *args, **kwargs), "core.dnssec/validate")

        validator.validate = traced_validate

    attempt("core.dnssec", "validate", validator_probe)

    message = "repro.dnslib", "Message"
    attempt(
        "dnslib.encode",
        "to_wire",
        lambda: _patch_method(
            cls(*message), "to_wire", tracer, "dnslib.encode/to_wire", size_of=lambda args, wire: len(wire)
        ),
    )
    attempt(
        "dnslib.decode",
        "from_wire",
        lambda: _patch_method(
            cls(*message), "from_wire", tracer, "dnslib.decode/from_wire", size_of=lambda args, _m: len(args[1])
        ),
    )

    def server_probes():
        def lookup_of_arrival(args):
            query, client_ip = args[1], args[2]
            return in_flight.get((client_ip, query.id))

        patched = set()
        for server in network.servers():
            owner = next(k for k in type(server).__mro__ if "handle_query" in vars(k))
            if owner not in patched:
                patched.add(owner)
                _patch_method(
                    owner, "handle_query", tracer, "ecosystem.servers/handle_query", lookup_from=lookup_of_arrival
                )

    attempt("ecosystem.servers", "handle_query", server_probes)
    return probed


def _layer_metrics(tracer, probed: set[str], timing: dict, counters: dict, spec: dict) -> dict:
    """Per-layer numbers of one traced run, and the trace file."""
    spans = tracer.spans
    wall = timing["run_wall_s"]
    names = tracing.by_name(spans)
    out: dict = dict(counters)
    attributed = 0.0
    for layer in SPAN_LAYERS:
        row = tracing.by_prefix(names, layer + "/")
        attributed += row["self_s"]
        known = layer in probed
        out[f"{layer}.calls"] = row["calls"] if known else None
        out[f"{layer}.self_s"] = row["self_s"] if known else None
        out[f"{layer}.share"] = row["self_s"] / wall if known else None
    unattributed = wall - tracing.root_cover(spans)
    out["trace.unattributed_share"] = unattributed / wall
    #: the books close when this is ~0: self times + unattributed = wall
    out["_trace.balance_share"] = (attributed + unattributed - wall) / wall

    def per_call(seconds, calls):
        return 1e6 * seconds / calls if seconds is not None and calls else None

    out["net.sim.us_per_event"] = per_call(out["net.sim.self_s"], out.get("net.sim.events"))
    for codec in ("dnslib.encode", "dnslib.decode"):
        out[f"{codec}.us_per_msg"] = per_call(out[f"{codec}.self_s"], out[f"{codec}.calls"])
    out["dnslib.encode.bytes"] = tracer.sizes["dnslib.encode/to_wire"] if "dnslib.encode" in probed else None
    out["dnslib.decode.bytes"] = tracer.sizes["dnslib.decode/from_wire"] if "dnslib.decode" in probed else None
    # inclusive: what a query costs the server side, zone synthesis and signing included
    out["ecosystem.servers.us_per_query"] = per_call(
        tracing.by_prefix(names, "ecosystem.servers/")["total_s"], out["ecosystem.servers.calls"]
    )
    machine = "core.machine" in probed
    lookups = tracer.sizes["core.machine/lookups"]
    out["core.machine.lookups"] = lookups if machine else None
    out["core.machine.steps_per_lookup"] = out["core.machine.calls"] / lookups if machine and lookups else None
    for side in ("read", "write"):
        row = tracing.by_prefix(names, f"core.cache/{side}.")
        known = "core.cache" in probed
        out[f"core.cache.{side}.calls"] = row["calls"] if known else None
        out[f"core.cache.{side}.self_s"] = row["self_s"] if known else None
    out["core.dnssec.validations"] = tracer.sizes["core.dnssec/validations"] if "core.dnssec" in probed else None
    out["_spans"] = len(spans)
    tracing.write_trace(spec["trace_path"], sorted(spans), timing["run_started"])
    return out

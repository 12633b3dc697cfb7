"""The ``pyzdns`` command line interface.

Mirrors ZDNS's CLI shape: ``pyzdns MODULE [flags] < names``.  Scans run
against the built-in simulated Internet (this reproduction's substrate);
``--live-resolver HOST:PORT`` instead sends real UDP queries, for use
against a loopback test server or, with network access, real resolvers.

Observability flags (see :mod:`repro.obs`): ``--status-interval`` prints
a live progress line every that many wall seconds, ``--metadata-file``
writes a JSON run summary (args, durations, metrics), ``--metrics-out``
dumps the metrics registry as Prometheus-style text, and
``--spans-file`` streams per-lookup spans as JSON lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time

from ..core import LiveDriver
from ..core.config import port
from ..ecosystem import EcosystemParams, build_internet
from ..modules import get_module
from ..obs import MetricsRegistry, StatusLine
from .io import DEFAULT_LOGICAL_SHARDS, JsonLineSink, read_names, shard
from .runner import SCAN_MODES, ScanConfig, ScanReport, ScanRunner
from .stats import ScanStats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyzdns",
        description="Fast DNS measurement toolkit (ZDNS reproduction).",
    )
    parser.add_argument(
        "module",
        help="scan module: a record type (A, AAAA, MX, ...) or a lookup module "
        "(ALOOKUP, MXLOOKUP, ...); an unknown name lists them all",
    )
    parser.add_argument("--input-file", "-f", help="names file (default stdin)")
    parser.add_argument("--output-file", "-o", help="results file (default stdout)")
    parser.add_argument(
        "--mode",
        choices=SCAN_MODES,
        default="iterative",
        help="resolution mode (default: iterative)",
    )
    parser.add_argument("--name-servers", default="", help="comma-separated resolvers for --mode external")
    parser.add_argument("--threads", "-t", type=int, default=1000, help="concurrent lookup routines")
    parser.add_argument("--source-prefix", type=int, default=32, help="scanning subnet size (32, 29, 28)")
    parser.add_argument("--cache-size", type=int, default=600_000, help="delegation cache entries")
    parser.add_argument("--retries", type=int, default=2, help="extra attempts per query")
    parser.add_argument(
        "--timeout",
        type=float,
        default=3.0,
        help="per-query timeout seconds against a recursive resolver (--mode google, "
        "cloudflare, external, --live-resolver); iterative queries wait 2 s",
    )
    parser.add_argument("--trace", action="store_true", help="record full lookup chains")
    parser.add_argument("--seed", type=int, default=2022, help="simulation seed")
    parser.add_argument("--cores", type=int, default=24, help="simulated CPU cores")
    parser.add_argument(
        "--live-resolver",
        help="HOST:PORT of a real resolver: send real UDP instead of simulating",
    )
    parser.add_argument("--shards", type=int, default=1, help="total scanner shards")
    parser.add_argument("--shard", type=int, default=0, help="this instance's shard index")
    parser.add_argument(
        "--processes",
        "-p",
        type=int,
        metavar="N",
        help="fork N worker processes, each scanning disjoint logical "
        "shards through its own simulated Internet; results merge into "
        "one order-normalized stream (simulated scans only)",
    )
    parser.add_argument(
        "--mp-shards",
        type=int,
        metavar="S",
        help="logical shard count for --processes (default "
        f"{DEFAULT_LOGICAL_SHARDS}); for a fixed seed and S the merged "
        "output is byte-identical for any process count",
    )
    parser.add_argument(
        "--steal-quantum",
        type=int,
        metavar="N",
        help="with --processes: pre-segment each logical shard every N "
        "names so idle workers can steal a straggler's tail segments; "
        "output bytes depend on N but not on the steal schedule",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="with --processes: journal each completed task to DIR so "
        "an interrupted scan can be resumed exactly (see --resume)",
    )
    parser.add_argument(
        "--checkpoint-fsync",
        choices=["always", "never"],
        help="journal fsync policy: 'always' syncs at every task "
        "completion (default), 'never' leaves flushing to the OS",
    )
    parser.add_argument(
        "--resume",
        metavar="DIR",
        help="resume an interrupted --checkpoint-dir scan: validate the "
        "journal against this run's configuration, replay completed "
        "tasks from the spool, and re-run only the rest — the merged "
        "output is byte-identical to an uninterrupted run",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the stats summary")
    parser.add_argument(
        "--metadata-file",
        help="write a JSON run summary (args, durations, statuses, metrics) to this path",
    )
    parser.add_argument(
        "--status-interval",
        type=float,
        metavar="SECONDS",
        help="print a status line to stderr every SECONDS (> 0) of wall time",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="dump the metrics registry as Prometheus-style text ('-' = stderr)",
    )
    parser.add_argument(
        "--spans-file",
        metavar="PATH",
        help="stream per-lookup spans as JSON lines to this path (with "
        "--processes, rows carry a 'shard' tag and merge shard-ordered)",
    )
    parser.add_argument(
        "--http-port",
        type=port,
        metavar="PORT",
        help="serve a live control plane on 127.0.0.1:PORT while the "
        "scan runs: /metrics (Prometheus text), /status.json (fleet "
        "snapshot), / (dashboard); 0 picks a free port (simulated scans "
        "only, off by default)",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PLAN",
        help="inject faults: a JSON plan file, or a bundled plan name "
        "(mild, moderate, severe, extreme); simulated scans only",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        help="RNG seed for fault injection (default: --seed)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base retry backoff with decorrelated jitter (0 = off)",
    )
    parser.add_argument(
        "--server-health",
        action="store_true",
        help="track per-server health and shed load from failing servers",
    )
    parser.add_argument(
        "--oracle-check",
        type=int,
        metavar="K",
        help="check lookups 1, K+1, 2K+1, ... against the differential "
        "reference resolver; divergences become structured output rows "
        "(simulated iterative scans only; with --processes each task "
        "samples its own lookups)",
    )
    parser.add_argument(
        "--no-timestamps",
        action="store_true",
        help="omit wall-clock timestamps from result rows (for "
        "byte-identical replay comparisons)",
    )
    parser.add_argument(
        "--dnssec",
        action="store_true",
        help="set the DO bit on every query and validate each answer "
        "against the chain of trust; rows gain data.dnssec "
        "(secure/insecure/bogus/indeterminate) and the metrics registry "
        "a dnssec.* scope (simulated iterative scans only)",
    )
    return parser


#: The flag that sets each value a ``ValueError`` may name (a config
#: field, a shard-executor argument, or the ZMap shard of :func:`shard`):
#: ``--`` and the name with dashes, but for those the CLI names its own way.
_FLAGS = {
    name: "--" + name.replace("_", "-")
    for name in (
        "cache_size", "checkpoint_dir", "cores", "dnssec", "mode",
        "oracle_check", "processes", "resume", "retries", "source_prefix",
        "status_interval", "steal_quantum", "threads",
    )
} | {
    "backoff_base": "--backoff",
    "external_timeout": "--timeout",
    "resolver_ips": "--name-servers",
    "shards": "--mp-shards",
    "shard count": "--shards",
    "shard index": "--shard",
}
_FLAG_NAMES = re.compile(
    r"(?<![\w./-])(" + "|".join(sorted(_FLAGS, key=len, reverse=True)) + r")(?![\w./-])"
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Every config is built, and so checked, before any output is opened:
    # a value a config, the executor or the fault plan reader rejects
    # exits here as one usage error naming its flag — not as a traceback
    # mid-scan or, worse, a silent empty or query-less scan.
    try:
        live = _live_address(args)
        config = _scan_config(args, live)
        executor = _executor_args(args)
        plan = None
        if args.fault_plan is not None:
            from ..faults import resolve_plan

            plan = resolve_plan(args.fault_plan)
        names = shard(read_names(args.input_file), args.shards, args.shard)
    except (KeyError, OSError, ValueError) as error:
        message = error.args[0] if isinstance(error, KeyError) else str(error)
        parser.error(_FLAG_NAMES.sub(lambda match: _FLAGS[match[1]], message))

    out_handle = open(args.output_file, "w") if args.output_file else sys.stdout
    started = time.monotonic()
    try:
        if live is not None:
            sink = JsonLineSink(out_handle, add_timestamp=not args.no_timestamps)
            report = _run_live(config, live[1], names, sink)
        else:
            report = _run_simulated(args, config, executor, names, out_handle, plan)
        wall_seconds = time.monotonic() - started
        summary = report.summary()
        if not args.quiet:
            print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        if args.metrics_out:
            text = report.registry.render_prometheus()
            if args.metrics_out == "-":
                sys.stderr.write(text)
            else:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(text)
        if args.metadata_file:
            from ..obs import build_run_metadata, write_metadata

            metadata = build_run_metadata(
                summary,
                args=vars(args),
                wall_seconds=wall_seconds,
                virtual_seconds=report.stats.duration,
                metrics=report.metrics or None,
            )
            write_metadata(args.metadata_file, metadata)
    finally:
        if args.output_file:
            out_handle.close()
    return 0


def _live_address(args) -> tuple[str, int] | None:
    """``--live-resolver``'s HOST and PORT, or None for a simulated
    scan; a live scan takes none of the simulated-only flags."""
    if not args.live_resolver:
        return None
    for flag, value in (
        ("--processes", args.processes),
        ("--http-port", args.http_port),
        ("--oracle-check", args.oracle_check),
        ("--dnssec", args.dnssec or None),
        ("--fault-plan", args.fault_plan),
        ("--chaos-seed", args.chaos_seed),
    ):
        if value is not None:
            raise ValueError(f"{flag} applies to simulated scans only")
    host, _, port_text = args.live_resolver.partition(":")
    return host, port(port_text) if port_text else 53


def _scan_config(args, live: tuple[str, int] | None) -> ScanConfig:
    """The ScanConfig of every path: in this process, across the shard
    executor, and live (external mode, against the one live resolver).
    A flag whose name is a field's sets it as is."""
    fields = {field.name for field in dataclasses.fields(ScanConfig)}
    config = {name: value for name, value in vars(args).items() if name in fields}
    config.update(
        mode="external" if live else args.mode,
        resolver_ips=[live[0]] if live else [ip for ip in args.name_servers.split(",") if ip],
        external_timeout=args.timeout,
        record_trace=args.trace,
        backoff_base=args.backoff,
        metrics=bool(args.metrics_out or args.metadata_file),
    )
    return ScanConfig(**config)


def _executor_args(args) -> dict | None:
    """The shard executor's keyword arguments, checked (None without
    ``--processes``).  The CLI's own rules: the durability flags need
    ``--processes``, ``--checkpoint-fsync`` a checkpoint directory, and
    ``--resume`` names that directory itself."""
    if args.resume is not None and args.checkpoint_dir is not None:
        raise ValueError("--resume already names the checkpoint directory; drop --checkpoint-dir")
    executor = {
        "processes": args.processes,
        "shards": args.mp_shards,
        "steal_quantum": args.steal_quantum,
        "resume": args.resume is not None,
        "checkpoint_dir": args.resume or args.checkpoint_dir,
    }
    if args.checkpoint_fsync is not None and executor["checkpoint_dir"] is None:
        raise ValueError("--checkpoint-fsync requires --checkpoint-dir or --resume")
    if args.processes is None:
        for name, value in executor.items():
            if value is not None and value is not False:
                raise ValueError(f"{name} requires processes")
        return None
    from .parallel import check_executor

    check_executor(**executor)
    return {**executor, "checkpoint_fsync": args.checkpoint_fsync or "always"}


def _run_simulated(args, config, executor, names, out_handle, plan):
    """A simulated scan: in this process through :class:`ScanRunner`,
    or with ``--processes`` across the shard executor (see
    :mod:`repro.framework.parallel`).  Either way ``--http-port`` serves
    a :class:`~repro.framework.telemetry.FleetView` fed by the scan's
    telemetry deltas."""
    from .telemetry import FleetView

    #: a bad or mismatched journal exits as a usage error; a run without
    #: one has nothing to catch and leaves the journal code unloaded
    bad_journal: tuple | type[Exception] = ()
    if executor is not None and executor["checkpoint_dir"] is not None:
        from .checkpoint import CheckpointError as bad_journal

    fleet = server = None
    if args.http_port is not None:
        from ..obs.server import TelemetryServer

        fleet = FleetView(  # run metadata for the dashboard and /status.json
            run_info={
                "module": config.module,
                "mode": config.mode,
                "seed": config.seed,
                "threads": config.threads,
                "processes": args.processes or 1,
            }
        )
        server = TelemetryServer(
            status=fleet.status_snapshot, metrics=fleet.prometheus, port=args.http_port
        ).start()
        if not args.quiet:  # the scan owns stdout
            print(f"pyzdns: control plane at {server.url}", file=sys.stderr)
    span_handle = open(args.spans_file, "w") if args.spans_file else None
    try:
        if executor is None:
            internet = build_internet(
                params=EcosystemParams(seed=args.seed),
                faults=plan,
                chaos_seed=args.chaos_seed if args.chaos_seed is not None else args.seed,
            )
            target = None
            if fleet is not None or config.status_interval is not None:
                # done/target and ETA need the total up front; stdin is a
                # stream, so materialise (the executor does the same)
                names = list(names)
                target = len(names)
                if fleet is not None:
                    fleet.target = target
            report = ScanRunner(
                internet,
                config,
                sink=JsonLineSink(out_handle, add_timestamp=not args.no_timestamps),
                span_sink=JsonLineSink(span_handle) if span_handle is not None else None,
                progress=fleet.update if fleet is not None else None,
                target=target,
            ).run(names)
            if fleet is not None:
                fleet.finish()
        else:
            from .parallel import run_parallel_scan

            report = run_parallel_scan(
                names,
                config,
                out=out_handle,
                fault_plan=args.fault_plan,
                chaos_seed=args.chaos_seed,
                add_timestamp=not args.no_timestamps,
                span_out=span_handle,
                fleet_view=fleet,
                **executor,
            )
    except bad_journal as error:
        raise SystemExit(f"pyzdns: {error}")
    finally:
        if span_handle is not None:
            span_handle.close()
        if server is not None:
            server.stop()
    return report


def _run_live(config, resolver_port, names, sink) -> ScanReport:
    """Sequential real-socket scan against one resolver (loopback or,
    with network access, a public resolver): the module's own lookup,
    in external mode, with the scan's resolver flags.  Its stats run on
    the wall clock, and its registry holds the ``engine`` scope."""
    from ..modules import ModuleContext
    from ..net import UDPTransport

    module = get_module(config.module)
    context = ModuleContext(
        mode="external", resolver_ips=config.resolver_ips, config=config, port=resolver_port
    )
    stats = ScanStats()
    status = None
    if config.status_interval is not None:
        status = StatusLine(config.status_interval, stats.counters)
    started = time.monotonic()
    with UDPTransport() as transport:
        driver = LiveDriver(transport, port_override=resolver_port, seed=config.seed)
        for raw in names:
            sent = transport.queries_sent
            row = driver.execute(module.lookup(raw, context))
            result = row.pop("_result", None)
            sink(row)
            stats.record(
                row.get("status", "ERROR"),
                time.monotonic() - started,
                transport.queries_sent - sent,
                result.retries_used if result is not None else 0,
            )
            if status is not None:
                status.poll()
    if status is not None:
        status.finish()
    registry = MetricsRegistry(enabled=config.metrics)
    stats.publish_metrics(registry.scope("engine"))
    return ScanReport(stats=stats, registry=registry, metrics=registry.snapshot())


if __name__ == "__main__":
    raise SystemExit(main())

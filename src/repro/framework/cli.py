"""The ``pyzdns`` command line interface.

Mirrors ZDNS's CLI shape: ``pyzdns MODULE [flags] < names``.  Scans run
against the built-in simulated Internet (this reproduction's substrate);
``--live-resolver HOST:PORT`` instead sends real UDP queries, for use
against a loopback test server or, with network access, real resolvers.

Observability flags (see :mod:`repro.obs`): ``--status-interval`` prints
a live progress line per interval, ``--metadata-file`` writes a JSON run
summary (args, durations, metrics), ``--metrics-out`` dumps the
metrics registry as Prometheus-style text, and ``--spans-file`` streams
per-lookup spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..core import LiveDriver
from ..ecosystem import EcosystemParams, build_internet
from ..modules import get_module
from ..obs.status import status_line
from .io import DEFAULT_LOGICAL_SHARDS, JsonLineSink, read_names, shard
from .runner import ScanConfig, ScanRunner
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
    parser.add_argument("--input-file", "-f", default=None, help="names file (default stdin)")
    parser.add_argument("--output-file", "-o", default=None, help="results file (default stdout)")
    parser.add_argument(
        "--mode",
        choices=["iterative", "google", "cloudflare", "external"],
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
        default=None,
        help="HOST:PORT of a real resolver: send real UDP instead of simulating",
    )
    parser.add_argument("--shards", type=int, default=1, help="total scanner shards")
    parser.add_argument("--shard", type=int, default=0, help="this instance's shard index")
    parser.add_argument(
        "--processes",
        "-p",
        type=int,
        default=None,
        metavar="N",
        help="fork N worker processes, each scanning disjoint logical "
        "shards through its own simulated Internet; results merge into "
        "one order-normalized stream (simulated scans only)",
    )
    parser.add_argument(
        "--mp-shards",
        type=int,
        default=None,
        metavar="S",
        help="logical shard count for --processes (default "
        f"{DEFAULT_LOGICAL_SHARDS}); for a fixed seed and S the merged "
        "output is byte-identical for any process count",
    )
    parser.add_argument(
        "--steal-quantum",
        type=int,
        default=None,
        metavar="N",
        help="with --processes: pre-segment each logical shard every N "
        "names so idle workers can steal a straggler's tail segments; "
        "output bytes depend on N but not on the steal schedule",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="with --processes: journal completed tasks and periodic "
        "progress to DIR so an interrupted scan can be resumed exactly "
        "(see --resume)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock seconds between cadence checkpoints "
        "(default 5.0; requires --checkpoint-dir or --resume)",
    )
    parser.add_argument(
        "--checkpoint-fsync",
        choices=["always", "interval", "never"],
        default=None,
        help="journal fsync policy: 'always' syncs at every task "
        "completion (default), 'interval' only at cadence checkpoints, "
        "'never' leaves flushing to the OS",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume an interrupted --checkpoint-dir scan: validate the "
        "journal against this run's configuration, replay completed "
        "tasks from the spool, and re-run only the rest — the merged "
        "output is byte-identical to an uninterrupted run",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the stats summary")
    parser.add_argument(
        "--metadata-file",
        default=None,
        help="write a JSON run summary (args, durations, statuses, metrics) to this path",
    )
    parser.add_argument(
        "--status-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a status line to stderr every SECONDS (> 0) of scan time",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump the metrics registry as Prometheus-style text ('-' = stderr)",
    )
    parser.add_argument(
        "--spans-file",
        default=None,
        metavar="PATH",
        help="stream per-lookup spans as JSON lines to this path (with "
        "--processes, rows carry a 'shard' tag and merge shard-ordered)",
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a live control plane on 127.0.0.1:PORT while the "
        "scan runs: /metrics (Prometheus text), /status.json (fleet "
        "snapshot), / (dashboard); 0 picks a free port (simulated scans "
        "only, off by default)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="inject faults: a JSON plan file, or a bundled plan name "
        "(mild, moderate, severe, extreme); simulated scans only",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
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
        default=None,
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        module = get_module(args.module)
    except KeyError as error:
        parser.error(str(error))

    # Validate numbers and the sharding/process topology eagerly: a bad
    # value must exit as a clean usage error, not a traceback mid-scan
    # (or, worse, a silent empty or query-less scan).
    for flag, value, least in (
        ("--threads", args.threads, 1),
        ("--cores", args.cores, 1),
        ("--cache-size", args.cache_size, 1),
        ("--retries", args.retries, 0),
    ):
        if value < least:
            parser.error(f"{flag} must be >= {least} (got {value})")
    if not 0 <= args.source_prefix <= 32:
        parser.error(f"--source-prefix must be 0..32 (got {args.source_prefix})")
    if args.timeout <= 0:
        parser.error(f"--timeout must be > 0 (got {args.timeout})")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1 (got {args.shards})")
    if not 0 <= args.shard < args.shards:
        parser.error(
            f"--shard {args.shard} outside 0..{args.shards - 1} "
            f"(of --shards {args.shards})"
        )
    if args.processes is not None:
        if args.processes < 1:
            parser.error(f"--processes must be >= 1 (got {args.processes})")
        if args.mp_shards is not None and args.mp_shards < 1:
            parser.error(f"--mp-shards must be >= 1 (got {args.mp_shards})")
        if args.live_resolver:
            parser.error("--processes applies to simulated scans only")
    elif args.mp_shards is not None:
        parser.error("--mp-shards requires --processes")

    # Durability flags ride on the multi-process executor only.
    if args.processes is None:
        for flag, value in (
            ("--steal-quantum", args.steal_quantum),
            ("--checkpoint-dir", args.checkpoint_dir),
            ("--resume", args.resume),
        ):
            if value is not None:
                parser.error(f"{flag} requires --processes")
    if args.steal_quantum is not None and args.steal_quantum < 1:
        parser.error(f"--steal-quantum must be >= 1 (got {args.steal_quantum})")
    if args.resume is not None and args.checkpoint_dir is not None:
        parser.error("--resume already names the checkpoint directory; drop --checkpoint-dir")
    checkpointing = args.checkpoint_dir is not None or args.resume is not None
    if args.checkpoint_interval is not None:
        if not checkpointing:
            parser.error("--checkpoint-interval requires --checkpoint-dir or --resume")
        if args.checkpoint_interval <= 0:
            parser.error(
                f"--checkpoint-interval must be > 0 (got {args.checkpoint_interval})"
            )
    if args.status_interval is not None and args.status_interval <= 0:
        parser.error(f"--status-interval must be > 0 (got {args.status_interval})")
    if args.checkpoint_fsync is not None and not checkpointing:
        parser.error("--checkpoint-fsync requires --checkpoint-dir or --resume")

    if args.http_port is not None:
        if args.http_port < 0 or args.http_port > 65535:
            parser.error(f"--http-port must be 0..65535 (got {args.http_port})")
        if args.live_resolver:
            parser.error("--http-port applies to simulated scans only")

    if args.oracle_check is not None:
        if args.oracle_check < 1:
            parser.error(f"--oracle-check must be >= 1 (got {args.oracle_check})")
        if args.live_resolver:
            parser.error("--oracle-check applies to simulated scans only")
        if args.mode != "iterative":
            parser.error("--oracle-check requires --mode iterative")

    if args.dnssec:
        if args.live_resolver:
            parser.error("--dnssec applies to simulated scans only")
        if args.mode != "iterative":
            parser.error("--dnssec requires --mode iterative")

    if args.mode == "external" and not args.live_resolver and not _name_servers(args):
        parser.error("--mode external requires --name-servers")

    plan = None
    if args.fault_plan is not None:
        from ..faults import PlanError, resolve_plan

        try:
            plan = resolve_plan(args.fault_plan)
        except (KeyError, OSError, PlanError) as error:
            parser.error(error.args[0] if isinstance(error, KeyError) else str(error))

    names = read_names(args.input_file)
    if args.shards > 1:
        names = shard(names, args.shards, args.shard)
    out_handle = open(args.output_file, "w") if args.output_file else sys.stdout
    started = time.monotonic()
    try:
        if args.live_resolver:
            summary, report = _run_live(args, module, names, out_handle)
        else:
            report = _run_simulated(args, module, names, out_handle, plan)
            summary = report.summary()
        wall_seconds = time.monotonic() - started
        if not args.quiet:
            print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        if args.metrics_out and report is not None:
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
                virtual_seconds=report.stats.duration if report is not None else None,
                metrics=report.metrics if report is not None and report.metrics else None,
            )
            write_metadata(args.metadata_file, metadata)
    finally:
        if args.output_file:
            out_handle.close()
    return 0


def _name_servers(args) -> list[str]:
    return [s for s in args.name_servers.split(",") if s]


def _scan_config(args) -> ScanConfig:
    """The ScanConfig both the in-process and multi-process paths share."""
    return ScanConfig(
        module=args.module,
        mode=args.mode,
        resolver_ips=_name_servers(args),
        threads=args.threads,
        source_prefix=args.source_prefix,
        cache_size=args.cache_size,
        retries=args.retries,
        external_timeout=args.timeout,
        cores=args.cores,
        record_trace=args.trace,
        seed=args.seed,
        metrics=bool(args.metrics_out or args.metadata_file),
        status_interval=args.status_interval,
        backoff_base=args.backoff,
        server_health=args.server_health,
        oracle_check=getattr(args, "oracle_check", None),
        dnssec=getattr(args, "dnssec", False),
    )


def _run_info(args) -> dict:
    """Run metadata shown on the dashboard and in ``/status.json``."""
    return {
        "module": args.module,
        "mode": args.mode,
        "seed": args.seed,
        "threads": args.threads,
        "processes": args.processes or 1,
    }


def _run_simulated(args, module, names, out_handle, plan):
    """A simulated scan: in this process through :class:`ScanRunner`,
    or with ``--processes`` across the shard executor (see
    :mod:`repro.framework.parallel`).  Either way ``--http-port`` serves
    a :class:`~repro.framework.telemetry.FleetView` fed by the scan's
    telemetry deltas."""
    from .telemetry import FleetView

    #: a bad or mismatched journal exits as a usage error; a run without
    #: one has nothing to catch and leaves the journal code unloaded
    bad_journal: tuple | type[Exception] = ()
    if args.resume or args.checkpoint_dir:
        from .checkpoint import CheckpointError as bad_journal

    config = _scan_config(args)
    fleet = server = None
    if args.http_port is not None:
        from ..obs.server import TelemetryServer

        fleet = FleetView(run_info=_run_info(args))
        server = TelemetryServer(
            status=fleet.status_snapshot, metrics=fleet.prometheus, port=args.http_port
        ).start()
        if not args.quiet:  # the scan owns stdout
            print(f"pyzdns: control plane at {server.url}", file=sys.stderr)
    span_handle = open(args.spans_file, "w") if args.spans_file else None
    try:
        if args.processes is None:
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
                module=module,
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
                processes=args.processes,
                out=out_handle,
                shards=args.mp_shards,
                fault_plan=args.fault_plan,
                chaos_seed=args.chaos_seed,
                add_timestamp=not args.no_timestamps,
                span_out=span_handle,
                fleet_view=fleet,
                steal_quantum=args.steal_quantum,
                checkpoint_dir=args.resume or args.checkpoint_dir,
                checkpoint_interval=args.checkpoint_interval,
                checkpoint_fsync=args.checkpoint_fsync or "always",
                resume=args.resume is not None,
            )
    except bad_journal as error:
        raise SystemExit(f"pyzdns: {error}")
    finally:
        if span_handle is not None:
            span_handle.close()
        if server is not None:
            server.stop()
    return report


def _run_live(args, module, names, out_handle):
    """Sequential real-socket scan against one resolver (loopback or,
    with network access, a public resolver): the module's own lookup,
    in external mode, with the scan's resolver flags.
    ``--status-interval`` here runs on the wall clock, checked between
    lookups."""
    from ..modules import ModuleContext
    from ..net import UDPTransport

    host, _, port_text = args.live_resolver.partition(":")
    port = int(port_text) if port_text else 53
    context = ModuleContext(
        mode="external", resolver_ips=[host], config=_scan_config(args).resolver_config()
    )
    sink = JsonLineSink(out_handle)
    stats = ScanStats()
    interval = args.status_interval
    started = time.monotonic()
    next_status = started + interval if interval else None
    last_total = 0
    with UDPTransport() as transport:
        driver = LiveDriver(transport, port_override=port, seed=args.seed)
        for raw in names:
            row = driver.execute(module.lookup(raw, context))
            result = row.pop("_result", None)
            sink(row)
            now = time.monotonic()
            stats.record(
                row.get("status", "ERROR"),
                now - started,
                result.queries_sent if result is not None else 0,
                result.retries_used if result is not None else 0,
            )
            if next_status is not None and now >= next_status:
                line = status_line(now - started, interval, last_total, stats.counters())
                print(line, file=sys.stderr)
                last_total = stats.total
                next_status = now + interval
    return {"total": stats.total, "successes": stats.successes, "mode": "live"}, None


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.service`` — run the resolver daemon from the CLI.

Prints the final :class:`~repro.service.daemon.ServiceReport` as JSON
on stdout; ``--events-out`` additionally streams the deterministic
event log as JSONL.  ``--http-port`` serves the live control plane
(``/status.json`` service view, ``/metrics``) while the run executes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..core.config import port
from .config import ServiceConfig
from .daemon import ResolverService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="long-lived resolver daemon on the simulated substrate",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--duration", type=float, default=3600.0,
                        help="virtual seconds to serve (default 3600)")
    parser.add_argument("--catalog-size", type=int, default=400)
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--base-qps", type=float, default=8.0)
    parser.add_argument("--diurnal-period", type=float, default=1800.0)
    parser.add_argument("--diurnal-depth", type=float, default=0.5)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--cache-capacity", type=int, default=8192)
    parser.add_argument("--cache-eviction", choices=("random", "lru"), default="lru")
    parser.add_argument("--stale-ttl", type=float, default=3600.0,
                        help="RFC 8767 serve-stale window; 0 disables")
    parser.add_argument("--negative-ttl", type=float, default=900.0)
    parser.add_argument("--prefetch-interval", type=float, default=30.0,
                        help="prefetch sweep cadence; 0 disables")
    parser.add_argument("--prefetch-threshold", type=float, default=60.0)
    parser.add_argument("--prefetch-min-hits", type=int, default=3)
    parser.add_argument("--deltas", type=int, default=0,
                        help="zone deltas to publish, evenly spaced")
    parser.add_argument("--revalidation", choices=("incremental", "flush", "off"),
                        default="incremental")
    parser.add_argument("--dnssec", action="store_true",
                        help="validate every upstream resolution against the "
                             "chain of trust")
    parser.add_argument("--blackout", action="append", default=[],
                        metavar="START:END",
                        help="upstream blackout window in virtual seconds "
                             "(repeatable), e.g. --blackout 1200:1800")
    parser.add_argument("--oracle-check", dest="oracle_check_every", type=int, default=0,
                        metavar="K", help="check upstream resolutions 1, K+1, 2K+1, ... "
                                          "against the differential oracle (0 = off)")
    parser.add_argument("--status-interval", type=float, default=60.0)
    parser.add_argument("--no-warm", dest="warm_catalog", action="store_false",
                        help="skip the t=0 catalog warm-up")
    parser.add_argument("--events-out", metavar="PATH",
                        help="write the event log as JSONL")
    parser.add_argument("--http-port", type=port, default=None,
                        help="serve the live control plane on this port "
                             "(0 = ephemeral)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the report on stdout")
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """The flags as a ServiceConfig: a flag whose name is a field's sets
    it as is (the config checks every value)."""
    blackouts = []
    for spec in args.blackout:
        try:
            start_text, _, end_text = spec.partition(":")
            blackouts.append((float(start_text), float(end_text)))
        except ValueError:
            raise ValueError(f"bad --blackout window {spec!r} (want START:END)") from None
    fields = {field.name for field in dataclasses.fields(ServiceConfig)}
    config = {name: value for name, value in vars(args).items() if name in fields}
    config.update(
        stale_ttl=args.stale_ttl if args.stale_ttl > 0 else None,
        blackouts=tuple(blackouts),
    )
    return ServiceConfig(**config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as error:  # a value ServiceConfig rejects is a usage error
        parser.error(str(error))
    service = ResolverService(config)

    telemetry = None
    if args.http_port is not None:
        from ..obs.server import TelemetryServer

        telemetry = TelemetryServer(
            status=service.status_snapshot,
            metrics=lambda: (
                service.publish_metrics()
                or service.registry.render_prometheus()
            ),
            port=args.http_port,
        ).start()
        print(f"control plane: {telemetry.url}", file=sys.stderr)

    try:
        report = service.run()
    finally:
        if telemetry is not None:
            telemetry.stop()

    if args.events_out:
        with open(args.events_out, "w", encoding="utf-8") as handle:
            for row in report.events:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    if not args.quiet:
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 1 if report.divergences else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The scan orchestrator: builds one resolver stack
(:class:`repro.core.Resolver`), spawns lookup routines on its sockets,
delegates per-query logic to the module, and aggregates stats.

This is ZDNS's "framework" component (Section 3.2): light-weight and
free of DNS-specific logic.  The framework also owns the telemetry
wiring (:mod:`repro.obs`): it builds the run's metrics registry,
publishes the scan's stats into the ``engine`` scope where the registry
is read (each delta and the end of the run), publishes scheduler and
cache pressure at scan end, polls the status line and streams
:class:`~repro.framework.telemetry.TelemetryDelta` snapshots to a
``progress`` consumer on the wall clock as each lookup finishes, and
gives the resolver machines the run's span tracer
(:class:`repro.core.trace.SpanTracer`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from ..core import Resolver, ResolverConfig, SelectiveCache, SpanTracer
from ..core.config import SCAN_MODES, above, at_least  # noqa: F401 (SCAN_MODES: the CLI's --mode)
from ..dnslib import CODEC_STATS, RRType, rdata_class, registered_types
from ..ecosystem import SimInternet
from ..modules import get_module
from ..net import CPUModel, PortExhaustedError, SimUDPSocket
from ..obs import MetricsRegistry, StatusLine
from .stats import ScanStats
from .telemetry import DEFAULT_DELTA_INTERVAL, TelemetryDelta


@dataclass
class ScanConfig(ResolverConfig):
    """Everything a scan needs (the CLI flag surface): the resolver
    stack's settings it inherits from :class:`ResolverConfig` (``mode``,
    ``retries``, the timeouts, the cache, ``dnssec``, …, and their rules)
    and what runs and watches the scan.

    Two inherited settings default differently for a scan: ``seed`` is 0
    (not the universe's) and ``cores`` 24 (not uncharged).  The scan's own
    rules are checked at construction (``ValueError``), the field bounds
    and ``oracle_check`` requiring ``mode="iterative"``.
    """

    seed: int = 0
    cores: int = 24
    module: str = "A"
    threads: int = 1000
    #: Collect registry metrics (engine/cache/scheduler scopes).  Off by
    #: default: the disabled path must cost nothing on the hot loop.
    metrics: bool = False
    #: Print a status line every this many wall seconds (None = off).
    status_interval: float | None = None
    #: Emit every lookup step as a span row (see repro.core.trace).
    collect_spans: bool = False
    #: Track per-server health and shed load away from failing servers
    #: (see repro.core.health).  Off by default.
    server_health: bool = False
    #: Abort the scan with :class:`repro.net.HangError` if the event
    #: loop executes more than this many events (hang detection for the
    #: chaos soak).  None (the default) keeps the unbounded hot loop.
    max_events: int | None = None
    #: Check lookups 1, K+1, 2K+1, … against the differential oracle
    #: (:mod:`repro.oracle`): divergences become structured output rows
    #: and ``oracle.*`` counters.  None = off.
    oracle_check: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("threads", "oracle_check", "max_events"):
            at_least(name, getattr(self, name), 1)
        above("status_interval", self.status_interval, 0)
        try:
            get_module(self.module)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        if self.oracle_check and self.mode != "iterative":
            raise ValueError("oracle_check requires mode iterative")


@dataclass
class ScanReport:
    """Everything a finished scan can tell you."""

    stats: ScanStats
    cache_stats: dict | None = None
    network_stats: dict | None = None
    cpu_utilisation: float = 0.0
    #: The run's telemetry registry (disabled/empty unless the scan was
    #: configured with metrics) and its flat snapshot.
    registry: MetricsRegistry | None = None
    metrics: dict = field(default_factory=dict)
    #: Span rows, when the scan collected spans without a sink.
    spans: list[dict] | None = None
    #: Differential-oracle counters (``--oracle-check`` scans only):
    #: checked / agreed / inconclusive / divergences.
    oracle_stats: dict | None = None
    #: Validation tallies (``dnssec`` scans only): secure / insecure /
    #: bogus / indeterminate lookup counts, and what validation asked
    #: the network for — ``chain_queries`` (every DS/DNSKEY query the
    #: validator sent), ``proofs_harvested`` (referrals that carried a
    #: DS / no-DS proof) and ``proof_fallbacks`` (cuts that needed an
    #: explicit DS query after all).  Exact for a seed.
    dnssec_stats: dict | None = None

    def summary(self) -> dict:
        """The CLI's stderr summary: scan stats, cache, CPU, and the
        oracle / DNSSEC tallies when the scan kept them."""
        summary = self.stats.to_json()
        summary["cache"] = self.cache_stats
        summary["cpu_utilisation"] = round(self.cpu_utilisation, 3)
        if self.oracle_stats is not None:
            summary["oracle"] = self.oracle_stats
        if self.dnssec_stats is not None:
            summary["dnssec"] = self.dnssec_stats
        return summary


class ScanRunner:
    """Runs one scan on a simulated Internet."""

    def __init__(
        self,
        internet: SimInternet,
        config: ScanConfig,
        sink: Callable[[dict], None] | None = None,
        cpu: CPUModel | None = None,
        span_sink: Callable[[dict], None] | None = None,
        status_stream=None,
        progress: Callable[[TelemetryDelta], None] | None = None,
        target: int | None = None,
    ):
        self.internet = internet
        self.config = config
        self.module = get_module(config.module)
        self.sink = sink
        self.cache: SelectiveCache | None = None
        #: Externally supplied CPU model (e.g. shared with a co-located
        #: Unbound); the resolver stack builds its own when None.
        self.cpu = cpu
        #: Finished spans stream here as JSON rows; when None but span
        #: collection is on, they are kept on the report.
        self.span_sink = span_sink
        #: Status lines go here (default stderr).
        self.status_stream = status_stream
        #: Streaming telemetry hook: handed a cumulative
        #: :class:`TelemetryDelta` as a lookup finishes once
        #: :data:`DEFAULT_DELTA_INTERVAL` wall seconds have passed since
        #: the last, and exactly once more, ``complete=True``,
        #: after the last routine finishes and every end-of-run scope is
        #: published.  ``FleetView.update`` is one; a shard worker sends
        #: it up its pipe beside the task's key.
        self.progress = progress
        #: Total lookups this run will perform, when the caller knows it
        #: (materialised name lists) — enables done/target and ETA on
        #: status lines.
        self.target = target
        # What this configuration's run() uses beyond every scan's needs
        # is imported now, at construction: no import lands inside the
        # timed run (the resolver stack itself is built per run).
        if config.dnssec:
            from ..core import dnssec  # noqa: F401
        if config.server_health:
            from ..core import health  # noqa: F401
        # So are the codecs of the module's answers (every type's for ANY, AXFR).
        qtype = self.module.qtype
        if qtype in (RRType.ANY, RRType.AXFR):
            for code in registered_types():
                rdata_class(code)
        elif qtype is not None:
            rdata_class(qtype)
        #: The differential oracle every finished lookup is handed to.
        #: Built here, with its reference Internet: set-up work, paid
        #: before the scan starts (one oracle per runner: its tallies and
        #: sample position span every run of it).
        self.oracle = None
        if config.oracle_check:
            from ..oracle import DifferentialOracle

            # the reference mirrors the universe the scan resolves in, whose
            # seed a shard task's derived ``config.seed`` is not
            self.oracle = DifferentialOracle(
                seed=internet.params.seed, dnssec=config.dnssec, every=config.oracle_check
            )

    def run(self, names: Iterable[str]) -> ScanReport:
        internet = self.internet
        config = self.config
        sim = internet.sim

        # one registry per run; streamed deltas carry live metrics even
        # when the run itself was not asked to keep them
        registry = MetricsRegistry(
            enabled=config.metrics
            or config.status_interval is not None
            or self.progress is not None
        )
        engine_scope = registry.scope("engine")
        # codec counters are process-global; the per-run contribution is
        # the delta against this baseline (see the codec scope below)
        codec_baseline = dict(CODEC_STATS)

        kept_spans = None
        if config.collect_spans or self.span_sink is not None:
            span_sink = self.span_sink
            if span_sink is None:
                kept_spans = []
                span_sink = kept_spans.append
            tracer = SpanTracer(clock=lambda: sim.now, sink=span_sink)
        elif self.sink is None:
            # nothing consumes a lookup's record without a sink: skip it
            tracer = None
        else:
            tracer = SpanTracer()
        health = None
        if config.server_health:
            from ..core.health import ServerHealthTracker

            health = ServerHealthTracker(clock=lambda: sim.now)
        resolver = Resolver(internet, replace(config, tracer=tracer, health=health), cpu=self.cpu)
        self.cache = resolver.cache
        cpu = resolver.cpu
        driver = resolver.driver
        context = resolver.context
        context.build_rows = self.sink is not None

        oracle = self.oracle
        security_counts: dict[str, int] | None = None
        if config.dnssec:
            from ..core.dnssec import CHAIN_COUNTS, SECURITY_STATES

            security_counts = dict.fromkeys(SECURITY_STATES + CHAIN_COUNTS, 0)

        stats = ScanStats(threads_requested=config.threads, started_at=sim.now)
        inflight = queries_per_lookup = None
        if registry.enabled:
            # published from ``stats`` where the registry is read; once
            # now, at zero, to keep the counters' place in the registry
            stats.publish_metrics(engine_scope)
            queries_per_lookup = engine_scope.histogram("queries_per_lookup")
            inflight = engine_scope.gauge("inflight")
        name_iter = iter(names)
        module = self.module
        sink = self.sink

        # watching polls the wall clock as each lookup finishes: it
        # schedules nothing on the simulator, so a watched scan runs
        # exactly the events of an unwatched one (and either watcher
        # enables the registry, so ``inflight`` is there to read)
        def counters() -> dict:
            return {**stats.counters(), "in_flight": int(inflight.value)}

        status = None
        if config.status_interval is not None:
            cache = resolver.cache
            status = StatusLine(
                config.status_interval,
                lambda: {
                    **counters(),
                    "cache_hit_rate": cache.stats.hit_rate if cache is not None else None,
                },
                stream=self.status_stream,
                target=self.target,
            )

        emit_delta = None
        if self.progress is not None:
            seq = 0
            delta_due = time.monotonic() + DEFAULT_DELTA_INTERVAL

            def emit_delta(complete: bool) -> None:
                """Send the complete delta, or a cadence one when due."""
                nonlocal seq, delta_due
                now = time.monotonic()
                if not complete and now < delta_due:
                    return
                delta_due = now + DEFAULT_DELTA_INTERVAL
                seq += 1
                stats.publish_metrics(engine_scope)
                self.progress(
                    TelemetryDelta(
                        **counters(),
                        seq=seq,
                        virtual_now=sim.now,
                        complete=complete,
                        metrics=registry.dump(),
                    )
                )

        #: spread routine start-up over half a second, as a real scanner
        #: ramping up would — avoids artificial lockstep bursts
        ramp = 0.5

        def worker(socket: SimUDPSocket, start_delay: float):
            if start_delay > 0:
                yield start_delay
            while True:
                try:
                    raw = next(name_iter)
                except StopIteration:
                    socket.close()
                    return
                if inflight is not None:
                    inflight.inc()
                lookup_gen = module.lookup(raw, context)
                sent = socket.queries_sent
                row = yield from driver.execute(lookup_gen, socket)
                # every query the lookup sent, a composite module's too
                queries = socket.queries_sent - sent
                result = row.pop("_result", None)
                retries = result.retries_used if result is not None else 0
                if inflight is not None:
                    inflight.dec()
                    if queries:
                        queries_per_lookup.observe(queries)
                stats.record(row.get("status", "ERROR"), sim.now, queries, retries)
                if status is not None:
                    status.poll()
                if emit_delta is not None:
                    emit_delta(False)
                if (
                    security_counts is not None
                    and result is not None
                    and result.security is not None
                ):
                    security_counts[result.security] += 1
                    for count in CHAIN_COUNTS:
                        security_counts[count] += getattr(result.evidence, count)
                if oracle is not None and result is not None:
                    divergence = oracle.observe(module.parse_input(raw), module.qtype, result)
                    if divergence is not None and sink is not None:
                        sink(divergence.to_row())
                if sink is not None:
                    sink(row)
                del row, result  # nothing of a finished lookup outlives its row

        futures = []
        for index in range(config.threads):
            try:
                socket = resolver.socket()
            except PortExhaustedError:
                # the /32 socket limit of Figure 1: fewer routines run
                break
            futures.append(sim.spawn(worker(socket, ramp * index / config.threads)))
        stats.threads_running = len(futures)

        sim.run(max_events=config.max_events)
        for future in futures:
            future.result()  # surface any routine crash
        if status is not None:
            status.finish()

        if registry.enabled:
            stats.publish_metrics(engine_scope)
            sim.publish_metrics(registry.scope("scheduler"))
            if self.cache is not None:
                self.cache.publish_metrics(registry.scope("cache"))
            net_scope = registry.scope("net")
            for key, value in vars(internet.network.stats).items():
                if isinstance(value, (int, float)):
                    net_scope.gauge(key).set(value)
            injector = getattr(internet.network, "fault_injector", None)
            if injector is not None:
                injector.publish_metrics(registry.scope("faults"))
            if health is not None:
                health.publish_metrics(registry.scope("health"))
            if oracle is not None:
                oracle.publish_metrics(registry.scope("oracle"))
            if security_counts is not None:
                dnssec_scope = registry.scope("dnssec")
                for state, count in security_counts.items():
                    dnssec_scope.gauge(state).set(count)
            # wire-codec work this run paid for: counters are the delta
            # against the process-global baseline taken at run start, so
            # a shard's numbers are its own even when several scans share
            # the process
            codec_scope = registry.scope("codec")
            for key, value in CODEC_STATS.items():
                paid = value - codec_baseline[key]
                if paid:
                    codec_scope.counter(key).inc(paid)

        elapsed = stats.duration
        cpu_utilisation = cpu.utilisation(elapsed) if elapsed else 0.0
        if registry.enabled:
            engine_scope.gauge("cpu_utilisation").set(round(cpu_utilisation, 4))
            engine_scope.gauge("threads_running").set(stats.threads_running)
        if emit_delta is not None:
            emit_delta(True)
        return ScanReport(
            stats=stats,
            cache_stats=(
                {
                    "hits": self.cache.stats.hits,
                    "misses": self.cache.stats.misses,
                    "hit_rate": round(self.cache.stats.hit_rate, 4),
                    "evictions": self.cache.stats.evictions,
                    "expired": self.cache.stats.expired,
                    "updates": self.cache.stats.updates,
                    "size": len(self.cache),
                    "answer_hits": self.cache.stats.answer_hits,
                    "answer_misses": self.cache.stats.answer_misses,
                }
                if self.cache is not None
                else None
            ),
            network_stats=vars(internet.network.stats).copy(),
            cpu_utilisation=cpu_utilisation,
            registry=registry,
            metrics=registry.snapshot(),
            spans=kept_spans,
            oracle_stats=oracle.stats() if oracle is not None else None,
            dnssec_stats=dict(security_counts) if security_counts is not None else None,
        )


def run_scan(
    internet: SimInternet,
    names: Iterable[str],
    config: ScanConfig | None = None,
    sink: Callable[[dict], None] | None = None,
    **overrides,
) -> ScanReport:
    """One-call convenience wrapper around :class:`ScanRunner`."""
    if config is None:
        config = ScanConfig(**overrides)
    elif overrides:
        raise ValueError("pass either a config or keyword overrides, not both")
    return ScanRunner(internet, config, sink=sink).run(names)

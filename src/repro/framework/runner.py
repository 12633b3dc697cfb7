"""The scan orchestrator: builds one resolver stack
(:class:`repro.core.Resolver`), spawns lookup routines on its sockets,
delegates per-query logic to the module, and aggregates stats.

This is ZDNS's "framework" component (Section 3.2): light-weight and
free of DNS-specific logic.  The framework also owns the telemetry
wiring (:mod:`repro.obs`): it builds the run's metrics registry, mirrors
scan stats into the ``engine`` scope, publishes scheduler and cache
pressure at scan end, drives the periodic status emitter on the virtual
clock, and hands the span tracer to the resolver machines.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core import ClientCostModel, Resolver, ResolverConfig, SelectiveCache, ServerHealthTracker
from ..dnslib import CODEC_STATS
from ..ecosystem import SimInternet
from ..modules import ScanModule, get_module
from ..net import CPUModel, GCModel, PortExhaustedError, SimUDPSocket
from ..obs import MetricsRegistry, SpanTracer, StatusEmitter
from .stats import ScanStats


@dataclass
class ScanConfig:
    """Everything a scan needs (the CLI flag surface)."""

    module: str = "A"
    #: "iterative", "google", "cloudflare", or "external".
    mode: str = "iterative"
    resolver_ips: list[str] = field(default_factory=list)
    threads: int = 1000
    source_prefix: int = 32
    ports_per_ip: int = 45_000
    cache_size: int = 600_000
    cache_policy: str = "selective"
    cache_eviction: str = "random"
    retries: int = 2
    iteration_timeout: float = 2.0
    external_timeout: float = 3.0
    cores: int = 24
    #: None = pick automatically: iterative scans pay per-lookup cache
    #: and referral-parsing CPU on top of packet costs.
    costs: ClientCostModel | None = None
    #: GC pause model; the paper's tuned config is frequent short pauses.
    #: These model *Go's* collector in virtual time (``net.cpu.GCModel``);
    #: the host interpreter's collector is ``Simulator.run``'s business.
    gc_period: float | None = None
    gc_pause: float | None = None
    reuse_sockets: bool = True
    record_trace: bool = False
    retry_servfail: bool = True
    seed: int = 0
    #: Collect registry metrics (engine/cache/scheduler scopes).  Off by
    #: default: the disabled path must cost nothing on the hot loop.
    metrics: bool = False
    #: Emit a status line every this many *virtual* seconds (None = off).
    status_interval: float | None = None
    #: Wrap every resolution step in tracer spans (see repro.obs.spans).
    collect_spans: bool = False
    #: Retry backoff base (decorrelated jitter); 0.0 = no backoff, no
    #: extra RNG draws — the byte-identical default.
    backoff_base: float = 0.0
    backoff_cap: float = 10.0
    #: Track per-server health and shed load away from failing servers
    #: (see repro.core.health).  Off by default.
    server_health: bool = False
    #: Abort the scan with :class:`repro.net.HangError` if the event
    #: loop executes more than this many events (hang detection for the
    #: chaos soak).  None (the default) keeps the unbounded hot loop.
    max_events: int | None = None
    #: Shadow every Kth lookup against the differential oracle
    #: (:mod:`repro.oracle`): divergences become structured output rows
    #: and ``oracle.*`` counters.  None/0 = off.  Simulated iterative
    #: scans of single-qtype modules only.
    oracle_check: int | None = None
    #: DNSSEC validation (iterative mode only): send DO on every query,
    #: walk the chain of trust per lookup, attach ``data.dnssec`` to
    #: output rows and publish ``dnssec.*`` outcome counters.  Off by
    #: default — a non-DNSSEC scan stays byte-identical.
    dnssec: bool = False

    def resolver_config(self) -> ResolverConfig:
        return ResolverConfig(
            iteration_timeout=self.iteration_timeout,
            external_timeout=self.external_timeout,
            retries=self.retries,
            record_trace_results=self.record_trace,
            retry_servfail=self.retry_servfail,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            dnssec=self.dnssec,
        )


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
    #: Span tracer, when the scan collected spans without a sink.
    tracer: SpanTracer | None = None
    #: cProfile output captured by the ``REPRO_PROFILE`` hook, routed
    #: here so it lands in the metadata file next to the run summary.
    profile: dict | None = None
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


class ScanRunner:
    """Runs one scan on a simulated Internet."""

    def __init__(
        self,
        internet: SimInternet,
        config: ScanConfig,
        module: ScanModule | None = None,
        sink: Callable[[dict], None] | None = None,
        cpu: CPUModel | None = None,
        registry: MetricsRegistry | None = None,
        span_sink: Callable[[dict], None] | None = None,
        status_stream=None,
        view=None,
        progress: Callable[..., None] | None = None,
        progress_interval: float | None = None,
        target: int | None = None,
    ):
        self.internet = internet
        self.config = config
        self.module = module if module is not None else get_module(config.module)
        self.sink = sink
        self.cache: SelectiveCache | None = None
        #: Externally supplied CPU model (e.g. shared with a co-located
        #: Unbound); the resolver stack builds its own when None.
        self.cpu = cpu
        #: Externally supplied registry (e.g. shared across scan phases);
        #: the runner builds its own per run when None.
        self.registry = registry
        #: Finished spans stream here as JSON rows; when None but span
        #: collection is on, the tracer retains them on the report.
        self.span_sink = span_sink
        #: Status lines go here (default stderr).
        self.status_stream = status_stream
        #: Control-plane view (:class:`~repro.framework.telemetry.ScanView`):
        #: bound to the live stats/registry/cache at run start, marked
        #: complete when the last routine finishes.  Read-only consumers
        #: (the HTTP server) hang off it; the scan never reads it back.
        self.view = view
        #: Streaming telemetry hook: called every ``progress_interval``
        #: *virtual* seconds with keyword args ``stats``, ``registry``,
        #: ``in_flight``, ``now``, ``complete`` — and exactly once more,
        #: ``complete=True``, when the last routine finishes.  The shard
        #: executor uses it to stream :class:`TelemetryDelta` messages.
        self.progress = progress
        self.progress_interval = progress_interval
        #: Total lookups this run will perform, when the caller knows it
        #: (materialised name lists) — enables done/target and ETA on
        #: status lines and in the control-plane views.
        self.target = target

    def run(self, names: Iterable[str]) -> ScanReport:
        internet = self.internet
        config = self.config
        sim = internet.sim

        registry = self.registry
        if registry is None:
            # the control plane (view / streaming progress) needs live
            # metrics even when the run itself was not asked to keep them
            registry = MetricsRegistry(
                enabled=config.metrics
                or config.status_interval is not None
                or self.view is not None
                or self.progress is not None
            )
        engine_scope = registry.scope("engine")
        # codec counters are process-global; the per-run contribution is
        # the delta against this baseline (see the codec scope below)
        codec_baseline = dict(CODEC_STATS)

        iterative = config.mode == "iterative"
        if config.dnssec and not iterative:
            raise ValueError("dnssec validation requires iterative mode")
        if config.mode == "external" and not config.resolver_ips:
            raise ValueError("external mode needs resolver_ips")
        resolver_config = config.resolver_config()
        # nothing consumes per-query trace rows without a sink: skip them
        resolver_config.collect_trace = self.sink is not None
        health = None
        if config.server_health:
            health = resolver_config.health = ServerHealthTracker(clock=lambda: sim.now)
        tracer = None
        if config.collect_spans or self.span_sink is not None:
            tracer = resolver_config.tracer = SpanTracer(clock=lambda: sim.now, sink=self.span_sink)
        gc = None
        if config.gc_period is not None and config.gc_pause is not None:
            gc = GCModel(period=config.gc_period, pause=config.gc_pause)
        resolver = Resolver(
            internet,
            config.mode,
            resolver_config,
            resolver_ips=config.resolver_ips,
            seed=config.seed,
            cache_size=config.cache_size,
            cache_policy=config.cache_policy,
            cache_eviction=config.cache_eviction,
            cache_seed=config.seed,
            cpu=self.cpu,
            cores=config.cores,
            gc=gc,
            costs=config.costs,
            reuse_sockets=config.reuse_sockets,
            driver_seed=config.seed,
            source_prefix=config.source_prefix,
            ports_per_ip=config.ports_per_ip,
        )
        self.cache = resolver.cache
        cpu = resolver.cpu
        driver = resolver.driver
        context = resolver.context
        context.build_rows = self.sink is not None

        oracle = None
        oracle_every = int(config.oracle_check or 0)
        if oracle_every:
            if not iterative:
                raise ValueError("oracle_check requires iterative mode")
            if self.module.qtype is None:
                raise ValueError(
                    f"oracle_check needs a single-qtype module, not {self.module.name}"
                )
            from ..oracle import DifferentialOracle

            oracle = DifferentialOracle(seed=config.seed, dnssec=config.dnssec)
        oracle_seen = [0]
        security_counts: dict[str, int] | None = None
        if config.dnssec:
            from ..core import CHAIN_COUNTS, SECURITY_STATES

            security_counts = dict.fromkeys(SECURITY_STATES + CHAIN_COUNTS, 0)

        stats = ScanStats(threads_requested=config.threads, started_at=sim.now)
        inflight = None
        if registry.enabled:
            stats.attach(engine_scope)
            inflight = engine_scope.gauge("inflight")
        if self.view is not None:
            self.view.bind(
                stats=stats,
                registry=registry,
                cache=self.cache,
                sim=sim,
                inflight=inflight,
                target=self.target,
            )
        name_iter = iter(names)
        module = self.module
        sink = self.sink

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
                row = yield from driver.execute(lookup_gen, socket)
                result = row.pop("_result", None)
                queries = result.queries_sent if result is not None else 0
                retries = result.retries_used if result is not None else 0
                if inflight is not None:
                    inflight.dec()
                stats.record(row.get("status", "ERROR"), sim.now, queries, retries)
                if (
                    security_counts is not None
                    and result is not None
                    and result.security is not None
                ):
                    security_counts[result.security] += 1
                    for count in CHAIN_COUNTS:
                        security_counts[count] += getattr(result.evidence, count)
                if oracle is not None and result is not None:
                    oracle_seen[0] += 1
                    if (oracle_seen[0] - 1) % oracle_every == 0:
                        divergence = oracle.check(
                            module.parse_input(raw), module.qtype, result
                        )
                        if divergence is not None and sink is not None:
                            sink(divergence.to_row())
                if sink is not None:
                    sink(row)

        futures = []
        for index in range(config.threads):
            try:
                socket = resolver.socket()
            except PortExhaustedError:
                # the /32 socket limit of Figure 1: fewer routines run
                break
            futures.append(sim.spawn(worker(socket, ramp * index / config.threads)))
        stats.threads_running = len(futures)

        #: callables to run when the last routine finishes — repeating
        #: virtual timers (status, progress) would otherwise keep the
        #: event loop alive forever
        finishers = []
        if config.status_interval is not None:
            emitter = StatusEmitter(
                sim,
                interval=config.status_interval,
                stats=stats,
                inflight=inflight,
                cache=self.cache,
                stream=self.status_stream,
                target=self.target,
            ).start()
            finishers.append(emitter.stop)

        emit_final_progress = None
        if self.progress is not None:
            progress = self.progress
            interval = self.progress_interval or 1.0
            progress_timer = [None]

            def _emit_progress(complete: bool) -> None:
                progress(
                    stats=stats,
                    registry=registry,
                    in_flight=int(inflight.value) if inflight is not None else 0,
                    now=sim.now,
                    complete=complete,
                )

            def _progress_tick() -> None:
                _emit_progress(False)
                progress_timer[0] = sim.call_later(interval, _progress_tick)

            progress_timer[0] = sim.call_later(interval, _progress_tick)

            def _progress_finish() -> None:
                # only stop the repeating timer here: the final,
                # complete=True emission happens after the end-of-run
                # metric publishing below, so the delta it carries is
                # the task's actual checkpoint state — emitting it from
                # this finisher raced the end-of-run work (no scheduler/
                # cache/net scopes yet, sinks not flushed) and shipped a
                # checkpoint that undercounted the shard
                if progress_timer[0] is not None:
                    progress_timer[0].cancel()
                    progress_timer[0] = None

            finishers.append(_progress_finish)
            emit_final_progress = _emit_progress

        if self.view is not None:
            finishers.append(self.view.finish)

        if finishers:
            remaining = [len(futures)]

            def _worker_done(_future) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    for finish in finishers:
                        finish()

            for future in futures:
                future.add_done_callback(_worker_done)
            if not futures:
                for finish in finishers:
                    finish()

        profile = _run_with_optional_profile(sim, config.max_events)
        for future in futures:
            future.result()  # surface any routine crash

        if registry.enabled:
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
        if emit_final_progress is not None:
            # the final, complete delta — a true task checkpoint: every
            # end-of-run scope is published and (in the shard executor)
            # the row/span sinks flush before the delta goes on the pipe
            emit_final_progress(True)
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
            tracer=tracer if self.span_sink is None else None,
            profile=profile,
            oracle_stats=oracle.stats() if oracle is not None else None,
            dnssec_stats=dict(security_counts) if security_counts is not None else None,
        )


def _run_with_optional_profile(sim, max_events: int | None = None) -> dict | None:
    """``sim.run()``, optionally under cProfile.

    Set ``REPRO_PROFILE=1`` (or ``REPRO_PROFILE=<N>`` for the top N
    rows) to profile cumulative-time hot spots of the event loop — the
    profiler only wraps the run itself, not setup or reporting, so the
    output is the scan's actual hot path.  The report is printed to
    stderr *and* returned (``{"top": N, "report": text}``) so the
    runner can route it into the run's metadata file.
    """
    spec = os.environ.get("REPRO_PROFILE", "")
    if not spec or spec == "0":
        sim.run(max_events=max_events)
        return None
    import cProfile
    import pstats
    import sys

    top = int(spec) if spec.isdigit() and int(spec) > 1 else 25
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        sim.run(max_events=max_events)
    finally:
        profiler.disable()
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(top)
        report = buffer.getvalue()
        sys.stderr.write(report)
    return {"top": top, "report": report}


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

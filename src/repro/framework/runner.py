"""The scan orchestrator: builds one resolver stack
(:class:`repro.core.Resolver`), spawns lookup routines on its sockets,
delegates per-query logic to the module, and aggregates stats.

This is ZDNS's "framework" component (Section 3.2): light-weight and
free of DNS-specific logic.  The framework also owns the telemetry
wiring (:mod:`repro.obs`): it builds the run's metrics registry,
publishes the scan's stats into the ``engine`` scope where the registry
is read (each delta and the end of the run), publishes scheduler and
cache pressure at scan end, drives the periodic status emitter on the
virtual clock, streams :class:`~repro.framework.telemetry.TelemetryDelta`
snapshots to a ``progress`` consumer, and gives the resolver machines
the run's span tracer (:class:`repro.core.trace.SpanTracer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from ..core import ClientCostModel, Resolver, ResolverConfig, SelectiveCache, SpanTracer
from ..core.cache import CACHE_EVICTIONS, CACHE_POLICIES
from ..core.config import above, at_least, within
from ..dnslib import CODEC_STATS, RRType, rdata_class, registered_types
from ..ecosystem import SimInternet
from ..modules import get_module
from ..net import CPUModel, GCModel, PortExhaustedError, SimUDPSocket
from ..obs import MetricsRegistry, StatusEmitter
from .stats import ScanStats
from .telemetry import DEFAULT_DELTA_INTERVAL, TelemetryDelta


#: Where a scan's lookups go: its own recursion, a public resolver of
#: the simulated Internet, or ``resolver_ips``.
SCAN_MODES = ("iterative", "google", "cloudflare", "external")


@dataclass
class ScanConfig(ResolverConfig):
    """Everything a scan needs (the CLI flag surface): the resolver
    settings it inherits from :class:`ResolverConfig` (``retries``, the
    timeouts, backoff, ``record_trace``, ``dnssec``, …) and the scan's own.

    Every rule is checked at construction (``ValueError``), the field
    bounds in ``__post_init__`` and these across fields:

    - ``dnssec`` and ``oracle_check`` require ``mode="iterative"``;
    - ``mode="external"`` requires ``resolver_ips``;
    - ``gc_period`` and ``gc_pause`` are set together, the pause shorter;
    - ``backoff_cap`` is not below ``backoff_base`` (:class:`ResolverConfig`).
    """

    module: str = "A"
    mode: str = "iterative"
    resolver_ips: list[str] = field(default_factory=list)
    threads: int = 1000
    source_prefix: int = 32
    ports_per_ip: int = 45_000
    cache_size: int = 600_000
    cache_policy: str = "selective"
    cache_eviction: str = "random"
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
    seed: int = 0
    #: Collect registry metrics (engine/cache/scheduler scopes).  Off by
    #: default: the disabled path must cost nothing on the hot loop.
    metrics: bool = False
    #: Emit a status line every this many *virtual* seconds (None = off).
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
        for name in ("threads", "cores", "cache_size", "ports_per_ip", "oracle_check"):
            at_least(name, getattr(self, name), 1)
        at_least("max_events", self.max_events, 1)
        within("source_prefix", self.source_prefix, 0, 32)
        above("status_interval", self.status_interval, 0)
        for name, known in (
            ("mode", SCAN_MODES),
            ("cache_policy", CACHE_POLICIES),
            ("cache_eviction", CACHE_EVICTIONS),
        ):
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)} (got {value!r})")
        try:
            get_module(self.module)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        if self.mode != "iterative":
            for name in ("dnssec", "oracle_check"):
                if getattr(self, name):
                    raise ValueError(f"{name} requires mode iterative")
        if self.mode == "external" and not self.resolver_ips:
            raise ValueError("mode external requires resolver_ips")
        if (self.gc_period is None) != (self.gc_pause is None):
            raise ValueError("gc_period and gc_pause are set together")
        above("gc_period", self.gc_period, 0)
        at_least("gc_pause", self.gc_pause, 0)
        if self.gc_period is not None and not self.gc_pause < self.gc_period:
            # every instant would fall inside a pause: no lookup ever runs
            raise ValueError(
                f"gc_pause must be < gc_period (got {self.gc_pause} >= {self.gc_period})"
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
        #: :class:`TelemetryDelta` every :data:`DEFAULT_DELTA_INTERVAL`
        #: *virtual* seconds, and exactly once more, ``complete=True``,
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
        gc = None
        if config.gc_period is not None:
            gc = GCModel(period=config.gc_period, pause=config.gc_pause)
        resolver = Resolver(
            internet,
            config.mode,
            replace(config, tracer=tracer, health=health),
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
                    if queries:
                        queries_per_lookup.observe(queries)
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

        emit_delta = None
        if self.progress is not None:
            progress = self.progress
            seq = [0]

            def emit_delta(complete: bool) -> None:
                seq[0] += 1
                stats.publish_metrics(engine_scope)
                progress(
                    TelemetryDelta(
                        **stats.counters(),
                        seq=seq[0],
                        in_flight=int(inflight.value) if inflight is not None else 0,
                        virtual_now=sim.now,
                        complete=complete,
                        metrics=registry.dump() if registry.enabled else [],
                    )
                )

            ticker = [None]

            def _tick() -> None:
                emit_delta(False)
                ticker[0] = sim.call_later(DEFAULT_DELTA_INTERVAL, _tick)

            ticker[0] = sim.call_later(DEFAULT_DELTA_INTERVAL, _tick)
            # only the repeating timer stops with the last routine: the
            # complete delta goes out after the end-of-run publishing
            # below, so it carries the run's actual final state
            finishers.append(lambda: ticker[0].cancel())

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

        sim.run(max_events=config.max_events)
        for future in futures:
            future.result()  # surface any routine crash

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

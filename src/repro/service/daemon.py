"""The resolver daemon: long-lived caching resolution in virtual time.

Architecture, in one pass:

* An **arrival process** draws exponential interarrivals at a
  diurnally modulated rate and Zipf-picks a catalog name per arrival —
  the stub-client population.
* A client query the cache can answer (fresh or negative entry) is
  answered **at arrival** and never queues behind recursion.  Only a
  miss becomes a job for the **worker pool** (one simulator routine
  per worker, each with its own long-lived simulated socket), which
  serves a shared FIFO queue: it probes the cache again at dequeue
  (the job ahead may have filled the entry), else runs a full
  iterative resolution through the shared
  :class:`~repro.core.cache.SelectiveCache`.  When upstream resolution
  *fails*, and only then, the worker may serve the RFC 8767 stale copy
  — bounded by the cache's ``stale_ttl``, never rejuvenated by being
  served.
* A **prefetch sweep** periodically follows the cache's hot answers
  (``hot_answers``) and re-resolves those whose remaining TTL fell
  under the threshold, through a cache view whose ``get_answer`` is
  blind (the refresh must actually go upstream).  A failed prefetch
  stores nothing, so a stale entry can never be refreshed into a
  *younger* stale entry.
* A **delta routine** publishes zone mutations
  (:func:`repro.ecosystem.publish_zone_delta`) at fixed virtual times,
  mirrors each into the differential oracle, and revalidates: the
  incremental path drops only the affected delegation subtree
  (``invalidate_subtree``), the baseline drops everything (``flush``),
  and both re-resolve the affected catalog names.
* **Blackout windows** become a :class:`repro.faults.FaultPlan` of
  all-server :class:`~repro.faults.Blackout` directives; availability
  during them is accounted separately, with the RFC 8767 eligibility
  rule judged at arrival (a name the service had *never* successfully
  served has nothing stale to serve, so it does not count against
  serve-stale).

Everything runs on one :class:`~repro.net.Simulator`; every random
draw comes from a stream derived from ``config.seed`` — two runs with
the same config produce byte-identical event logs and metrics dumps.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field

from ..core import IterativeMachine, Resolver, ResolverConfig, SelectiveCache
from ..core.status import SEMANTIC_STATUSES
from ..dnslib import Name, RRType
from ..ecosystem import EcosystemParams, ZoneDelta, build_internet, publish_zone_delta
from ..net import SimFuture, SimUDPSocket, derive_seed
from ..obs.metrics import MetricsRegistry
from ..workloads import CorpusConfig, DomainCorpus
from .config import ServiceConfig

__all__ = ["ResolverService", "ServiceReport", "run_service"]

_A = RRType.A


@dataclass(slots=True)
class _Job:
    """One unit of worker work (one per client arrival: not frozen,
    whose ``__init__`` costs four times as much)."""

    kind: str  # "client" | "warm" | "prefetch" | "revalidate"
    index: int  # catalog index
    created: float
    # client jobs only, judged at arrival
    blackout: bool = False
    eligible: bool = False


class _UpstreamOnlyCache:
    """A view of the cache whose positive-answer read path is blind.

    Prefetch and revalidation must *re-resolve*: if the machine saw the
    (still live, about to expire) cached answer it would return it
    untouched and nothing would refresh.  Writes, delegations, and the
    negative path pass straight through to the real cache.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: SelectiveCache):
        self._cache = cache

    def get_answer(self, qname, qtype):
        return None

    def __getattr__(self, name):
        return getattr(self._cache, name)


@dataclass
class ServiceReport:
    """Everything a finished service run reports."""

    config: dict
    counters: dict
    availability: dict
    cache: dict
    network: dict
    oracle: dict
    deltas: list = field(default_factory=list)
    divergences: list = field(default_factory=list)
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    virtual_elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "virtual_elapsed": round(self.virtual_elapsed, 6),
            "counters": self.counters,
            "availability": self.availability,
            "cache": self.cache,
            "network": self.network,
            "oracle": self.oracle,
            "deltas": self.deltas,
            "divergences": self.divergences,
            "events": self.events,
            "metrics": self.metrics,
        }

    def determinism_digest(self) -> str:
        """SHA-256 over the canonical JSON of the full report — two
        runs of the same config must produce the same digest."""
        blob = json.dumps(self.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


class ResolverService:
    """One long-lived resolver-service run (see module docstring)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.registry = MetricsRegistry()

        blackouts = None
        if cfg.blackouts:
            from ..faults import Blackout, FaultPlan

            blackouts = FaultPlan(
                directives=[
                    Blackout(servers=("*",), start=start, end=end)
                    for start, end in cfg.blackouts
                ],
                name="service-blackouts",
            )
        self.internet = build_internet(
            params=EcosystemParams(seed=cfg.seed),
            wire_mode=cfg.wire_mode,
            net_seed=derive_seed(cfg.seed, "net"),
            faults=blackouts,
            chaos_seed=derive_seed(cfg.seed, "chaos") % (2**31),
        )
        self.sim = self.internet.sim
        #: the resolver stack; workers drive its driver and cache directly
        self.resolver = Resolver(
            self.internet,
            ResolverConfig(
                retries=cfg.retries,
                tracer=None,
                dnssec=cfg.dnssec,
                seed=derive_seed(cfg.seed, "cache") % (2**31),
                cache_size=cfg.cache_capacity,
                cache_policy="all",
                cache_eviction=cfg.cache_eviction,
                cores=cfg.cores,
            ),
            stale_ttl=cfg.stale_ttl,
            track_heat=cfg.prefetch_interval > 0,
        )
        self.cache = self.resolver.cache
        self._driver = self.resolver.driver
        self._resolver_config = self.resolver.config
        corpus = DomainCorpus(CorpusConfig(seed=cfg.seed))
        self._catalog_text: list[str] = list(corpus.fqdns(cfg.catalog_size))
        self._catalog: list[Name] = [Name.from_text(t) for t in self._catalog_text]
        #: cumulative Zipf weights over catalog ranks (corpus order =
        #: rank order: the generator emits popular bases first)
        weights = [1.0 / (rank + 1) ** cfg.zipf_s for rank in range(cfg.catalog_size)]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._zipf_cdf = cumulative

        #: handed every upstream resolution (it samples them)
        self.oracle = None
        if cfg.oracle_check_every:
            from ..oracle import DifferentialOracle

            self.oracle = DifferentialOracle(
                seed=cfg.seed, dnssec=cfg.dnssec, every=cfg.oracle_check_every
            )

        # -- run state -----------------------------------------------------
        self._queue: deque[_Job] = deque()
        self._waiters: deque[SimFuture] = deque()
        self._stopping = False
        self._prefetch_pending: set[int] = set()
        self._ever_served: set[int] = set()
        self._delta_times = cfg.resolved_delta_times()
        scope = self.registry.scope("service")
        #: arrival to answer, every client query
        self._latency = scope.histogram("latency")
        #: arrival to dequeue, client queries that missed at arrival
        self._queue_wait = scope.histogram("queue_wait")

        # -- counters (reported through counters_view()) ------------------
        self.counters = {
            "queries": 0,  # client queries only
            "served": 0,
            "failed": 0,
            "fresh_hits": 0,
            "negative_hits": 0,
            "arrival_hits": 0,  # client hits answered at arrival, never queued
            "resolved": 0,
            "resolved_negative": 0,
            "stale_answers_served": 0,
            "stale_negatives_served": 0,
            "warm_jobs": 0,
            "prefetch_scheduled": 0,
            "prefetch_refreshed": 0,
            "prefetch_failed": 0,
            "revalidate_jobs": 0,
            "deltas_published": 0,
            "upstream_resolutions": 0,
        }
        self.blackout = {
            "queries": 0,
            "served": 0,
            "eligible": 0,
            "eligible_served": 0,
        }
        self.events: list[dict] = []
        self.deltas: list[dict] = []
        self.divergences: list[dict] = []

    # -- public API --------------------------------------------------------

    def run(self) -> ServiceReport:
        """Execute the whole run to completion and report."""
        cfg = self.config
        sim = self.sim
        if cfg.warm_catalog:
            for index in range(len(self._catalog)):
                self._queue.append(_Job("warm", index, 0.0))
        for wid in range(cfg.workers):
            sim.spawn(self._worker(wid))
        sim.spawn(self._arrivals())
        if cfg.prefetch_interval > 0:
            sim.spawn(self._prefetch_sweep())
        if self._delta_times:
            sim.spawn(self._delta_routine())
        if cfg.status_interval > 0:
            sim.spawn(self._interval_log())
        sim.spawn(self._controller())
        sim.run(max_events=cfg.max_events)
        return self._report()

    def status_snapshot(self) -> dict:
        """The live ``/status.json`` service view (read-only; safe to
        call from the telemetry thread while the run loops)."""
        counters = self.counters_view()
        stats = self.cache.stats
        return {
            "service": {
                "virtual_now": round(self.sim.now, 3),
                "duration": self.config.duration,
                "workers": self.config.workers,
                "queue_depth": len(self._queue),
                "counters": counters,
                "blackout": dict(self.blackout),
                "cache": {
                    "size": len(self.cache),
                    "hit_rate": round(stats.hit_rate, 4),
                    "stale_hits": stats.stale_hits,
                    "invalidated": stats.invalidated,
                    "expired": stats.expired,
                },
                "deltas_published": counters["deltas_published"],
                "revalidation": self.config.revalidation,
            },
            "run": {
                "mode": "service",
                "seed": self.config.seed,
                "module": "A",
            },
        }

    # -- load generation ---------------------------------------------------

    def _rate(self, t: float) -> float:
        cfg = self.config
        phase = 2.0 * math.pi * t / cfg.diurnal_period - math.pi / 2.0
        return cfg.base_qps * (1.0 + cfg.diurnal_depth * math.sin(phase))

    def _arrivals(self):
        cfg = self.config
        interarrival = random.Random(derive_seed(cfg.seed, "arrivals"))
        mix = random.Random(derive_seed(cfg.seed, "mix"))
        while True:
            yield interarrival.expovariate(self._rate(self.sim.now))
            now = self.sim.now
            if self._stopping or now >= cfg.duration:
                return
            index = bisect.bisect_left(self._zipf_cdf, mix.random())
            # RFC 8767 eligibility is judged at arrival: a name the
            # service had never successfully served has nothing stale
            # to offer, whatever a job ahead of this one serves
            blackout = self._in_blackout(now)
            job = _Job("client", index, now, blackout, blackout and index in self._ever_served)
            if self._answer_from_cache(job):
                self.counters["arrival_hits"] += 1
            else:
                self._submit(job)

    def _submit(self, job: _Job) -> None:
        if self._stopping:
            return
        if self._waiters:
            self._waiters.popleft().set_result(job)
        else:
            self._queue.append(job)

    def _controller(self):
        yield self.config.duration
        self._stopping = True
        while self._waiters:
            self._waiters.popleft().set_result(None)

    # -- the worker pool ---------------------------------------------------

    def _worker(self, wid: int):
        socket = self.resolver.socket()
        rng = random.Random(derive_seed(self.config.seed, "worker", str(wid)))
        # one machine per cache view, each on this worker's RNG stream
        machines = tuple(
            IterativeMachine(cache, self.internet.root_ips, self._resolver_config, rng)
            for cache in (self.cache, _UpstreamOnlyCache(self.cache))
        )
        try:
            while True:
                if self._queue:
                    job = self._queue.popleft()
                elif self._stopping:
                    return
                else:
                    future = SimFuture()
                    self._waiters.append(future)
                    job = yield future
                    if job is None:
                        return
                yield from self._serve(job, socket, machines)
        finally:
            socket.close()

    def _in_blackout(self, t: float) -> bool:
        for start, end in self.config.blackouts:
            if start <= t < end:
                return True
        return False

    def _answer_from_cache(self, job: _Job) -> bool:
        """Answer a client or warm job from a fresh positive or negative
        entry, accounting it as served; False on a miss.  The one hit
        path: at a client's arrival, and again at dequeue."""
        qname = self._catalog[job.index]
        if self.cache.get_answer(qname, _A) is not None:
            self.counters["fresh_hits"] += 1
        elif self.cache.get_negative(qname, _A) is not None:
            self.counters["negative_hits"] += 1
        else:
            return False
        self._finish(job, served=True)
        return True

    def _finish(self, job: _Job, served: bool) -> None:
        """Account a finished client, warm or revalidate job."""
        if served:
            self._ever_served.add(job.index)
        if job.kind != "client":
            return
        counters = self.counters
        counters["queries"] += 1
        counters["served" if served else "failed"] += 1
        if job.blackout:
            blackout = self.blackout
            blackout["queries"] += 1
            if job.eligible:
                blackout["eligible"] += 1
            if served:
                blackout["served"] += 1
                if job.eligible:
                    blackout["eligible_served"] += 1
        self._latency.observe(max(self.sim.now - job.created, 1e-9))

    def _serve(self, job: _Job, socket: SimUDPSocket, machines: tuple[IterativeMachine, ...]):
        """Serve one job: from the cache when it can, else upstream on
        the worker's ``machines`` — (plain, upstream-only)."""
        cfg = self.config
        counters = self.counters
        qname = self._catalog[job.index]
        if job.kind == "client":
            self._queue_wait.observe(self.sim.now - job.created)
        elif job.kind == "warm":
            counters["warm_jobs"] += 1
        elif job.kind == "revalidate":
            counters["revalidate_jobs"] += 1

        if job.kind in ("client", "warm") and self._answer_from_cache(job):
            return

        machine = machines[1] if job.kind in ("prefetch", "revalidate") else machines[0]
        result = yield from self._driver.execute(
            machine.resolve(qname, _A), socket
        )
        counters["upstream_resolutions"] += 1
        if self.oracle is not None:
            divergence = self.oracle.observe(qname, _A, result, combo={"mode": "service"})
            if divergence is not None:
                row = divergence.to_row()
                row["t"] = round(self.sim.now, 6)
                self.divergences.append(row)
                self.events.append(row)
        status = str(result.status)
        if status in SEMANTIC_STATUSES:
            if status == "NOERROR" and result.answers:
                outcome = "resolved"
                counters["resolved"] += 1
            else:
                # NXDOMAIN, or NODATA (NOERROR with an empty answer
                # section): cache the negative outcome (RFC 2308)
                self.cache.put_negative(qname, _A, status, cfg.negative_ttl)
                outcome = "resolved_negative"
                counters["resolved_negative"] += 1
        elif job.kind not in ("client", "warm"):
            # a failed prefetch/revalidation serves nobody: do not
            # probe (and count) the stale window on its behalf
            outcome = "failed"
        else:
            # upstream failure — and only now — may serve stale
            stale = self.cache.get_stale_answer(qname, _A)
            if stale is not None:
                outcome = "stale_answer"
                counters["stale_answers_served"] += 1
            else:
                stale_negative = self.cache.get_stale_negative(qname, _A)
                if stale_negative is not None:
                    outcome = "stale_negative"
                    counters["stale_negatives_served"] += 1
                else:
                    outcome = "failed"

        if job.kind == "prefetch":
            self._prefetch_pending.discard(job.index)
            if outcome in ("resolved", "resolved_negative"):
                counters["prefetch_refreshed"] += 1
            else:
                counters["prefetch_failed"] += 1
            return
        self._finish(job, served=outcome != "failed")

    # -- prefetch ----------------------------------------------------------

    def _prefetch_sweep(self):
        """Refresh hot, about-to-expire answers.  The sweep follows the
        cache's hot entries, not the catalogue (4,000 ``answer_heat``
        reads per sweep for a few dozen candidates): each hot key maps
        back to every catalogue index that spells the name — corpus
        names repeat, and each index schedules its own job — visited in
        ascending index order, as a walk of the catalogue would."""
        cfg = self.config
        indices: dict[tuple, list[int]] = {}
        for index, qname in enumerate(self._catalog):
            indices.setdefault(qname.canonical_key(), []).append(index)
        while True:
            yield cfg.prefetch_interval
            if self._stopping:
                return
            hot = [
                index
                for key, qtype in self.cache.hot_answers(cfg.prefetch_min_hits)
                if qtype == _A
                for index in indices.get(key, ())
            ]
            for index in sorted(hot):
                if index in self._prefetch_pending:
                    continue
                heat = self.cache.answer_heat(self._catalog[index], _A)
                if heat is None:
                    continue
                remaining, hits = heat
                # live entries only: a stale-retained entry reports
                # remaining <= 0 and must age until a client-path
                # failure path or an upstream success touches it
                if 0.0 < remaining <= cfg.prefetch_threshold and hits >= cfg.prefetch_min_hits:
                    self._prefetch_pending.add(index)
                    self.counters["prefetch_scheduled"] += 1
                    self._submit(_Job("prefetch", index, self.sim.now))

    # -- zone deltas and revalidation --------------------------------------

    def _delta_routine(self):
        cfg = self.config
        rng = random.Random(derive_seed(cfg.seed, "deltas"))
        synth = self.internet.synth
        for when in self._delta_times:
            delay = when - self.sim.now
            if delay > 0:
                yield delay
            if self._stopping:
                return
            index = rng.randrange(len(self._catalog))
            base = synth.base_domain_of(self._catalog[index])
            if base is None:
                continue
            generation = publish_zone_delta(self.internet, base)
            if self.oracle is not None:
                self.oracle.note_zone_change(base)
            self.counters["deltas_published"] += 1
            base_text = base.to_text(omit_final_dot=True)
            dropped = 0
            affected: list[int] = []
            if cfg.revalidation != "off":
                suffix = base.canonical_key()
                n = len(suffix)
                affected = [
                    i
                    for i, name in enumerate(self._catalog)
                    if name.canonical_key()[-n:] == suffix
                ]
                if cfg.revalidation == "incremental":
                    dropped = self.cache.invalidate_subtree(base)
                else:
                    dropped = self.cache.flush()
                for i in affected:
                    self._submit(_Job("revalidate", i, self.sim.now))
            delta = ZoneDelta(
                seq=self.counters["deltas_published"],
                time=self.sim.now,
                base=base_text,
                generation=generation,
            )
            row = delta.to_row()
            row["mode"] = cfg.revalidation
            row["entries_dropped"] = dropped
            row["revalidate_names"] = len(affected)
            self.deltas.append(row)
            self.events.append(row)

    # -- observation -------------------------------------------------------

    def _interval_log(self):
        cfg = self.config
        while True:
            yield cfg.status_interval
            if self._stopping:
                return
            c = self.counters
            self.events.append(
                {
                    "event": "interval",
                    "t": round(self.sim.now, 6),
                    "queries": c["queries"],
                    "served": c["served"],
                    "failed": c["failed"],
                    "fresh_hits": c["fresh_hits"],
                    "stale_served": c["stale_answers_served"]
                    + c["stale_negatives_served"],
                    "upstream": c["upstream_resolutions"],
                    "cache_size": len(self.cache),
                    "cache_hit_rate": round(self.cache.stats.hit_rate, 4),
                }
            )

    def counters_view(self) -> dict:
        """The run's counters, ``oracle_checked`` (the oracle's count) last."""
        return {**self.counters, "oracle_checked": self.oracle.checked if self.oracle else 0}

    def publish_metrics(self) -> None:
        """Mirror run state into the registry (``service.*`` scopes)."""
        scope = self.registry.scope("service")
        for key, value in self.counters_view().items():
            scope.gauge(key).set(value)
        blackout = scope.scope("blackout")
        for key, value in self.blackout.items():
            blackout.gauge(key).set(value)
        self.cache.publish_metrics(scope.scope("cache"))
        if self.oracle is not None:
            self.oracle.publish_metrics(scope.scope("oracle"))

    def _report(self) -> ServiceReport:
        self.publish_metrics()
        stats = self.cache.stats
        net = self.internet.network.stats
        availability = dict(self.blackout)
        availability["eligible_availability"] = (
            round(self.blackout["eligible_served"] / self.blackout["eligible"], 6)
            if self.blackout["eligible"]
            else None
        )
        availability["raw_availability"] = (
            round(self.blackout["served"] / self.blackout["queries"], 6)
            if self.blackout["queries"]
            else None
        )
        return ServiceReport(
            config=self.config.to_json(),
            counters=self.counters_view(),
            availability=availability,
            cache={
                "size": len(self.cache),
                "hits": stats.hits,
                "misses": stats.misses,
                "answer_hits": stats.answer_hits,
                "answer_misses": stats.answer_misses,
                "hit_rate": round(stats.hit_rate, 6),
                "expired": stats.expired,
                "evictions": stats.evictions,
                "stale_hits": stats.stale_hits,
                "invalidated": stats.invalidated,
            },
            network={
                "udp_queries": net.udp_queries,
                "tcp_queries": net.tcp_queries,
                "server_drops": net.server_drops,
            },
            oracle=self.oracle.stats() if self.oracle is not None else {},
            deltas=list(self.deltas),
            divergences=list(self.divergences),
            events=list(self.events),
            metrics=self.registry.snapshot(),
            virtual_elapsed=self.sim.now,
        )


def run_service(config: ServiceConfig | None = None) -> ServiceReport:
    """Build, run, and report one service run."""
    return ResolverService(config).run()

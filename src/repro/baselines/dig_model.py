"""dig baseline (Section 4.2).

dig was never designed as a scanning engine: its batch mode performs
one trace at a time, and the practical workaround — forking one dig
process per lookup — pays process startup for every query and is
bounded by how many processes one can reasonably keep in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ClientCostModel, Resolver, ResolverConfig
from ..ecosystem import SimInternet
from ..framework.stats import ScanStats

#: CPU burned forking and exec-ing one dig process (measured digs take
#: tens of ms of setup; includes output formatting/parsing overhead).
DIG_PROCESS_CPU = 0.030

#: Extra serial overhead per batch-mode trace: dig walks the chain with
#: no cache and serialises formatting between queries.
DIG_BATCH_OVERHEAD = 1.2

#: Processes a forking harness (xargs -P style) keeps in flight.
DEFAULT_FORK_PROCESSES = 64


@dataclass
class DigReport:
    stats: ScanStats
    mode: str


class DigBaseline:
    """Runs dig-equivalent lookups on the simulated Internet."""

    def __init__(self, internet: SimInternet, seed: int = 0):
        self.internet = internet
        self.seed = seed

    def _resolver(self, mode: str, resolver_ips: list[str] | None = None) -> Resolver:
        return Resolver(
            self.internet,
            mode,
            ResolverConfig(retries=2),
            resolver_ips=resolver_ips,
            seed=self.seed,
            # no cache: every trace restarts from the roots
            cache_size=1,
            cache_policy="none",
            cores=24,
            # dig's per-packet work is negligible next to process startup
            costs=ClientCostModel(per_send=20e-6, per_receive=20e-6),
            driver_seed=self.seed,
        )

    def run_batch_trace(self, names) -> DigReport:
        """``dig +trace`` in batch mode: strictly sequential, no cache."""
        sim = self.internet.sim
        resolver = self._resolver("iterative")
        cpu, driver, context = resolver.cpu, resolver.driver, resolver.context
        socket = resolver.socket()
        stats = ScanStats(threads_requested=1, threads_running=1, started_at=sim.now)

        def routine():
            for raw in names:
                result = yield from driver.execute(context.machine().resolve(raw, _qtype(raw)), socket)
                yield cpu.occupy(DIG_PROCESS_CPU)
                yield DIG_BATCH_OVERHEAD
                stats.record(str(result.status), sim.now, result.queries_sent, result.retries_used)

        future = sim.spawn(routine())
        sim.run()
        future.result()
        return DigReport(stats=stats, mode="batch-trace")

    def run_forked(self, names, resolver_ip: str, processes: int = DEFAULT_FORK_PROCESSES) -> DigReport:
        """One dig process per lookup, ``processes`` in flight at once."""
        sim = self.internet.sim
        resolver = self._resolver("external", [resolver_ip])
        cpu, driver, context = resolver.cpu, resolver.driver, resolver.context
        stats = ScanStats(threads_requested=processes, threads_running=processes, started_at=sim.now)
        name_iter = iter(names)

        def worker(socket):
            while True:
                try:
                    raw = next(name_iter)
                except StopIteration:
                    socket.close()
                    return
                # fork + exec + dig startup before the query even flows
                yield cpu.occupy(DIG_PROCESS_CPU)
                result = yield from driver.execute(context.machine().resolve(raw, _qtype(raw)), socket)
                stats.record(str(result.status), sim.now, result.queries_sent, result.retries_used)

        futures = [sim.spawn(worker(resolver.socket())) for _ in range(processes)]
        sim.run()
        for future in futures:
            future.result()
        return DigReport(stats=stats, mode="forked")


def _qtype(raw: str):
    from ..dnslib import RRType

    return RRType.PTR if raw.endswith(".in-addr.arpa") else RRType.A

"""dig baseline (Section 4.2).

dig was never designed as a scanning engine: its batch mode performs
one trace at a time, and the practical workaround — forking one dig
process per lookup — pays process startup for every query and is
bounded by how many processes one can reasonably keep in flight.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ClientCostModel
from ..ecosystem import SimInternet
from ..framework import ScanConfig, ScanRunner
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
    """Runs dig-equivalent lookups on the simulated Internet: a
    :class:`ScanRunner` scan whose per-lookup CPU is dig's start-up."""

    def __init__(self, internet: SimInternet, seed: int = 0):
        self.internet = internet
        self.seed = seed

    def _scan(self, names, threads: int, per_lookup: float, *resolver_ips: str) -> ScanStats:
        """Walk from the roots, or ask ``resolver_ips``, ``threads``
        lookups at a time, paying ``per_lookup`` before each."""
        config = ScanConfig(
            mode="external" if resolver_ips else "iterative",
            resolver_ips=list(resolver_ips),
            threads=threads,
            seed=self.seed,
            # no cache: every trace restarts from the roots
            cache_size=1,
            cache_policy="none",
            cores=24,
            # dig's per-packet work is negligible next to process startup
            costs=ClientCostModel(per_send=20e-6, per_receive=20e-6, per_lookup=per_lookup),
        )
        return ScanRunner(self.internet, config).run(names).stats

    def run_batch_trace(self, names) -> DigReport:
        """``dig +trace`` in batch mode: strictly sequential, no cache.
        Each trace's start-up and serialised formatting is charged before
        it; with one routine that ends at the instant a charge after the
        previous trace would."""
        stats = self._scan(names, 1, DIG_PROCESS_CPU + DIG_BATCH_OVERHEAD)
        return DigReport(stats=stats, mode="batch-trace")

    def run_forked(self, names, resolver_ip: str, processes: int = DEFAULT_FORK_PROCESSES) -> DigReport:
        """One dig process per lookup, ``processes`` in flight at once:
        fork + exec + dig start-up before the query even flows."""
        stats = self._scan(names, processes, DIG_PROCESS_CPU, resolver_ip)
        return DigReport(stats=stats, mode="forked")

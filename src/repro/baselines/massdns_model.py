"""MassDNS baseline (Section 4.2 / Table 2).

MassDNS is a high-performance C stub resolver whose default behaviour
the paper found to overwhelm resolvers: it keeps an enormous number of
queries in flight, and failed queries are retried up to 50 more times,
which further overloads the target.  The result in Table 2: very high
raw successes/second, but ~35% of responses dropped or SERVFAILed.

Modelled here as the scan framework with MassDNS-shaped parameters:
tiny per-query CPU (it is C, not Go), a 10K-socket closed loop with a
short timeout, and 50 retries.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.config import ClientCostModel
from ..ecosystem import GOOGLE_RESOLVER_IP, SimInternet
from ..framework import ScanConfig, ScanReport, ScanRunner

#: MassDNS in-flight window: large enough that its offered load exceeds
#: what one scanner can extract from a public resolver, which is the
#: overload behaviour the paper cautions about.
MASSDNS_CONCURRENCY = 50_000

#: Default retry cap the paper calls out ("up to an additional 50 retries").
MASSDNS_RETRIES = 50

#: Interval before MassDNS considers a query lost.
MASSDNS_TIMEOUT = 1.0

#: Per-packet CPU for a tight C event loop.
MASSDNS_CPU = ClientCostModel(per_send=34e-6, per_receive=34e-6)


def massdns_config(module: str = "A", seed: int = 0, threads: int = MASSDNS_CONCURRENCY) -> ScanConfig:
    """The ScanConfig that makes the framework behave like MassDNS
    (against the simulated public resolver; :func:`run_massdns` names one)."""
    return ScanConfig(
        module=module,
        mode="external",
        resolver_ips=[GOOGLE_RESOLVER_IP],
        threads=threads,
        retries=MASSDNS_RETRIES,
        external_timeout=MASSDNS_TIMEOUT,
        costs=MASSDNS_CPU,
        cores=24,
        source_prefix=28,  # massdns users typically scan from many IPs
        retry_servfail=False,  # massdns records SERVFAIL as a final answer
        seed=seed,
    )


def run_massdns(
    internet: SimInternet,
    names,
    resolver_ip: str,
    module: str = "A",
    seed: int = 0,
    threads: int = MASSDNS_CONCURRENCY,
) -> ScanReport:
    """Run a MassDNS-shaped scan against one upstream resolver."""
    config = massdns_config(module=module, seed=seed, threads=threads)
    return ScanRunner(internet, replace(config, resolver_ips=[resolver_ip])).run(names)

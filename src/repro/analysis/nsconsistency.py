"""Section 5 case study: nameserver (in)consistency.

Scans domains with the all-nameservers module and aggregates the
paper's findings: availability (retries needed per nameserver, and who
is responsible for the worst cases) and response consistency across a
domain's redundant nameservers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ecosystem import SimInternet
from ..framework import run_scan


@dataclass
class NSConsistencyFindings:
    domains_scanned: int = 0
    domains_resolvable: int = 0
    domains_needing_2plus: int = 0
    domains_needing_max: int = 0
    inconsistent_domains: int = 0
    consistent_domains: int = 0
    worst_case_providers: Counter = field(default_factory=Counter)
    worst_case_tlds: Counter = field(default_factory=Counter)
    #: Providers/TLDs of the *severe* cases (all retries exhausted) —
    #: the population the paper attributes 31% of to namebrightdns.com.
    severe_providers: Counter = field(default_factory=Counter)
    severe_tlds: Counter = field(default_factory=Counter)

    @property
    def frac_needing_2plus(self) -> float:
        return self.domains_needing_2plus / max(1, self.domains_resolvable)

    @property
    def frac_needing_max(self) -> float:
        return self.domains_needing_max / max(1, self.domains_resolvable)

    @property
    def frac_consistent(self) -> float:
        total = self.consistent_domains + self.inconsistent_domains
        return self.consistent_domains / max(1, total)

    def to_json(self) -> dict:
        return {
            "domains_scanned": self.domains_scanned,
            "domains_resolvable": self.domains_resolvable,
            "pct_needing_2plus_retries": round(100 * self.frac_needing_2plus, 3),
            "pct_needing_max_retries": round(100 * self.frac_needing_max, 3),
            "pct_consistent_answers": round(100 * self.frac_consistent, 4),
            "worst_case_providers": dict(self.worst_case_providers.most_common(5)),
            "worst_case_tlds": dict(self.worst_case_tlds.most_common(5)),
            "severe_providers": dict(self.severe_providers.most_common(5)),
            "severe_tlds": dict(self.severe_tlds.most_common(5)),
        }


def run_ns_consistency_study(
    internet: SimInternet,
    names,
    retries: int = 9,  # "allowing up to 10 retries for each query"
    threads: int = 2000,
    seed: int = 0,
) -> NSConsistencyFindings:
    """Scan ``names`` with the ALLNS module and aggregate Section 5 stats."""
    findings = NSConsistencyFindings()
    max_tries = retries + 1

    def sink(row: dict) -> None:
        findings.domains_scanned += 1
        data = row.get("data", {})
        servers = data.get("nameservers", [])
        responding = [s for s in servers if s["status"] in ("NOERROR", "NXDOMAIN")]
        if not responding:
            return
        findings.domains_resolvable += 1
        worst = max(s["tries"] for s in servers)
        if worst >= 2:
            findings.domains_needing_2plus += 1
        if worst >= max_tries:
            findings.domains_needing_max += 1
        if worst >= 2:
            culprit = max(servers, key=lambda s: s["tries"])
            provider = ".".join(culprit["nameserver"].split(".")[1:])
            tld = row["name"].rsplit(".", 1)[-1]
            findings.worst_case_providers[provider] += 1
            findings.worst_case_tlds[tld] += 1
            if worst >= max_tries:
                findings.severe_providers[provider] += 1
                findings.severe_tlds[tld] += 1
        if data.get("consistent") is True:
            findings.consistent_domains += 1
        elif data.get("consistent") is False:
            findings.inconsistent_domains += 1

    run_scan(
        internet, names, sink=sink, module="ALLNS", threads=threads, retries=retries, seed=seed
    )
    return findings

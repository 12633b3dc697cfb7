"""Section 6 case study: the CAA ecosystem.

Scans base domains with the CAA module and aggregates deployment,
configuration and issuer statistics, including the ccTLD blind spot the
paper highlights (nearly half of CAA holders live in ccTLDs that open
datasets skip)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..ecosystem import SimInternet, tld_class
from ..framework import run_scan


@dataclass
class CAAFindings:
    domains_scanned: int = 0
    domains_noerror: int = 0
    caa_domains: int = 0
    caa_via_cname: int = 0
    caa_by_class: Counter = field(default_factory=Counter)
    noerror_by_class: Counter = field(default_factory=Counter)
    cctld_counter: Counter = field(default_factory=Counter)
    with_issue: int = 0
    with_issuewild: int = 0
    with_iodef: int = 0
    iodef_only: int = 0
    with_invalid_tag: int = 0
    issue_letsencrypt: int = 0
    domains_with_comodo: int = 0
    domains_with_digicert: int = 0

    @property
    def caa_rate(self) -> float:
        return self.caa_domains / max(1, self.domains_noerror)

    @property
    def cctld_share_of_caa(self) -> float:
        return self.caa_by_class["cc"] / max(1, self.caa_domains)

    @property
    def pl_share_of_cc_caa(self) -> float:
        return self.cctld_counter["pl"] / max(1, self.caa_by_class["cc"])

    @property
    def top10_cc_share(self) -> float:
        top = sum(count for _, count in self.cctld_counter.most_common(10))
        return top / max(1, self.caa_by_class["cc"])

    def cctld_rate_vs_gtld(self) -> float:
        """How much more likely a ccTLD domain is to hold CAA."""
        cc = self.caa_by_class["cc"] / max(1, self.noerror_by_class["cc"])
        gtld_noerror = self.noerror_by_class["legacy"] + self.noerror_by_class["ng"]
        gtld_caa = self.caa_by_class["legacy"] + self.caa_by_class["ng"]
        gtld = gtld_caa / max(1, gtld_noerror)
        return cc / gtld if gtld else float("inf")

    def to_json(self) -> dict:
        caa = max(1, self.caa_domains)
        return {
            "domains_scanned": self.domains_scanned,
            "domains_noerror": self.domains_noerror,
            "caa_domains": self.caa_domains,
            "caa_rate_pct": round(100 * self.caa_rate, 3),
            "cctld_share_of_caa_pct": round(100 * self.cctld_share_of_caa, 1),
            "pl_share_of_cc_caa_pct": round(100 * self.pl_share_of_cc_caa, 1),
            "top10_cc_share_pct": round(100 * self.top10_cc_share, 1),
            "via_cname": self.caa_via_cname,
            "pct_issue": round(100 * self.with_issue / caa, 2),
            "pct_issuewild": round(100 * self.with_issuewild / caa, 2),
            "pct_iodef": round(100 * self.with_iodef / caa, 2),
            "iodef_only": self.iodef_only,
            "pct_invalid_tag": round(100 * self.with_invalid_tag / caa, 3),
            "pct_issue_letsencrypt": round(
                100 * self.issue_letsencrypt / max(1, self.with_issue), 2
            ),
            "pct_domains_comodo": round(100 * self.domains_with_comodo / caa, 2),
            "pct_domains_digicert": round(100 * self.domains_with_digicert / caa, 2),
        }


def run_caa_study(
    internet: SimInternet,
    base_domains,
    threads: int = 2000,
    retries: int = 2,
    seed: int = 0,
) -> CAAFindings:
    """Scan base domains for CAA records and aggregate Section 6 stats."""
    findings = CAAFindings()

    def sink(row: dict) -> None:
        findings.domains_scanned += 1
        tld = row["name"].rsplit(".", 1)[-1]
        cls = tld_class(tld) or "legacy"
        if row["status"] != "NOERROR":
            return
        findings.domains_noerror += 1
        findings.noerror_by_class[cls] += 1
        data = row.get("data", {})
        records = data.get("records", [])
        if not records:
            return
        findings.caa_domains += 1
        findings.caa_by_class[cls] += 1
        if cls == "cc":
            findings.cctld_counter[tld] += 1
        if data.get("followed_cname"):
            findings.caa_via_cname += 1
        tags = {record["tag"] for record in records}
        has_issue = "issue" in tags
        has_wild = "issuewild" in tags
        has_iodef = "iodef" in tags
        findings.with_issue += has_issue
        findings.with_issuewild += has_wild
        findings.with_iodef += has_iodef
        if has_iodef and not has_issue and not has_wild:
            findings.iodef_only += 1
        if any(not record["valid_tag"] for record in records):
            findings.with_invalid_tag += 1
        issue_values = {r["value"] for r in records if r["tag"] == "issue"}
        all_values = {r["value"] for r in records}
        if has_issue and "letsencrypt.org" in issue_values:
            findings.issue_letsencrypt += 1
        if "comodoca.com" in all_values:
            findings.domains_with_comodo += 1
        if "digicert.com" in all_values:
            findings.domains_with_digicert += 1

    run_scan(
        internet, base_domains, sink=sink, module="CAALOOKUP", threads=threads, retries=retries, seed=seed
    )
    return findings

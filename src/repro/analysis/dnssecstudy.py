"""DNSSEC deployment case study (atlas-dnssec shape).

Scans base domains with validation on and aggregates the deployment
picture a measurement party would publish: how much of the namespace is
signed, how signing splits across TLD classes, and how often validation
ends Secure / Insecure / Bogus — with the *planted* rates (ground truth
from the zone generator) printed next to the *measured* ones, so a
validator bug shows up as a gap between the two columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core import CHAIN_COUNTS
from ..dnslib import Name, RRType
from ..ecosystem import SimInternet, tld_class
from ..framework import run_scan


@dataclass
class DNSSECFindings:
    domains_scanned: int = 0
    #: Scanned domains whose lookup ended in a semantic status.
    domains_semantic: int = 0
    #: Measured validation outcomes over semantic lookups.
    measured: Counter = field(default_factory=Counter)
    #: Ground-truth expectations for the same lookups (zone profiles).
    planted: Counter = field(default_factory=Counter)
    #: Measured Secure outcomes per TLD class.
    secure_by_class: Counter = field(default_factory=Counter)
    semantic_by_class: Counter = field(default_factory=Counter)
    #: Ground-truth deployment of the scanned (existing) domains.
    signed_domains: int = 0
    existing_domains: int = 0
    islands: int = 0
    broken_ds: int = 0
    expired_sigs: int = 0
    #: Lookups whose measured outcome disagrees with the planted one.
    mismatches: int = 0
    #: What validation asked the network for, exact for a seed: the
    #: scan's own ``chain_queries`` / ``proofs_harvested`` /
    #: ``proof_fallbacks`` tallies, and the DS and DNSKEY queries
    #: counted off the rows' traces (only the validator sends either).
    chain: Counter = field(default_factory=Counter)

    @property
    def signed_fraction(self) -> float:
        return self.signed_domains / max(1, self.existing_domains)

    def measured_rate(self, state: str) -> float:
        return self.measured[state] / max(1, self.domains_semantic)

    def planted_rate(self, state: str) -> float:
        return self.planted[state] / max(1, self.domains_semantic)

    def secure_rate_of_class(self, cls: str) -> float:
        return self.secure_by_class[cls] / max(1, self.semantic_by_class[cls])

    def to_json(self) -> dict:
        out = {
            "domains_scanned": self.domains_scanned,
            "domains_semantic": self.domains_semantic,
            "signed_fraction_pct": round(100 * self.signed_fraction, 2),
            "islands": self.islands,
            "broken_ds": self.broken_ds,
            "expired_sigs": self.expired_sigs,
            "mismatches": self.mismatches,
            "chain": dict(sorted(self.chain.items())),
        }
        for state in ("secure", "insecure", "bogus", "indeterminate"):
            out[f"measured_{state}_pct"] = round(100 * self.measured_rate(state), 2)
            out[f"planted_{state}_pct"] = round(100 * self.planted_rate(state), 2)
        for cls in ("legacy", "cc", "ng"):
            out[f"secure_rate_{cls}_pct"] = round(
                100 * self.secure_rate_of_class(cls), 2
            )
        return out


_CHAIN_QTYPES = {int(RRType.DS): "ds_queries", int(RRType.DNSKEY): "dnskey_queries"}


def expected_outcome(synth, base: Name) -> str:
    """The validation outcome the zone profiles predict for a base
    domain (the white-box ground truth the measured column is held
    against).  A nonexistent base under a signed TLD denies with
    authenticated NSEC (Secure); under an unsigned TLD every outcome is
    Insecure."""
    tld = Name.intern(base.labels[-1:])
    if not synth.dnssec_profile(tld).signed:
        return "insecure"
    if not synth.profile(base).exists:
        return "secure"
    dp = synth.dnssec_profile(base)
    if not dp.signed or dp.island:
        return "insecure"
    if dp.broken_ds or dp.expired:
        return "bogus"
    return "secure"


def run_dnssec_study(
    internet: SimInternet,
    base_domains,
    threads: int = 2000,
    retries: int = 2,
    seed: int = 0,
) -> DNSSECFindings:
    """Scan base domains with validation on; aggregate deployment stats."""
    findings = DNSSECFindings()
    synth = internet.synth

    def sink(row: dict) -> None:
        findings.domains_scanned += 1
        for step in row.get("trace", ()):
            if not step["cached"] and step["type"] in _CHAIN_QTYPES:
                findings.chain[_CHAIN_QTYPES[step["type"]]] += 1
        base = Name.from_text(row["name"])
        profile = synth.profile(base)
        if profile.exists:
            findings.existing_domains += 1
            dp = synth.dnssec_profile(base)
            if dp.signed:
                findings.signed_domains += 1
                findings.islands += dp.island
                findings.broken_ds += dp.broken_ds
                findings.expired_sigs += dp.expired
        if row["status"] not in ("NOERROR", "NXDOMAIN"):
            return
        measured = row.get("data", {}).get("dnssec")
        if measured is None:
            return
        findings.domains_semantic += 1
        findings.measured[measured] += 1
        cls = tld_class(row["name"].rsplit(".", 1)[-1]) or "legacy"
        findings.semantic_by_class[cls] += 1
        if measured == "secure":
            findings.secure_by_class[cls] += 1
        expected = expected_outcome(synth, base)
        findings.planted[expected] += 1
        if measured != expected and measured != "indeterminate":
            findings.mismatches += 1

    report = run_scan(
        internet, base_domains, sink=sink, threads=threads, retries=retries, seed=seed, dnssec=True
    )
    for count in CHAIN_COUNTS:
        findings.chain[count] = report.dnssec_stats[count]
    return findings


def main(argv=None) -> int:
    """``python -m repro.analysis.dnssecstudy`` — print the deployment
    table (and the full JSON with ``--json``)."""
    import argparse
    import json
    import sys

    from ..ecosystem import EcosystemParams, build_internet
    from ..workloads import DomainCorpus

    parser = argparse.ArgumentParser(prog="python -m repro.analysis.dnssecstudy")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--domains", type=int, default=2500)
    parser.add_argument("--threads", type=int, default=800)
    parser.add_argument("--json", action="store_true", help="emit raw JSON")
    args = parser.parse_args(argv)

    internet = build_internet(params=EcosystemParams(seed=args.seed))
    bases = list(DomainCorpus().base_domains(args.domains))
    findings = run_dnssec_study(
        internet, bases, threads=args.threads, seed=args.seed
    )
    if args.json:
        json.dump(findings.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 1 if findings.mismatches else 0

    print(f"domains scanned        {findings.domains_scanned}")
    print(
        f"signed fraction        {100 * findings.signed_fraction:6.2f} % "
        f"({findings.signed_domains}/{findings.existing_domains} existing)"
    )
    print(
        f"anomalies planted      {findings.islands} islands, "
        f"{findings.broken_ds} broken DS, {findings.expired_sigs} expired sigs"
    )
    for state in ("secure", "insecure", "bogus", "indeterminate"):
        print(
            f"measured {state:<13} {100 * findings.measured_rate(state):6.2f} % "
            f"(planted {100 * findings.planted_rate(state):.2f} %)"
        )
    print(f"mismatches             {findings.mismatches}")
    chain = findings.chain
    print(
        f"validation asked for   {chain['chain_queries']} queries "
        f"({chain['dnskey_queries']} DNSKEY, {chain['ds_queries']} DS for "
        f"{chain['proof_fallbacks']} cuts no referral vouched for; "
        f"{chain['proofs_harvested']} proofs rode referrals)"
    )
    return 1 if findings.mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())

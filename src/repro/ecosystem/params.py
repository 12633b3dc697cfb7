"""Calibration parameters for the simulated DNS ecosystem.

Every constant here is tied to a number the paper reports (cited inline)
or is a free parameter chosen to land in a realistic regime.  All the
evaluation benchmarks read these — nothing downstream hard-codes paper
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# TLD population (Appendix A, Table 3): 55% of FQDNs sit in legacy gTLDs,
# 39% in ccTLDs, 6% in new gTLDs.  Weights within each class follow the
# real-world skew (.com dominates; .pl is deliberately prominent among
# ccTLDs because Section 6 finds it holds 25% of ccTLD CAA records).
# --------------------------------------------------------------------------

LEGACY_GTLDS: list[tuple[str, float]] = [
    ("com", 0.66), ("net", 0.16), ("org", 0.13), ("info", 0.03), ("biz", 0.02),
]

CCTLDS: list[tuple[str, float]] = [
    ("de", 0.135), ("uk", 0.105), ("nl", 0.065), ("ru", 0.06), ("br", 0.05),
    ("pl", 0.05), ("jp", 0.045), ("fr", 0.045), ("it", 0.04), ("au", 0.035),
    ("ca", 0.035), ("in", 0.03), ("es", 0.03), ("ch", 0.03), ("se", 0.025),
    ("be", 0.025), ("at", 0.02), ("dk", 0.02), ("cz", 0.02), ("eu", 0.02),
    ("kr", 0.015), ("mx", 0.015), ("ar", 0.015), ("za", 0.015), ("tr", 0.015),
    ("gr", 0.01), ("fi", 0.01), ("vn", 0.01), ("ng", 0.005), ("cn", 0.03),
]

NGTLDS: list[tuple[str, float]] = [
    ("xyz", 0.22), ("top", 0.13), ("online", 0.11), ("site", 0.09), ("shop", 0.08),
    ("app", 0.08), ("dev", 0.06), ("club", 0.06), ("store", 0.05), ("live", 0.04),
    ("icu", 0.03), ("vip", 0.02), ("work", 0.01), ("fun", 0.01), ("space", 0.01),
]

#: FQDN share by TLD class (Table 3).
TLD_CLASS_WEIGHTS: list[tuple[str, float]] = [
    ("legacy", 0.553),
    ("cc", 0.387),
    ("ng", 0.060),
]


# --------------------------------------------------------------------------
# Hosting providers.  Section 5: Cloudflare and GoDaddy each host ~12% of
# domains and are response-consistent; namebrightdns.com accounts for 31%
# of the domains whose nameservers need 10 retries; .vn and .ng ccTLD
# hosting is also disproportionately unavailable.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProviderProfile:
    """A DNS hosting provider and its operational quirks."""

    name: str
    weight: float
    ns_pool: int = 4  # size of the provider's nameserver fleet
    consistent_answers: bool = True
    flaky_rate: float = 0.0  # chance a hosted domain has a blocking NS
    severe_flaky_rate: float = 0.0  # chance the blocking needs ~10 retries
    lame_rate: float = 0.0  # chance one delegation is lame


PROVIDERS: list[ProviderProfile] = [
    ProviderProfile("cloudflare-dns.example", 0.12, ns_pool=8),
    ProviderProfile("godaddy-dns.example", 0.12, ns_pool=8),
    ProviderProfile("awsdns.example", 0.09, ns_pool=8),
    ProviderProfile("googledomains.example", 0.06, ns_pool=6),
    ProviderProfile("namecheap-dns.example", 0.05, ns_pool=4),
    ProviderProfile("ovh-dns.example", 0.04, ns_pool=4),
    ProviderProfile("hetzner-dns.example", 0.04, ns_pool=4),
    ProviderProfile("wix-dns.example", 0.03, ns_pool=4),
    ProviderProfile("squarespace-dns.example", 0.03, ns_pool=4),
    ProviderProfile("azure-dns.example", 0.03, ns_pool=6),
    ProviderProfile("gandi-dns.example", 0.025, ns_pool=4),
    ProviderProfile("ionos-dns.example", 0.025, ns_pool=4),
    ProviderProfile("hostgator-dns.example", 0.02, ns_pool=4),
    ProviderProfile("bluehost-dns.example", 0.02, ns_pool=4),
    ProviderProfile("dreamhost-dns.example", 0.02, ns_pool=4),
    ProviderProfile(
        "namebrightdns.example", 0.015, ns_pool=2,
        flaky_rate=0.03, severe_flaky_rate=0.10, lame_rate=0.01,
    ),
    ProviderProfile("linode-dns.example", 0.015, ns_pool=4),
    ProviderProfile("digitalocean-dns.example", 0.015, ns_pool=4),
    ProviderProfile("he-dns.example", 0.01, ns_pool=4),
    ProviderProfile("rackspace-dns.example", 0.01, ns_pool=4),
    # long tail of small, self-hosted setups: slightly less reliable and
    # occasionally answer-inconsistent across their nameservers.
    ProviderProfile(
        "selfhosted-a.example", 0.09, ns_pool=2,
        consistent_answers=False, flaky_rate=0.004, lame_rate=0.01,
    ),
    ProviderProfile("selfhosted-b.example", 0.09, ns_pool=2, flaky_rate=0.003, lame_rate=0.008),
    ProviderProfile("selfhosted-c.example", 0.08, ns_pool=3, flaky_rate=0.002, lame_rate=0.005),
]

#: ccTLDs whose hosting is disproportionately unavailable (Section 5
#: attributes 11% / 7% of inconsistent domains to .vn / .ng).
FLAKY_CCTLDS: dict[str, float] = {"vn": 0.02, "ng": 0.022}


@dataclass(frozen=True)
class EcosystemParams:
    """Tunable knobs for zone synthesis, keyed off one global seed."""

    seed: int = 2022

    # -- forward-zone behaviour ------------------------------------------------
    #: Fraction of corpus FQDNs that resolve with records (Appendix A:
    #: "roughly 70% of the domain names successfully resolve").
    p_fqdn_resolves: float = 0.70
    #: Of the non-resolving remainder, most are NXDOMAIN; the rest are
    #: dead/unreachable delegations that time out or SERVFAIL.  Sized so
    #: overall success (NOERROR|NXDOMAIN) lands at Table 1's ~96-97%.
    p_dead_given_unresolved: float = 0.11
    #: Responses intentionally exceeding UDP payload (Section 3.4: 0.4%
    #: of A-record responses come back truncated).
    p_truncated: float = 0.004
    #: Domains whose apex A lookup goes through a CNAME.
    p_cname: float = 0.05
    #: Base-domain probability of a www subdomain existing.
    p_www: float = 0.9

    # -- availability case study (Section 5) ------------------------------------
    #: Baseline chance a (domain, ns) pair exhibits probabilistic
    #: blocking, on top of provider- and ccTLD-specific rates.  Target:
    #: 0.55% of resolvable domains have an NS needing >=2 retries and
    #: 0.01% have one needing 10.
    p_flaky_base: float = 0.0012
    p_severe_given_flaky: float = 0.018
    #: Drop probability while a flaky NS is "blocking".
    flaky_drop_prob: float = 0.55
    severe_drop_prob: float = 0.93

    # -- CAA case study (Section 6) ---------------------------------------------
    #: P(CAA record | NOERROR base domain) for gTLDs; ccTLDs are 20%
    #: more likely (Section 6).
    p_caa_gtld: float = 0.0135
    cctld_caa_multiplier: float = 1.20
    #: .pl alone holds 25% of ccTLD CAA records -> boost its rate
    #: (solves 0.05*m / (1 + 0.05*(m-1)) = 0.25 for .pl's 5% cc weight).
    pl_caa_multiplier: float = 6.3
    #: CAA tag mix (Section 6): issue 96.8%, issuewild 55.27%, iodef
    #: 6.87%, iodef-only ~0.06%, invalid tags 0.04%.
    p_caa_issue: float = 0.968
    p_caa_issuewild: float = 0.5527
    p_caa_iodef: float = 0.0687
    p_caa_iodef_only: float = 0.0006
    p_caa_invalid_tag: float = 0.0004
    #: CAA record reached through a CNAME chain (8000 / 1.08M holders).
    p_caa_via_cname: float = 0.0074
    #: Issuer mix: Let's Encrypt in 92.4% of issue tags; Comodo and
    #: Digicert each in >50% of CAA domains.
    p_issuer_letsencrypt: float = 0.924
    p_issuer_comodo: float = 0.55
    p_issuer_digicert: float = 0.52

    # -- reverse (PTR) zones -----------------------------------------------------
    #: Fraction of the scanned IPv4 space with a PTR record; remainder
    #: splits between NXDOMAIN and dead rDNS servers so that public-
    #: resolver PTR success lands at Table 1's ~93%.
    p_ptr_exists: float = 0.55
    p_rdns_dead: float = 0.055
    #: Distinct simulated rDNS operators (bounds server count; /16 and
    #: /24 zone NS RRsets remain per-zone for cache realism).
    rdns_operators: int = 512

    # -- DNSSEC deployment (atlas-dnssec-style rates) ----------------------------
    #: Fraction of TLD zones that are signed (real-world registries sign
    #: near-universally; a handful of ccTLDs lag).
    p_tld_signed: float = 0.90
    #: Fraction of registrable base domains that are signed.  Real-world
    #: second-level deployment sits in the low single digits.
    p_domain_signed: float = 0.04
    #: Of signed base domains: chance the zone is an *island of trust* —
    #: signed but with no DS in the parent, so a validator can only
    #: reach Insecure, never Secure.
    p_island: float = 0.12
    #: Of signed base domains: chance the parent DS does not match the
    #: child DNSKEY (botched rollover) — validation lands Bogus.
    p_broken_ds: float = 0.02
    #: Of signed base domains: chance the zone's signatures are expired
    #: (unattended signer) — validation lands Bogus.
    p_expired_sig: float = 0.015
    #: RRSIG validity window (seconds of virtual time past the signing
    #: epoch); expired-signature zones instead signed this far *before*
    #: the epoch so their signatures are already stale at scan start.
    dnssec_validity: int = 30 * 86_400

    # -- timing ------------------------------------------------------------------
    #: Authoritative-server RTT medians by tier (seconds).
    root_rtt: float = 0.012
    tld_rtt: float = 0.024
    auth_rtt: float = 0.048
    rdns_rtt: float = 0.055
    #: Ambient one-way packet loss toward authoritative servers.  Kept
    #: low so Section 5's retry statistics are dominated by genuinely
    #: flaky servers, as in the paper.
    auth_loss: float = 0.0003

    # -- public recursive resolvers (Section 4.1) --------------------------------
    public_rtt: float = 0.028
    #: Extra delay when the public resolver must recurse (cache miss).
    public_miss_delay: float = 0.065
    public_miss_rate: float = 0.22
    #: Heavy recursion tail: unique-name lookups whose upstream walk is
    #: slow (lossy authoritatives, resolver-side retries).  This is what
    #: makes the paper's per-thread throughput ~2 lookups/s and places
    #: Figure 1's plateau near 45-50K threads.
    public_slow_rate: float = 0.13
    public_slow_min: float = 0.5
    public_slow_max: float = 2.6
    #: Google's per-client-IP rate limit [2]; calibrated so a /32 scan
    #: loses ~6x vs Cloudflare (Figure 1).  Cloudflare does not limit [1].
    google_rate_limit: float = 22_000.0
    #: Aggregate service capacity one scanner can extract from a public
    #: resolver before it starts shedding load (MassDNS, Table 2).
    public_capacity: float = 200_000.0
    #: How much queueing a resolver tolerates before shedding load with
    #: fast SERVFAILs — small, so abusive senders get refused rather
    #: than queued (the MassDNS failure mode).
    public_max_backlog: float = 0.05

    providers: tuple[ProviderProfile, ...] = field(default_factory=lambda: tuple(PROVIDERS))


#: Well-known simulated addresses.
ROOT_SERVER_IPS = [f"199.7.83.{i + 1}" for i in range(13)]
GOOGLE_RESOLVER_IP = "8.8.8.8"
CLOUDFLARE_RESOLVER_IP = "1.1.1.1"
UNBOUND_RESOLVER_IP = "127.0.0.53"


def all_tlds() -> list[tuple[str, str]]:
    """(tld, class) pairs across the whole population."""
    out = [(tld, "legacy") for tld, _ in LEGACY_GTLDS]
    out += [(tld, "cc") for tld, _ in CCTLDS]
    out += [(tld, "ng") for tld, _ in NGTLDS]
    return out


_TLD_CLASS: dict[str, str] = {}


def tld_class(tld: str) -> str | None:
    """'legacy' | 'cc' | 'ng' for a known TLD, else None."""
    if not _TLD_CLASS:
        for name, cls in all_tlds():
            _TLD_CLASS.setdefault(name, cls)  # first occurrence wins
    return _TLD_CLASS.get(tld)

"""Procedural zone synthesis.

Rather than materialising 93M zones, every zone is a pure function of
(seed, name): hash draws decide whether a domain exists, who hosts it,
what records it owns, and how its nameservers misbehave.  Authoritative
servers call into this module to answer any query with O(1) memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from ..dnslib import Name, RRType
from . import rand
from .params import (
    CCTLDS,
    FLAKY_CCTLDS,
    LEGACY_GTLDS,
    NGTLDS,
    EcosystemParams,
    ProviderProfile,
    tld_class,
)

#: First octets used for synthetic "public" host addresses, away from
#: the simulator's infrastructure ranges.
_HOST_OCTETS = [23, 34, 45, 52, 64, 77, 81, 89, 93, 104, 151, 163, 185, 203]

#: CAA issuer population (Section 6).
ISSUER_LETSENCRYPT = "letsencrypt.org"
ISSUER_COMODO = "comodoca.com"
ISSUER_DIGICERT = "digicert.com"
ISSUERS_OTHER = ["pki.goog", "globalsign.com", "amazon.com", "sectigo.com"]

#: Subdomain labels the corpus draws from (certificate-transparency
#: style hostnames).
SUBDOMAIN_LABELS = [
    "www", "mail", "api", "shop", "blog", "dev", "app", "cdn", "m",
    "staging", "vpn", "portal", "webmail", "remote", "cloud", "test",
]


@dataclass(frozen=True)
class CAAProfile:
    """A domain's CAA deployment."""

    issue: tuple[str, ...]
    issuewild: tuple[str, ...]
    iodef: tuple[str, ...]
    invalid_tags: tuple[str, ...]
    via_cname: bool

    @property
    def record_count(self) -> int:
        return len(self.issue) + len(self.issuewild) + len(self.iodef) + len(self.invalid_tags)


@dataclass(frozen=True)
class DnssecProfile:
    """A zone's DNSSEC deployment (or lack of it).

    ``signed`` zones carry a DNSKEY at the apex and RRSIGs over every
    RRset they serve.  The anomaly flags are mutually exclusive and
    model the real-world failure modes a validator distinguishes:
    ``island`` (signed, no DS at the parent → Insecure), ``broken_ds``
    (parent DS mismatches the DNSKEY → Bogus), ``expired`` (signature
    validity window already past → Bogus).
    """

    signed: bool
    island: bool = False
    broken_ds: bool = False
    expired: bool = False
    #: Seed-derived key material; rolls when the zone generation bumps.
    key: bytes = b""
    #: RRSIG validity window, in absolute epoch seconds.
    inception: int = 0
    expiration: int = 0


#: Shared profile for every unsigned zone.
UNSIGNED = DnssecProfile(signed=False)


@dataclass(frozen=True)
class NameserverInfo:
    """One delegated nameserver of a domain."""

    name: Name
    ip: str
    #: retries a client typically needs: 0 = healthy, 1 = flaky,
    #: high values = severe probabilistic blocking (Section 5).
    drop_prob: float = 0.0
    lame: bool = False


#: Lazy boolean field of :class:`DomainProfile` -> (draw tag, rate).
_CONTENT_DRAWS = {"has_mx": ("mx", 0.72), "has_spf": ("spf", 0.60), "has_dmarc": ("dmarc", 0.42)}


@dataclass(frozen=True)
class DomainProfile:
    """Everything the simulation knows about one base domain."""

    base: Name
    tld: str
    tld_cls: str
    exists: bool
    dead: bool  # delegation present but servers never answer
    provider: ProviderProfile
    provider_index: int
    nameservers: tuple[NameserverInfo, ...]
    consistent_answers: bool
    truncates: bool
    #: Four facts only MX/TXT/CAA content reads — a fifth of a profile's
    #: hash draws, up to twelve more behind the CAA gate — so they are
    #: drawn on first read (``__getattr__``), from the (seed, gkey, tag)
    #: an eager draw would use; fields still, for eq/hash/repr.
    has_mx: bool = field(init=False)
    has_spf: bool = field(init=False)
    has_dmarc: bool = field(init=False)
    www_is_cname: bool
    caa: CAAProfile | None = field(init=False)

    def __getattr__(self, name: str):
        # reached only while a lazy field is not in __dict__ yet
        synth, gkey = self.__dict__.get("_drawn_from", (None, None))
        if synth is not None and name in _CONTENT_DRAWS:
            tag, rate = _CONTENT_DRAWS[name]
            value = rand.uniform(synth.params.seed, gkey, tag) < rate
        elif synth is not None and name == "caa":
            value = synth._caa_profile(gkey, self.tld, self.tld_cls) if self.exists else None
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value


class ZoneSynthesizer:
    """Derives domain/IP profiles and answers content queries."""

    def __init__(self, params: EcosystemParams | None = None):
        self.params = params or EcosystemParams()
        self._providers = list(self.params.providers)
        #: Zone-delta generations: base domain -> mutation count.  Empty
        #: for every batch scan (the common case), and the hot-path
        #: guard is a single truthiness check, so profiles and answers
        #: stay byte-identical until someone publishes a delta
        #: (:func:`repro.ecosystem.deltas.publish_zone_delta`).
        self._generations: dict[Name, int] = {}
        self._provider_weights = [(i, p.weight) for i, p in enumerate(self._providers)]
        self._tlds = (
            [(t, "legacy") for t, _ in LEGACY_GTLDS]
            + [(t, "cc") for t, _ in CCTLDS]
            + [(t, "ng") for t, _ in NGTLDS]
        )
        self._tld_index = {t: i for i, (t, _) in enumerate(self._tlds)}

    @cached_property
    def dnssec(self):
        """:mod:`repro.ecosystem.dnssec` (zone keys, signatures, denial
        records), imported the first time a DO query or a validator
        needs it: a universe nobody asks for DNSSEC never loads it."""
        from . import dnssec

        return dnssec

    # ------------------------------------------------------------------
    # address books for infrastructure
    # ------------------------------------------------------------------

    def tlds(self) -> list[tuple[str, str]]:
        return list(self._tlds)

    def tld_ns_name(self, tld: str, k: int) -> Name:
        return Name.from_text(f"ns{k + 1}.nic-{tld}.example")

    def tld_ns_ip(self, tld: str, k: int) -> str:
        return f"192.6.{self._tld_index[tld]}.{k + 1}"

    def provider_ns_name(self, provider_index: int, k: int) -> Name:
        return Name.from_text(f"ns{k + 1}.{self._providers[provider_index].name}")

    def provider_ns_ip(self, provider_index: int, k: int) -> str:
        return f"192.7.{provider_index}.{k + 1}"

    def rdns_operator(self, octets: tuple[int, ...]) -> int:
        return rand.h64(self.params.seed, "rdns-op", *octets) % self.params.rdns_operators

    def rdns_ns_name(self, operator: int, k: int) -> Name:
        return Name.from_text(f"ns{k + 1}.rdns{operator}.example")

    def rdns_ns_ip(self, operator: int, k: int) -> str:
        return f"192.{10 + k}.{operator // 256}.{operator % 256}"

    def infra_server_ips(self) -> list[str]:
        return ["192.8.0.1", "192.8.0.2"]

    def arpa_server_ips(self) -> list[str]:
        return ["192.9.255.1", "192.9.255.2"]

    def infra_a_record(self, name: Name) -> str | None:
        """Resolve an infrastructure hostname (ns*.{...}.example) to its IP."""
        text = name.key_text()
        parts = text.split(".")
        if len(parts) < 3 or parts[-1] != "example" or not parts[0].startswith("ns"):
            return None
        try:
            k = int(parts[0][2:]) - 1
        except ValueError:
            return None
        owner = parts[1]
        if owner.startswith("nic-"):
            tld = owner[4:]
            if tld in self._tld_index and k in (0, 1):
                return self.tld_ns_ip(tld, k)
            return None
        if owner.startswith("rdns"):
            try:
                operator = int(owner[4:])
            except ValueError:
                return None
            if 0 <= operator < self.params.rdns_operators and k in (0, 1):
                return self.rdns_ns_ip(operator, k)
            return None
        full_provider = ".".join(parts[1:])
        for index, provider in enumerate(self._providers):
            if provider.name == full_provider and 0 <= k < provider.ns_pool:
                return self.provider_ns_ip(index, k)
        return None

    # ------------------------------------------------------------------
    # base-domain profiles
    # ------------------------------------------------------------------

    def base_domain_of(self, name: Name) -> Name | None:
        """The registrable domain (TLD + one label), or None if the name
        is not under a known TLD."""
        if len(name.labels) < 2:
            return None
        tld = name.labels[-1].decode("ascii", "replace").lower()
        if tld not in self._tld_index:
            return None
        # interned: profile() is lru-cached on the Name, so handing back
        # the shared instance turns its cache key into a pointer compare
        return Name.intern(name.labels[-2:])

    def generation_of(self, base: Name) -> int:
        """How many zone deltas ``base`` has absorbed (0 = pristine)."""
        return self._generations.get(base, 0) if self._generations else 0

    def bump_generation(self, base: Name) -> int:
        """Advance a base domain's zone generation (one published zone
        delta): delegation and content draws re-roll under the new
        generation while registration (exists/dead) stays fixed, so the
        domain changes hands/records without blinking out of the
        namespace.  The servers keep no response, so the next query is
        answered from the new generation; callers normally go through
        :func:`repro.ecosystem.deltas.publish_zone_delta`, which
        resolves a name to its registrable base first."""
        base = Name.intern(base.labels)
        gen = self._generations.get(base, 0) + 1
        self._generations[base] = gen
        return gen

    def dnssec_profile(self, zone: Name) -> DnssecProfile:
        """The zone's DNSSEC deployment at its current generation.

        Root is always signed and clean; TLDs sign at ``p_tld_signed``
        with no anomalies (registries run tight ships); base domains
        sign at ``p_domain_signed`` with islands/broken chains/expired
        signatures planted at their configured rates.  Signed-ness and
        anomaly draws use the *unsalted* key so a zone delta never
        flips a zone's deployment class — but the key material is
        generation-salted, so a delta rolls the keys.
        """
        zone = Name.intern(zone.labels)
        generation = 0
        if self._generations and len(zone.labels) == 2:
            generation = self._generations.get(zone, 0)
        return self._dnssec_profile(zone, generation)

    @lru_cache(maxsize=262_144)
    def _dnssec_profile(self, zone: Name, generation: int) -> DnssecProfile:
        seed = self.params.seed
        p = self.params
        labels = zone.labels
        validity = p.dnssec_validity
        dnssec = self.dnssec
        if not labels:
            return DnssecProfile(
                signed=True,
                key=dnssec.zone_key_bytes(seed, zone, generation),
                inception=dnssec.EPOCH_BASE - validity,
                expiration=dnssec.EPOCH_BASE + validity,
            )
        tld = labels[-1].decode("ascii", "replace").lower()
        if tld not in self._tld_index or len(labels) > 2:
            return UNSIGNED
        key = zone.key_text()
        if len(labels) == 1:
            if rand.uniform(seed, key, "dnssec-signed") >= p.p_tld_signed:
                return UNSIGNED
            return DnssecProfile(
                signed=True,
                key=dnssec.zone_key_bytes(seed, zone, generation),
                inception=dnssec.EPOCH_BASE - validity,
                expiration=dnssec.EPOCH_BASE + validity,
            )
        if rand.uniform(seed, key, "dnssec-signed") >= p.p_domain_signed:
            return UNSIGNED
        roll = rand.uniform(seed, key, "dnssec-anomaly")
        island = roll < p.p_island
        broken = not island and roll < p.p_island + p.p_broken_ds
        expired = (
            not island and not broken
            and roll < p.p_island + p.p_broken_ds + p.p_expired_sig
        )
        if expired:
            inception = dnssec.EPOCH_BASE - validity - 3600
            expiration = dnssec.EPOCH_BASE - 3600
        else:
            inception = dnssec.EPOCH_BASE - validity
            expiration = dnssec.EPOCH_BASE + validity
        return DnssecProfile(
            signed=True,
            island=island,
            broken_ds=broken,
            expired=expired,
            key=dnssec.zone_key_bytes(seed, zone, generation),
            inception=inception,
            expiration=expiration,
        )

    def profile(self, base: Name) -> DomainProfile:
        """The deterministic profile of a base domain (at its current
        zone generation)."""
        if self._generations:
            return self._profile(base, self._generations.get(base, 0))
        return self._profile(base, 0)

    @lru_cache(maxsize=262_144)
    def _profile(self, base: Name, generation: int) -> DomainProfile:
        seed = self.params.seed
        p = self.params
        key = base.key_text()
        #: Registration draws (exists/dead) stay on the unsalted key —
        #: a zone delta re-delegates and rewrites content, it does not
        #: unregister the domain.  Everything else re-rolls per
        #: generation.
        gkey = key if generation == 0 else f"{key}#gen{generation}"
        tld = base.labels[-1].decode("ascii", "replace").lower()
        cls = tld_class(tld) or "legacy"

        exists = rand.uniform(seed, key, "exists") < self._p_exists()
        dead = False
        if not exists:
            dead = rand.uniform(seed, key, "dead") < p.p_dead_given_unresolved

        provider_index = rand.weighted_choice(seed, self._provider_weights, gkey, "provider")
        provider = self._providers[provider_index]

        ns_count = rand.randint(seed, 2, min(4, provider.ns_pool), gkey, "nscount")
        pool = list(range(provider.ns_pool))
        nameservers = []
        flaky_rate = p.p_flaky_base + provider.flaky_rate + FLAKY_CCTLDS.get(tld, 0.0)
        for slot in range(ns_count):
            k = pool[rand.h64(seed, gkey, "nspick", slot) % len(pool)]
            pool.remove(k)
            drop_prob = 0.0
            lame = False
            if rand.uniform(seed, gkey, "flaky", k) < flaky_rate:
                severe = (
                    rand.uniform(seed, gkey, "severe", k)
                    < p.p_severe_given_flaky + provider.severe_flaky_rate
                )
                drop_prob = p.severe_drop_prob if severe else p.flaky_drop_prob
            elif rand.uniform(seed, gkey, "lame", k) < provider.lame_rate:
                lame = True
            nameservers.append(
                NameserverInfo(
                    name=self.provider_ns_name(provider_index, k),
                    ip=self.provider_ns_ip(provider_index, k),
                    drop_prob=drop_prob,
                    lame=lame,
                )
            )

        profile = DomainProfile(
            # the cache key ignores case, so the first caller's spelling
            # must not become the zone's: zone data is spelled canonically
            base=Name.intern(base.canonical_key()),
            tld=tld,
            tld_cls=cls,
            exists=exists,
            dead=dead,
            provider=provider,
            provider_index=provider_index,
            nameservers=tuple(nameservers),
            consistent_answers=provider.consistent_answers
            or rand.uniform(seed, gkey, "consistent") < 0.999,
            truncates=rand.uniform(seed, gkey, "trunc") < p.p_truncated,
            www_is_cname=rand.uniform(seed, gkey, "wwwcname") < 0.5,
        )
        object.__setattr__(profile, "_drawn_from", (self, gkey))  # for the lazy fields
        return profile

    def _p_exists(self) -> float:
        # p_fqdn_resolves = p_base_exists * p_sub_exists(=0.9)
        return min(1.0, self.params.p_fqdn_resolves / 0.9)

    def _caa_profile(self, key: str, tld: str, cls: str) -> CAAProfile | None:
        p = self.params
        seed = self.params.seed
        rate = p.p_caa_gtld
        if cls == "cc":
            rate *= p.cctld_caa_multiplier
            if tld == "pl":
                rate *= p.pl_caa_multiplier
        if rand.uniform(seed, key, "caa") >= rate:
            return None

        issue: list[str] = []
        issuewild: list[str] = []
        iodef: list[str] = []
        invalid: list[str] = []

        if rand.uniform(seed, key, "caa-iodef-only") < p.p_caa_iodef_only:
            iodef.append(f"mailto:security@{key}")
        else:
            if rand.uniform(seed, key, "caa-issue") < p.p_caa_issue:
                if rand.uniform(seed, key, "caa-le") < p.p_issuer_letsencrypt:
                    issue.append(ISSUER_LETSENCRYPT)
                if rand.uniform(seed, key, "caa-comodo") < p.p_issuer_comodo:
                    issue.append(ISSUER_COMODO)
                if rand.uniform(seed, key, "caa-digicert") < p.p_issuer_digicert:
                    issue.append(ISSUER_DIGICERT)
                if not issue or rand.uniform(seed, key, "caa-other") < 0.12:
                    issue.append(rand.choice(seed, ISSUERS_OTHER, key, "caa-other-pick"))
            if rand.uniform(seed, key, "caa-wild") < p.p_caa_issuewild:
                issuewild.append(issue[0] if issue else ISSUER_LETSENCRYPT)
            if rand.uniform(seed, key, "caa-iodef") < p.p_caa_iodef:
                iodef.append(f"mailto:hostmaster@{key}")
            if rand.uniform(seed, key, "caa-invalid") < p.p_caa_invalid_tag:
                # the registrar input-validation bug from Section 6
                invalid.append("issue wild")

        return CAAProfile(
            issue=tuple(issue),
            issuewild=tuple(issuewild),
            iodef=tuple(iodef),
            invalid_tags=tuple(invalid),
            via_cname=rand.uniform(seed, key, "caa-cname") < p.p_caa_via_cname,
        )

    # ------------------------------------------------------------------
    # per-host facts
    # ------------------------------------------------------------------

    def subdomain_exists(self, fqdn: Name, profile: DomainProfile) -> bool:
        if not profile.exists:
            return False
        if fqdn == profile.base:
            return True
        key = fqdn.key_text()
        if len(fqdn.labels) == len(profile.base.labels) + 1:
            first = fqdn.labels[0].lower()
            if first == b"www":
                return rand.uniform(self.params.seed, key, "www") < self.params.p_www
            if first == b"_caa":
                # CNAME-chased CAA target (RFC 8659 / Section 6)
                return profile.caa is not None and profile.caa.via_cname
            if first == b"_dmarc":
                return profile.has_dmarc
            if first.startswith(b"mail"):
                return profile.has_mx
        return rand.uniform(self.params.seed, key, "sub") < 0.85

    def host_addresses(self, fqdn: Name, count_tag: str = "a") -> list[str]:
        """Deterministic public IPv4 addresses for a hostname (re-drawn
        when the owning base domain's zone generation advances)."""
        key = fqdn.key_text()
        if self._generations:
            generation = self._generations.get(self.base_domain_of(fqdn), 0)
            if generation:
                key = f"{key}#gen{generation}"
        seed = self.params.seed
        count = 1 + rand.h64(seed, key, count_tag, "count") % 3
        addresses = []
        for i in range(count):
            value = rand.h64(seed, key, count_tag, i)
            octet0 = _HOST_OCTETS[value % len(_HOST_OCTETS)]
            addresses.append(
                f"{octet0}.{(value >> 8) & 255}.{(value >> 16) & 255}.{max(1, (value >> 24) & 255)}"
            )
        return addresses

    # ------------------------------------------------------------------
    # reverse zones
    # ------------------------------------------------------------------

    def ptr_zone_dead(self, octets: tuple[int, int, int]) -> bool:
        """Whether a whole /24 reverse zone is delegated to dead servers."""
        return rand.uniform(self.params.seed, "zone24-dead", *octets) < self.params.p_rdns_dead

    def ptr_status(self, ip: str) -> str:
        """'noerror' | 'nxdomain' | 'dead' for an IPv4 address's PTR."""
        seed = self.params.seed
        octets = tuple(int(x) for x in ip.split("."))
        if self.ptr_zone_dead(octets[:3]):
            return "dead"
        threshold = self.params.p_ptr_exists / (1 - self.params.p_rdns_dead)
        if rand.uniform(seed, ip, "ptr") < threshold:
            return "noerror"
        return "nxdomain"

    def ptr_target(self, ip: str) -> Name:
        value = rand.h64(self.params.seed, ip, "ptrname")
        return Name.from_text(f"host-{value % 100_000}.isp{value % self.params.rdns_operators}.example")

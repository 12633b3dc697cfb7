"""A deliberately naive reference resolver: the differential oracle.

The production :class:`repro.core.IterativeMachine` is festooned with
performance machinery — selective caching, memoised wire codecs,
sliced-ancestor delegation walks, retry budgets, health tracking.  This
module is its ground truth: a few hundred lines of obviously-correct
recursive descent over *its own private copy* of the simulated Internet
(zone content is a pure function of the ecosystem seed, so an
independently built universe carries identical data).  No cache, no
memos, no fast-path codec (``wire_mode="never"``), no retries.

Two deliberate deviations make the oracle *semantic* rather than a
packet-level twin:

* **No randomness.**  Every provider nameserver's probabilistic-drop
  RNG is replaced with a stub whose draws never fire, so flaky servers
  answer deterministically.  The oracle reports what a name *means*;
  whether the production resolver's packets survived the lossy fabric
  is a separate (and legitimate) failure mode the harness classifies as
  inconclusive rather than divergent.
* **TCP only.**  Responses are taken over the TCP path, which never
  truncates, so the oracle always sees complete answers.

Because some domains intentionally serve *different* A records from
each of their nameservers (the paper's nameserver-consistency case
study), a resolution's result is a *set of acceptable answer sets* —
one per responding nameserver — and the production answer must match
one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.status import SEMANTIC_STATUSES
from ..dnslib import Message, Name, RRType
from ..dnslib.types import Rcode
from ..ecosystem import EcosystemParams, build_internet

_CLIENT_IP = "192.0.2.200"

_NS = int(RRType.NS)
_A = int(RRType.A)
_CNAME = int(RRType.CNAME)
_ANY = int(RRType.ANY)


class _NeverFires:
    """Replaces a provider server's RNG: ``random()`` returns 1.0, which
    loses every ``rng.random() < p`` drop draw (all drop probabilities
    are < 1), so the oracle's universe answers deterministically."""

    def random(self) -> float:
        return 1.0


@dataclass(frozen=True)
class OracleResult:
    """What a name means, according to the reference resolver."""

    name: str
    qtype: int
    #: "NOERROR"/"NXDOMAIN" (semantic), or a failure class:
    #: "UNREACHABLE", "LAME", "SERVER_FAILURE", "CHAIN_TOO_LONG",
    #: "ITER_LIMIT".
    status: str
    #: End of the CNAME chain (canonical key + presentation text).
    final_key: str
    final_name: str
    #: Owner names walked, in order (length 1 when no CNAME).
    chain: tuple[str, ...]
    #: Acceptable terminal rdata sets: one sorted tuple per responding
    #: nameserver (deduplicated).  A NODATA answer is the empty tuple.
    acceptable: tuple[tuple[str, ...], ...] = field(default_factory=tuple)
    #: Expected DNSSEC validation outcome (dnssec oracles only), derived
    #: *white-box* from the reference universe's zone profiles rather
    #: than by running a second validator.  None = not computed / the
    #: name is outside the signed-universe scope (infra, reverse zones).
    security: str | None = None

    @property
    def is_semantic(self) -> bool:
        return self.status in SEMANTIC_STATUSES

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "qtype": self.qtype,
            "status": self.status,
            "final_name": self.final_name,
            "chain": list(self.chain),
            "acceptable": [list(s) for s in self.acceptable],
        }
        if self.security is not None:
            out["security"] = self.security
        return out


@dataclass(frozen=True)
class _OwnerOutcome:
    """One owner name resolved to its authoritative data."""

    status: str
    records: tuple = ()  # canonical server's matching records
    variants: tuple = ()  # every responding server's matching records


class ReferenceResolver:
    """Naive recursive descent over a private simulated Internet.

    Every lookup starts at the roots and follows referrals downward; no
    state survives between lookups, so two calls with the same inputs
    are trivially identical.
    """

    def __init__(
        self,
        seed: int = 2022,
        max_referrals: int = 30,
        max_cname_chase: int = 10,
        max_glueless_depth: int = 6,
        dnssec: bool = False,
    ):
        self.seed = seed
        self.max_referrals = max_referrals
        self.max_cname_chase = max_cname_chase
        self.max_glueless_depth = max_glueless_depth
        #: When on, semantic results carry the *expected* validation
        #: outcome read straight off the zone profiles (white-box: the
        #: oracle must not share the production validator's bugs).
        self.dnssec = dnssec
        #: A private universe: content is a pure function of the seed,
        #: so this carries the same zones as the scan's universe while
        #: sharing no objects (querying the scan's servers would advance
        #: their RNG streams and break byte-identical replays).
        self.internet = build_internet(
            params=EcosystemParams(seed=seed), wire_mode="never"
        )
        for server in self.internet.provider_servers:
            server.rng = _NeverFires()
        self._network = self.internet.network
        self._root_ips = list(self.internet.root_ips)
        self._tld_names = {t for t, _ in self.internet.synth.tlds()}

    # -- white-box DNSSEC expectation --------------------------------------

    def expected_security(self, name: Name) -> str | None:
        """The validation outcome a correct validator must reach for a
        semantic answer at ``name``, read off the zone profiles.

        This is deliberately *not* a second validator: it mirrors the
        universe's ground truth (which zones are signed, which anomalies
        were planted) so a validator bug cannot hide by being shared.
        None means the name is outside the signed universe's scope
        (infra/reverse namespaces) and no expectation is asserted.
        """
        synth = self.internet.synth
        labels = name.labels
        if not labels:
            return "secure"  # the root is always signed and clean
        tld = labels[-1].decode("ascii", "replace").lower()
        if tld in ("arpa", "example"):
            return None  # infra namespaces: never signed, not studied
        if tld not in self._tld_names:
            # Unknown TLD: the NXDOMAIN comes from the signed root, so
            # the denial is authenticated.
            return "secure"
        if not synth.dnssec_profile(Name.intern(labels[-1:])).signed:
            # Everything at or below an unsigned TLD cut — answers and
            # denials alike — is provably insecure, never bogus.
            return "insecure"
        if len(labels) == 1:
            return "secure"  # the signed TLD apex itself
        base = Name.intern(labels[-2:])
        if not synth.profile(base).exists:
            # Nonexistent base under a signed TLD: authenticated denial.
            return "secure"
        dp = synth.dnssec_profile(base)
        if not dp.signed or dp.island:
            return "insecure"
        if dp.broken_ds or dp.expired:
            return "bogus"
        return "secure"

    # -- wire-less querying ------------------------------------------------

    def _ask(self, server_ip: str, name: Name, qtype: int) -> Message | None:
        """One question to one server, over the (never-truncating) TCP
        path, outside the simulator: no latency, no loss, no codec."""
        server = self._network.server_for(server_ip)
        if server is None:
            return None  # dark/unregistered address
        query = Message.make_query(name, RRType(qtype), txid=0, recursion_desired=False)
        reply = server.handle_query(query, _CLIENT_IP, 0.0, "tcp")
        return reply.message if reply is not None else None

    # -- recursive descent -------------------------------------------------

    def resolve(self, name: Name | str, qtype: RRType | int = RRType.A) -> OracleResult:
        """Resolve ``name`` from the roots, chasing CNAMEs."""
        if isinstance(name, str):
            name = Name.from_text(name)
        qt = int(qtype)
        chain = [name]
        current = name

        def done(status: str, acceptable: tuple = ()) -> OracleResult:
            security = None
            if self.dnssec and status in SEMANTIC_STATUSES:
                security = self.expected_security(current)
            return OracleResult(
                name=name.to_text(omit_final_dot=True),
                qtype=qt,
                status=status,
                final_key=current.canonical_key(),
                final_name=current.to_text(omit_final_dot=True),
                chain=tuple(n.to_text(omit_final_dot=True) for n in chain),
                acceptable=acceptable,
                security=security,
            )

        for _hop in range(self.max_cname_chase + 1):
            outcome = self._resolve_owner(current, qt, depth=0)
            if outcome.status != "NOERROR":
                return done(outcome.status)
            target = _chase_target(outcome.records, qt)
            if target is None:
                return done("NOERROR", _acceptable_sets(outcome.variants, current, qt))
            chain.append(target)
            current = target
        return done("CHAIN_TOO_LONG")

    def _resolve_owner(self, name: Name, qt: int, depth: int) -> _OwnerOutcome:
        """Walk root → leaf for one owner name.  Returns the matching
        records (qtype or CNAME, owned by ``name``) per server."""
        if depth > self.max_glueless_depth:
            return _OwnerOutcome("UNREACHABLE")
        zone = Name.root()
        servers = list(self._root_ips)
        for _layer in range(self.max_referrals):
            good, bad = self._consult(servers, name, qt)
            if not good:
                return _OwnerOutcome("LAME" if bad else "UNREACHABLE")
            response = good[0]
            rcode = int(response.rcode)
            if rcode == int(Rcode.NXDOMAIN):
                return _OwnerOutcome("NXDOMAIN")
            matched = _matching_records(response, name, qt)
            if matched:
                variants = tuple(
                    tuple(_matching_records(r, name, qt)) for r in good
                )
                return _OwnerOutcome("NOERROR", tuple(matched), variants)
            if response.answers:
                # answers for someone else: no data for us
                return _OwnerOutcome("NOERROR", (), ((),))

            referral = _referral_zone(response)
            if referral is not None and not response.flags.authoritative:
                if (
                    not referral.is_subdomain_of(zone)
                    or referral == zone
                    or not name.is_subdomain_of(referral)
                ):
                    return _OwnerOutcome("LAME")  # upward/sideways referral
                next_servers = self._delegation_addresses(response, referral, depth)
                if not next_servers:
                    return _OwnerOutcome("UNREACHABLE")
                zone = referral
                servers = next_servers
                continue

            # authoritative NOERROR with no answers: NODATA
            return _OwnerOutcome("NOERROR", (), ((),))
        return _OwnerOutcome("ITER_LIMIT")

    def _consult(self, servers: list[str], name: Name, qt: int):
        """Ask *every* server of the zone.  Responses split into
        semantic (NOERROR/NXDOMAIN — content) and failures (REFUSED
        from lame hosts, SERVFAIL): a single healthy nameserver is
        enough to resolve, exactly as a patient stub would find."""
        good, bad = [], []
        for ip in servers:
            response = self._ask(ip, name, qt)
            if response is None:
                continue
            rcode = int(response.rcode)
            if rcode in (int(Rcode.NOERROR), int(Rcode.NXDOMAIN)):
                good.append(response)
            else:
                bad.append(response)
        return good, bad

    def _delegation_addresses(self, response: Message, referral: Name, depth: int) -> list[str]:
        """Glue addresses of a referral, resolving gluelessly if the
        referral came bare."""
        ns_names = [
            record.rdata.target
            for record in response.authorities
            if int(record.rrtype) == _NS and record.name == referral
        ]
        glue = [
            record.rdata.address
            for record in response.additionals
            if int(record.rrtype) == _A and record.name in ns_names
        ]
        if glue:
            return glue
        addresses: list[str] = []
        for ns_name in ns_names:
            outcome = self._resolve_owner(ns_name, _A, depth + 1)
            if outcome.status != "NOERROR":
                continue
            addresses.extend(
                record.rdata.address
                for record in outcome.records
                if int(record.rrtype) == _A
            )
            if addresses:
                break
        return addresses


# -- pure helpers ----------------------------------------------------------


def _matching_records(response: Message, name: Name, qt: int) -> list:
    """Answer records owned by ``name`` of the queried (or CNAME) type —
    the classic "what is an answer to this question" rule."""
    out = []
    for record in response.answers:
        if record.name != name:
            continue
        rt = int(record.rrtype)
        if rt == qt or qt == _ANY or rt == _CNAME:
            out.append(record)
    return out


def _referral_zone(response: Message) -> Name | None:
    for record in response.authorities:
        if int(record.rrtype) == _NS:
            return record.name
    return None


def _chase_target(records, qt: int) -> Name | None:
    """The CNAME target to follow — only when the owner has no record
    of the final type (mirrors RFC 1034 §4.3.2 step 3a)."""
    if qt in (_CNAME, _ANY):
        return None
    for record in records:
        if int(record.rrtype) == qt:
            return None
    for record in records:
        if int(record.rrtype) == _CNAME:
            return record.rdata.target
    return None


def _acceptable_sets(variants, owner: Name, qt: int) -> tuple[tuple[str, ...], ...]:
    """Deduplicated per-nameserver terminal rdata sets at ``owner``."""
    seen = []
    for records in variants:
        rdatas = tuple(
            sorted(
                record.rdata.to_text()
                for record in records
                if record.name == owner and (int(record.rrtype) == qt or qt == _ANY)
            )
        )
        if rdatas not in seen:
            seen.append(rdatas)
    return tuple(seen) if seen else ((),)

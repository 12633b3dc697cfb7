"""Simulated authoritative DNS servers: root, TLD, provider, reverse-DNS
and infrastructure servers, all answering from procedural zone data.

No server keeps a response: every reply is built from the synthesiser
for the query in hand, in section lists of its own (a client that
sanitises one reply cannot edit the next), so a zone delta is served
from the next query on with nothing to flush.  Scan names do not
repeat: a per-question memo hit 0.4-5 % of its probes on the ledger's
workloads and retained every response built (EXPERIMENTS.md "Ledger
entry 5").
"""

from __future__ import annotations

import random

from ..dnslib import Message, Name, Rcode, RRType
from ..dnslib.rdata import rdata_class
from ..dnslib.rdata.address import A
from ..dnslib.rdata.names import NS, PTR
from ..net import ServerReply
from .content import (
    ANSWER_TTL,
    REFERRAL_TTL,
    apex_answer,
    build_answer,
    ds_answer,
    nodata,
    nxdomain,
    referral_proof,
    rr,
    signed_nxdomain,
    soa_for,
)
from .zonegen import ZoneSynthesizer

_IN_ADDR = Name.from_text("in-addr.arpa")
_ARPA = Name.from_text("arpa")
_EXAMPLE = Name.from_text("example")
_VERSION_BIND = Name.from_text("version.bind")


def _query_do(query: Message) -> bool:
    """The query's EDNS DO bit (False when there is no OPT record)."""
    for record in query.additionals:
        if int(record.rrtype) == int(RRType.OPT):
            return bool(record.ttl & 0x8000)
    return False


class _ZoneServer:
    """The servers whose reply depends on nothing but the query: refuse
    a question-less query, read the DO bit, build the reply."""

    def handle_query(self, query, client_ip, now, protocol):
        if query.question is None:
            return ServerReply(_refused(query))
        return ServerReply(self._respond(query, _query_do(query)))


def _referral(
    query: Message, zone: Name, ns_pairs: list[tuple[Name, str | None]], proof=()
) -> Message:
    """A delegation response: NS in authority (then ``proof``, the
    signed parent's DS / no-DS records for a DO query), glue in
    additional."""
    response = query.make_response()
    for ns_name, _ in ns_pairs:
        response.authorities.append(rr(zone, RRType.NS, REFERRAL_TTL, NS(ns_name)))
    response.authorities.extend(proof)
    for ns_name, glue_ip in ns_pairs:
        if glue_ip is not None:
            response.additionals.append(rr(ns_name, RRType.A, REFERRAL_TTL, A(glue_ip)))
    return response


def _refused(query: Message) -> Message:
    return query.make_response(rcode=Rcode.REFUSED)


class RootServer(_ZoneServer):
    """One of the 13 root servers: delegates TLDs."""

    def __init__(self, synth: ZoneSynthesizer):
        self.synth = synth
        self._tlds = {tld for tld, _ in synth.tlds()}
        # delegation NS/glue sets are static for the life of the zone
        self._arpa_pairs = [
            (Name.from_text(f"ns{k + 1}.rdns-root.example"), ip)
            for k, ip in enumerate(synth.arpa_server_ips())
        ]
        self._infra_pairs = [
            (Name.from_text(f"ns{k + 1}.infra.example"), ip)
            for k, ip in enumerate(synth.infra_server_ips())
        ]
        self._tld_pairs = {
            tld: [(synth.tld_ns_name(tld, k), synth.tld_ns_ip(tld, k)) for k in range(2)]
            for tld in self._tlds
        }

    def _respond(self, query: Message, do: bool) -> Message:
        name = query.question.name
        if name.is_root:
            signed = apex_answer(self.synth, query, Name.root(), do)
            if signed is not None:
                return signed
            return nodata(query, Name.root())
        tld = name.labels[-1].decode("ascii", "replace").lower()
        if tld == "arpa":
            zone = _IN_ADDR if name.is_subdomain_of(_IN_ADDR) else _ARPA
            return _referral(query, zone, self._arpa_pairs)
        if tld == "example":
            return _referral(query, _EXAMPLE, self._infra_pairs)
        pairs = self._tld_pairs.get(tld)
        if pairs is not None:
            zone = Name.intern(name.labels[-1:])
            if do and len(name.labels) == 1 and int(query.question.rrtype) == int(RRType.DS):
                # DS lives at the parent: the root answers it, not the TLD
                return ds_answer(self.synth, query, Name.root(), zone)
            proof = referral_proof(self.synth, Name.root(), zone) if do else ()
            return _referral(query, zone, pairs, proof)
        return signed_nxdomain(self.synth, query, Name.root(), do)


class TLDServer(_ZoneServer):
    """Registry server for one TLD: delegates registered base domains."""

    #: Dark address space for dead delegations: routed nowhere.
    DARK_BASE = "203.0.113."

    def __init__(self, synth: ZoneSynthesizer, tld: str):
        self.synth = synth
        self.tld = tld
        self.zone = Name.from_text(tld)

    def _respond(self, query: Message, do: bool) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(self.zone):
            return _refused(query)
        if question.name == self.zone:
            signed = apex_answer(self.synth, query, self.zone, do)
            if signed is not None:
                return signed
            return nodata(query, self.zone)
        base = self.synth.base_domain_of(question.name)
        if base is None:
            return signed_nxdomain(self.synth, query, self.zone, do)
        profile = self.synth.profile(base)
        if not profile.exists and not profile.dead:
            return signed_nxdomain(self.synth, query, self.zone, do)
        if profile.dead:
            # registered, but its nameservers are unreachable
            pairs = [
                (Name.from_text(f"ns{k + 1}.dead-host.example"), f"{self.DARK_BASE}{k + 1}")
                for k in range(2)
            ]
        elif do and question.name == base and int(question.rrtype) == int(RRType.DS):
            # parent-side DS for a delegated child, answered here
            return ds_answer(self.synth, query, self.zone, base)
        else:
            pairs = [(ns.name, ns.ip) for ns in profile.nameservers]
        proof = referral_proof(self.synth, self.zone, base) if do else ()
        return _referral(query, base, pairs, proof)


class InfraServer(_ZoneServer):
    """Authoritative for the synthetic ``example`` TLD: nameserver host
    records and reverse-pointer targets live here."""

    def __init__(self, synth: ZoneSynthesizer):
        self.synth = synth

    def _respond(self, query: Message, do: bool) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(_EXAMPLE):
            return _refused(query)
        name = question.name
        ip = self.synth.infra_a_record(name)
        wants_a = int(question.rrtype) in (int(RRType.A), int(RRType.ANY))
        if ip is not None:
            response = query.make_response(authoritative=True)
            if wants_a:
                response.answers.append(rr(name, RRType.A, ANSWER_TTL, A(ip)))
            else:
                response.authorities.append(soa_for(_EXAMPLE))
            return response
        text = name.key_text()
        if text.startswith("host-") or ".isp" in text:
            # PTR targets resolve deterministically
            response = query.make_response(authoritative=True)
            if wants_a:
                address = self.synth.host_addresses(name)[0]
                response.answers.append(rr(name, RRType.A, ANSWER_TTL, A(address)))
            else:
                response.authorities.append(soa_for(_EXAMPLE))
            return response
        return nxdomain(query, _EXAMPLE)


class ProviderAuthServer:
    """One nameserver host of one hosting provider.

    Implements the paper's observed misbehaviours: probabilistic
    blocking (Section 5), lame delegations, inconsistent answers across
    a domain's nameservers, and oversized/truncated responses.
    """

    def __init__(self, synth: ZoneSynthesizer, provider_index: int, pool_slot: int, seed: int = 0):
        self.synth = synth
        self.provider_index = provider_index
        self.pool_slot = pool_slot
        self.ip = synth.provider_ns_ip(provider_index, pool_slot)
        self.rng = random.Random(seed ^ (provider_index << 8) ^ pool_slot)
        self.refused = 0
        self.dropped = 0

    #: Software versions by provider (exposed via version.bind, the
    #: paper's bind.version misc module).
    VERSIONS = ["9.16.1-Ubuntu", "9.11.4-P2-RedHat", "PowerDNS 4.5.3", "NSD 4.3.9", "Knot 3.1.5"]

    def handle_query(self, query, client_ip, now, protocol):
        question = query.question
        if question is None:
            return ServerReply(_refused(query))
        if int(question.rrclass) == 3 and question.name == _VERSION_BIND:
            # CHAOS-class version query
            response = query.make_response(authoritative=True)
            version = self.VERSIONS[self.provider_index % len(self.VERSIONS)]
            TXT = rdata_class(RRType.TXT)
            record = rr(question.name, RRType.TXT, 0, TXT.from_string(version))
            response.answers.append(record)
            return ServerReply(response)
        base = self.synth.base_domain_of(question.name)
        if base is None:
            self.refused += 1
            return ServerReply(_refused(query))
        profile = self.synth.profile(base)
        me = next((ns for ns in profile.nameservers if ns.ip == self.ip), None)
        if me is None or not profile.exists:
            self.refused += 1
            return ServerReply(_refused(query))
        if me.lame:
            # lame delegation: listed as authoritative, but isn't
            self.refused += 1
            return ServerReply(_refused(query))
        if me.drop_prob and self.rng.random() < me.drop_prob:
            # probabilistic blocking: silently ignore this query
            self.dropped += 1
            return None
        do = _query_do(query)
        return ServerReply(build_answer(self.synth, query, profile, ns=me, protocol=protocol, do=do))


class ArpaServer(_ZoneServer):
    """Authoritative for arpa/in-addr.arpa: delegates /8 zones."""

    def __init__(self, synth: ZoneSynthesizer):
        self.synth = synth

    def _respond(self, query: Message, do: bool) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(_ARPA):
            return _refused(query)
        name = question.name
        if not name.is_subdomain_of(_IN_ADDR):
            return nxdomain(query, _ARPA)
        rev = name.relativize(_IN_ADDR)
        if not rev:
            return nodata(query, _IN_ADDR)
        octet = _octet(rev[-1])
        if octet is None:
            return nxdomain(query, _IN_ADDR)
        zone = Name((rev[-1],)).concatenate(_IN_ADDR)
        operator = self.synth.rdns_operator((octet,))
        pairs = [
            (self.synth.rdns_ns_name(operator, k), self.synth.rdns_ns_ip(operator, k))
            for k in range(2)
        ]
        return _referral(query, zone, pairs)


class RdnsOperatorServer(_ZoneServer):
    """One reverse-DNS operator host, authoritative for every /8, /16
    and /24 reverse zone that hashes to its operator id."""

    def __init__(self, synth: ZoneSynthesizer, operator: int, pool_slot: int):
        self.synth = synth
        self.operator = operator
        self.pool_slot = pool_slot

    def _respond(self, query: Message, do: bool) -> Message:
        question = query.question
        if not question.name.is_subdomain_of(_IN_ADDR):
            return _refused(query)
        rev = question.name.relativize(_IN_ADDR)
        octets = []
        for label in reversed(rev):
            value = _octet(label)
            if value is None:
                return _refused(query)
            octets.append(value)
        prefix = tuple(octets)
        synth = self.synth

        if (
            len(prefix) >= 3
            and not synth.ptr_zone_dead(prefix[:3])
            and synth.rdns_operator(prefix[:3]) == self.operator
        ):
            return self._answer_leaf(query, prefix)
        if len(prefix) >= 2 and synth.rdns_operator(prefix[:2]) == self.operator:
            return self._refer(query, prefix[:3])
        if synth.rdns_operator(prefix[:1]) == self.operator:
            return self._refer(query, prefix[:2])
        return _refused(query)

    def _refer(self, query: Message, child: tuple[int, ...]) -> Message:
        synth = self.synth
        zone = _rev_zone(child)
        if len(child) == 3 and synth.ptr_zone_dead(child):
            pairs = [
                (Name.from_text(f"ns{k + 1}.dead-rdns.example"), f"203.0.113.{100 + k}")
                for k in range(2)
            ]
            return _referral(query, zone, pairs)
        operator = synth.rdns_operator(child)
        pairs = [
            (synth.rdns_ns_name(operator, k), synth.rdns_ns_ip(operator, k)) for k in range(2)
        ]
        return _referral(query, zone, pairs)

    def _answer_leaf(self, query: Message, octets: tuple[int, ...]) -> Message:
        zone = _rev_zone(octets[:3])
        if len(octets) != 4:
            return nodata(query, zone)
        ip = ".".join(str(o) for o in octets)
        if self.synth.ptr_status(ip) != "noerror":
            return nxdomain(query, zone)
        if int(query.question.rrtype) not in (int(RRType.PTR), int(RRType.ANY)):
            return nodata(query, zone)
        response = query.make_response(authoritative=True)
        response.answers.append(
            rr(query.question.name, RRType.PTR, ANSWER_TTL, PTR(self.synth.ptr_target(ip)))
        )
        return response


def _rev_zone(octets: tuple[int, ...]) -> Name:
    labels = tuple(str(o).encode() for o in reversed(octets))
    return Name(labels).concatenate(_IN_ADDR)


def _octet(label: bytes) -> int | None:
    try:
        value = int(label)
    except ValueError:
        return None
    return value if 0 <= value <= 255 else None

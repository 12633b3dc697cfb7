"""Simulated authoritative DNS servers: root, TLD, provider, reverse-DNS
and infrastructure servers, all answering from procedural zone data."""

from __future__ import annotations

import random
from collections import OrderedDict

from ..dnslib import Message, Name, Rcode, RRType
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


class ResponseMemo:
    """Bounded memo of fully built responses, keyed by the question.

    Zone content is a pure function of the question (plus, for provider
    servers, the transport protocol), so identical queries rebuild
    byte-identical responses — dense workloads like the PTR sweeps
    revisit the same owner names hundreds of times.  A hit hands back a
    *clone* sharing the immutable records and the encoded wire template
    (so re-encoding patches two transaction-id bytes), while the clone's
    section lists stay private in case a client sanitises them.

    Probabilistic behaviour must stay outside the memo: the provider
    servers draw their drop-probability sample *before* consulting it,
    keeping the RNG consumption sequence — and thus the simulated
    universe — identical for a given seed.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, Message] = OrderedDict()

    @staticmethod
    def key(query: Message, extra=None) -> tuple:
        question = query.question
        return (
            question.name.labels,  # spelling-preserving: responses echo case
            int(question.rrtype),
            int(question.rrclass),
            query.flags.to_int(),
            extra,
        )

    def get(self, key: tuple, query: Message) -> Message | None:
        stored = self._entries.get(key)
        if stored is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return Message(
            id=query.id,
            flags=stored.flags,
            questions=list(stored.questions),
            answers=list(stored.answers),
            authorities=list(stored.authorities),
            additionals=list(stored.additionals),
        )

    def put(self, key: tuple, message: Message) -> None:
        entries = self._entries
        entries[key] = message
        if len(entries) > self.capacity:
            entries.popitem(last=False)


def _query_do(query: Message) -> bool:
    """The query's EDNS DO bit (False when there is no OPT record)."""
    for record in query.additionals:
        if int(record.rrtype) == int(RRType.OPT):
            return bool(record.ttl & 0x8000)
    return False


class _MemoisedServer:
    """Mixin: cache ``_respond`` results per question.

    Only for handlers whose responses depend on nothing but the query
    (and never return ``None``/a delayed reply)."""

    def _init_memo(self, capacity: int = 8192) -> None:
        self.memo = ResponseMemo(capacity)

    def handle_query(self, query, client_ip, now, protocol):
        question = query.question
        if question is None:
            return ServerReply(_refused(query))
        memo = self.memo
        # DO folds into the memo key only when set, so queries without
        # it keep their pre-DNSSEC key shape (and response bytes).
        do = _query_do(query)
        key = ResponseMemo.key(query, extra=True if do else None)
        cached = memo.get(key, query)
        if cached is not None:
            return ServerReply(cached)
        reply = self._respond(query, client_ip, now, protocol, do)
        if reply is not None and reply.delay == 0.0:
            memo.put(key, reply.message)
        return reply


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


class RootServer(_MemoisedServer):
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
        self._init_memo()

    def _respond(self, query, client_ip, now, protocol, do=False):
        name = query.question.name
        if name.is_root:
            signed = apex_answer(self.synth, query, Name.root(), do)
            if signed is not None:
                return ServerReply(signed)
            return ServerReply(nodata(query, Name.root()))
        tld = name.labels[-1].decode("ascii", "replace").lower()
        if tld == "arpa":
            zone = _IN_ADDR if name.is_subdomain_of(_IN_ADDR) else _ARPA
            return ServerReply(_referral(query, zone, self._arpa_pairs))
        if tld == "example":
            return ServerReply(_referral(query, _EXAMPLE, self._infra_pairs))
        pairs = self._tld_pairs.get(tld)
        if pairs is not None:
            zone = Name((name.labels[-1],))
            if do and len(name.labels) == 1 and int(query.question.rrtype) == int(RRType.DS):
                # DS lives at the parent: the root answers it, not the TLD
                return ServerReply(ds_answer(self.synth, query, Name.root(), zone))
            proof = referral_proof(self.synth, Name.root(), zone) if do else ()
            return ServerReply(_referral(query, zone, pairs, proof))
        return ServerReply(signed_nxdomain(self.synth, query, Name.root(), do))


class TLDServer(_MemoisedServer):
    """Registry server for one TLD: delegates registered base domains."""

    #: Dark address space for dead delegations: routed nowhere.
    DARK_BASE = "203.0.113."

    def __init__(self, synth: ZoneSynthesizer, tld: str):
        self.synth = synth
        self.tld = tld
        self.zone = Name.from_text(tld)
        self._init_memo()

    def _respond(self, query, client_ip, now, protocol, do=False):
        question = query.question
        if not question.name.is_subdomain_of(self.zone):
            return ServerReply(_refused(query))
        if question.name == self.zone:
            signed = apex_answer(self.synth, query, self.zone, do)
            if signed is not None:
                return ServerReply(signed)
            return ServerReply(nodata(query, self.zone))
        base = self.synth.base_domain_of(question.name)
        if base is None:
            return ServerReply(signed_nxdomain(self.synth, query, self.zone, do))
        profile = self.synth.profile(base)
        if not profile.exists and not profile.dead:
            return ServerReply(signed_nxdomain(self.synth, query, self.zone, do))
        if profile.dead:
            # registered, but its nameservers are unreachable
            pairs = [
                (Name.from_text(f"ns{k + 1}.dead-host.example"), f"{self.DARK_BASE}{k + 1}")
                for k in range(2)
            ]
        elif do and question.name == base and int(question.rrtype) == int(RRType.DS):
            # parent-side DS for a delegated child, answered here
            return ServerReply(ds_answer(self.synth, query, self.zone, base))
        else:
            pairs = [(ns.name, ns.ip) for ns in profile.nameservers]
        proof = referral_proof(self.synth, self.zone, base) if do else ()
        return ServerReply(_referral(query, base, pairs, proof))


class InfraServer(_MemoisedServer):
    """Authoritative for the synthetic ``example`` TLD: nameserver host
    records and reverse-pointer targets live here."""

    def __init__(self, synth: ZoneSynthesizer):
        self.synth = synth
        self._init_memo()

    def _respond(self, query, client_ip, now, protocol, do=False):
        question = query.question
        if not question.name.is_subdomain_of(_EXAMPLE):
            return ServerReply(_refused(query))
        name = question.name
        ip = self.synth.infra_a_record(name)
        wants_a = int(question.rrtype) in (int(RRType.A), int(RRType.ANY))
        if ip is not None:
            response = query.make_response(authoritative=True)
            if wants_a:
                response.answers.append(rr(name, RRType.A, ANSWER_TTL, A(ip)))
            else:
                response.authorities.append(soa_for(_EXAMPLE))
            return ServerReply(response)
        text = name.key_text()
        if text.startswith("host-") or ".isp" in text:
            # PTR targets resolve deterministically
            response = query.make_response(authoritative=True)
            if wants_a:
                address = self.synth.host_addresses(name)[0]
                response.answers.append(rr(name, RRType.A, ANSWER_TTL, A(address)))
            else:
                response.authorities.append(soa_for(_EXAMPLE))
            return ServerReply(response)
        return ServerReply(nxdomain(query, _EXAMPLE))


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
        self.memo = ResponseMemo()

    #: Software versions by provider (exposed via version.bind, the
    #: paper's bind.version misc module).
    VERSIONS = ["9.16.1-Ubuntu", "9.11.4-P2-RedHat", "PowerDNS 4.5.3", "NSD 4.3.9", "Knot 3.1.5"]

    def handle_query(self, query, client_ip, now, protocol):
        question = query.question
        if question is None:
            return ServerReply(_refused(query))
        if int(question.rrclass) == 3 and question.name == _VERSION_BIND:
            # CHAOS-class version query
            from ..dnslib.rdata.text import TXT

            response = query.make_response(authoritative=True)
            version = self.VERSIONS[self.provider_index % len(self.VERSIONS)]
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
        # Memoised *after* the drop draw so the RNG sequence (and hence
        # the simulated universe) is untouched; answers can differ per
        # protocol (UDP truncation), so the key carries it.  DO widens
        # the key only when set: DO-less keys keep their pre-DNSSEC
        # shape, so those cached responses stay byte-identical.
        do = _query_do(query)
        key = ResponseMemo.key(query, extra=(protocol, True) if do else protocol)
        cached = self.memo.get(key, query)
        if cached is not None:
            return ServerReply(cached)
        response = build_answer(self.synth, query, profile, ns=me, protocol=protocol, do=do)
        self.memo.put(key, response)
        return ServerReply(response)


class ArpaServer(_MemoisedServer):
    """Authoritative for arpa/in-addr.arpa: delegates /8 zones."""

    def __init__(self, synth: ZoneSynthesizer):
        self.synth = synth
        self._init_memo()

    def _respond(self, query, client_ip, now, protocol, do=False):
        question = query.question
        if not question.name.is_subdomain_of(_ARPA):
            return ServerReply(_refused(query))
        name = question.name
        if not name.is_subdomain_of(_IN_ADDR):
            return ServerReply(nxdomain(query, _ARPA))
        rev = name.relativize(_IN_ADDR)
        if not rev:
            return ServerReply(nodata(query, _IN_ADDR))
        octet = _octet(rev[-1])
        if octet is None:
            return ServerReply(nxdomain(query, _IN_ADDR))
        zone = Name((rev[-1],)).concatenate(_IN_ADDR)
        operator = self.synth.rdns_operator((octet,))
        pairs = [
            (self.synth.rdns_ns_name(operator, k), self.synth.rdns_ns_ip(operator, k))
            for k in range(2)
        ]
        return ServerReply(_referral(query, zone, pairs))


class RdnsOperatorServer(_MemoisedServer):
    """One reverse-DNS operator host, authoritative for every /8, /16
    and /24 reverse zone that hashes to its operator id."""

    def __init__(self, synth: ZoneSynthesizer, operator: int, pool_slot: int):
        self.synth = synth
        self.operator = operator
        self.pool_slot = pool_slot
        self._init_memo()

    def _respond(self, query, client_ip, now, protocol, do=False):
        question = query.question
        if not question.name.is_subdomain_of(_IN_ADDR):
            return ServerReply(_refused(query))
        rev = question.name.relativize(_IN_ADDR)
        octets = []
        for label in reversed(rev):
            value = _octet(label)
            if value is None:
                return ServerReply(_refused(query))
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
        return ServerReply(_refused(query))

    def _refer(self, query: Message, child: tuple[int, ...]) -> ServerReply:
        synth = self.synth
        zone = _rev_zone(child)
        if len(child) == 3 and synth.ptr_zone_dead(child):
            pairs = [
                (Name.from_text(f"ns{k + 1}.dead-rdns.example"), f"203.0.113.{100 + k}")
                for k in range(2)
            ]
            return ServerReply(_referral(query, zone, pairs))
        operator = synth.rdns_operator(child)
        pairs = [
            (synth.rdns_ns_name(operator, k), synth.rdns_ns_ip(operator, k)) for k in range(2)
        ]
        return ServerReply(_referral(query, zone, pairs))

    def _answer_leaf(self, query: Message, octets: tuple[int, ...]) -> ServerReply:
        zone = _rev_zone(octets[:3])
        if len(octets) != 4:
            return ServerReply(nodata(query, zone))
        ip = ".".join(str(o) for o in octets)
        if self.synth.ptr_status(ip) != "noerror":
            return ServerReply(nxdomain(query, zone))
        if int(query.question.rrtype) not in (int(RRType.PTR), int(RRType.ANY)):
            return ServerReply(nodata(query, zone))
        response = query.make_response(authoritative=True)
        response.answers.append(
            rr(query.question.name, RRType.PTR, ANSWER_TTL, PTR(self.synth.ptr_target(ip)))
        )
        return ServerReply(response)


def _rev_zone(octets: tuple[int, ...]) -> Name:
    labels = tuple(str(o).encode() for o in reversed(octets))
    return Name(labels).concatenate(_IN_ADDR)


def _octet(label: bytes) -> int | None:
    try:
        value = int(label)
    except ValueError:
        return None
    return value if 0 <= value <= 255 else None

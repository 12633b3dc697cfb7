"""Authoritative record synthesis shared by the provider authoritative
servers and the public recursive resolver models."""

from __future__ import annotations

from functools import lru_cache

from ..dnslib import DNSClass, Flags, Message, Name, Rcode, ResourceRecord, RRType
from ..dnslib.rdata import rdata_class
from ..dnslib.rdata.address import A, AAAA
from ..dnslib.rdata.names import CNAME, NS, SOA
from . import rand
from .zonegen import DnssecProfile, DomainProfile, NameserverInfo, ZoneSynthesizer

REFERRAL_TTL = 172_800
ANSWER_TTL = 300
SOA_TTL = 900

_MAIL_LABELS = [Name.from_text(f"mail{i}") for i in (1, 2, 3)]
_CAA_LABEL = Name.from_text("_caa")


def rr(name: Name, rrtype: RRType, ttl: int, rdata) -> ResourceRecord:
    return ResourceRecord(name, rrtype, DNSClass.IN, ttl, rdata)


@lru_cache(maxsize=8192)
def soa_for(zone: Name) -> ResourceRecord:
    """The SOA at ``zone``'s apex.  ``zone`` must be spelled canonically
    (lower case): the cache key ignores case, so any other spelling
    would become the owner every later caller gets."""
    return rr(
        zone,
        RRType.SOA,
        SOA_TTL,
        SOA(
            mname=Name.from_text("ns1").concatenate(zone),
            rname=Name.from_text("hostmaster").concatenate(zone),
            serial=2022_10_25,
        ),
    )


def nxdomain(query: Message, zone: Name) -> Message:
    response = query.make_response(rcode=Rcode.NXDOMAIN, authoritative=True)
    response.authorities.append(soa_for(zone))
    return response


def nodata(query: Message, zone: Name) -> Message:
    response = query.make_response(authoritative=True)
    response.authorities.append(soa_for(zone))
    return response


def sign_sections(synth: ZoneSynthesizer, response: Message, zone: Name, dp: DnssecProfile) -> None:
    """Append an RRSIG per (owner, type) RRset in answers/authorities."""
    sign_rrset = synth.dnssec.sign_rrset
    for section in (response.answers, response.authorities):
        groups: dict[tuple, list] = {}
        for record in section:
            groups.setdefault((record.name, int(record.rrtype)), []).append(record)
        for records in groups.values():
            section.append(sign_rrset(records, zone, dp.key, dp.inception, dp.expiration))


def _ds_or_denial(synth: ZoneSynthesizer, parent: Name, child: Name) -> ResourceRecord:
    """What ``parent`` holds about ``child``'s DS: the DS record of a
    signed, non-island child (digest deliberately wrong for
    ``broken_ds`` zones), or for unsigned and island children the NSEC
    at the cut — NS bit set, DS bit absent — which is what lets a
    validator conclude *Insecure* rather than *Bogus*."""
    child_dp = synth.dnssec_profile(child)
    if child_dp.signed and not child_dp.island:
        return synth.dnssec.make_ds(child, child_dp.key, broken=child_dp.broken_ds)
    return synth.dnssec.make_nsec(child, parent, (int(RRType.NS),))


def ds_answer(synth: ZoneSynthesizer, query: Message, parent: Name, child: Name) -> Message:
    """The parent-side authoritative answer for a DS query (DO set).

    DS lives only at the parent: the child's DS RRset in the answer
    section, or an authenticated denial (SOA + NSEC) in authority.
    """
    parent_dp = synth.dnssec_profile(parent)
    record = _ds_or_denial(synth, parent, child)
    response = query.make_response(authoritative=True)
    if int(record.rrtype) == int(RRType.DS):
        response.answers.append(record)
    else:
        response.authorities.append(soa_for(parent))
        response.authorities.append(record)
    if parent_dp.signed:
        sign_sections(synth, response, parent, parent_dp)
    return response


def referral_proof(synth: ZoneSynthesizer, parent: Name, child: Name) -> list[ResourceRecord]:
    """The DNSSEC half of a DO-bit referral (RFC 4035 section 3.1.4.1):
    a signed parent MUST send the child's DS RRset, or the NSEC proving
    there is none, with its RRSIG in the authority section — the same
    records :func:`ds_answer` serves, so a validator learns the cut's
    status from the referral it was following anyway.  An unsigned
    parent has nothing to prove: empty."""
    dp = synth.dnssec_profile(parent)
    if not dp.signed:
        return []
    record = _ds_or_denial(synth, parent, child)
    return [record, synth.dnssec.sign_rrset([record], parent, dp.key, dp.inception, dp.expiration)]


def apex_answer(
    synth: ZoneSynthesizer, query: Message, zone: Name, do: bool
) -> Message | None:
    """DNSSEC-aware apex answer for infrastructure zones (root, TLDs).

    Returns a DNSKEY answer or a signed nodata when DO is set and the
    zone is signed; ``None`` means the caller should fall back to its
    pre-DNSSEC behaviour (plain nodata) — the byte-identical path.
    """
    if not do:
        return None
    dp = synth.dnssec_profile(zone)
    if not dp.signed:
        return None
    qtype = int(query.question.rrtype)
    response = query.make_response(authoritative=True)
    if qtype in (int(RRType.DNSKEY), int(RRType.ANY)):
        response.answers.append(synth.dnssec.make_dnskey(zone, dp.key))
    else:
        response.authorities.append(soa_for(zone))
        response.authorities.append(
            synth.dnssec.make_nsec(query.question.name, zone, (int(RRType.SOA), int(RRType.NS)))
        )
    sign_sections(synth, response, zone, dp)
    return response


def signed_nxdomain(synth: ZoneSynthesizer, query: Message, zone: Name, do: bool) -> Message:
    """NXDOMAIN from ``zone``, with NSEC denial when DO and signed."""
    response = nxdomain(query, zone)
    if do:
        dp = synth.dnssec_profile(zone)
        if dp.signed:
            response.authorities.append(synth.dnssec.make_nsec(query.question.name, zone, ()))
            sign_sections(synth, response, zone, dp)
    return response


def build_answer(
    synth: ZoneSynthesizer,
    query: Message,
    profile: DomainProfile,
    ns: NameserverInfo | None = None,
    protocol: str = "udp",
    do: bool = False,
) -> Message:
    """The authoritative answer for a question about an existing domain.

    ``ns`` is the responding nameserver, used to produce per-nameserver
    inconsistent answers for providers that have them (Section 5);
    ``None`` means the canonical (consistent) answer.  ``do`` is the
    query's EDNS DO bit: when set and the zone is signed, answers gain
    RRSIGs, denials gain NSEC, and DNSKEY is served at the apex —
    queries without DO get pre-DNSSEC bytes, unconditionally.
    """
    question = query.question
    name = question.name
    qtype = int(question.rrtype)
    dp = synth.dnssec_profile(profile.base) if do else None
    if dp is not None and not dp.signed:
        dp = None

    if not synth.subdomain_exists(name, profile):
        response = nxdomain(query, profile.base)
        if dp is not None:
            response.authorities.append(synth.dnssec.make_nsec(name, profile.base, ()))
            sign_sections(synth, response, profile.base, dp)
        return response

    if profile.truncates and qtype == int(RRType.A) and protocol == "udp" and ns is not None:
        # Oversized response (0.4% in the paper): TC bit forces TCP retry.
        response = query.make_response(authoritative=True)
        response.flags = Flags.from_int(response.flags.to_int() | 0x0200)  # TC=1
        return response

    response = query.make_response(authoritative=True)
    apex = name == profile.base

    if qtype in (int(RRType.A), int(RRType.ANY)):
        _add_a_records(synth, response, name, profile, ns)
    if qtype in (int(RRType.AAAA), int(RRType.ANY)) and _uniform(synth, name, "has-aaaa") < 0.35:
        value = rand.h64(synth.params.seed, _key(name), "aaaa-host") % 0xFFFF
        response.answers.append(rr(name, RRType.AAAA, ANSWER_TTL, AAAA(f"2001:db8::{value:x}")))
    if qtype in (int(RRType.NS), int(RRType.ANY)) and apex:
        for info in profile.nameservers:
            response.answers.append(rr(name, RRType.NS, REFERRAL_TTL, NS(info.name)))
    if qtype == int(RRType.SOA) and apex:
        response.answers.append(soa_for(profile.base))
    if qtype in (int(RRType.MX), int(RRType.ANY)) and apex and profile.has_mx:
        count = 1 + rand.h64(synth.params.seed, _key(name), "mxcount") % 3
        MX = rdata_class(RRType.MX)
        for i in range(count):
            exchange = _MAIL_LABELS[i].concatenate(profile.base)
            response.answers.append(rr(name, RRType.MX, ANSWER_TTL, MX((i + 1) * 10, exchange)))
    if qtype in (int(RRType.TXT), int(RRType.ANY)):
        _add_txt_records(response, name, profile)
    if qtype == int(RRType.CAA):
        _add_caa_records(response, name, profile)
    if qtype == int(RRType.HTTPS):
        _add_https_records(synth, response, name, profile)
    if dp is not None and apex and qtype in (int(RRType.DNSKEY), int(RRType.ANY)):
        response.answers.append(synth.dnssec.make_dnskey(profile.base, dp.key))

    if not response.answers:
        response = nodata(query, profile.base)
        if dp is not None:
            response.authorities.append(synth.dnssec.make_nsec(name, profile.base, ()))
            sign_sections(synth, response, profile.base, dp)
        return response
    if dp is not None:
        sign_sections(synth, response, profile.base, dp)
    return response


def _add_a_records(synth, response, name, profile, ns):
    is_www = len(name.labels) == len(profile.base.labels) + 1 and name.labels[0].lower() == b"www"
    if is_www and profile.www_is_cname:
        response.answers.append(rr(name, RRType.CNAME, ANSWER_TTL, CNAME(profile.base)))
        # Canonical answers (resolver view) also chase the chain.
        if ns is None:
            for address in synth.host_addresses(profile.base, "a"):
                response.answers.append(rr(profile.base, RRType.A, ANSWER_TTL, A(address)))
        return
    salt = "a"
    if ns is not None and not profile.consistent_answers:
        salt = f"a-ns-{ns.name.to_text()}"  # Section 5's inconsistent providers
    for address in synth.host_addresses(name, salt):
        response.answers.append(rr(name, RRType.A, ANSWER_TTL, A(address)))


def _add_https_records(synth, response, name, profile):
    """Modern CDN-hosted domains publish HTTPS service bindings; the
    big consistent providers (Cloudflare-like) are the main adopters."""
    if not profile.provider.consistent_answers or profile.provider.ns_pool < 6:
        return  # only the large managed providers publish these
    if _uniform(synth, name, "https-rr") >= 0.5:
        return
    hints = synth.host_addresses(name, "a")[:2]
    record = rdata_class(RRType.HTTPS).service(1, Name.root(), ("h2", "h3"), hints)
    response.answers.append(rr(name, RRType.HTTPS, ANSWER_TTL, record))


def _add_txt_records(response, name, profile):
    TXT = rdata_class(RRType.TXT)
    apex = name == profile.base
    if apex and profile.has_spf:
        response.answers.append(
            rr(name, RRType.TXT, ANSWER_TTL, TXT.from_string("v=spf1 include:_spf.example -all"))
        )
    is_dmarc = (
        len(name.labels) == len(profile.base.labels) + 1 and name.labels[0].lower() == b"_dmarc"
    )
    if is_dmarc and profile.has_dmarc:
        response.answers.append(
            rr(name, RRType.TXT, ANSWER_TTL, TXT.from_string("v=DMARC1; p=none;"))
        )


def _add_caa_records(response, name, profile):
    """CAA at the apex; via_cname domains answer with a CNAME whose
    ``_caa.<base>`` target carries the records (RFC 8659 chasing)."""
    caa = profile.caa
    if caa is None:
        return
    apex = name == profile.base
    cname_target = _CAA_LABEL.concatenate(profile.base)
    if caa.via_cname:
        if apex:
            response.answers.append(rr(name, RRType.CNAME, ANSWER_TTL, CNAME(cname_target)))
        elif name == cname_target:
            _emit_caa(response, name, caa)
        return
    if apex:
        _emit_caa(response, name, caa)


def _emit_caa(response, owner, caa):
    CAA = rdata_class(RRType.CAA)
    for issuer in caa.issue:
        response.answers.append(rr(owner, RRType.CAA, ANSWER_TTL, CAA(0, "issue", issuer)))
    for issuer in caa.issuewild:
        response.answers.append(rr(owner, RRType.CAA, ANSWER_TTL, CAA(0, "issuewild", issuer)))
    for target in caa.iodef:
        response.answers.append(rr(owner, RRType.CAA, ANSWER_TTL, CAA(0, "iodef", target)))
    for bad in caa.invalid_tags:
        response.answers.append(rr(owner, RRType.CAA, ANSWER_TTL, CAA(0, bad, "")))


def _key(name: Name) -> str:
    return name.key_text()


def _uniform(synth, name, tag) -> float:
    return rand.uniform(synth.params.seed, _key(name), tag)

"""Presentation-format (zone file) parsing.

Covers the record types that appear in practice in master files, plus
RFC 3597 ``\\# n hex`` generic syntax for everything else.  Used by the
zone-file loader and handy for constructing records in tests/tools.
"""

from __future__ import annotations

import base64
import binascii
import shlex
from functools import lru_cache

from .name import Name
from .rdata import GenericRData, RData
from .rdata.address import A, AAAA
from .rdata.dnssec import DNSKEY, DS, NSEC3PARAM
from .rdata.mail import AFSDB, KX, MX, NAPTR, RT, SRV
from .rdata.names import CNAME, DNAME, MB, MG, MR, NS, PTR, SOA
from .rdata.security import CAA, SSHFP, TLSA, URI
from .rdata.text import HINFO, SPF, TXT
from .types import RRTYPE_BY_INT, RRType, type_from_text


class TextParseError(ValueError):
    """Raised when presentation-format rdata cannot be parsed."""


#: Characters that force the full shlex pass: quoting, escapes,
#: comments.  The overwhelming majority of rdata strings (addresses,
#: names, integers) contain none of them and split on whitespace.
_NEEDS_LEXER = frozenset("\"'\\;")


def _tokens(text: str) -> list[str]:
    if not _NEEDS_LEXER.intersection(text):
        return text.split()
    lexer = shlex.shlex(text, posix=True)
    lexer.whitespace_split = True
    lexer.commenters = ";"
    try:
        return list(lexer)
    except ValueError as error:
        raise TextParseError(f"bad rdata {text!r}: {error}") from None


def relative_name(token: str, origin: Name) -> Name:
    """``token`` under ``origin``, memoised: a bulk load joins the same
    relative owner / origin pairs on every line.  (Scans never repeat a
    join — 0 hits on every ledger workload — so this memo sits here and
    not on ``Name.concatenate``.)"""
    # keyed on the raw label tuples, not the Names: Name hashing is
    # case-insensitive and the memo must preserve exact spelling
    return _joined(Name.from_text(token).labels, origin.labels)


@lru_cache(maxsize=65_536)
def _joined(prefix: tuple[bytes, ...], suffix: tuple[bytes, ...]) -> Name:
    return Name.intern(prefix + suffix)


def _name(token: str, origin: Name | None) -> Name:
    if token == "@":
        if origin is None:
            raise TextParseError("@ used without an origin")
        return origin
    if token.endswith("."):
        return Name.from_text(token)
    if origin is None:
        raise TextParseError(f"relative name {token!r} without an origin")
    return relative_name(token, origin)


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise TextParseError(f"bad {what}: {token!r}") from None


def rdata_from_text(rrtype: RRType | str, text: str, origin: Name | None = None) -> RData:
    """Parse one record's presentation-format RDATA.

    Results are memoised on ``(type, text, origin)``: rdata objects are
    value-immutable, and synthesised/loaded zones repeat the same
    handful of rdata strings (shared nameservers, glue addresses)
    across thousands of lines.

    >>> rdata_from_text("MX", "10 mail.example.com.").exchange.to_text()
    'mail.example.com.'
    """
    if isinstance(rrtype, str):
        rrtype = type_from_text(rrtype)
    return _rdata_from_text(int(rrtype), text, origin)


@lru_cache(maxsize=65_536)
def _rdata_from_text(rrtype: int, text: str, origin: Name | None) -> RData:
    tokens = _tokens(text)
    # posix lexing strips the backslash escape from the RFC 3597 marker
    if tokens and tokens[0] in (r"\#", "#"):
        # RFC 3597 generic syntax works for any type
        if len(tokens) < 2:
            raise TextParseError("generic rdata needs a length")
        length = _int(tokens[1], "generic length")
        data = binascii.unhexlify("".join(tokens[2:]))
        if len(data) != length:
            raise TextParseError(f"generic rdata length {length} != {len(data)} bytes")
        return GenericRData(data)

    try:
        parser = _PARSERS[rrtype]
    except KeyError:
        label = RRTYPE_BY_INT.get(rrtype, rrtype)
        raise TextParseError(f"no presentation parser for {label!s}") from None
    return parser(tokens, origin)


def _need(tokens: list[str], count: int, rrtype: str) -> None:
    if len(tokens) < count:
        raise TextParseError(f"{rrtype} needs {count} fields, got {len(tokens)}")


def _parse_a(tokens, origin):
    _need(tokens, 1, "A")
    return A(tokens[0])


def _parse_aaaa(tokens, origin):
    _need(tokens, 1, "AAAA")
    return AAAA(tokens[0])


def _single_name(cls, label):
    def parse(tokens, origin):
        _need(tokens, 1, label)
        return cls(_name(tokens[0], origin))

    return parse


def _pref_name(cls, label):
    def parse(tokens, origin):
        _need(tokens, 2, label)
        return cls(_int(tokens[0], "preference"), _name(tokens[1], origin))

    return parse


def _parse_soa(tokens, origin):
    _need(tokens, 7, "SOA")
    return SOA(
        _name(tokens[0], origin),
        _name(tokens[1], origin),
        *(_int(tokens[i], "SOA field") for i in range(2, 7)),
    )


def _parse_txt_like(cls):
    def parse(tokens, origin):
        if not tokens:
            raise TextParseError("TXT needs at least one string")
        return cls([token.encode("utf-8") for token in tokens])

    return parse


def _parse_hinfo(tokens, origin):
    _need(tokens, 2, "HINFO")
    return HINFO(tokens[0].encode(), tokens[1].encode())


def _parse_srv(tokens, origin):
    _need(tokens, 4, "SRV")
    return SRV(
        _int(tokens[0], "priority"),
        _int(tokens[1], "weight"),
        _int(tokens[2], "port"),
        _name(tokens[3], origin),
    )


def _parse_caa(tokens, origin):
    _need(tokens, 3, "CAA")
    return CAA(_int(tokens[0], "flags"), tokens[1].encode(), tokens[2].encode())


def _parse_ds(tokens, origin):
    _need(tokens, 4, "DS")
    return DS(
        _int(tokens[0], "key tag"),
        _int(tokens[1], "algorithm"),
        _int(tokens[2], "digest type"),
        binascii.unhexlify("".join(tokens[3:])),
    )


def _parse_dnskey(tokens, origin):
    _need(tokens, 4, "DNSKEY")
    return DNSKEY(
        _int(tokens[0], "flags"),
        _int(tokens[1], "protocol"),
        _int(tokens[2], "algorithm"),
        base64.b64decode("".join(tokens[3:])),
    )


def _parse_tlsa(tokens, origin):
    _need(tokens, 4, "TLSA")
    return TLSA(
        _int(tokens[0], "usage"),
        _int(tokens[1], "selector"),
        _int(tokens[2], "matching type"),
        binascii.unhexlify("".join(tokens[3:])),
    )


def _parse_sshfp(tokens, origin):
    _need(tokens, 3, "SSHFP")
    return SSHFP(
        _int(tokens[0], "algorithm"),
        _int(tokens[1], "fp type"),
        binascii.unhexlify("".join(tokens[2:])),
    )


def _parse_naptr(tokens, origin):
    _need(tokens, 6, "NAPTR")
    return NAPTR(
        _int(tokens[0], "order"),
        _int(tokens[1], "preference"),
        tokens[2].encode(),
        tokens[3].encode(),
        tokens[4].encode(),
        _name(tokens[5], origin),
    )


def _parse_uri(tokens, origin):
    _need(tokens, 3, "URI")
    return URI(_int(tokens[0], "priority"), _int(tokens[1], "weight"), tokens[2].encode())


def _parse_nsec3param(tokens, origin):
    _need(tokens, 4, "NSEC3PARAM")
    salt = b"" if tokens[3] == "-" else binascii.unhexlify(tokens[3])
    return NSEC3PARAM(
        _int(tokens[0], "algorithm"), _int(tokens[1], "flags"), _int(tokens[2], "iterations"), salt
    )


_PARSERS = {
    int(RRType.A): _parse_a,
    int(RRType.AAAA): _parse_aaaa,
    int(RRType.NS): _single_name(NS, "NS"),
    int(RRType.CNAME): _single_name(CNAME, "CNAME"),
    int(RRType.DNAME): _single_name(DNAME, "DNAME"),
    int(RRType.PTR): _single_name(PTR, "PTR"),
    int(RRType.MB): _single_name(MB, "MB"),
    int(RRType.MG): _single_name(MG, "MG"),
    int(RRType.MR): _single_name(MR, "MR"),
    int(RRType.MX): _pref_name(MX, "MX"),
    int(RRType.RT): _pref_name(RT, "RT"),
    int(RRType.KX): _pref_name(KX, "KX"),
    int(RRType.AFSDB): _pref_name(AFSDB, "AFSDB"),
    int(RRType.SOA): _parse_soa,
    int(RRType.TXT): _parse_txt_like(TXT),
    int(RRType.SPF): _parse_txt_like(SPF),
    int(RRType.HINFO): _parse_hinfo,
    int(RRType.SRV): _parse_srv,
    int(RRType.CAA): _parse_caa,
    int(RRType.DS): _parse_ds,
    int(RRType.DNSKEY): _parse_dnskey,
    int(RRType.TLSA): _parse_tlsa,
    int(RRType.SSHFP): _parse_sshfp,
    int(RRType.NAPTR): _parse_naptr,
    int(RRType.URI): _parse_uri,
    int(RRType.NSEC3PARAM): _parse_nsec3param,
}

#: Types with a dedicated presentation parser.
PARSEABLE_TYPES = frozenset(_PARSERS)

"""DNS message encoding and decoding (RFC 1035 section 4).

:meth:`Message.from_wire` is one flat pass over the packet: every name
resolves through one shared pointer-target memo (the dominant owner
shape, a two-byte pointer at a name the packet already spelled, is a
single dict probe), the record types a scan is made of (A, NS, CNAME,
PTR) come straight from shared value instances, and everything else
decodes through one cursor reader shared by the whole packet.
:meth:`Message.to_wire` is one writer pass.  Nothing is remembered from
one message to the next: a scan resolves distinct names, and every
cross-message memo this module once carried switched itself off (or
cost more than it saved) on that traffic — EXPERIMENTS.md "Ledger
entry 2" has the ablation.  ``Question.from_wire`` and
``ResourceRecord.from_wire`` are the cursor reference path the flat
scan is tested against.  :data:`CODEC_STATS` counts calls."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .name import Name, _from_text, _interned
from .rdata import RData, rdata_class
from .rdata.address import _a_instance
from .rdata.names import CNAME, NS, PTR, _single_name_instance
from .types import (
    CLASS_BY_INT as _CLASS_BY_INT,
    DNSClass,
    Opcode,
    OPCODE_BY_INT as _OPCODE_BY_INT,
    Rcode,
    RCODE_BY_INT as _RCODE_BY_INT,
    RRType,
    RRTYPE_BY_INT as _RRTYPE_BY_INT,
)
from .wire import WireError, WireReader, WireWriter, decode_name_at

#: Classic maximum UDP payload without EDNS.
MAX_UDP_PAYLOAD = 512
#: EDNS payload size ZDNS advertises.
EDNS_UDP_PAYLOAD = 1232

_U16 = struct.Struct("!H")
_HEADER = struct.Struct("!HHHHHH")
_RR_FIXED = struct.Struct("!HHIH")  # TYPE, CLASS, TTL, RDLENGTH
_Q_FIXED = struct.Struct("!HH")  # QTYPE, QCLASS

#: Codec instrumentation: API entries, each of which is one full pass.
CODEC_STATS = {"decode_calls": 0, "encode_calls": 0}


@dataclass(frozen=True)
class Flags:
    """The header flag bits (RFC 1035 section 4.1.1, plus AD/CD)."""

    response: bool = False
    opcode: Opcode = Opcode.QUERY
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = False
    recursion_available: bool = False
    authenticated: bool = False  # AD
    checking_disabled: bool = False  # CD
    rcode: Rcode = Rcode.NOERROR

    def to_int(self) -> int:
        return _flags_to_int(self)

    @classmethod
    def from_int(cls, value: int) -> "Flags":
        return _flags_from_int(value & 0xFFFF)

    def to_json(self) -> dict:
        """ZDNS-format flags block (Appendix C)."""
        return {
            "response": self.response,
            "opcode": int(self.opcode),
            "authoritative": self.authoritative,
            "truncated": self.truncated,
            "recursion_desired": self.recursion_desired,
            "recursion_available": self.recursion_available,
            "authenticated": self.authenticated,
            "checking_disabled": self.checking_disabled,
            "error_code": int(self.rcode),
        }


class Question:
    """A query triple.

    Value-immutable by convention (instances are shared and hashed);
    a plain slotted class because scans construct one per packet and a
    frozen dataclass pays ``object.__setattr__`` per field."""

    __slots__ = ("name", "rrtype", "rrclass")

    def __init__(self, name: Name, rrtype: RRType, rrclass: DNSClass = DNSClass.IN):
        self.name = name
        self.rrtype = rrtype
        self.rrclass = rrclass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Question:
            return (
                self.name == other.name
                and self.rrtype == other.rrtype
                and self.rrclass == other.rrclass
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.rrtype, self.rrclass))

    def __repr__(self) -> str:
        return f"Question(name={self.name!r}, rrtype={self.rrtype!r}, rrclass={self.rrclass!r})"

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        writer._buf += _Q_FIXED.pack(self.rrtype & 0xFFFF, self.rrclass & 0xFFFF)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "Question":
        name = reader.read_name()
        reader._need(4)
        rrtype, rrclass = _Q_FIXED.unpack_from(reader.data, reader.offset)
        reader.offset += 4
        # unknown types/classes keep the raw integer
        return cls(
            name,
            _RRTYPE_BY_INT.get(rrtype, rrtype),
            _CLASS_BY_INT.get(rrclass, rrclass),
        )

    def __str__(self) -> str:
        return f"{self.name.to_text()} {self.rrclass} {_type_text(self.rrtype)}"


@lru_cache(maxsize=4096)
def _flags_to_int(flags: "Flags") -> int:
    # Flags is frozen (hashable by value), and scans reuse a handful of
    # distinct flag combinations millions of times.
    value = 0
    if flags.response:
        value |= 0x8000
    value |= (int(flags.opcode) & 0xF) << 11
    if flags.authoritative:
        value |= 0x0400
    if flags.truncated:
        value |= 0x0200
    if flags.recursion_desired:
        value |= 0x0100
    if flags.recursion_available:
        value |= 0x0080
    if flags.authenticated:
        value |= 0x0020
    if flags.checking_disabled:
        value |= 0x0010
    value |= int(flags.rcode) & 0xF
    return value


@lru_cache(maxsize=4096)
def _flags_from_int(value: int) -> Flags:
    opcode = (value >> 11) & 0xF
    rcode = value & 0xF
    # unassigned opcodes/rcodes survive as raw integers
    return Flags(
        response=bool(value & 0x8000),
        opcode=_OPCODE_BY_INT.get(opcode, opcode),
        authoritative=bool(value & 0x0400),
        truncated=bool(value & 0x0200),
        recursion_desired=bool(value & 0x0100),
        recursion_available=bool(value & 0x0080),
        authenticated=bool(value & 0x0020),
        checking_disabled=bool(value & 0x0010),
        rcode=_RCODE_BY_INT.get(rcode, rcode),
    )


def _type_text(rrtype: int) -> str:
    rrtype = _RRTYPE_BY_INT.get(int(rrtype), rrtype)
    if isinstance(rrtype, RRType):
        return rrtype.name
    return f"TYPE{int(rrtype)}"


def _class_text(rrclass: int) -> str:
    rrclass = _CLASS_BY_INT.get(int(rrclass), rrclass)
    if isinstance(rrclass, DNSClass):
        return rrclass.name
    return f"CLASS{int(rrclass)}"


class ResourceRecord:
    """A decoded resource record.

    Value-immutable by convention — decoders and zone synthesis share
    instances freely, so nothing may mutate one after construction."""

    __slots__ = ("name", "rrtype", "rrclass", "ttl", "rdata", "_hash")

    def __init__(self, name: Name, rrtype: int, rrclass: int, ttl: int, rdata: RData):
        self.name = name
        self.rrtype = rrtype
        self.rrclass = rrclass
        self.ttl = ttl
        self.rdata = rdata

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceRecord):
            return (
                self.name == other.name
                and self.rrtype == other.rrtype
                and self.rrclass == other.rrclass
                and self.ttl == other.ttl
                and self.rdata == other.rdata
            )
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash(
                (self.name, self.rrtype, self.rrclass, self.ttl, self.rdata)
            )
            return value

    def __repr__(self) -> str:
        return (
            f"ResourceRecord(name={self.name!r}, rrtype={self.rrtype!r}, "
            f"rrclass={self.rrclass!r}, ttl={self.ttl!r}, rdata={self.rdata!r})"
        )

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(self.name)
        buf = writer._buf
        # RDLENGTH is patched once the rdata is down
        buf += _RR_FIXED.pack(
            self.rrtype & 0xFFFF, self.rrclass & 0xFFFF, self.ttl & 0xFFFFFFFF, 0
        )
        start = len(buf)
        self.rdata.to_wire(writer)
        buf[start - 2 : start] = _U16.pack(len(buf) - start)

    @classmethod
    def from_wire(cls, reader: WireReader) -> "ResourceRecord":
        name = reader.read_name()
        reader._need(10)
        rrtype, rrclass, ttl, rdlength = _RR_FIXED.unpack_from(reader.data, reader.offset)
        reader.offset += 10
        end = reader.offset + rdlength
        rdata = rdata_class(rrtype).from_wire(reader, rdlength)
        if reader.offset != end:
            raise WireError(
                f"{_type_text(rrtype)} rdata decoded {reader.offset - (end - rdlength)} "
                f"of {rdlength} bytes"
            )
        return cls(name, _RRTYPE_BY_INT.get(rrtype, rrtype), rrclass, ttl, rdata)

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {_class_text(self.rrclass)} "
            f"{_type_text(self.rrtype)} {self.rdata.to_text()}"
        )

    def to_json(self) -> dict:
        """ZDNS answer-format JSON record (Appendix C)."""
        return {
            "name": self.name.to_text(omit_final_dot=True),
            "type": _type_text(self.rrtype),
            "class": _class_text(self.rrclass),
            "ttl": self.ttl,
            "answer": self.rdata.zdns_answer(),
        }


#: Single-name rdata the scan builds through the shared per-target
#: instance cache: referral walking and CNAME chasing read every one,
#: and the target is usually a pointer into the packet's name memo.
_NAME_RDATA_GET = {
    int(RRType.NS): NS,
    int(RRType.CNAME): CNAME,
    int(RRType.PTR): PTR,
}.get


def decode_many(buffers) -> list["Message"]:
    """Decode a batch of packets, amortising per-call dispatch.

    Bulk consumers (pipe-transport drains, AXFR streams, benchmarks)
    get one bound-method lookup for the whole batch and a list back in
    input order.  Malformed packets raise WireError exactly as
    :meth:`Message.from_wire` would — decode stops at the first bad
    buffer."""
    from_wire = Message.from_wire
    return [from_wire(buffer) for buffer in buffers]


def clear_codec_caches() -> None:
    """Forget every value the decoder shares between packets (interned
    and parsed names, address and single-name rdata instances), so that a
    benchmark's next pass pays what a first-contact packet pays.
    Results never depend on these caches."""
    _interned.cache_clear()
    _from_text.cache_clear()  # its names are interned ones: forget both together
    _a_instance.cache_clear()
    _single_name_instance.cache_clear()


def codec_memo_stats() -> dict:
    """``*_probes``/``*_hits`` counters of cross-message codec memos,
    for telemetry that reports a memo hit ratio.  No such memo is left
    (see the module docstring), so there is nothing to report."""
    return {}


_QUERY_FLAGS_RD = Flags(recursion_desired=True)
_QUERY_FLAGS_NO_RD = Flags(recursion_desired=False)


@dataclass(slots=True)
class Message:
    """A complete DNS message."""

    id: int = 0
    flags: Flags = field(default_factory=Flags)
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)
    authorities: list[ResourceRecord] = field(default_factory=list)
    additionals: list[ResourceRecord] = field(default_factory=list)

    @classmethod
    def make_query(
        cls,
        name: Name | str,
        rrtype: RRType,
        rrclass: DNSClass = DNSClass.IN,
        txid: int = 0,
        recursion_desired: bool = True,
    ) -> "Message":
        if isinstance(name, str):
            name = Name.from_text(name)
        return cls(
            id=txid,
            flags=_QUERY_FLAGS_RD if recursion_desired else _QUERY_FLAGS_NO_RD,
            questions=[Question(name, rrtype, rrclass)],
        )

    def make_response(self, rcode: Rcode = Rcode.NOERROR, authoritative: bool = False) -> "Message":
        """Skeleton response echoing id and question."""
        code = int(rcode)
        if code & 0xF == code:
            # Derive the response flags through the cached int round-trip
            # (identical value to a dataclasses.replace, far cheaper on
            # the per-response hot path).
            value = _flags_to_int(self.flags) & ~0x048F
            if authoritative:
                value |= 0x0400
            flags = _flags_from_int(value | 0x8000 | code)
        else:  # extended rcodes keep the general path
            flags = replace(
                self.flags,
                response=True,
                authoritative=authoritative,
                recursion_available=False,
                rcode=rcode,
            )
        return Message(self.id, flags, list(self.questions))

    @property
    def question(self) -> Question | None:
        return self.questions[0] if self.questions else None

    @property
    def rcode(self) -> Rcode:
        return self.flags.rcode

    def records(self):
        """All records across the three answer sections."""
        yield from self.answers
        yield from self.authorities
        yield from self.additionals

    def to_wire(self, max_size: int | None = None) -> bytes:
        """Encode; if ``max_size`` is given and exceeded, return a
        truncated message with TC=1 containing only the question."""
        CODEC_STATS["encode_calls"] += 1
        flags_int = _flags_to_int(self.flags)
        questions = self.questions
        sections = (self.answers, self.authorities, self.additionals)
        writer = WireWriter()
        buf = writer._buf
        buf += _HEADER.pack(self.id & 0xFFFF, flags_int, len(questions), *map(len, sections))
        for question in questions:
            question.to_wire(writer)
        for section in sections:
            for record in section:
                record.to_wire(writer)
        if max_size is not None and len(buf) > max_size:
            truncated = Message(self.id, _flags_from_int(flags_int | 0x0200), list(questions))
            return truncated.to_wire()
        return bytes(buf)

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        CODEC_STATS["decode_calls"] += 1
        if type(data) is not bytes:
            # one normalising copy: labels and rdata are slices of it
            data = bytes(data)
        size = len(data)
        if size < 12:
            raise WireError(f"message shorter than header: {size} bytes")
        msg_id, raw_flags, qd, an, ns, ar = _HEADER.unpack_from(data, 0)
        names: dict[int, tuple[Name, int]] = {}
        names_get = names.get
        offset = 12
        questions = []
        for _ in range(qd):
            name, offset = decode_name_at(data, offset, names)
            if offset + 4 > size:
                raise WireError(
                    f"truncated packet: need 4 bytes at offset {offset}, have {size - offset}"
                )
            qtype, qclass = _Q_FIXED.unpack_from(data, offset)
            offset += 4
            questions.append(
                Question(
                    name,
                    _RRTYPE_BY_INT.get(qtype, qtype),
                    _CLASS_BY_INT.get(qclass, qclass),
                )
            )
        message = cls(msg_id, _flags_from_int(raw_flags), questions)
        reader = None
        for section, count in (
            (message.answers, an),
            (message.authorities, ns),
            (message.additionals, ar),
        ):
            append = section.append
            for _ in range(count):
                # the dominant owner: a pointer at a name already decoded
                hit = (
                    names_get((data[offset] & 0x3F) << 8 | data[offset + 1])
                    if offset + 1 < size and data[offset] >= 0xC0
                    else None
                )
                if hit is not None:
                    name = hit[0]
                    offset += 2
                else:
                    name, offset = decode_name_at(data, offset, names)
                if offset + 10 > size:
                    raise WireError(
                        f"truncated packet: need 10 bytes at offset {offset}, "
                        f"have {size - offset}"
                    )
                rrtype, rrclass, ttl, rdlength = _RR_FIXED.unpack_from(data, offset)
                offset += 10
                end = offset + rdlength
                if end > size:
                    raise WireError(
                        f"truncated packet: need {rdlength} rdata bytes at offset "
                        f"{offset}, have {size - offset}"
                    )
                if rrtype == 1 and rdlength == 4:
                    # A records dominate scan traffic
                    append(
                        ResourceRecord(
                            name, RRType.A, rrclass, ttl, _a_instance(data[offset:end])
                        )
                    )
                    offset = end
                    continue
                name_cls = _NAME_RDATA_GET(rrtype)
                if name_cls is not None:
                    target, after = decode_name_at(data, offset, names)
                    rdata = _single_name_instance(name_cls, target)
                else:
                    if reader is None:
                        reader = WireReader(data)
                        reader._names = names
                    reader.offset = offset
                    rdata = rdata_class(rrtype).from_wire(reader, rdlength)
                    after = reader.offset
                if after != end:
                    raise WireError(
                        f"{_type_text(rrtype)} rdata decoded {after - offset} "
                        f"of {rdlength} bytes"
                    )
                append(
                    ResourceRecord(
                        name, _RRTYPE_BY_INT.get(rrtype, rrtype), rrclass, ttl, rdata
                    )
                )
                offset = end
        return message

    def to_text(self) -> str:
        """dig-style presentation, used by tests and debugging."""
        lines = [
            f";; opcode: {self.flags.opcode}, status: {self.rcode}, id: {self.id}",
            ";; QUESTION SECTION:",
        ]
        lines.extend(f";{q}" for q in self.questions)
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title} SECTION:")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)

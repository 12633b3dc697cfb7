"""EDNS(0) support (RFC 6891): the OPT pseudo-record and its options."""

from __future__ import annotations

from dataclasses import dataclass

from .message import Message, ResourceRecord
from .name import Name
from .rdata import RData, register
from .types import RRType
from .wire import WireError, WireReader, WireWriter

#: Option codes we name; others are carried opaquely.
OPTION_COOKIE = 10
OPTION_CLIENT_SUBNET = 8
OPTION_NSID = 3


@dataclass(frozen=True)
class EDNSOption:
    code: int
    data: bytes


@register(RRType.OPT)
class OPT(RData):
    """OPT pseudo-record RDATA: a sequence of TLV options."""

    __slots__ = ("options",)

    def __init__(self, options: tuple[EDNSOption, ...] = ()):
        self.options = tuple(options)

    def to_wire(self, writer: WireWriter) -> None:
        for option in self.options:
            writer.write_u16(option.code)
            writer.write_u16(len(option.data))
            writer.write(option.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "OPT":
        end = reader.offset + rdlength
        options = []
        while reader.offset < end:
            code = reader.read_u16()
            length = reader.read_u16()
            if reader.offset + length > end:
                raise WireError("EDNS option overruns rdata")
            options.append(EDNSOption(code, reader.read(length)))
        return cls(tuple(options))

    def to_text(self) -> str:
        return " ".join(f"opt{o.code}:{o.data.hex()}" for o in self.options) or ""


@dataclass(frozen=True)
class EDNSInfo:
    """Decoded view of an OPT record's fixed fields."""

    payload_size: int
    extended_rcode: int
    version: int
    dnssec_ok: bool
    options: tuple[EDNSOption, ...]


def add_edns(
    message: Message,
    payload_size: int = 1232,
    dnssec_ok: bool = False,
    options: tuple[EDNSOption, ...] = (),
) -> Message:
    """Append an OPT record to the additional section (idempotent)."""
    if get_edns(message) is not None:
        return message
    ttl = (0 << 24) | (0 << 16) | (0x8000 if dnssec_ok else 0)
    message.additionals.append(
        ResourceRecord(Name.root(), RRType.OPT, payload_size, ttl, OPT(options))
    )
    return message


def get_edns(message: Message) -> EDNSInfo | None:
    """Extract EDNS information from a message, if present."""
    for record in message.additionals:
        if int(record.rrtype) == int(RRType.OPT):
            opt = record.rdata if isinstance(record.rdata, OPT) else OPT(())
            return EDNSInfo(
                payload_size=int(record.rrclass),
                extended_rcode=(record.ttl >> 24) & 0xFF,
                version=(record.ttl >> 16) & 0xFF,
                dnssec_ok=bool(record.ttl & 0x8000),
                options=opt.options,
            )
    return None


def max_payload(message: Message) -> int:
    """Sender's advertised UDP payload size (512 without EDNS)."""
    info = get_edns(message)
    if info is None:
        return 512
    return max(512, info.payload_size)

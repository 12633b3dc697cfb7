"""Address-carrying record types: A, AAAA, and the ILNP family
(NID/L32/L64/LP), plus EUI48/EUI64, ATMA, and EID."""

from __future__ import annotations

import binascii
import weakref
from functools import partial

from ..name import Name
from ..types import RRType
from ..wire import WireError, WireReader, WireWriter
from . import RData, register
from ._util import bytes_to_ipv4, bytes_to_ipv6, ipv4_to_bytes, ipv6_to_bytes

# An address record is built from text (parse, keep the bytes, format
# the canonical text) or from the wire (keep the bytes, format the
# text): ``_packed`` is whichever form construction had in hand, so
# ``to_wire`` re-derives nothing.  It is not a value field (the leading
# underscore keeps it out of eq / hash / repr, as ``_hash`` is).


@register(RRType.A)
class A(RData):
    """IPv4 host address (RFC 1035)."""

    __slots__ = ("address", "_packed", "__weakref__")

    def __init__(self, address: str):
        self._packed = ipv4_to_bytes(address)
        self.address = bytes_to_ipv4(self._packed)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self._packed)

    @classmethod
    def from_packed(cls, data: bytes) -> "A":
        """A new record of four address bytes (its wire form), formatted
        without a parse."""
        self = cls.__new__(cls)
        self._packed = data
        self.address = "%d.%d.%d.%d" % (data[0], data[1], data[2], data[3])
        return self

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "A":
        if rdlength != 4:
            raise WireError(f"A rdlength {rdlength} != 4")
        return decoded_a(reader.read(4))

    def to_text(self) -> str:
        return self.address


#: The one decoded ``A`` of each address while anything holds it, as
#: ``name._LIVE`` is for names: four bytes -> weak reference, popped by
#: the record's death.  Scans decode the same server and glue addresses
#: constantly, and rdata is value-immutable, so a packet shares the
#: record an earlier packet's cached answer still holds; an address
#: nothing holds any more is forgotten.
_LIVE_A: dict[bytes, weakref.ref] = {}
_live_a_pop = _LIVE_A.pop


def decoded_a(data: bytes) -> A:
    """The live ``A`` record of four address bytes, made if none is."""
    try:
        record = _LIVE_A[data]()
    except KeyError:
        record = None
    if record is None:
        record = A.from_packed(data)
        _LIVE_A[data] = weakref.ref(record, partial(_live_a_pop, data))
    return record


@register(RRType.AAAA)
class AAAA(RData):
    """IPv6 host address (RFC 3596)."""

    __slots__ = ("address", "_packed")

    def __init__(self, address: str):
        self._packed = ipv6_to_bytes(address)
        self.address = bytes_to_ipv6(self._packed)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self._packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise WireError(f"AAAA rdlength {rdlength} != 16")
        self = cls.__new__(cls)
        self._packed = reader.read(16)
        self.address = bytes_to_ipv6(self._packed)
        return self

    def to_text(self) -> str:
        return self.address


@register(RRType.NID)
class NID(RData):
    """ILNP node identifier (RFC 6742)."""

    __slots__ = ("preference", "node_id")

    def __init__(self, preference: int, node_id: bytes):
        if len(node_id) != 8:
            raise ValueError("NID node_id must be 8 bytes")
        self.preference = preference
        self.node_id = node_id

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write(self.node_id)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "NID":
        if rdlength != 10:
            raise WireError(f"NID rdlength {rdlength} != 10")
        return cls(reader.read_u16(), reader.read(8))

    def to_text(self) -> str:
        groups = binascii.hexlify(self.node_id).decode()
        formatted = ":".join(groups[i : i + 4] for i in range(0, 16, 4))
        return f"{self.preference} {formatted}"


@register(RRType.L32)
class L32(RData):
    """ILNP 32-bit locator (RFC 6742)."""

    __slots__ = ("preference", "locator", "_packed")

    def __init__(self, preference: int, locator: str):
        self.preference = preference
        self._packed = ipv4_to_bytes(locator)
        self.locator = bytes_to_ipv4(self._packed)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write(self._packed)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "L32":
        if rdlength != 6:
            raise WireError(f"L32 rdlength {rdlength} != 6")
        self = cls.__new__(cls)
        self.preference = reader.read_u16()
        self._packed = reader.read(4)
        self.locator = bytes_to_ipv4(self._packed)
        return self

    def to_text(self) -> str:
        return f"{self.preference} {self.locator}"


@register(RRType.L64)
class L64(RData):
    """ILNP 64-bit locator (RFC 6742)."""

    __slots__ = ("preference", "locator")

    def __init__(self, preference: int, locator: bytes):
        if len(locator) != 8:
            raise ValueError("L64 locator must be 8 bytes")
        self.preference = preference
        self.locator = locator

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write(self.locator)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "L64":
        if rdlength != 10:
            raise WireError(f"L64 rdlength {rdlength} != 10")
        return cls(reader.read_u16(), reader.read(8))

    def to_text(self) -> str:
        groups = binascii.hexlify(self.locator).decode()
        formatted = ":".join(groups[i : i + 4] for i in range(0, 16, 4))
        return f"{self.preference} {formatted}"


@register(RRType.LP)
class LP(RData):
    """ILNP locator pointer (RFC 6742)."""

    __slots__ = ("preference", "fqdn")

    def __init__(self, preference: int, fqdn: Name):
        self.preference = preference
        self.fqdn = fqdn

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.preference)
        writer.write_name(self.fqdn, compress=False)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "LP":
        return cls(reader.read_u16(), reader.read_name())

    def to_text(self) -> str:
        return f"{self.preference} {self.fqdn.to_text()}"


@register(RRType.EUI48)
class EUI48(RData):
    """48-bit extended unique identifier (RFC 7043)."""

    __slots__ = ("eui",)

    def __init__(self, eui: bytes):
        if len(eui) != 6:
            raise ValueError("EUI48 must be 6 bytes")
        self.eui = eui

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.eui)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "EUI48":
        if rdlength != 6:
            raise WireError(f"EUI48 rdlength {rdlength} != 6")
        return cls(reader.read(6))

    def to_text(self) -> str:
        return "-".join(f"{b:02x}" for b in self.eui)


@register(RRType.EUI64)
class EUI64(RData):
    """64-bit extended unique identifier (RFC 7043)."""

    __slots__ = ("eui",)

    def __init__(self, eui: bytes):
        if len(eui) != 8:
            raise ValueError("EUI64 must be 8 bytes")
        self.eui = eui

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.eui)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "EUI64":
        if rdlength != 8:
            raise WireError(f"EUI64 rdlength {rdlength} != 8")
        return cls(reader.read(8))

    def to_text(self) -> str:
        return "-".join(f"{b:02x}" for b in self.eui)


@register(RRType.ATMA)
class ATMA(RData):
    """ATM address (AF-DANS-0152)."""

    __slots__ = ("format", "address")

    def __init__(self, format: int, address: bytes):
        self.format = format
        self.address = address

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u8(self.format)
        writer.write(self.address)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "ATMA":
        if rdlength < 1:
            raise WireError("ATMA rdata empty")
        return cls(reader.read_u8(), reader.read(rdlength - 1))

    def to_text(self) -> str:
        return binascii.hexlify(self.address).decode()


@register(RRType.EID)
class EID(RData):
    """Nimrod endpoint identifier (draft; opaque hex payload)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "EID":
        return cls(reader.read(rdlength))

    def to_text(self) -> str:
        return binascii.hexlify(self.data).decode()


@register(RRType.NIMLOC)
class NIMLOC(RData):
    """Nimrod locator (draft; opaque hex payload)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "NIMLOC":
        return cls(reader.read(rdlength))

    def to_text(self) -> str:
        return binascii.hexlify(self.data).decode()

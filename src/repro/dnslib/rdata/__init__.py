"""Record data (RDATA) codecs.

Every record type carries a small dataclass-like ``RData`` subclass that
knows how to encode itself to wire format, decode itself from a packet,
render presentation format, and export the ZDNS-style JSON ``answer``
value.  Unknown types fall back to :class:`GenericRData` (RFC 3597).
"""

from __future__ import annotations

import binascii
from typing import Callable, ClassVar, Type

from ..types import RRType
from ..wire import WireReader, WireWriter

#: The codecs loaded so far; a module registers its classes on import.
_REGISTRY: dict[int, Type["RData"]] = {}

#: The module that registers each type's codec, imported the first time
#: :func:`rdata_class` is asked for one of its types: a scan loads only
#: the codecs of the records it meets.
_CODEC_MODULES = {
    int(RRType[name]): f"{__package__.rpartition('.')[0]}.{module}"
    for module, names in {
        "rdata.address": "A AAAA EID NIMLOC ATMA NID L32 L64 LP EUI48 EUI64",
        "rdata.names": "NS MD MF CNAME SOA MB MG MR PTR NSAPPTR DNAME TALINK",
        "rdata.text": "NULL HINFO TXT X25 ISDN GPOS NINFO SPF UINFO UID GID UNSPEC AVC",
        "rdata.mail": "MINFO MX RP AFSDB RT PX SRV NAPTR KX",
        "rdata.dnssec": "SIG KEY NXT DS RRSIG NSEC DNSKEY NSEC3 NSEC3PARAM CDS CDNSKEY CSYNC",
        "rdata.misc": "LOC",
        "rdata.security": "CERT SSHFP DHCID TLSA SMIMEA HIP OPENPGPKEY TKEY URI CAA",
        "rdata.svcb": "SVCB HTTPS",
        "edns": "OPT",
    }.items()
    for name in names.split()
}


def register(rrtype: RRType) -> Callable[[Type["RData"]], Type["RData"]]:
    """Class decorator binding an RData subclass to its type code."""

    def bind(cls: Type["RData"]) -> Type["RData"]:
        cls.rrtype = rrtype
        _REGISTRY[int(rrtype)] = cls
        return cls

    return bind


def rdata_class(rrtype: int) -> Type["RData"]:
    """The codec for a type code (its module loaded on first use), else GenericRData."""
    cls = _REGISTRY.get(int(rrtype))
    if cls is None and int(rrtype) in _CODEC_MODULES:
        # __import__, so that ``python -X importtime`` reports the load
        __import__(_CODEC_MODULES[int(rrtype)])
        cls = _REGISTRY[int(rrtype)]
    return cls or GenericRData


def registered_types() -> frozenset[int]:
    """Type codes that have a dedicated RDATA codec (none is loaded)."""
    return frozenset(_CODEC_MODULES)


#: class -> value-field names, in MRO definition order.  ``__slots__`` on
#: the *leaf* class is empty for most registered types (NS, TXT, MX, ...
#: inherit their fields), so equality must walk every class in the MRO
#: rather than read ``self.__slots__`` directly.  A slot with a leading
#: underscore (``_hash``, the address types' ``_packed``) is derived
#: from the value fields and is not one of them.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    seen: list[str] = []
    for klass in reversed(cls.__mro__):
        for slot in klass.__dict__.get("__slots__", ()):
            if not slot.startswith("_") and slot not in seen:
                seen.append(slot)
    names = tuple(seen)
    _FIELD_NAMES[cls] = names
    return names


class RData:
    """Base class for decoded record data."""

    rrtype: ClassVar[RRType]
    #: Value-immutable by convention, so the hash is computed once and
    #: cached (encode templates hash whole record tuples per message).
    __slots__ = ("_hash",)

    def to_wire(self, writer: WireWriter) -> None:
        raise NotImplementedError

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "RData":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def zdns_answer(self) -> object:
        """Value placed in the ``answer`` field of ZDNS JSON output."""
        return self.to_text()

    def _fields(self) -> tuple:
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _field_names(cls)
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = self._hash = hash((type(self).__name__, self._fields()))
            return value

    def __repr__(self) -> str:
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _field_names(cls)
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{cls.__name__}({pairs})"


class GenericRData(RData):
    """Opaque RDATA for types without a specific codec (RFC 3597)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes = b""):
        self.data = data

    def to_wire(self, writer: WireWriter) -> None:
        writer.write(self.data)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int) -> "GenericRData":
        return cls(reader.read(rdlength))

    def to_text(self) -> str:
        if not self.data:
            return r"\# 0"
        return rf"\# {len(self.data)} {binascii.hexlify(self.data).decode()}"


__all__ = [
    "RData",
    "GenericRData",
    "register",
    "rdata_class",
    "registered_types",
]

"""SVCB and HTTPS records (RFC 9460) — service bindings.

Not in the paper's 2022 footnote, but supported by ZDNS today and
increasingly central to how browsers discover endpoints; included for
forward compatibility."""

from __future__ import annotations

import binascii
import struct

from ..name import Name
from ..types import RRType
from ..wire import WireError, WireReader, WireWriter
from . import RData, register

# SvcParam keys (RFC 9460 section 14.3.2)
KEY_MANDATORY = 0
KEY_ALPN = 1
KEY_NO_DEFAULT_ALPN = 2
KEY_PORT = 3
KEY_IPV4HINT = 4
KEY_ECH = 5
KEY_IPV6HINT = 6

_KEY_NAMES = {
    KEY_MANDATORY: "mandatory",
    KEY_ALPN: "alpn",
    KEY_NO_DEFAULT_ALPN: "no-default-alpn",
    KEY_PORT: "port",
    KEY_IPV4HINT: "ipv4hint",
    KEY_ECH: "ech",
    KEY_IPV6HINT: "ipv6hint",
}


def _key_name(key: int) -> str:
    return _KEY_NAMES.get(key, f"key{key}")


def _render_value(key: int, value: bytes) -> str:
    if key == KEY_PORT and len(value) == 2:
        return str(struct.unpack("!H", value)[0])
    if key == KEY_ALPN:
        protocols = []
        offset = 0
        while offset < len(value):
            length = value[offset]
            protocols.append(value[offset + 1 : offset + 1 + length].decode("utf-8", "replace"))
            offset += 1 + length
        return ",".join(protocols)
    if key == KEY_IPV4HINT and len(value) % 4 == 0:
        return ",".join(
            ".".join(str(b) for b in value[i : i + 4]) for i in range(0, len(value), 4)
        )
    return binascii.hexlify(value).decode()


def alpn_value(*protocols: str) -> bytes:
    """Encode an ALPN SvcParam value (length-prefixed protocol ids)."""
    out = bytearray()
    for protocol in protocols:
        encoded = protocol.encode("utf-8")
        if not 0 < len(encoded) < 256:
            raise ValueError(f"bad ALPN id {protocol!r}")
        out.append(len(encoded))
        out += encoded
    return bytes(out)


def port_value(port: int) -> bytes:
    """Encode a port SvcParam value."""
    return struct.pack("!H", port)


def ipv4hint_value(*addresses: str) -> bytes:
    """Encode an ipv4hint SvcParam value."""
    out = bytearray()
    for address in addresses:
        parts = [int(p) for p in address.split(".")]
        if len(parts) != 4 or not all(0 <= p <= 255 for p in parts):
            raise ValueError(f"bad IPv4 address {address!r}")
        out += bytes(parts)
    return bytes(out)


class ServiceBindingRData(RData):
    """Common SVCB/HTTPS shape: priority, target, sorted SvcParams."""

    __slots__ = ("priority", "target", "params")

    def __init__(self, priority: int, target: Name, params: tuple[tuple[int, bytes], ...] = ()):
        self.priority = priority
        self.target = target
        # RFC 9460: params MUST be sorted by key and keys unique
        seen = set()
        for key, _ in params:
            if key in seen:
                raise ValueError(f"duplicate SvcParam key {key}")
            seen.add(key)
        self.params = tuple(sorted(params))

    @classmethod
    def service(cls, priority: int, target: Name, alpn, ipv4hint):
        """A ServiceMode binding advertising the ``alpn`` protocol ids
        and the ``ipv4hint`` addresses."""
        params = ((KEY_ALPN, alpn_value(*alpn)), (KEY_IPV4HINT, ipv4hint_value(*ipv4hint)))
        return cls(priority, target, params)

    @property
    def is_alias_mode(self) -> bool:
        """Priority 0 = AliasMode (no params allowed per RFC 9460)."""
        return self.priority == 0

    def param(self, key: int) -> bytes | None:
        for param_key, value in self.params:
            if param_key == key:
                return value
        return None

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_u16(self.priority)
        writer.write_name(self.target, compress=False)
        for key, value in self.params:
            writer.write_u16(key)
            writer.write_u16(len(value))
            writer.write(value)

    @classmethod
    def from_wire(cls, reader: WireReader, rdlength: int):
        end = reader.offset + rdlength
        priority = reader.read_u16()
        target = reader.read_name()
        params = []
        previous_key = -1
        while reader.offset < end:
            key = reader.read_u16()
            if key <= previous_key:
                raise WireError("SvcParams out of order or duplicated")
            previous_key = key
            length = reader.read_u16()
            if reader.offset + length > end:
                raise WireError("SvcParam overruns rdata")
            params.append((key, reader.read(length)))
        return cls(priority, target, tuple(params))

    def to_text(self) -> str:
        parts = [str(self.priority), self.target.to_text()]
        for key, value in self.params:
            if key == KEY_NO_DEFAULT_ALPN:
                parts.append(_key_name(key))
            else:
                parts.append(f"{_key_name(key)}={_render_value(key, value)}")
        return " ".join(parts)

    def zdns_answer(self) -> object:
        return {
            "priority": self.priority,
            "target": self.target.to_text(omit_final_dot=True),
            "params": {
                _key_name(key): _render_value(key, value) for key, value in self.params
            },
        }


@register(RRType.SVCB)
class SVCB(ServiceBindingRData):
    """General service binding (RFC 9460)."""

    __slots__ = ()


@register(RRType.HTTPS)
class HTTPS(ServiceBindingRData):
    """HTTPS-specific service binding (RFC 9460)."""

    __slots__ = ()

"""Shared helpers for RDATA codecs."""

from __future__ import annotations

import binascii
import ipaddress
from functools import lru_cache

from ..wire import WireError, WireReader, WireWriter

#: Every canonical octet spelling; probing this rejects leading zeros,
#: signs, whitespace, and out-of-range values in one dict hit.
_OCTETS = {str(i): i for i in range(256)}


def ipv4_to_bytes(text: str) -> bytes:
    # Fast strict parse for the canonical dotted quads the simulator
    # generates; anything unusual (shorthand, leading zeros, garbage)
    # falls through to ipaddress for identical validation errors.
    parts = text.split(".")
    if len(parts) == 4:
        octets = _OCTETS
        try:
            return bytes(
                (octets[parts[0]], octets[parts[1]], octets[parts[2]], octets[parts[3]])
            )
        except KeyError:
            pass
    return ipaddress.IPv4Address(text).packed


def bytes_to_ipv4(data: bytes) -> str:
    if len(data) != 4:
        raise WireError(f"A record rdata must be 4 bytes, got {len(data)}")
    return "%d.%d.%d.%d" % (data[0], data[1], data[2], data[3])


def ipv6_to_bytes(text: str) -> bytes:
    return ipaddress.IPv6Address(text).packed


# The one conversion worth a memo: compressing an IPv6 address is a
# stdlib ``ipaddress`` object per call (the codec corpus decodes
# 4-17 % slower without it; EXPERIMENTS.md "Ledger entry 5").
@lru_cache(maxsize=16_384)
def bytes_to_ipv6(data: bytes) -> str:
    if len(data) != 16:
        raise WireError(f"AAAA record rdata must be 16 bytes, got {len(data)}")
    return str(ipaddress.IPv6Address(data))


def write_character_string(writer: WireWriter, value: bytes) -> None:
    """Write a <character-string>: one length octet then the bytes."""
    if len(value) > 255:
        raise ValueError(f"character-string too long: {len(value)}")
    writer.write_u8(len(value))
    writer.write(value)


def read_character_string(reader: WireReader) -> bytes:
    return reader.read(reader.read_u8())


def quote_text(value: bytes) -> str:
    """Render a character-string in presentation format with quotes."""
    out = ['"']
    for byte in value:
        char = bytes((byte,))
        if char in b'"\\':
            out.append("\\" + char.decode())
        elif 0x20 <= byte <= 0x7E:
            out.append(char.decode("ascii"))
        else:
            out.append(f"\\{byte:03d}")
    out.append('"')
    return "".join(out)


def encode_type_bitmap(types: tuple[int, ...]) -> bytes:
    """RFC 4034 section 4.1.2 windowed type bitmap."""
    out = bytearray()
    windows: dict[int, bytearray] = {}
    for rrtype in sorted(set(int(t) for t in types)):
        window, low = divmod(rrtype, 256)
        bitmap = windows.setdefault(window, bytearray())
        byte_index, bit = divmod(low, 8)
        while len(bitmap) <= byte_index:
            bitmap.append(0)
        bitmap[byte_index] |= 0x80 >> bit
    for window in sorted(windows):
        bitmap = windows[window]
        out.append(window)
        out.append(len(bitmap))
        out += bitmap
    return bytes(out)


def decode_type_bitmap(data: bytes) -> tuple[int, ...]:
    types: list[int] = []
    offset = 0
    while offset < len(data):
        if offset + 2 > len(data):
            raise WireError("truncated type bitmap header")
        window = data[offset]
        length = data[offset + 1]
        offset += 2
        if length == 0 or length > 32 or offset + length > len(data):
            raise WireError("invalid type bitmap block")
        for byte_index in range(length):
            byte = data[offset + byte_index]
            for bit in range(8):
                if byte & (0x80 >> bit):
                    types.append(window * 256 + byte_index * 8 + bit)
        offset += length
    return tuple(types)


def hexlify(data: bytes) -> str:
    return binascii.hexlify(data).decode("ascii").upper()

"""Low-level wire format primitives: cursor-based reading and writing with
RFC 1035 section 4.1.4 name compression.

Hot-path notes: fixed-width fields go through prebound
:class:`struct.Struct` pack/unpack (no per-call format parsing), names
are written from their memoised length-prefixed label encodings in one
buffer append per label, and decoded names are interned so repeated
owners share one validated instance.

Name decoding lives in the module-level :func:`decode_name_at` so the
flat message scanner in :mod:`repro.dnslib.message` and the cursor
:class:`WireReader` share one pointer-target memo format
(``start offset -> (Name, end offset)``) and one validated walk."""

from __future__ import annotations

import struct

from .name import MAX_NAME_LENGTH, Name, _interned

#: A compression pointer is two bytes whose top two bits are set.
_POINTER_MASK = 0xC0
_MAX_POINTER = 0x3FFF

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_HEADER = struct.Struct("!HHHHHH")
_pack_u16 = _U16.pack
_pack_u32 = _U32.pack
_unpack_u16 = _U16.unpack_from
_unpack_u32 = _U32.unpack_from


class WireError(ValueError):
    """Raised when a packet cannot be decoded."""


def peek_txid(data) -> int:
    """The transaction id of a packet without decoding anything else.

    Reply matching uses this to discard wrong-txid datagrams (cross-talk,
    late retransmissions) without paying for a full message decode."""
    if len(data) < 2:
        raise WireError(f"packet shorter than a transaction id: {len(data)} bytes")
    return (data[0] << 8) | data[1]


def peek_header(data) -> tuple[int, int, int, int, int, int]:
    """Decode only the fixed 12-byte header.

    Returns ``(id, flags_int, qdcount, ancount, nscount, arcount)``; the
    flags stay a raw integer so this never touches the enum layer."""
    if len(data) < 12:
        raise WireError(f"message shorter than header: {len(data)} bytes")
    return _HEADER.unpack_from(data, 0)


def decode_name_at(
    data: bytes,
    start: int,
    names: dict[int, tuple[Name, int]],
    jumps: int = 0,
    total: int = 1,
) -> tuple[Name, int]:
    """Decode a possibly compressed name at ``start``, guarding against
    pointer loops.  Returns ``(name, offset after the name at start)``
    and memoises the result in ``names`` keyed on ``start``.

    A compression pointer is followed by decoding its target as a name
    of its own, so every target lands in ``names`` and the next pointer
    at it is one probe; ``jumps`` and ``total`` carry the pointers
    followed and the wire length accumulated on the way there."""
    cached = names.get(start)
    if cached is not None:
        return cached
    size = len(data)
    labels: list[bytes] = []
    cursor = start
    while True:
        if cursor >= size:
            raise WireError("name runs off end of packet")
        length = data[cursor]
        if length < 0x40:
            if not length:
                entry = (_interned(tuple(labels)), cursor + 1)
                break
            stop = cursor + 1 + length
            if stop > size:
                raise WireError("label runs off end of packet")
            labels.append(data[cursor + 1 : stop])
            total += length + 1
            if total > MAX_NAME_LENGTH:
                raise WireError("decoded name too long")
            cursor = stop
        elif length >= _POINTER_MASK:
            if cursor + 1 >= size:
                raise WireError("truncated compression pointer")
            target = (length & 0x3F) << 8 | data[cursor + 1]
            if target >= cursor:
                raise WireError("forward compression pointer")
            hit = names.get(target)
            if hit is None:
                if jumps >= 64:
                    raise WireError("compression pointer loop")
                hit = decode_name_at(data, target, names, jumps + 1, total)
            tail = hit[0]
            total += tail._wlen - 1
            if total > MAX_NAME_LENGTH:
                raise WireError("decoded name too long")
            if labels:
                tail = _interned((*labels, *tail.labels))
            entry = (tail, cursor + 2)
            break
        else:
            raise WireError(f"reserved label type 0x{length & _POINTER_MASK:02x}")
    names[start] = entry
    return entry


class WireWriter:
    """Accumulates a DNS message, tracking name offsets for compression."""

    def __init__(self, enable_compression: bool = True):
        self._buf = bytearray()
        self._offsets: dict[tuple[bytes, ...], int] = {}
        self._compress = enable_compression

    def __len__(self) -> int:
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def write(self, data: bytes) -> None:
        self._buf += data

    def write_u8(self, value: int) -> None:
        self._buf.append(value & 0xFF)

    def write_u16(self, value: int) -> None:
        self._buf += _pack_u16(value & 0xFFFF)

    def write_u32(self, value: int) -> None:
        self._buf += _pack_u32(value & 0xFFFFFFFF)

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a previously written 16-bit field (e.g. RDLENGTH)."""
        self._buf[offset : offset + 2] = _pack_u16(value & 0xFFFF)

    def write_name(self, name: Name, compress: bool | None = None) -> None:
        """Write ``name``, emitting a compression pointer for any suffix
        already present in the message."""
        buf = self._buf
        suffixes = name._suffixes
        if suffixes is None:
            suffixes = name.suffix_keys()
        if not suffixes:
            buf.append(0)
            return
        use_compression = self._compress if compress is None else compress
        offsets = self._offsets
        offsets_get = offsets.get
        if use_compression:
            # whole-name hit first: repeated owners (every answer in a
            # section, glue matching an NS target) collapse to one probe
            # and a two-byte pointer
            target = offsets_get(suffixes[0])
            if target is not None:
                buf += _pack_u16(0xC000 | target)
                return
        for suffix, label in zip(suffixes, name._enc or name.encoded_labels()):
            target = offsets_get(suffix)
            if target is None:
                position = len(buf)
                if position <= _MAX_POINTER:
                    offsets[suffix] = position
            elif use_compression:
                buf += _pack_u16(0xC000 | target)
                return
            buf += label
        buf.append(0)


class WireReader:
    """Cursor over a received packet with pointer-chasing name decoding."""

    def __init__(self, data: bytes, offset: int = 0):
        if not isinstance(data, bytes):
            data = bytes(data)  # one normalising copy beats per-label copies
        self.data = data
        self.offset = offset
        #: start offset -> (decoded Name, offset after it).  Compression
        #: makes every record owner a two-byte pointer at the question
        #: name, so one packet decodes the same name dozens of times.
        self._names: dict[int, tuple[Name, int]] = {}

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def at_end(self) -> bool:
        return self.offset >= len(self.data)

    def _need(self, count: int) -> None:
        if self.offset + count > len(self.data):
            raise WireError(
                f"truncated packet: need {count} bytes at offset {self.offset}, "
                f"have {len(self.data) - self.offset}"
            )

    def read(self, count: int) -> bytes:
        offset = self.offset
        end = offset + count
        if end > len(self.data):
            self._need(count)  # raises with the standard message
        self.offset = end
        return self.data[offset:end]

    def read_u8(self) -> int:
        offset = self.offset
        if offset >= len(self.data):
            self._need(1)
        self.offset = offset + 1
        return self.data[offset]

    def read_u16(self) -> int:
        offset = self.offset
        if offset + 2 > len(self.data):
            self._need(2)
        self.offset = offset + 2
        return (self.data[offset] << 8) | self.data[offset + 1]

    def read_u32(self) -> int:
        offset = self.offset
        if offset + 4 > len(self.data):
            self._need(4)
        (value,) = _unpack_u32(self.data, offset)
        self.offset = offset + 4
        return value

    def read_name(self) -> Name:
        """Decode a possibly compressed name, guarding against pointer loops."""
        name, end = decode_name_at(self.data, self.offset, self._names)
        self.offset = end
        return name

"""Domain name handling.

Names are held as tuples of label byte-strings, excluding the root label.
Comparisons are case-insensitive per RFC 1035 section 2.3.3, but the
original spelling is preserved for output.
"""

from __future__ import annotations

import re
import weakref
from functools import partial
from typing import Iterable, Iterator

MAX_NAME_LENGTH = 255
MAX_LABEL_LENGTH = 63

#: Bytes that need escaping in presentation format: anything outside
#: the visible-ASCII range, plus the dot and backslash themselves.
_NEEDS_ESCAPE = re.compile(rb"[^!-~]|[.\\]")


class NameError_(ValueError):
    """Raised for syntactically invalid domain names."""


class Name:
    """An absolute DNS domain name.

    >>> Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com")
    True
    """

    __slots__ = (
        "labels",
        "_key",
        "_hash",
        "_text",
        "_textn",
        "_ktext",
        "_enc",
        "_suffixes",
        "_wlen",
        "__weakref__",  # the liveness table's entry (``_LIVE``)
    )

    def __init__(self, labels: Iterable[bytes]):
        labels = tuple(labels)
        total = 1  # trailing root byte
        for label in labels:
            if not label:
                raise NameError_("empty label")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {len(label)} bytes")
            total += len(label) + 1
        if total > MAX_NAME_LENGTH:
            raise NameError_(f"name too long: {total} bytes")
        self.labels = labels
        key = tuple(label.lower() for label in labels)
        # a lower-case spelling (nearly every name a scan sees) is its own key
        self._key = labels if key == labels else key
        self._hash = hash(self._key)
        self._wlen = total
        self._text: str | None = None  # memoised presentation form
        self._textn: str | None = None  # ... without the final dot
        self._ktext: str | None = None  # ... lowered, for dict keys
        self._enc: tuple[bytes, ...] | None = None  # length-prefixed labels
        self._suffixes: tuple[tuple[bytes, ...], ...] | None = None

    @classmethod
    def root(cls) -> "Name":
        return _ROOT

    @classmethod
    def intern(cls, labels: tuple[bytes, ...]) -> "Name":
        """The live instance for ``labels``, made if none is.

        Names are value-immutable, so every constructor callers use —
        ``from_text``, the wire decoder, ``parent``, ``child`` and
        ``concatenate`` — hands out one instance per exact spelling
        while anything holds it (with its memoised key/hash/text/
        encoding) instead of re-validating and re-lowercasing the same
        labels for each reference and keeping a copy of each."""
        return _interned(labels)

    @classmethod
    def from_text(cls, text: str | bytes) -> "Name":
        """Parse a presentation-format name (``\\.`` escapes supported)."""
        if isinstance(text, str):
            text = text.encode("ascii", errors="strict")
        if text in (b"", b"."):
            return _ROOT
        if text.endswith(b"."):
            text = text[:-1]
        if b"\\" in text:
            return _interned(tuple(cls._escaped_labels(text)))
        # no escapes (every scan input): the dots are the label boundaries
        labels = text.split(b".")
        if b"" in labels:
            if b"" in labels[:-1]:
                raise NameError_(f"empty label in {text!r}")
            raise NameError_(f"empty trailing label in {text!r}")
        labels = tuple(labels)
        # _interned's probe, inline: every parse ends here, and calling
        # it would add 2.5 calls a lookup
        try:
            name = _LIVE[labels]()
        except KeyError:
            name = None
        return _made(labels) if name is None else name

    @staticmethod
    def _escaped_labels(text: bytes) -> list[bytes]:
        """Labels of a presentation-format name, honouring ``\\.`` and
        ``\\DDD`` escapes (the general, byte-at-a-time parse)."""
        labels: list[bytes] = []
        current = bytearray()
        i = 0
        while i < len(text):
            char = text[i : i + 1]
            if char == b"\\":
                if i + 1 >= len(text):
                    raise NameError_("trailing escape")
                nxt = text[i + 1 : i + 2]
                if nxt.isdigit():
                    if i + 3 >= len(text):
                        raise NameError_("truncated decimal escape")
                    current.append(int(text[i + 1 : i + 4]))
                    i += 4
                else:
                    current += nxt
                    i += 2
                continue
            if char == b".":
                if not current:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(bytes(current))
                current = bytearray()
            else:
                current += char
            i += 1
        if not current:
            raise NameError_(f"empty trailing label in {text!r}")
        labels.append(bytes(current))
        return labels

    def to_text(self, omit_final_dot: bool = False) -> str:
        if not self.labels:
            return "" if omit_final_dot else "."
        if self._text is None:
            parts = []
            for label in self.labels:
                if _NEEDS_ESCAPE.search(label) is None:
                    # hostname-style label: decode in one step
                    parts.append(label.decode("ascii"))
                    continue
                out = []
                for byte in label:
                    char = bytes((byte,))
                    if char in b".\\":
                        out.append("\\" + char.decode())
                    elif 0x21 <= byte <= 0x7E:
                        out.append(char.decode("ascii"))
                    else:
                        out.append(f"\\{byte:03d}")
                parts.append("".join(out))
            self._text = ".".join(parts) + "."
        if not omit_final_dot:
            return self._text
        text = self._textn
        if text is None:
            text = self._textn = self._text[:-1]
        return text

    def key_text(self) -> str:
        """Lowercased presentation form without the final dot, memoised —
        the zone synthesiser keys every deterministic draw on this."""
        text = self._ktext
        if text is None:
            text = self.to_text(omit_final_dot=True)
            if self._key is not self.labels:
                text = text.lower()
            self._ktext = text
        return text

    @property
    def is_root(self) -> bool:
        return not self.labels

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering: compare label sequences right to left.
        return self._key[::-1] < other._key[::-1]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    def parent(self) -> "Name":
        """The name with its leftmost label removed.

        >>> Name.from_text("a.b.com").parent()
        Name('b.com.')
        """
        if self.is_root:
            raise NameError_("root has no parent")
        return _interned(self.labels[1:])

    def child(self, label: bytes | str) -> "Name":
        if isinstance(label, str):
            label = label.encode("ascii")
        return _interned((label,) + self.labels)

    def concatenate(self, suffix: "Name") -> "Name":
        """``self`` + ``suffix``."""
        return _interned(self.labels + suffix.labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` equals ``other`` or sits beneath it."""
        if len(other._key) > len(self._key):
            return False
        if not other._key:
            return True
        return self._key[-len(other._key) :] == other._key

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Labels of ``self`` below ``origin`` (self must be a subdomain)."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        count = len(self.labels) - len(origin.labels)
        return self.labels[:count]

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, parent, ..., root."""
        name = self
        while True:
            yield name
            if name.is_root:
                return
            name = name.parent()

    def wire_length(self) -> int:
        """Uncompressed encoded size in bytes (computed on validation)."""
        return self._wlen

    def canonical_key(self) -> tuple[bytes, ...]:
        """Lowercased labels; stable dictionary key for case-folded lookups."""
        return self._key

    def encoded_labels(self) -> tuple[bytes, ...]:
        """Length-prefixed wire encoding of each label, memoised — the
        writer appends these single-pass instead of per-byte."""
        enc = self._enc
        if enc is None:
            enc = tuple(bytes((len(label),)) + label for label in self.labels)
            self._enc = enc
        return enc

    def suffix_keys(self) -> tuple[tuple[bytes, ...], ...]:
        """``labels[i:]`` for each label position, memoised — the
        compression map probes these without re-slicing per write.

        The labels are spelled exactly as given, not case-folded: a
        pointer stands for the bytes it points at, so a suffix may only
        reuse an earlier one spelled the same way, or the decoded name
        would change case (RFC 4343 asks that case be preserved)."""
        suffixes = self._suffixes
        if suffixes is None:
            labels = self.labels
            suffixes = tuple(labels[i:] for i in range(len(labels)))
            self._suffixes = suffixes
        return suffixes


_ROOT = Name(())

#: The one ``Name`` of each exact spelling while anything holds it:
#: case-preserved label tuple -> weak reference.  A name's death pops
#: its entry (the reference's callback is ``_LIVE.pop`` bound to the
#: key, C code all the way), so the table holds live names only and a
#: scan keeps a name exactly as long as a lookup, a cache or a memo
#: does.  Never cleared: two live instances of one spelling would then
#: coexist.  The callback runs as the name is freed, before any Python
#: code could make another of its spelling (nothing in this program
#: runs code from a weakref callback that could), so it never pops a
#: newer entry.
_LIVE: dict[tuple[bytes, ...], weakref.ref] = {(): weakref.ref(_ROOT)}
_live_pop = _LIVE.pop


def _made(labels: tuple[bytes, ...]) -> Name:
    """Validate ``labels`` into a new name and enter it in ``_LIVE``."""
    name = Name(labels)
    _LIVE[labels] = weakref.ref(name, partial(_live_pop, labels))
    return name


def _interned(labels: tuple[bytes, ...]) -> Name:
    """The live name spelled ``labels``, made if none is."""
    try:
        name = _LIVE[labels]()
    except KeyError:
        name = None
    return _made(labels) if name is None else name


def name_from_ipv4_ptr(address: str) -> Name:
    """Reverse-map an IPv4 dotted quad into in-addr.arpa.

    >>> name_from_ipv4_ptr("1.2.3.4").to_text()
    '4.3.2.1.in-addr.arpa.'
    """
    octets = address.split(".")
    if len(octets) != 4 or not all(o.isdigit() and 0 <= int(o) <= 255 for o in octets):
        raise NameError_(f"invalid IPv4 address {address!r}")
    labels = tuple(o.encode("ascii") for o in reversed(octets))
    return _interned(labels + (b"in-addr", b"arpa"))

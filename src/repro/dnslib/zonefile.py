"""Master-file (zone file) loading (RFC 1035 section 5).

Supports ``$ORIGIN`` / ``$TTL`` directives, relative and ``@`` owner
names, owner inheritance from the previous record, optional TTL/class
fields in either order, parenthesised multi-line records, and comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .message import ResourceRecord
from .name import Name
from .text_format import TextParseError, rdata_from_text, relative_name
from .types import DNSClass, RRType, type_from_text

_CLASSES = {"IN", "CH", "HS"}


class ZoneParseError(ValueError):
    """Raised for malformed zone files, with line information."""


@dataclass
class Zone:
    """A parsed zone: origin plus its records in file order."""

    origin: Name
    records: list[ResourceRecord] = field(default_factory=list)

    def find(self, name: Name | str, rrtype: RRType | None = None) -> list[ResourceRecord]:
        if isinstance(name, str):
            name = Name.from_text(name) if name.endswith(".") else relative_name(name, self.origin)
        return [
            record
            for record in self.records
            if record.name == name and (rrtype is None or int(record.rrtype) == int(rrtype))
        ]

    def names(self) -> set[Name]:
        return {record.name for record in self.records}


def _logical_lines(text: str):
    """Join parenthesised continuations; yield (line_number, line)."""
    pending = ""
    pending_start = 0
    depth = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if depth == 0:
            pending = line
            pending_start = number
        else:
            pending += " " + line.strip()
        depth += line.count("(") - line.count(")")
        if depth < 0:
            raise ZoneParseError(f"line {number}: unbalanced ')'")
        if depth == 0 and pending.strip():
            yield pending_start, pending.replace("(", " ").replace(")", " ")
    if depth != 0:
        raise ZoneParseError(f"line {pending_start}: unclosed '('")


def _strip_comment(line: str) -> str:
    if ";" not in line:
        return line  # fast path: nothing to strip, no escape scan needed
    if '"' not in line and "\\" not in line:
        return line[: line.index(";")]
    out = []
    in_quotes = False
    escaped = False
    for char in line:
        if escaped:
            out.append(char)
            escaped = False
            continue
        if char == "\\":
            out.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == ";" and not in_quotes:
            break
        out.append(char)
    return "".join(out)


def parse_zone(text: str, origin: Name | str | None = None, default_ttl: int = 3600) -> Zone:
    """Parse zone-file text into a :class:`Zone`."""
    return parse_zone_lines(_logical_lines(text), origin=origin, default_ttl=default_ttl)


def parse_zone_lines(
    lines, origin: Name | str | None = None, default_ttl: int = 3600
) -> Zone:
    """Bulk-parse presentation-format records from an iterable of
    logical lines — either plain strings or ``(line_number, line)``
    pairs.  Zone synthesis that already holds clean generated lines
    feeds them here directly, skipping the comment-stripping and
    parenthesis-joining passes of :func:`parse_zone`; rdata parsing is
    memoised in :func:`repro.dnslib.text_format.rdata_from_text`, so
    repeated rdata strings cost one parse for the whole batch."""
    if isinstance(origin, str):
        origin = Name.from_text(origin)
    current_origin = origin
    current_ttl = default_ttl
    last_owner: Name | None = None
    records: list[ResourceRecord] = []

    for entry in _numbered(lines):
        number, line = entry
        starts_with_space = line[:1] in (" ", "\t")
        fields = line.split()
        if not fields:
            continue

        if fields[0].startswith("$"):
            directive = fields[0].upper()
            if directive == "$ORIGIN":
                if len(fields) != 2:
                    raise ZoneParseError(f"line {number}: $ORIGIN needs one argument")
                current_origin = Name.from_text(fields[1])
            elif directive == "$TTL":
                if len(fields) != 2 or not fields[1].isdigit():
                    raise ZoneParseError(f"line {number}: $TTL needs an integer")
                current_ttl = int(fields[1])
            else:
                raise ZoneParseError(f"line {number}: unknown directive {fields[0]}")
            continue

        # owner: explicit unless the line starts with whitespace
        if starts_with_space:
            owner = last_owner
            if owner is None:
                raise ZoneParseError(f"line {number}: no previous owner to inherit")
        else:
            owner = _owner_name(fields.pop(0), current_origin, number)
            last_owner = owner

        ttl = current_ttl
        rrclass = DNSClass.IN
        # optional TTL and class, in either order, before the type
        for _ in range(2):
            if fields and fields[0].isdigit():
                ttl = int(fields.pop(0))
            elif fields and fields[0].upper() in _CLASSES:
                rrclass = DNSClass[fields.pop(0).upper()]
        if not fields:
            raise ZoneParseError(f"line {number}: missing record type")
        try:
            rrtype = type_from_text(fields.pop(0))
        except ValueError as error:
            raise ZoneParseError(f"line {number}: {error}") from None

        # everything after the type token is rdata
        remainder = " ".join(fields)
        try:
            rdata = rdata_from_text(rrtype, remainder, origin=current_origin)
        except TextParseError as error:
            raise ZoneParseError(f"line {number}: {error}") from None

        records.append(ResourceRecord(owner, rrtype, rrclass, ttl, rdata))

    if current_origin is None:
        if not records:
            raise ZoneParseError("empty zone and no origin")
        current_origin = records[0].name
    return Zone(origin=current_origin, records=records)


def _numbered(lines):
    """Normalise a line iterable to (number, line) pairs."""
    for index, item in enumerate(lines, start=1):
        if isinstance(item, tuple):
            yield item
        else:
            yield index, item


def _owner_name(token: str, origin: Name | None, number: int) -> Name:
    if token == "@":
        if origin is None:
            raise ZoneParseError(f"line {number}: @ without $ORIGIN")
        return origin
    if token.endswith("."):
        return Name.from_text(token)
    if origin is None:
        raise ZoneParseError(f"line {number}: relative owner without $ORIGIN")
    return relative_name(token, origin)


def load_zone(path: str, origin: Name | str | None = None) -> Zone:
    """Parse a zone from a file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_zone(handle.read(), origin=origin)


def zone_to_text(zone: Zone) -> str:
    """Serialise a zone back to master-file format.

    Output parses back to an equivalent zone (``parse_zone`` of the
    result yields the same records).
    """
    lines = [f"$ORIGIN {zone.origin.to_text()}"]
    for record in zone.records:
        rrtype = record.rrtype
        type_text = rrtype.name if hasattr(rrtype, "name") else f"TYPE{int(rrtype)}"
        lines.append(
            f"{record.name.to_text()} {record.ttl} "
            f"{DNSClass(int(record.rrclass)).name} {type_text} {record.rdata.to_text()}"
        )
    return "\n".join(lines) + "\n"

"""Property-based tests (hypothesis) for the wire codec."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dnslib import (
    DNSClass,
    Flags,
    Message,
    Name,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    RRType,
    WireError,
    WireReader,
    WireWriter,
)
from repro.dnslib.rdata.address import A, AAAA
from repro.dnslib.rdata.names import CNAME, NS
from repro.dnslib.rdata.security import CAA
from repro.dnslib.rdata.text import TXT
from repro.dnslib.rdata._util import decode_type_bitmap, encode_type_bitmap

labels = st.binary(min_size=1, max_size=63)
names = st.builds(
    Name,
    st.lists(labels, min_size=0, max_size=8).filter(
        lambda ls: 1 + sum(len(l) + 1 for l in ls) <= 255
    ),
)

hostname_labels = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
hostnames = st.builds(
    lambda parts: Name([p.encode() for p in parts]),
    st.lists(hostname_labels, min_size=1, max_size=5),
)


@given(names)
def test_name_wire_roundtrip(name):
    writer = WireWriter()
    writer.write_name(name)
    assert WireReader(writer.getvalue()).read_name() == name


@given(names)
def test_name_text_roundtrip(name):
    assert Name.from_text(name.to_text()) == name


@given(st.lists(names, min_size=1, max_size=6))
@example([Name([b"www", b"example", b"com"]), Name([b"EXAMPLE", b"com"])])
def test_compressed_sequence_roundtrip(name_list):
    """Compression keeps every name's spelling: ``==`` ignores case, so
    the labels are compared."""
    writer = WireWriter()
    for name in name_list:
        writer.write_name(name)
    reader = WireReader(writer.getvalue())
    for name in name_list:
        assert reader.read_name().labels == name.labels
    assert reader.at_end()


@given(names, names)
def test_subdomain_of_concatenation(prefix, suffix):
    try:
        joined = prefix.concatenate(suffix)
    except Exception:
        return  # combined name too long: nothing to check
    assert joined.is_subdomain_of(suffix)


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=40))
def test_type_bitmap_roundtrip(types):
    expected = tuple(sorted(set(types)))
    assert decode_type_bitmap(encode_type_bitmap(tuple(types))) == expected


@given(st.binary(max_size=300))
def test_arbitrary_bytes_never_crash_decoder(data):
    """Malformed packets must raise WireError, never anything else."""
    try:
        Message.from_wire(data)
    except WireError:
        pass


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([r for r in Rcode if r < 16]),  # >15 needs EDNS extended rcode
)
def test_flags_roundtrip(txid, response, rd, ra, rcode):
    flags = Flags(response=response, recursion_desired=rd, recursion_available=ra, rcode=rcode)
    message = Message(id=txid, flags=flags, questions=[Question(Name.from_text("a.b"), RRType.A)])
    decoded = Message.from_wire(message.to_wire())
    assert decoded.id == txid
    assert decoded.flags == flags


rdatas = st.one_of(
    st.builds(A, st.integers(0, 2**32 - 1).map(lambda v: f"{v >> 24}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}")),
    st.builds(AAAA, st.integers(0, 2**128 - 1).map(lambda v: __import__("ipaddress").IPv6Address(v).compressed)),
    st.builds(NS, hostnames),
    st.builds(CNAME, hostnames),
    st.builds(TXT, st.lists(st.binary(max_size=255), min_size=1, max_size=3)),
    st.builds(
        CAA,
        st.integers(0, 255),
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10).map(str.encode),
        st.binary(max_size=100),
    ),
)

records = st.builds(
    lambda name, rdata, ttl: ResourceRecord(name, rdata.rrtype, DNSClass.IN, ttl, rdata),
    hostnames,
    rdatas,
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=50)
@given(
    st.integers(0, 0xFFFF),
    hostnames,
    st.lists(records, max_size=5),
    st.lists(records, max_size=3),
    st.lists(records, max_size=3),
)
def test_message_roundtrip(txid, qname, answers, authorities, additionals):
    message = Message(
        id=txid,
        flags=Flags(response=True, opcode=Opcode.QUERY),
        questions=[Question(qname, RRType.A)],
        answers=answers,
        authorities=authorities,
        additionals=additionals,
    )
    decoded = Message.from_wire(message.to_wire())
    assert decoded.answers == answers
    assert decoded.authorities == authorities
    assert decoded.additionals == additionals
    assert decoded.question.name == qname


# --------------------------------------------------------------------------
# encode -> decode -> re-encode byte stability (the fast-path codec must
# be a bijection on everything it produces, or the wire-validation modes
# would drift from the object path)


def _all_sample_records():
    from repro.dnslib.rdata.misc import LOC
    from repro.dnslib.rdata.svcb import HTTPS, SVCB

    from .rdata_samples import SAMPLES

    samples = dict(SAMPLES)
    samples.setdefault(RRType.LOC, [LOC(2**31 + 3_600_000, 2**31 - 7_200_000, 10_050_000)])
    samples.setdefault(RRType.SVCB, [SVCB(1, Name.from_text("svc.example.com"), ((1, b"\x02h2"),))])
    samples.setdefault(RRType.HTTPS, [HTTPS(0, Name.from_text("alias.example.com"))])

    owner = Name.from_text("records.example.com")
    out = []
    for rrtype, instances in sorted(samples.items(), key=lambda kv: int(kv[0])):
        for rdata in instances:
            out.append(ResourceRecord(owner, rrtype, DNSClass.IN, 300, rdata))
    return out


def test_reencode_identical_all_registered_types():
    """Every registered RDATA codec survives encode→decode→re-encode
    byte-identically (compression on: Message.to_wire's path)."""
    from repro.dnslib.rdata import registered_types

    records = _all_sample_records()
    covered = {int(r.rrtype) for r in records}
    missing = set(registered_types()) - covered
    assert not missing, f"rdata_samples.py lacks samples for type codes {sorted(missing)}"

    for record in records:
        message = Message(
            id=0x2222,
            flags=Flags(response=True),
            questions=[Question(Name.from_text("q.example.com"), record.rrtype)],
            answers=[record],
        )
        first = message.to_wire()
        decoded = Message.from_wire(first)
        second = decoded.to_wire()
        assert second == first, f"re-encode drift for {record.rrtype!r}"


def test_reencode_identical_without_compression():
    """The same bijection holds with name compression disabled."""
    for record in _all_sample_records():
        writer = WireWriter(enable_compression=False)
        record.to_wire(writer)
        first = writer.getvalue()
        decoded = ResourceRecord.from_wire(WireReader(first))
        rewriter = WireWriter(enable_compression=False)
        decoded.to_wire(rewriter)
        assert rewriter.getvalue() == first, f"uncompressed drift for {record.rrtype!r}"


@settings(max_examples=100)
@given(st.lists(names, min_size=1, max_size=8), st.booleans())
def test_name_sequence_reencode_identical(name_list, compress):
    """Random (seeded by hypothesis) name sequences re-encode to the
    same bytes after a decode pass, with and without compression."""
    writer = WireWriter(enable_compression=compress)
    for name in name_list:
        writer.write_name(name)
    first = writer.getvalue()
    reader = WireReader(first)
    decoded = [reader.read_name() for _ in name_list]
    rewriter = WireWriter(enable_compression=compress)
    for name in decoded:
        rewriter.write_name(name)
    assert rewriter.getvalue() == first


@settings(max_examples=60)
@given(
    st.integers(0, 0xFFFF),
    hostnames,
    st.lists(records, min_size=1, max_size=6),
)
def test_message_reencode_identical(txid, qname, answers):
    message = Message(
        id=txid,
        flags=Flags(response=True, authoritative=True),
        questions=[Question(qname, RRType.A)],
        answers=answers,
    )
    first = message.to_wire()
    second = Message.from_wire(first).to_wire()
    assert second == first


# --------------------------------------------------------------------------
# truncation robustness: a scanner on a hostile Internet sees cut-off
# datagrams constantly (UDP truncation, the fault injector's Truncate/
# Garbage directives).  Every *prefix* of a valid message must either
# decode cleanly or raise WireError — never a different exception, never
# a hang.


@settings(max_examples=40)
@given(
    st.integers(0, 0xFFFF),
    hostnames,
    st.lists(records, max_size=4),
    st.data(),
)
def test_every_prefix_decodes_or_raises(txid, qname, answers, data):
    message = Message(
        id=txid,
        flags=Flags(response=True),
        questions=[Question(qname, RRType.A)],
        answers=answers,
    )
    wire = message.to_wire()
    cut = data.draw(st.integers(min_value=0, max_value=len(wire)))
    try:
        Message.from_wire(wire[:cut])
    except WireError:
        pass


def test_all_prefixes_of_reference_message():
    """Exhaustive byte-slice sweep of one representative response —
    deterministic companion to the sampled hypothesis property."""
    qname = Name.from_text("www.example.com")
    message = Message(
        id=0x1234,
        flags=Flags(response=True, authoritative=True),
        questions=[Question(qname, RRType.A)],
        answers=[ResourceRecord(qname, RRType.A, DNSClass.IN, 300, A("93.0.0.1"))],
        authorities=[
            ResourceRecord(
                Name.from_text("example.com"), RRType.NS, DNSClass.IN, 300,
                NS(Name.from_text("ns1.example.com")),
            )
        ],
    )
    wire = message.to_wire()
    decoded = 0
    for cut in range(len(wire) + 1):
        try:
            Message.from_wire(wire[:cut])
            decoded += 1
        except WireError:
            pass
    # only the complete packet parses: every counted section is present
    assert decoded == 1


@given(st.binary(max_size=64))
def test_compression_pointer_fuzz_terminates(prefix):
    """Packets whose name fields are compression pointers into arbitrary
    places (including each other) must decode-or-raise, not loop."""
    # craft a header claiming one question, then arbitrary bytes ending
    # in a pointer back into the header region
    header = (0x1234).to_bytes(2, "big") + b"\x80\x00" + b"\x00\x01" + b"\x00\x00" * 3
    for offset in (0, 2, 12, 13):
        wire = header + prefix + bytes([0xC0, offset]) + b"\x00\x01\x00\x01"
        try:
            Message.from_wire(wire)
        except WireError:
            pass


def _header(qd=0, an=0, ns=0, ar=0, txid=0x1234, flags=0x8400) -> bytes:
    return (
        txid.to_bytes(2, "big")
        + flags.to_bytes(2, "big")
        + qd.to_bytes(2, "big")
        + an.to_bytes(2, "big")
        + ns.to_bytes(2, "big")
        + ar.to_bytes(2, "big")
    )


_QNAME = b"\x01a\x07example\x00"  # "a.example" at offset 12, 11 bytes


def _null_rr(rdata: bytes) -> bytes:
    """A root-owned NULL record carrying raw bytes — the opaque rdata is
    kept verbatim, so it can smuggle pointer bytes into the packet."""
    return b"\x00" + b"\x00\x0a\x00\x01" + b"\x00\x00\x00\x00" + len(rdata).to_bytes(2, "big") + rdata


def test_pointer_to_pointer_chain_decodes():
    """A name that is a pointer to a pointer (both backward) must chase
    the chain and land on the original labels."""
    # question "a.example" at 12..22, fixed fields to 27; NULL rdata at
    # offset 38 holds a pointer to the question name; the A record's
    # owner at offset 40 points at that pointer.
    wire = (
        _header(qd=1, an=2)
        + _QNAME
        + b"\x00\x01\x00\x01"
        + _null_rr(b"\xc0\x0c")
        + b"\xc0\x26"  # owner: pointer to offset 38 (inside the NULL rdata)
        + b"\x00\x01\x00\x01" + b"\x00\x00\x01\x2c" + b"\x00\x04" + b"\x5d\x00\x00\x01"
    )
    decoded = Message.from_wire(wire)
    assert decoded.answers[1].name == Name.from_text("a.example")
    assert decoded.answers[1].rrtype == RRType.A
    assert decoded.answers[1].rdata == A("93.0.0.1")


def test_self_pointer_raises():
    """A name whose first byte is a pointer to itself is rejected (the
    codec only accepts strictly backward targets)."""
    wire = _header(qd=1) + b"\xc0\x0c" + b"\x00\x01\x00\x01"
    try:
        Message.from_wire(wire)
        raise AssertionError("self-pointer accepted")
    except WireError:
        pass


def test_label_pointer_loop_raises():
    """label + pointer back to the label's own start: each chase re-reads
    the label, so only the jump guard can terminate it."""
    wire = _header(qd=1) + b"\x01a\xc0\x0c" + b"\x00\x01\x00\x01"
    try:
        Message.from_wire(wire)
        raise AssertionError("pointer loop accepted")
    except WireError:
        pass


def _chain_packet(jumps: int) -> bytes:
    """An A record whose owner name chases ``jumps`` chained pointers
    (smuggled in NULL rdata) before reaching the question name."""
    head = _header(qd=1, an=2) + _QNAME + b"\x00\x01\x00\x01"
    rdata_start = len(head) + 1 + 4 + 4 + 2  # after the NULL rr's fixed fields
    chain = bytearray(b"\xc0\x0c")  # first hop: the question name at 12
    for hop in range(1, jumps):
        target = rdata_start + (hop - 1) * 2
        chain += bytes([0xC0 | (target >> 8), target & 0xFF])
    last = rdata_start + (jumps - 1) * 2
    return (
        head
        + _null_rr(bytes(chain))
        + bytes([0xC0 | (last >> 8), last & 0xFF])
        + b"\x00\x01\x00\x01" + b"\x00\x00\x01\x2c" + b"\x00\x04" + b"\x5d\x00\x00\x01"
    )


def test_pointer_chain_depth_limits():
    """A modest chain decodes to the spliced name; a chain past the jump
    guard raises instead of walking forever."""
    decoded = Message.from_wire(_chain_packet(16))
    assert decoded.answers[1].name == Name.from_text("a.example")
    try:
        Message.from_wire(_chain_packet(80))
        raise AssertionError("80-jump chain accepted")
    except WireError:
        pass


def test_all_prefixes_of_rich_message():
    """Exhaustive truncation sweep of a response exercising EDNS, lazy
    char-string rdata, SOA, AAAA and CNAME: only the full packet may
    parse, and malformed slices raise WireError, never anything else."""
    from repro.dnslib import add_edns
    from repro.dnslib.rdata.names import SOA

    qname = Name.from_text("www.example.com")
    apex = Name.from_text("example.com")
    message = Message(
        id=0x7777,
        flags=Flags(response=True, authoritative=True),
        questions=[Question(qname, RRType.TXT)],
        answers=[
            ResourceRecord(qname, RRType.CNAME, DNSClass.IN, 300, CNAME(apex)),
            ResourceRecord(apex, RRType.TXT, DNSClass.IN, 300, TXT((b"v=spf1 -all",))),
            ResourceRecord(apex, RRType.AAAA, DNSClass.IN, 300, AAAA("2001:db8::1")),
        ],
        authorities=[
            ResourceRecord(
                apex, RRType.SOA, DNSClass.IN, 3600,
                SOA(Name.from_text("ns1.example.com"),
                    Name.from_text("hostmaster.example.com"),
                    2024010101, 7200, 3600, 1209600, 300),
            )
        ],
    )
    add_edns(message, payload_size=1232)
    wire = message.to_wire()
    decoded = 0
    for cut in range(len(wire) + 1):
        try:
            Message.from_wire(wire[:cut])
            decoded += 1
        except WireError:
            pass
    assert decoded == 1


# --------------------------------------------------------------------------
# differential decode: Message.from_wire walks the packet in one flat
# pass with inlined fast paths (pointer owners, A, single-name rdata);
# the cursor path — WireReader + Question.from_wire +
# ResourceRecord.from_wire, one generic step per entry — is the
# reference.  On well-formed and on damaged packets alike the two must
# agree: equal messages, or WireError from both.


def _reference_decode(data: bytes) -> Message:
    from repro.dnslib import peek_header

    msg_id, raw_flags, *counts = peek_header(data)
    reader = WireReader(data, 12)
    questions = [Question.from_wire(reader) for _ in range(counts[0])]
    sections = [[ResourceRecord.from_wire(reader) for _ in range(count)] for count in counts[1:]]
    return Message(msg_id, Flags.from_int(raw_flags), questions, *sections)


def _outcome(decode, data):
    try:
        return decode(data)
    except WireError:
        return WireError


@st.composite
def _damaged_packets(draw):
    """A message over every registered type, encoded, then possibly
    damaged: bytes flipped, cut short, counts inflated, compression
    pointers redirected."""
    qname = draw(hostnames)
    # owners that make the writer emit every pointer shape: the question
    # name itself, a suffix of it, a child of it, and a stranger
    owners = [qname, Name(qname.labels[1:]), draw(hostnames)]
    if qname.wire_length() < 200:
        owners.append(qname.child(b"child"))
    pool = _all_sample_records()
    record = st.builds(
        lambda owner, sample, ttl: ResourceRecord(
            owner, sample.rrtype, DNSClass.IN, ttl, sample.rdata
        ),
        st.sampled_from(owners),
        st.sampled_from(pool),
        st.integers(0, 2**31 - 1),
    )
    message = Message(
        id=draw(st.integers(0, 0xFFFF)),
        flags=Flags.from_int(draw(st.integers(0, 0xFFFF))),
        questions=[Question(qname, draw(st.sampled_from([RRType.A, RRType.NS, RRType.TXT])))],
        answers=draw(st.lists(record, max_size=4)),
        authorities=draw(st.lists(record, max_size=3)),
        additionals=draw(st.lists(record, max_size=3)),
    )
    wire = bytearray(message.to_wire())
    damage = draw(st.sampled_from(["none", "flip", "truncate", "counts", "pointers"]))
    if damage == "flip":
        for _ in range(draw(st.integers(1, 3))):
            wire[draw(st.integers(0, len(wire) - 1))] = draw(st.integers(0, 255))
    elif damage == "truncate":
        del wire[draw(st.integers(0, len(wire) - 1)) :]
    elif damage == "counts":
        field = draw(st.sampled_from([4, 6, 8, 10]))
        wire[field + 1] = min(255, wire[field + 1] + draw(st.integers(1, 3)))
    elif damage == "pointers":
        pointers = [i for i in range(12, len(wire) - 1) if wire[i] >= 0xC0]
        for index in draw(st.lists(st.sampled_from(pointers), max_size=3)) if pointers else ():
            target = draw(st.integers(0, len(wire) + 2))
            wire[index] = 0xC0 | target >> 8
            wire[index + 1] = target & 0xFF
    return bytes(wire)


@settings(max_examples=400, deadline=None)
@given(_damaged_packets())
def test_flat_scan_agrees_with_cursor_reference(wire):
    flat = _outcome(Message.from_wire, wire)
    reference = _outcome(_reference_decode, wire)
    assert flat == reference

"""Round-trip and behaviour tests for every RDATA codec."""

import ipaddress

import pytest

from repro.dnslib import (
    GenericRData,
    Name,
    ResourceRecord,
    RRType,
    WireError,
    WireReader,
    WireWriter,
    rdata_class,
    registered_types,
)
from repro.dnslib import rdata as rdata_module
from repro.dnslib.rdata import address as address_module
from repro.dnslib.rdata.address import A, AAAA, EUI48, L32
from repro.dnslib.rdata.security import CAA
from repro.dnslib.rdata.text import TXT, TextRData
from repro.dnslib.rdata._util import decode_type_bitmap, encode_type_bitmap

from .rdata_samples import SAMPLES


def roundtrip(rdata):
    """Encode rdata alone and decode it with its own codec."""
    writer = WireWriter()
    rdata.to_wire(writer)
    wire = writer.getvalue()
    reader = WireReader(wire)
    decoded = type(rdata).from_wire(reader, len(wire))
    assert reader.at_end()
    return decoded


ALL_SAMPLES = [
    pytest.param(rdata, id=f"{RRType(rrtype).name}-{i}")
    for rrtype, samples in sorted(SAMPLES.items())
    for i, rdata in enumerate(samples)
]


@pytest.mark.parametrize("rdata", ALL_SAMPLES)
def test_wire_roundtrip(rdata):
    assert roundtrip(rdata) == rdata


@pytest.mark.parametrize("rdata", ALL_SAMPLES)
def test_to_text_is_string(rdata):
    assert isinstance(rdata.to_text(), str)


@pytest.mark.parametrize("rdata", ALL_SAMPLES)
def test_record_roundtrip_through_message_section(rdata):
    record = ResourceRecord(Name.from_text("example.com"), rdata.rrtype, 1, 3600, rdata)
    writer = WireWriter()
    record.to_wire(writer)
    decoded = ResourceRecord.from_wire(WireReader(writer.getvalue()))
    assert decoded.rdata == rdata
    assert decoded.ttl == 3600


def test_every_paper_type_is_registered():
    paper_types = [
        "A", "AAAA", "AFSDB", "ATMA", "AVC", "CAA", "CDNSKEY", "CDS", "CERT",
        "CNAME", "CSYNC", "DHCID", "DNSKEY", "DS", "EID", "EUI48", "EUI64",
        "GID", "GPOS", "HINFO", "HIP", "ISDN", "KEY", "KX", "L32", "L64",
        "LOC", "LP", "MB", "MD", "MF", "MG", "MR", "MX", "NAPTR", "NID",
        "NINFO", "NS", "NSAPPTR", "NSEC", "NSEC3PARAM", "NXT", "OPENPGPKEY",
        "PTR", "PX", "RP", "RRSIG", "RT", "SMIMEA", "SOA", "SPF", "SRV",
        "SSHFP", "TALINK", "TKEY", "TLSA", "TXT", "UID", "UINFO", "UNSPEC",
        "URI",
    ]
    registered = registered_types()
    missing = [t for t in paper_types if int(RRType[t]) not in registered]
    assert not missing


#: The module whose import registers each type's codec (the class is
#: named after its type); the type table loads it on first use.
CODEC_MODULES = {
    "repro.dnslib.rdata.address": "A AAAA EID NIMLOC ATMA NID L32 L64 LP EUI48 EUI64",
    "repro.dnslib.rdata.names": "NS MD MF CNAME SOA MB MG MR PTR NSAPPTR DNAME TALINK",
    "repro.dnslib.rdata.text": "NULL HINFO TXT X25 ISDN GPOS NINFO SPF UINFO UID GID UNSPEC AVC",
    "repro.dnslib.rdata.mail": "MINFO MX RP AFSDB RT PX SRV NAPTR KX",
    "repro.dnslib.rdata.dnssec": "SIG KEY NXT DS RRSIG NSEC DNSKEY NSEC3 NSEC3PARAM CDS CDNSKEY CSYNC",
    "repro.dnslib.rdata.misc": "LOC",
    "repro.dnslib.rdata.security": "CERT SSHFP DHCID TLSA SMIMEA HIP OPENPGPKEY TKEY URI CAA",
    "repro.dnslib.rdata.svcb": "SVCB HTTPS",
    "repro.dnslib.edns": "OPT",
}


def test_type_table_maps_every_type_to_its_codec():
    pinned = {
        int(RRType[name]): module
        for module, names in CODEC_MODULES.items()
        for name in names.split()
    }
    assert len(pinned) == 71
    assert registered_types() == frozenset(pinned)
    for code, module in pinned.items():
        cls = rdata_class(code)
        assert (cls.__module__, cls.__name__) == (module, RRType(code).name)
        assert cls.rrtype == code
        assert rdata_class(RRType(code)) is cls
    # every codec module is loaded now: none registers a type the table lacks
    assert set(rdata_module._REGISTRY) == set(pinned)


def test_unknown_type_uses_generic():
    for code in (61000, 0, 252, 255, 65535):
        assert rdata_class(code) is GenericRData
    data = GenericRData(b"\x01\x02\x03")
    assert roundtrip(data) == data
    assert data.to_text() == r"\# 3 010203"
    assert GenericRData().to_text() == r"\# 0"


class TestAddress:
    def test_a_rejects_wrong_length(self):
        with pytest.raises(WireError):
            A.from_wire(WireReader(b"\x01\x02"), 2)

    def test_a_text(self):
        assert A("10.0.0.1").to_text() == "10.0.0.1"
        assert A("10.0.0.1").zdns_answer() == "10.0.0.1"

    def test_a_decoded_address_is_shared_while_held(self):
        """One decoded ``A`` per address while anything holds it, and
        none kept once nothing does."""
        packed = bytes([198, 51, 100, 77])
        first = A.from_wire(WireReader(packed), 4)
        assert first.address == "198.51.100.77" and first == A("198.51.100.77")
        assert A.from_wire(WireReader(packed), 4) is first
        assert packed in address_module._LIVE_A
        del first
        assert packed not in address_module._LIVE_A

    def test_aaaa_text_is_compressed_form(self):
        assert AAAA("2001:0db8:0000:0000:0000:0000:0000:0001").to_text() == "2001:db8::1"

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError):
            A("999.0.0.1")

    @pytest.mark.parametrize(
        "build, reference, text",
        [
            (build, reference, text)
            for build, reference, texts in (
                (A, ipaddress.IPv4Address, ("1.2.3", "01.2.3.4", "garbage", " 1.2.3.4", "", "1.2.3.256")),
                (lambda text: L32(1, text), ipaddress.IPv4Address, ("10.1", "010.1.2.3")),
                (AAAA, ipaddress.IPv6Address, ("1.2.3.4", "::g", "")),
            )
            for text in texts
        ],
    )
    def test_unusual_text_raises_what_ipaddress_raises(self, build, reference, text):
        """Shorthand, leading zeros and garbage fall through the fast
        parse to ``ipaddress``: same exception type, same words."""
        with pytest.raises(ipaddress.AddressValueError) as expected:
            reference(text)
        with pytest.raises(ipaddress.AddressValueError) as caught:
            build(text)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize(
        "from_text, wire",
        [
            (A("1.2.3.4"), b"\x01\x02\x03\x04"),
            (AAAA("2001:0DB8:0:0::1"), bytes.fromhex("20010db8000000000000000000000001")),
            (L32(10, "10.1.2.3"), b"\x00\x0a\x0a\x01\x02\x03"),
        ],
        ids=["A", "AAAA", "L32"],
    )
    def test_packed_form_is_not_a_value_field(self, from_text, wire):
        """An address record keeps the bytes it was parsed from or
        decoded as in a private slot; eq, hash, repr and JSON see the
        text only, however the record was built."""
        from_wire = type(from_text).from_wire(WireReader(wire), len(wire))
        assert from_text == from_wire and hash(from_text) == hash(from_wire)
        assert repr(from_text) == repr(from_wire) and "packed" not in repr(from_text)
        assert from_text.zdns_answer() == from_wire.zdns_answer() == from_text.to_text()
        for rdata in (from_text, from_wire):
            writer = WireWriter()
            rdata.to_wire(writer)
            assert writer.getvalue() == wire
        record = ResourceRecord(Name.from_text("h.example"), from_text.rrtype, 1, 60, from_wire)
        assert "packed" not in str(record.to_json())

    def test_eui48_length_enforced(self):
        with pytest.raises(ValueError):
            EUI48(b"\x00")

    def test_eui48_text(self):
        assert EUI48(b"\x00\x11\x22\x33\x44\x55").to_text() == "00-11-22-33-44-55"


class TestText:
    def test_from_string_splits_at_255(self):
        rdata = TXT.from_string(b"x" * 600)
        assert [len(s) for s in rdata.strings] == [255, 255, 90]
        assert rdata.joined() == b"x" * 600

    def test_zdns_answer_joins(self):
        assert TXT([b"ab", b"cd"]).zdns_answer() == "abcd"

    def test_quoting(self):
        assert TXT([b'say "hi"']).to_text() == '"say \\"hi\\""'

    def test_rejects_long_chunk(self):
        with pytest.raises(ValueError):
            TextRData([b"x" * 256])

    def test_empty_string_allowed(self):
        rdata = TXT.from_string(b"")
        assert roundtrip(rdata) == rdata


class TestCAA:
    def test_critical_flag(self):
        assert CAA(128, b"issue", b"ca.example").critical
        assert not CAA(0, b"issue", b"ca.example").critical

    def test_tag_validity(self):
        assert CAA(0, b"issue", b"x").tag_is_valid()
        assert CAA(0, b"issue01", b"x").tag_is_valid()
        assert not CAA(0, b"is sue", b"x").tag_is_valid()
        assert not CAA(0, b"is_sue", b"x").tag_is_valid()

    def test_empty_tag_rejected(self):
        with pytest.raises(ValueError):
            CAA(0, b"", b"x")

    def test_zdns_answer_shape(self):
        answer = CAA(0, "issue", "letsencrypt.org").zdns_answer()
        assert answer == {"flag": 0, "tag": "issue", "value": "letsencrypt.org"}

    def test_accepts_str_arguments(self):
        assert CAA(0, "issue", "ca").tag == b"issue"


class TestTypeBitmap:
    def test_roundtrip_simple(self):
        types = (1, 2, 15, 16, 257)
        assert decode_type_bitmap(encode_type_bitmap(types)) == types

    def test_empty(self):
        assert encode_type_bitmap(()) == b""
        assert decode_type_bitmap(b"") == ()

    def test_deduplicates_and_sorts(self):
        assert decode_type_bitmap(encode_type_bitmap((16, 1, 16))) == (1, 16)

    def test_window_boundaries(self):
        types = (0x00FF, 0x0100, 0x1234)
        assert decode_type_bitmap(encode_type_bitmap(types)) == types

    def test_truncated_bitmap_rejected(self):
        with pytest.raises(WireError):
            decode_type_bitmap(b"\x00")

    def test_invalid_block_length_rejected(self):
        with pytest.raises(WireError):
            decode_type_bitmap(b"\x00\x00")

"""Tests for repro.dnslib.name."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnslib import Name, NameError_, name_from_ipv4_ptr


class TestParsing:
    def test_simple(self):
        name = Name.from_text("www.example.com")
        assert name.labels == (b"www", b"example", b"com")

    def test_trailing_dot_is_absolute_form(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root(self):
        assert Name.from_text(".").is_root
        assert Name.from_text("").is_root
        assert Name.root().to_text() == "."

    def test_bytes_input(self):
        assert Name.from_text(b"example.com") == Name.from_text("example.com")

    def test_escaped_dot(self):
        name = Name.from_text(r"a\.b.com")
        assert name.labels == (b"a.b", b"com")

    def test_decimal_escape(self):
        name = Name.from_text(r"a\032b.com")
        assert name.labels == (b"a b", b"com")

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..com")

    def test_trailing_escape_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("abc\\")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * 64 + ".com")

    def test_label_63_ok(self):
        Name.from_text("a" * 63 + ".com")

    def test_name_too_long(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name.from_text(".".join([label] * 4) + ".toolong")


def _loop_parse(text: bytes) -> Name:
    """``Name._parse_text`` as it was before it had a fast path: the
    escape-aware byte loop for every input."""
    if text in (b"", b"."):
        return Name.root()
    return Name(Name._escaped_labels(text[:-1] if text.endswith(b".") else text))


def _outcome(parse, text):
    try:
        return parse(text).labels
    except (NameError_, ValueError) as error:
        return type(error).__name__, str(error)


#: Label pieces: hostname bytes, and (in the escaped variant) every kind
#: of escape, a decimal one out of range and a dangling backslash.
_PLAIN = st.sampled_from([b"a", b"Z", b"0", b"-", b"_", b"xn--", b"www", b"a" * 31])
_ESCAPED = st.sampled_from([b"\\.", b"\\\\", b"\\032", b"\\x", b"\\999", b"\\04", b"\\"])


def _texts(pieces):
    # 0 pieces = an empty label, 3+ of b"a" * 31 = an oversized one,
    # 9 full-size labels = an oversized name
    label = st.lists(pieces, min_size=0, max_size=3).map(b"".join)
    return st.builds(
        lambda labels, dot: b".".join(labels) + dot,
        st.lists(label, min_size=0, max_size=9),
        st.sampled_from([b"", b".", b".."]),
    )


class TestParseFastPath:
    """A name without a backslash is split at its dots; the result, and
    every error, is the byte loop's."""

    @given(_texts(_PLAIN))
    @settings(max_examples=300)
    def test_split_equals_loop_without_escapes(self, text):
        assert b"\\" not in text
        assert _outcome(Name._parse_text, text) == _outcome(_loop_parse, text)

    @given(_texts(st.one_of(_PLAIN, _ESCAPED)))
    @settings(max_examples=300)
    def test_escapes_still_take_the_loop(self, text):
        assert _outcome(Name._parse_text, text) == _outcome(_loop_parse, text)

    def test_every_error_is_reachable_on_both_paths(self):
        for text, message in [
            (b"a..com", "empty label in b'a..com'"),
            (b".com", "empty label in b'.com'"),
            (b"..", "empty label in b'.'"),
            (b"com..", "empty trailing label in b'com.'"),
            (b"a" * 64 + b".com", "label too long: 64 bytes"),
            (b".".join([b"a" * 63] * 4), "name too long: 257 bytes"),
        ]:
            for parse in (Name._parse_text, _loop_parse):
                with pytest.raises(NameError_) as raised:
                    parse(text)
                assert str(raised.value) == message, (parse, text)


class TestSemantics:
    def test_case_insensitive_equality(self):
        assert Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com")
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_case_preserved_in_text(self):
        assert Name.from_text("WwW.example.com").to_text() == "WwW.example.com."

    def test_parent_child(self):
        name = Name.from_text("a.b.com")
        assert name.parent() == Name.from_text("b.com")
        assert name.parent().child(b"a") == name

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            Name.root().parent()

    def test_subdomain(self):
        com = Name.from_text("com")
        assert Name.from_text("example.com").is_subdomain_of(com)
        assert Name.from_text("a.example.com").is_subdomain_of(com)
        assert com.is_subdomain_of(com)
        assert not com.is_subdomain_of(Name.from_text("example.com"))
        assert not Name.from_text("examplecom").is_subdomain_of(com)

    def test_everything_is_under_root(self):
        assert Name.from_text("x.y").is_subdomain_of(Name.root())

    def test_relativize(self):
        name = Name.from_text("a.b.example.com")
        assert name.relativize(Name.from_text("example.com")) == (b"a", b"b")
        with pytest.raises(NameError_):
            name.relativize(Name.from_text("other.com"))

    def test_ancestors(self):
        chain = list(Name.from_text("a.b.c").ancestors())
        assert [n.to_text() for n in chain] == ["a.b.c.", "b.c.", "c.", "."]

    def test_canonical_ordering_is_right_to_left(self):
        a = Name.from_text("z.a.com")
        b = Name.from_text("a.b.com")
        assert a < b  # a.com sorts before b.com

    def test_wire_length(self):
        assert Name.root().wire_length() == 1
        assert Name.from_text("ab.cd").wire_length() == 1 + 3 + 3

    def test_concatenate(self):
        joined = Name.from_text("www").concatenate(Name.from_text("example.com"))
        assert joined == Name.from_text("www.example.com")

    def test_iteration_and_len(self):
        name = Name.from_text("a.b.c")
        assert len(name) == 3
        assert list(name) == [b"a", b"b", b"c"]

    def test_special_bytes_roundtrip_text(self):
        name = Name((b"a\x00b", b"com"))
        assert Name.from_text(name.to_text()) == name


class TestPtrNames:
    def test_reverse_mapping(self):
        assert name_from_ipv4_ptr("192.0.2.1").to_text() == "1.2.0.192.in-addr.arpa."

    def test_invalid_address(self):
        with pytest.raises(NameError_):
            name_from_ipv4_ptr("300.1.1.1")
        with pytest.raises(NameError_):
            name_from_ipv4_ptr("1.2.3")

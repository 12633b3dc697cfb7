"""Codec-stats and decode-avoidance regression tests.

``Message.from_wire`` decodes every record during its one pass over a
private immutable copy of the packet (so a reused receive buffer can
never leak into a decoded value), the codec stats count real work, and
the transport/simulator avoid full decodes wherever a cheap
transaction-id peek or an abandoned future makes them pointless.
"""

import copy
import pickle
import socket
import threading

import pytest

from repro.dnslib import (
    CODEC_STATS,
    DNSClass,
    Message,
    Name,
    Question,
    ResourceRecord,
    RRType,
    WireError,
    add_edns,
    clear_codec_caches,
    decode_many,
    peek_header,
    peek_txid,
)
from repro.dnslib.rdata.address import A, AAAA
from repro.dnslib.rdata.names import CNAME, NS
from repro.dnslib.rdata.text import TXT
from repro.net import LatencyModel, ServerReply, SimNetwork, Simulator, UDPTransport


def _rr(name, rrtype, rdata, ttl=300):
    return ResourceRecord(Name.from_text(name), rrtype, DNSClass.IN, ttl, rdata)


def _referral_wire(txid=0x4242):
    query = Message.make_query("www.domain-7.com", RRType.A, txid=txid)
    referral = query.make_response()
    for k in (1, 2):
        referral.authorities.append(
            _rr("domain-7.com", RRType.NS, NS(Name.from_text(f"ns{k}.host.example")), 172_800)
        )
        referral.additionals.append(
            _rr(f"ns{k}.host.example", RRType.A, A(f"10.7.0.{k}"), 172_800)
        )
    referral.answers.append(
        _rr("www.domain-7.com", RRType.TXT, TXT((b"hello", b"world")))
    )
    return referral, referral.to_wire()


# -- decoded values ----------------------------------------------------------


def test_decoded_values_match_construction():
    clear_codec_caches()
    referral, wire = _referral_wire()
    decoded = Message.from_wire(wire)
    assert decoded == referral
    glue = [r for r in decoded.additionals if r.rrtype == RRType.A]
    assert [r.rdata for r in glue] == [A("10.7.0.1"), A("10.7.0.2")]
    txt = decoded.answers[0]
    assert txt.rdata == TXT((b"hello", b"world"))


def test_a_clear_keeps_one_name_per_spelling():
    """Clearing forgets parsed names with decoded ones: afterwards the
    text parser and the decoder still hand out one instance."""
    Name.from_text("ns1.host.example")  # parsed before the clear
    clear_codec_caches()
    decoded = Message.from_wire(_referral_wire()[1])
    owner = decoded.additionals[0].name
    assert owner.to_text() == "ns1.host.example."
    assert Name.from_text("ns1.host.example") is owner


def test_compression_keeps_the_spelling_of_each_name():
    """A CNAME target that differs from the owner's suffix only in case
    is written out, not pointed at the other spelling (RFC 4343)."""
    clear_codec_caches()
    query = Message.make_query("www.example.com", RRType.A, txid=7)
    response = query.make_response()
    response.answers.append(
        _rr("www.example.com", RRType.CNAME, CNAME(Name.from_text("EXAMPLE.com")))
    )
    response.answers.append(_rr("EXAMPLE.com", RRType.A, A("192.0.2.1")))
    decoded = Message.from_wire(response.to_wire())
    cname, address = decoded.answers
    assert cname.rdata.target.to_text() == "EXAMPLE.com."
    assert address.name.to_text() == "EXAMPLE.com."
    assert decoded.questions[0].name.to_text() == "www.example.com."


def test_bytearray_input_is_copied_before_decode():
    """Scribbling over the caller's buffer after decode must not change
    any decoded value (labels and rdata are slices of a private copy)."""
    clear_codec_caches()
    _, wire = _referral_wire()
    buffer = bytearray(wire)
    decoded = Message.from_wire(buffer)
    buffer[:] = b"\xff" * len(buffer)
    glue = [r for r in decoded.additionals if r.rrtype == RRType.A]
    assert [r.rdata for r in glue] == [A("10.7.0.1"), A("10.7.0.2")]
    assert decoded.answers[0].rdata == TXT((b"hello", b"world"))


def test_decoded_record_pickles_and_deepcopies():
    clear_codec_caches()
    _, wire = _referral_wire()
    record = Message.from_wire(wire).answers[0]
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record
    assert clone.rdata == TXT((b"hello", b"world"))
    duplicate = copy.deepcopy(record)
    assert duplicate == record


# -- batch decode and peeks --------------------------------------------------


def test_decode_many_matches_individual_decodes():
    clear_codec_caches()
    wires = [_referral_wire(txid)[1] for txid in (1, 2, 3, 4)]
    batch = decode_many(wires)
    assert batch == [Message.from_wire(w) for w in wires]
    assert [m.id for m in batch] == [1, 2, 3, 4]


def test_decode_many_raises_on_first_bad_buffer():
    good = _referral_wire()[1]
    with pytest.raises(WireError):
        decode_many([good, good[:9]])


def test_peeks_match_full_decode():
    referral, wire = _referral_wire(txid=0x0BAD)
    assert peek_txid(wire) == 0x0BAD
    txid, _flags, qd, an, ns, ar = peek_header(wire)
    assert (txid, qd, an, ns, ar) == (0x0BAD, 1, 1, 2, 2)
    with pytest.raises(WireError):
        peek_txid(b"\x00")
    with pytest.raises(WireError):
        peek_header(wire[:11])


# -- decode avoidance in the transport and the simulator ---------------------


def test_wrong_txid_discarded_without_full_decode():
    """The live transport peeks the transaction id: a spoofed-id packet
    costs zero decodes, and the whole exchange costs exactly one."""
    query = Message.make_query("peek.test", RRType.A, txid=0x0A0B)
    wrong = query.make_response()
    wrong.id = 0x0A0C
    right = query.make_response(authoritative=True)
    wrong_wire = wrong.to_wire()
    right_wire = right.to_wire()

    responder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    responder.bind(("127.0.0.1", 0))

    def serve():
        _, client = responder.recvfrom(4096)
        responder.sendto(wrong_wire, client)
        responder.sendto(right_wire, client)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    before = CODEC_STATS["decode_calls"]
    with UDPTransport() as transport:
        response = transport.query(query, responder.getsockname(), timeout=5.0)
    thread.join(timeout=5.0)
    responder.close()
    assert response is not None
    assert response.id == 0x0A0B
    assert response.flags.authoritative
    # one full decode for the matching reply; the spoofed packet was
    # rejected on the two peeked id bytes alone
    assert CODEC_STATS["decode_calls"] == before + 1


class _SlowServer:
    def handle_query(self, query, client_ip, now, protocol):
        response = query.make_response(authoritative=True)
        response.answers.append(_rr(query.question.name.to_text(), RRType.A, A("192.0.2.1")))
        return ServerReply(response)


def _run_wire_queries(count, latency_median, timeout):
    sim = Simulator()
    network = SimNetwork(sim, seed=1, wire_mode="always")
    network.register_server(
        "10.0.0.1", _SlowServer(), latency=LatencyModel(median=latency_median, sigma=0.0)
    )
    results = []

    def routine(i):
        message = Message.make_query(f"host{i}.example.com", RRType.A, txid=i + 1)
        result = yield network.query_udp("198.18.0.1", "10.0.0.1", message, timeout)
        results.append(result)

    sim.run_all(routine(i) for i in range(count))
    return results


def test_abandoned_future_skips_response_decode():
    """When the client times out before the reply lands, the simulator
    must not decode a packet nobody will read: the exchange costs one
    decode (the server parsing the query), not two."""
    before = CODEC_STATS["decode_calls"]
    results = _run_wire_queries(1, latency_median=1.0, timeout=0.1)
    assert results == [None]
    assert CODEC_STATS["decode_calls"] == before + 1


def test_wire_mode_costs_two_decodes_per_exchange():
    """The per-lookup decode budget in wire mode: the server parses the
    query and the client parses the reply — nothing else."""
    before = CODEC_STATS["decode_calls"]
    results = _run_wire_queries(5, latency_median=0.01, timeout=3.0)
    assert all(r is not None for r in results)
    assert CODEC_STATS["decode_calls"] == before + 10

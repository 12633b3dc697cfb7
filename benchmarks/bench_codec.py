"""Wire-codec microbenchmarks over a realistic message corpus.

Measures the codec the way a scan of distinct names uses it:

* **cold decode** — every packet distinct and the decoder's shared
  value caches cleared before each pass: the price of a first-contact
  packet;
* **decode** — the same corpus with names and addresses already
  interned (a scan's later hops);
* **batch decode** — ``decode_many`` over a burst of buffers;
* **encode** — one writer pass per message, nothing remembered;
* **bulk zone parse** — ``parse_zone_lines`` over generated master-file
  lines, the ecosystem-synthesis workload.

These are layer numbers on a synthetic corpus, not evidence of a speed
change: that is the end-to-end ledger's job (``benchmarks/ledger/``).
The pytest entry is marked ``bench``/``tier2``.
"""

from __future__ import annotations

import time

import pytest

from conftest import emit

PROFILES = {
    "check": {"corpus": 384, "passes": 20, "zone_hosts": 1200},
    "full": {"corpus": 768, "passes": 40, "zone_hosts": 3000},
}


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_wall(fn, repeats: int = 3) -> float:
    """Min wall across repeats — the least CPU-steal-disturbed sample."""
    return min(_timed(fn) for _ in range(repeats))


# --------------------------------------------------------------------------
# corpus


def build_corpus(count: int) -> list:
    """``count`` distinct messages shaped like scan traffic.

    Four interleaved shapes: EDNS queries, delegation referrals
    (NS + glue), authoritative answers (CNAME chain + addresses, TXT),
    and negative answers (SOA in authority).  Every message carries a
    distinct qname, as a scan's do.
    """
    from repro.dnslib import DNSClass, Message, Name, ResourceRecord, RRType, add_edns
    from repro.dnslib.rdata.address import A, AAAA
    from repro.dnslib.rdata.names import CNAME, NS, SOA
    from repro.dnslib.rdata.text import TXT

    def rr(name, rrtype, ttl, rdata):
        return ResourceRecord(Name.from_text(name), rrtype, DNSClass.IN, ttl, rdata)

    corpus = []
    for i in range(count):
        zone = f"zone-{i % 97}.example"
        qname = f"www{i}.d{i % 311}.{zone}"
        shape = i % 4
        if shape == 0:
            query = Message.make_query(qname, RRType.A, txid=(0x4000 + i) & 0xFFFF)
            add_edns(query, payload_size=1232)
            corpus.append(query)
            continue
        query = Message.make_query(qname, RRType.A, txid=(0x8000 + i) & 0xFFFF)
        if shape == 1:
            referral = query.make_response()
            for k in (1, 2):
                ns = f"ns{k}.host{i % 41}.{zone}"
                referral.authorities.append(
                    rr(f"d{i % 311}.{zone}", RRType.NS, 172_800, NS(Name.from_text(ns)))
                )
                referral.additionals.append(rr(ns, RRType.A, 172_800, A(f"10.{i % 200}.7.{k}")))
            corpus.append(referral)
        elif shape == 2:
            answer = query.make_response(authoritative=True)
            answer.answers.append(
                rr(qname, RRType.CNAME, 300, CNAME(Name.from_text(f"cdn{i % 23}.{zone}")))
            )
            answer.answers.append(rr(f"cdn{i % 23}.{zone}", RRType.A, 300, A(f"93.{i % 200}.12.9")))
            answer.answers.append(
                rr(f"cdn{i % 23}.{zone}", RRType.AAAA, 300, AAAA(f"2001:db8::{(i % 9999) + 1:x}"))
            )
            answer.answers.append(
                rr(qname, RRType.TXT, 300, TXT((f"v=spf1 ip4:93.{i % 200}.0.0/16 -all".encode(),)))
            )
            corpus.append(answer)
        else:
            negative = query.make_response(authoritative=True, rcode=3)
            negative.authorities.append(
                rr(
                    zone,
                    RRType.SOA,
                    900,
                    SOA(
                        Name.from_text(f"ns1.host{i % 41}.{zone}"),
                        Name.from_text(f"hostmaster.{zone}"),
                        2022_00_00 + i,
                        7200,
                        900,
                        1_209_600,
                        900,
                    ),
                )
            )
            corpus.append(negative)
    return corpus


def build_zone_lines(hosts: int) -> list[str]:
    """Generated master-file lines shaped like ecosystem zone synthesis:
    many owners, heavily repeated NS/MX/TXT rdata strings."""
    lines = ["$ORIGIN corpus.example.", "$TTL 3600"]
    lines.append(
        "@ IN SOA ns1.corpus.example. hostmaster.corpus.example. 2022010100 7200 900 1209600 900"
    )
    for k in (1, 2):
        lines.append(f"@ IN NS ns{k}.corpus.example.")
    for i in range(hosts):
        lines.append(f"www{i} 300 IN A 10.{i % 250}.{(i // 250) % 250}.7")
        if i % 3 == 0:
            lines.append(f"www{i} 300 IN AAAA 2001:db8::{(i % 9999) + 1:x}")
        if i % 5 == 0:
            lines.append(f"mail{i} 300 IN MX 10 mx{i % 4}.corpus.example.")
        if i % 7 == 0:
            lines.append(f'www{i} 300 IN TXT "v=spf1 mx -all"')
    return lines


# --------------------------------------------------------------------------
# microbenchmarks


def bench_codec_corpus(profile: str = "check") -> dict:
    """Decode/encode/batch/zone-parse throughput over the corpus."""
    from repro.dnslib import Message, clear_codec_caches, decode_many, parse_zone_lines

    sizes = PROFILES[profile]
    corpus = build_corpus(sizes["corpus"])
    wires = [message.to_wire() for message in corpus]
    passes = sizes["passes"]
    count = passes * len(wires)
    from_wire = Message.from_wire

    def decode_warm():
        for _ in range(passes):
            for wire in wires:
                from_wire(wire)

    def decode_cold():
        for _ in range(passes):
            clear_codec_caches()
            for wire in wires:
                from_wire(wire)

    def decode_batch():
        for _ in range(passes):
            decode_many(wires)

    def encode():
        for _ in range(passes):
            for message in corpus:
                message.to_wire()

    results = {
        "codec_corpus_decode_cold_per_s": round(count / _best_wall(decode_cold)),
        "codec_corpus_decode_per_s": round(count / _best_wall(decode_warm)),
        "codec_batch_decode_per_s": round(count / _best_wall(decode_batch)),
        "codec_corpus_encode_per_s": round(count / _best_wall(encode)),
    }

    lines = build_zone_lines(sizes["zone_hosts"])
    zone_passes = max(2, passes // 4)

    def zone_parse():
        for _ in range(zone_passes):
            parse_zone_lines(lines)

    results["codec_zone_parse_lines_per_s"] = round(
        zone_passes * len(lines) / _best_wall(zone_parse)
    )
    results["_codec_corpus_size"] = len(wires)
    return results


def metric_lines(results: dict) -> list[str]:
    labels = {
        "codec_corpus_decode_cold_per_s": "corpus decode (cold)",
        "codec_corpus_decode_per_s": "corpus decode (interned)",
        "codec_batch_decode_per_s": "decode_many batch",
        "codec_corpus_encode_per_s": "corpus encode",
        "codec_zone_parse_lines_per_s": "zone parse",
    }
    units = {"codec_zone_parse_lines_per_s": "lines/s"}
    out = []
    for key, label in labels.items():
        if key in results:
            out.append(f"  {label:<26} {results[key]:>10,} {units.get(key, 'msgs/s')}")
    return out


# --------------------------------------------------------------------------
# pytest entry


@pytest.mark.bench
@pytest.mark.tier2
def test_codec_corpus(run_once):
    results = run_once(bench_codec_corpus, "check")
    emit("codec_corpus", metric_lines(results), results)
    for key, value in results.items():
        assert value > 0, key
    # interned names can only help
    assert results["codec_corpus_decode_per_s"] >= results["codec_corpus_decode_cold_per_s"]

"""Tests for the scan framework: runner, stats, IO, CLI."""

import io
import json

import pytest

from repro.ecosystem import EcosystemParams, build_internet
from repro.framework import (
    JsonLineSink,
    ScanConfig,
    ScanRunner,
    ScanStats,
    clean_row,
    read_names,
    run_scan,
    write_rows,
)
from repro.framework.cli import build_parser, main
from repro.workloads import CorpusConfig, DomainCorpus


@pytest.fixture()
def internet():
    return build_internet(params=EcosystemParams(seed=42), wire_mode="sampled")


@pytest.fixture(scope="module")
def corpus():
    return DomainCorpus(CorpusConfig(seed=42))


class TestScanStats:
    def test_record_accumulates(self):
        stats = ScanStats()
        stats.record("NOERROR", 1.0, queries=2)
        stats.record("NXDOMAIN", 2.0, queries=1)
        stats.record("TIMEOUT", 3.0, queries=3, retries=2)
        assert stats.total == 3
        assert stats.successes == 2  # NXDOMAIN counts (Section 4.1)
        assert stats.success_rate == pytest.approx(2 / 3)
        assert stats.queries_sent == 6
        assert stats.retries_used == 2
        assert stats.duration == 3.0

    def test_rates(self):
        stats = ScanStats()
        for i in range(10):
            stats.record("NOERROR", (i + 1) * 0.5)
        assert stats.lookups_per_second == pytest.approx(2.0)
        assert stats.successes_per_second == pytest.approx(2.0)

    def test_steady_rate_ignores_straggler(self):
        stats = ScanStats()
        for i in range(99):
            stats.record("NOERROR", (i + 1) * 0.1)
        stats.record("NOERROR", 60.0)  # one straggler
        assert stats.lookups_per_second < 2
        assert stats.steady_rate == pytest.approx(10.0, rel=0.3)

    def test_empty_stats(self):
        stats = ScanStats()
        assert stats.success_rate == 0.0
        assert stats.successes_per_second == 0.0
        assert stats.steady_rate == 0.0

    def test_steady_rate_zero_duration_burst(self):
        # every completion at one instant: p10 == p90, duration == 0 —
        # must not divide by zero, falls back to lookups_per_second (0.0)
        stats = ScanStats()
        for _ in range(50):
            stats.record("NOERROR", 0.0)
        assert stats.steady_rate == 0.0
        assert stats.lookups_per_second == 0.0

    def test_steady_rate_identical_percentiles_nonzero_duration(self):
        # 10th..90th percentile completions coincide but the scan has
        # real duration: fall back to the overall rate, not a crash
        stats = ScanStats()
        stats.record("NOERROR", 0.0)
        for _ in range(20):
            stats.record("NOERROR", 5.0)
        assert stats.steady_rate == pytest.approx(stats.lookups_per_second)

    def test_steady_rate_few_completions(self):
        stats = ScanStats()
        for i in range(5):
            stats.record("NOERROR", (i + 1) * 1.0)
        assert stats.steady_rate == pytest.approx(stats.lookups_per_second)

    def test_json_shape(self):
        stats = ScanStats()
        stats.record("NOERROR", 1.0)
        data = stats.to_json()
        assert data["total"] == 1
        assert "statuses" in data


class TestIO:
    def test_read_names_skips_blank_and_comments(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("a.com\n\n# comment\nb.com \n")
        assert list(read_names(str(path))) == ["a.com", "b.com"]

    def test_read_names_from_handle(self):
        handle = io.StringIO("x.com\ny.com\n")
        assert list(read_names(handle)) == ["x.com", "y.com"]

    def test_clean_row_strips_private_keys(self):
        assert clean_row({"a": 1, "_internal": 2}) == {"a": 1}

    def test_write_rows(self, tmp_path):
        path = tmp_path / "out.jsonl"
        count = write_rows([{"name": "a"}, {"name": "b", "_x": 1}], str(path))
        assert count == 2
        lines = path.read_text().splitlines()
        assert json.loads(lines[1]) == {"name": "b"}

    def test_sink_counts(self):
        buffer = io.StringIO()
        sink = JsonLineSink(buffer)
        sink({"name": "a"})
        sink({"name": "b"})
        assert sink.count == 2
        assert len(buffer.getvalue().splitlines()) == 2


class TestScanRunner:
    def test_basic_scan_collects_rows(self, internet, corpus):
        rows = []
        config = ScanConfig(module="A", mode="google", threads=50, seed=1)
        report = ScanRunner(internet, config, sink=rows.append).run(corpus.fqdns(300))
        assert report.stats.total == 300
        assert len(rows) == 300
        assert report.stats.success_rate > 0.9
        assert report.stats.threads_running == 50

    def test_iterative_scan_builds_cache(self, internet, corpus):
        config = ScanConfig(module="A", mode="iterative", threads=50, seed=1)
        runner = ScanRunner(internet, config)
        report = runner.run(corpus.fqdns(200))
        assert report.cache_stats is not None
        assert report.cache_stats["hits"] > 0
        assert report.stats.success_rate > 0.9

    def test_external_scan_has_no_cache(self, internet, corpus):
        config = ScanConfig(module="A", mode="cloudflare", threads=20, seed=1)
        report = ScanRunner(internet, config).run(corpus.fqdns(50))
        assert report.cache_stats is None

    def test_thread_cap_by_ports(self, internet, corpus):
        config = ScanConfig(
            module="A", mode="google", threads=100, ports_per_ip=30, source_prefix=32, seed=1
        )
        report = ScanRunner(internet, config).run(corpus.fqdns(60))
        assert report.stats.threads_running == 30
        assert report.stats.total == 60  # capped threads still finish the work

    def test_external_mode_requires_ips(self):
        with pytest.raises(ValueError):
            ScanConfig(module="A", mode="external", threads=10)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        # fewer than one routine used to finish at once with no rows
        with pytest.raises(ValueError, match="threads"):
            ScanConfig(module="A", mode="google", threads=threads)

    def test_run_scan_convenience(self, internet, corpus):
        report = run_scan(internet, corpus.fqdns(50), module="A", mode="google", threads=10, seed=1)
        assert report.stats.total == 50

    def test_run_scan_rejects_config_plus_overrides(self, internet):
        with pytest.raises(ValueError):
            run_scan(internet, ["a.com"], config=ScanConfig(), threads=5)

    def test_gc_model_applies(self, internet, corpus):
        config = ScanConfig(
            module="A", mode="google", threads=20, gc_period=0.5, gc_pause=0.02, seed=1
        )
        report = ScanRunner(internet, config).run(corpus.fqdns(100))
        assert report.stats.total == 100

    def test_deterministic_given_seed(self, corpus):
        def run():
            internet = build_internet(params=EcosystemParams(seed=42), wire_mode="never")
            config = ScanConfig(module="A", mode="google", threads=30, seed=9)
            report = ScanRunner(internet, config).run(corpus.fqdns(200))
            return report.stats.to_json()

        first = run()
        second = run()
        first.pop("duration_s"), second.pop("duration_s")
        assert first["statuses"] == second["statuses"]

    def test_mxlookup_module_through_runner(self, internet, corpus):
        rows = []
        config = ScanConfig(module="MXLOOKUP", mode="iterative", threads=30, seed=1)
        ScanRunner(internet, config, sink=rows.append).run(corpus.fqdns(100))
        assert any(row["data"]["exchanges"] for row in rows)


def _inputs_of_its_kind(module: str, internet, names: list[str]) -> list[str]:
    """Server addresses for the modules that probe a server, addresses
    or their reverse names for PTR, and domain names for the rest."""
    if module in ("BINDVERSION", "OPENRESOLVER"):
        return [internet.google_ip, internet.cloudflare_ip, *internet.root_ips[:2]]
    addresses = [f"23.11.{i}.8" for i in range(4)]
    if module == "PTRIP":
        return addresses
    if module == "PTR":
        return [".".join(reversed(ip.split("."))) + ".in-addr.arpa" for ip in addresses]
    return names


def test_queries_sent_counts_every_query_of_every_module(corpus):
    """A scan's ``queries_sent`` is every query its lookups put on the
    network, UDP and TCP: composite modules (MXLOOKUP, NSLOOKUP, ALLNS,
    AXFR, ...) undercounted when it came from the row's one result."""
    from repro.modules import available_modules

    names = list(corpus.fqdns(8))
    internet = build_internet(params=EcosystemParams(seed=2022), wire_mode="never")
    wrong = {}
    for module in available_modules():
        network = internet.network.stats
        before = network.udp_queries + network.tcp_queries
        config = ScanConfig(module=module, threads=4, seed=2022)
        report = ScanRunner(internet, config).run(_inputs_of_its_kind(module, internet, names))
        sent = network.udp_queries + network.tcp_queries - before
        if report.stats.queries_sent != sent or not sent:
            wrong[module] = (report.stats.queries_sent, sent)
    assert not wrong, wrong


class TestCLI:
    def test_parser_module_choices(self):
        parser = build_parser()
        args = parser.parse_args(["A", "--threads", "10"])
        assert args.module == "A"
        assert args.threads == 10

    def test_end_to_end_scan(self, tmp_path, corpus, capsys):
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("\n".join(corpus.fqdns(40)))
        code = main([
            "A", "-f", str(infile), "-o", str(outfile),
            "--mode", "google", "--threads", "10", "--seed", "4",
        ])
        assert code == 0
        rows = [json.loads(line) for line in outfile.read_text().splitlines()]
        assert len(rows) == 40
        assert all("status" in row for row in rows)
        summary = json.loads(capsys.readouterr().err.strip())
        assert summary["total"] == 40

    def test_unknown_module_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["BOGUS", "-f", "/dev/null"])

    def test_trace_flag_includes_chain(self, tmp_path, corpus):
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("\n".join(corpus.fqdns(10)))
        main([
            "A", "-f", str(infile), "-o", str(outfile),
            "--mode", "iterative", "--threads", "5", "--trace", "--quiet", "--seed", "4",
        ])
        rows = [json.loads(line) for line in outfile.read_text().splitlines()]
        traced = [row for row in rows if "trace" in row]
        assert traced
        step = traced[0]["trace"][0]
        assert {"name", "layer", "depth", "name_server", "cached", "try"} <= set(step)


def _zone_server(records: dict):
    """A loopback server answering from ``records`` (``(name, type)`` →
    rdata list) that records every question asked as ``(name, type)``."""
    from repro.dnslib import ResourceRecord, RRType
    from repro.net import UDPServer

    asked = []

    def handler(query, client):
        question = query.question
        key = (question.name.to_text(omit_final_dot=True), RRType(question.rrtype).name)
        asked.append(key)
        response = query.make_response(authoritative=True)
        for rdata in records.get(key, ()):
            response.answers.append(
                ResourceRecord(question.name, question.rrtype, 1, 60, rdata)
            )
        return response

    return UDPServer(handler), asked


class TestLiveCLI:
    """A live scan runs the module's own lookup, with the scan's
    resolver flags, exactly as a simulated scan does."""

    def test_live_mode_over_loopback(self, tmp_path):
        from repro.dnslib import Message, Name, Rcode, ResourceRecord, RRType
        from repro.dnslib.rdata.address import A as ARecord
        from repro.net import UDPServer

        def handler(query, client):
            response = query.make_response(authoritative=True)
            response.answers.append(
                ResourceRecord(query.question.name, RRType.A, 1, 60, ARecord("127.0.0.9"))
            )
            return response

        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("one.test\ntwo.test\n")
        with UDPServer(handler) as server:
            host, port = server.address
            code = main([
                "A", "-f", str(infile), "-o", str(outfile),
                "--live-resolver", f"{host}:{port}", "--quiet",
            ])
        assert code == 0
        rows = [json.loads(line) for line in outfile.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["status"] == "NOERROR"
        assert rows[0]["data"]["answers"][0]["answer"] == "127.0.0.9"

    def test_rows_name_the_resolver_port(self, tmp_path):
        """A live row names the resolver's real port (it named :53
        whatever ``--live-resolver``'s PORT was)."""
        from repro.dnslib.rdata.address import A

        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("one.test\n")
        server, _ = _zone_server({("one.test", "A"): [A("127.0.0.9")]})
        with server:
            host, port = server.address
            code = main([
                "A", "-f", str(infile), "-o", str(outfile), "--quiet",
                "--live-resolver", f"{host}:{port}",
            ])
        assert code == 0
        (row,) = [json.loads(line) for line in outfile.read_text().splitlines()]
        assert row["status"] == "NOERROR"
        assert row["data"]["resolver"] == f"{host}:{port}"

    def test_rows_carry_timestamps_unless_told_not_to(self, tmp_path):
        """A live row is stamped with its wall-clock time as a simulated
        row is (it never was, whatever ``--no-timestamps`` said)."""
        from repro.dnslib.rdata.address import A

        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("one.test\n")
        server, _ = _zone_server({("one.test", "A"): [A("127.0.0.9")]})
        with server:
            host, port = server.address
            code = main([
                "A", "-f", str(infile), "-o", str(outfile), "--quiet",
                "--live-resolver", f"{host}:{port}",
            ])
        assert code == 0
        (row,) = [json.loads(line) for line in outfile.read_text().splitlines()]
        assert row["status"] == "NOERROR" and "timestamp" in row

    def test_metrics_out_writes_the_engine_scope(self, tmp_path):
        """``--metrics-out`` writes the live scan's engine counters (it
        exited 0 and wrote no file)."""
        from repro.dnslib.rdata.address import A

        prom = tmp_path / "metrics.prom"
        rows, _ = self._scan(
            tmp_path, "A", {("one.test", "A"): [A("127.0.0.9")]}, "--metrics-out", str(prom)
        )
        assert rows[0]["status"] == "NOERROR"
        text = prom.read_text()
        assert "pyzdns_engine_lookups 1" in text
        assert "pyzdns_engine_successes 1" in text

    def _scan(self, tmp_path, module, records, *flags):
        """One live scan of ``one.test``; rows are unstamped so tests can
        compare them whole."""
        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("one.test\n")
        server, asked = _zone_server(records)
        with server:
            host, port = server.address
            code = main([
                module, "-f", str(infile), "-o", str(outfile),
                "--live-resolver", f"{host}:{port}", "--quiet", "--no-timestamps", *flags,
            ])
        assert code == 0
        rows = [json.loads(line) for line in outfile.read_text().splitlines()]
        return rows, asked

    def test_dmarc_asks_the_dmarc_name(self, tmp_path):
        from repro.dnslib.rdata.text import TXT

        rows, asked = self._scan(
            tmp_path, "DMARC", {("_dmarc.one.test", "TXT"): [TXT.from_string("v=DMARC1; p=reject")]}
        )
        assert asked == [("_dmarc.one.test", "TXT")]
        assert rows == [
            {"name": "one.test", "status": "NOERROR", "data": {"dmarc": "v=DMARC1; p=reject"}}
        ]

    def test_alookup_writes_its_addresses(self, tmp_path):
        from repro.dnslib.rdata.address import A

        rows, asked = self._scan(tmp_path, "ALOOKUP", {("one.test", "A"): [A("127.0.0.9")]})
        assert asked == [("one.test", "A")]
        assert rows == [
            {"name": "one.test", "status": "NOERROR", "data": {"ipv4_addresses": ["127.0.0.9"]}}
        ]

    def test_mxlookup_resolves_each_exchange(self, tmp_path):
        from repro.dnslib import Name
        from repro.dnslib.rdata.address import A
        from repro.dnslib.rdata.mail import MX

        rows, asked = self._scan(
            tmp_path,
            "MXLOOKUP",
            {
                ("one.test", "MX"): [MX(10, Name.from_text("mail.one.test"))],
                ("mail.one.test", "A"): [A("127.0.0.25")],
            },
        )
        assert asked == [("one.test", "MX"), ("mail.one.test", "A")]
        assert rows[0]["data"] == {
            "exchanges": [
                {
                    "name": "mail.one.test",
                    "preference": 10,
                    "ipv4_addresses": ["127.0.0.25"],
                    "status": "NOERROR",
                }
            ]
        }

    def test_backoff_flag_reaches_the_live_path(self, tmp_path):
        """``--backoff`` pauses at least its base between a SERVFAIL
        and the retry (it was dropped: the live path built its own
        resolver configuration from two flags)."""
        import time

        from repro.dnslib import Rcode
        from repro.net import UDPServer

        sent_at = []

        def handler(query, client):
            sent_at.append(time.monotonic())
            return query.make_response(rcode=Rcode.SERVFAIL)

        infile = tmp_path / "in.txt"
        outfile = tmp_path / "out.jsonl"
        infile.write_text("one.test\n")
        with UDPServer(handler) as server:
            host, port = server.address
            main([
                "A", "-f", str(infile), "-o", str(outfile), "--quiet",
                "--live-resolver", f"{host}:{port}", "--retries", "1", "--backoff", "0.3",
            ])
        assert len(sent_at) == 2
        assert sent_at[1] - sent_at[0] >= 0.3

    def test_truncated_answer_is_asked_again_over_tcp(self, tmp_path):
        """An answer past the 1,232-byte UDP limit comes back TC=1; the
        live scan asks again over TCP on the same port and writes every
        record (it asked over UDP twice and wrote none)."""
        from repro.dnslib.rdata.address import A

        addresses = [A(f"10.0.{i // 256}.{i % 256}") for i in range(120)]
        server, asked = _zone_server({("big.test", "A"): addresses})
        infile, outfile = tmp_path / "in.txt", tmp_path / "out.jsonl"
        infile.write_text("big.test\n")
        with server:
            host, port = server.address
            code = main([
                "A", "-f", str(infile), "-o", str(outfile), "--quiet",
                "--live-resolver", f"{host}:{port}", "--retries", "0",
            ])
        assert code == 0
        (row,) = [json.loads(line) for line in outfile.read_text().splitlines()]
        assert row["status"] == "NOERROR"
        assert row["data"]["protocol"] == "tcp"
        assert [answer["answer"] for answer in row["data"]["answers"]] == [
            address.address for address in addresses
        ]
        assert asked == [("big.test", "A")] * 2  # once over UDP, once over TCP


class TestTimestamps:
    def test_sink_timestamp(self):
        import re

        buffer = io.StringIO()
        sink = JsonLineSink(buffer, add_timestamp=True)
        sink({"name": "a"})
        row = json.loads(buffer.getvalue())
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", row["timestamp"])


class TestSharding:
    def test_shards_partition_input(self):
        from repro.framework import shard

        names = [f"n{i}.com" for i in range(10)]
        parts = [list(shard(names, 3, i)) for i in range(3)]
        assert sorted(sum(parts, [])) == sorted(names)
        assert not (set(parts[0]) & set(parts[1]))

    def test_single_shard_is_identity(self):
        from repro.framework import shard

        assert list(shard(["a", "b"], 1, 0)) == ["a", "b"]

    def test_bad_indices_rejected(self):
        from repro.framework import shard

        with pytest.raises(ValueError):
            list(shard([], 0, 0))
        with pytest.raises(ValueError):
            list(shard([], 2, 2))


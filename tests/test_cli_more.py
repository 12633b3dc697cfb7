"""Additional CLI coverage: flags, modes, and module wiring."""

import json

import pytest

from repro.framework.cli import build_parser, main
from repro.workloads import CorpusConfig, DomainCorpus


@pytest.fixture(scope="module")
def names_file(tmp_path_factory):
    corpus = DomainCorpus(CorpusConfig(seed=3))
    path = tmp_path_factory.mktemp("cli") / "names.txt"
    path.write_text("\n".join(corpus.fqdns(25)))
    return str(path)


def run_cli(args, tmp_path):
    out = tmp_path / "out.jsonl"
    code = main(args + ["-o", str(out), "--quiet"])
    assert code == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


class TestFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["A"])
        assert args.mode == "iterative"
        assert args.threads == 1000
        assert args.cache_size == 600_000

    def test_all_flags_parse(self):
        args = build_parser().parse_args([
            "MXLOOKUP", "--mode", "external", "--name-servers", "1.1.1.1,8.8.8.8",
            "--threads", "77", "--source-prefix", "29", "--cache-size", "1234",
            "--retries", "5", "--timeout", "1.5", "--trace", "--seed", "9",
            "--cores", "8",
        ])
        assert args.name_servers == "1.1.1.1,8.8.8.8"
        assert args.source_prefix == 29
        assert args.retries == 5


class TestModes:
    def test_iterative_mode(self, names_file, tmp_path):
        rows = run_cli(["A", "-f", names_file, "--threads", "10", "--seed", "5"], tmp_path)
        assert len(rows) == 25
        assert {row["status"] for row in rows} <= {
            "NOERROR", "NXDOMAIN", "SERVFAIL", "TIMEOUT", "ITERATIVE_TIMEOUT", "ERROR",
        }

    def test_cloudflare_mode(self, names_file, tmp_path):
        rows = run_cli(
            ["A", "-f", names_file, "--mode", "cloudflare", "--threads", "10", "--seed", "5"],
            tmp_path,
        )
        ok = [row for row in rows if row["status"] == "NOERROR"]
        assert ok and all(row["data"]["resolver"] == "1.1.1.1:53" for row in ok)

    def test_mxlookup_module(self, names_file, tmp_path):
        rows = run_cli(
            ["MXLOOKUP", "-f", names_file, "--threads", "10", "--seed", "5"], tmp_path
        )
        assert all("exchanges" in row["data"] for row in rows if row["status"] == "NOERROR")

    def test_caalookup_module(self, names_file, tmp_path):
        rows = run_cli(
            ["CAALOOKUP", "-f", names_file, "--threads", "10", "--seed", "5"], tmp_path
        )
        assert all("records" in row["data"] for row in rows if row["status"] == "NOERROR")

    def test_dmarc_module(self, names_file, tmp_path):
        rows = run_cli(["DMARC", "-f", names_file, "--threads", "10", "--seed", "5"], tmp_path)
        assert len(rows) == 25

    def test_rows_never_contain_private_keys(self, names_file, tmp_path):
        rows = run_cli(["A", "-f", names_file, "--threads", "5", "--seed", "5"], tmp_path)
        for row in rows:
            assert not any(key.startswith("_") for key in row)


class TestMetadataFile:
    def test_metadata_written(self, names_file, tmp_path):
        import json as _json

        meta = tmp_path / "meta.json"
        out = tmp_path / "o.jsonl"
        code = main([
            "A", "-f", names_file, "-o", str(out), "--threads", "5",
            "--seed", "5", "--quiet", "--metadata-file", str(meta),
        ])
        assert code == 0
        data = _json.loads(meta.read_text())
        assert data["total"] == 25
        assert "statuses" in data


class TestControlPlaneFlag:
    def test_server_leaves_single_process_rows_unchanged(self, names_file, tmp_path):
        """A single-process scan streaming deltas to its control plane
        writes exactly the rows of the same scan without a server."""
        outputs = []
        for extra in ([], ["--http-port", "0"]):
            out = tmp_path / f"out-{len(outputs)}.jsonl"
            code = main([
                "A", "-f", names_file, "-o", str(out), "--no-timestamps",
                "--threads", "10", "--seed", "5", "--quiet", *extra,
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 25

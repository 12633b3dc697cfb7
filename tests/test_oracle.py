"""Tests for the differential resolution oracle (``repro.oracle``).

The oracle's gate is here: a policy × eviction × fault-plan sweep with
zero divergences, and a planted lying cache it must catch and shrink to
a fault-free case — a sweep that cannot catch a planted bug proves
nothing by passing."""

import io
import json

import pytest

from repro.core import INSECURE, Resolver, SelectiveCache
from repro.dnslib import Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A
from repro.ecosystem import EPOCH_BASE, EcosystemParams, build_internet
from repro.framework import ScanConfig, ScanRunner, run_parallel_scan
from repro.framework.cli import main as cli_main
from repro.obs import MetricsRegistry
from repro.oracle import (
    DifferentialConfig,
    DifferentialOracle,
    OracleResult,
    ProductionView,
    ReferenceResolver,
    check_one,
    compare_views,
    production_view,
    run_differential,
    shrink_divergence,
)
from repro.workloads import CorpusConfig, DomainCorpus

N = Name.from_text
SEED = 2022

#: The fabricated address the planted bug serves (TEST-NET-3 space, so
#: it can never collide with a synthesized zone's real data).
BOGUS_IP = "203.0.113.99"


class StaleAnswerCache(SelectiveCache):
    """Deliberately buggy cache: every answer-table hit is rewritten to
    a fabricated A record, as a stale or corrupt entry would be served.
    Only meaningful with ``policy="all"``."""

    def get_answer(self, qname, qtype):
        value = super().get_answer(qname, qtype)
        if not value:
            return value
        return [
            ResourceRecord(record.name, RRType.A, record.rrclass, record.ttl, A(BOGUS_IP))
            for record in value
        ]


def stale_cache_factory(policy, eviction, capacity, internet):
    """``cache_factory`` hook planting :class:`StaleAnswerCache`."""
    return StaleAnswerCache(
        capacity=capacity,
        policy=policy,
        eviction=eviction,
        clock=lambda: internet.sim.now,
    )


class InsecureVerdictCache(SelectiveCache):
    """Deliberately buggy cache lying only about security state: every
    cached chain-of-trust verdict reads back as insecure, keyless.
    Answers and delegations are untouched, so only a ``dnssec`` run
    can see it."""

    def get_security(self, zone):
        if super().get_security(zone) is None:
            return None
        return INSECURE, b""


def insecure_verdict_factory(policy, eviction, capacity, internet):
    """``cache_factory`` hook planting :class:`InsecureVerdictCache`."""
    return InsecureVerdictCache(
        capacity=capacity,
        policy=policy,
        eviction=eviction,
        clock=lambda: internet.sim.now,
        epoch_base=EPOCH_BASE,
    )


def planted_bug_canary(seed):
    """Run corpus names through a production resolver whose answer cache
    lies, under the ``moderate`` fault plan, until one diverges; return
    (divergence, shrunk case), or (None, None) if none does."""
    for name in DomainCorpus(CorpusConfig(seed=seed)).fqdns(25):
        divergence = check_one(
            name, seed=seed, policy="all", plan="moderate",
            cache_factory=stale_cache_factory,
        )
        if divergence is not None:
            return divergence, shrink_divergence(
                divergence, cache_factory=stale_cache_factory
            )
    return None, None


@pytest.fixture(scope="module")
def reference():
    return ReferenceResolver(seed=SEED)


@pytest.fixture(scope="module")
def corpus_names():
    return list(DomainCorpus(CorpusConfig(seed=SEED)).fqdns(40))


class TestReferenceResolver:
    def test_deterministic(self, reference, corpus_names):
        first = [reference.resolve(name) for name in corpus_names[:10]]
        second = [reference.resolve(name) for name in corpus_names[:10]]
        assert first == second

    def test_fresh_instance_agrees(self, reference, corpus_names):
        other = ReferenceResolver(seed=SEED)
        for name in corpus_names[:10]:
            assert reference.resolve(name) == other.resolve(name)

    def test_semantic_statuses_present(self, reference, corpus_names):
        statuses = {reference.resolve(name).status for name in corpus_names}
        assert "NOERROR" in statuses  # the corpus contains live names

    def test_nxdomain_for_unregistered(self, reference):
        result = reference.resolve("definitely-not-registered-xyzzy.com")
        assert result.status == "NXDOMAIN"
        assert not result.is_semantic or result.status in ("NOERROR", "NXDOMAIN")

    def test_noerror_carries_answers(self, reference, corpus_names):
        for name in corpus_names:
            result = reference.resolve(name)
            if result.status == "NOERROR" and result.acceptable:
                assert all(isinstance(s, tuple) for s in result.acceptable)
                return
        pytest.fail("no NOERROR result in the corpus slice")

    def test_no_rng_side_effects_on_scan_universe(self, corpus_names):
        """The oracle must build its own universe: resolving through it
        must not advance any RNG stream of a co-existing scan internet
        (that would break byte-identical replay)."""
        internet = build_internet(params=EcosystemParams(seed=SEED))
        resolver = Resolver(internet)
        before = resolver.lookup(N(corpus_names[0]), RRType.A)
        oracle = ReferenceResolver(seed=SEED)
        oracle.resolve(corpus_names[1])
        internet2 = build_internet(params=EcosystemParams(seed=SEED))
        after = Resolver(internet2).lookup(N(corpus_names[0]), RRType.A)
        assert str(before.status) == str(after.status)


class TestCompareViews:
    def _view(self, status="NOERROR", final="www.example.com", terminal=("1.2.3.4",)):
        return ProductionView(
            status=status,
            final_key=N(final).canonical_key(),
            final_name=final,
            terminal=tuple(terminal),
        )

    def _oracle(self, status="NOERROR", final="www.example.com", acceptable=(("1.2.3.4",),)):
        name = N(final)
        return OracleResult(
            name=final,
            qtype=int(RRType.A),
            status=status,
            final_key=name.canonical_key(),
            final_name=final,
            chain=(),
            acceptable=tuple(tuple(s) for s in acceptable),
        )

    def test_agreement(self):
        verdict, _ = compare_views(self._view(), self._oracle())
        assert verdict == "agree"

    def test_production_failure_vs_semantic_oracle_is_inconclusive(self):
        verdict, _ = compare_views(self._view(status="TIMEOUT"), self._oracle())
        assert verdict == "inconclusive"

    def test_both_failures_agree(self):
        verdict, _ = compare_views(
            self._view(status="TIMEOUT"), self._oracle(status="UNREACHABLE")
        )
        assert verdict == "agree"

    def test_semantic_answer_for_unresolvable_name_diverges(self):
        verdict, reason = compare_views(
            self._view(), self._oracle(status="UNREACHABLE")
        )
        assert verdict == "diverge"
        assert "unresolvable" in reason

    def test_status_mismatch_diverges(self):
        verdict, _ = compare_views(self._view(), self._oracle(status="NXDOMAIN"))
        assert verdict == "diverge"

    def test_wrong_answer_set_diverges(self):
        verdict, reason = compare_views(
            self._view(terminal=("9.9.9.9",)), self._oracle()
        )
        assert verdict == "diverge"
        assert "answer set" in reason

    def test_per_ns_inconsistent_answers_accepted(self):
        oracle = self._oracle(acceptable=(("1.2.3.4",), ("5.6.7.8",)))
        assert compare_views(self._view(terminal=("5.6.7.8",)), oracle)[0] == "agree"
        assert compare_views(self._view(terminal=("7.7.7.7",)), oracle)[0] == "diverge"

    def test_wrong_final_target_diverges(self):
        verdict, reason = compare_views(
            self._view(final="other.example.com"), self._oracle()
        )
        assert verdict == "diverge"
        assert "CNAME" in reason

    def test_nxdomain_needs_no_answer_comparison(self):
        verdict, _ = compare_views(
            self._view(status="NXDOMAIN", terminal=()),
            self._oracle(status="NXDOMAIN", acceptable=()),
        )
        assert verdict == "agree"


class TestDifferentialSweep:
    def test_small_sweep_is_clean(self):
        config = DifferentialConfig(
            seed=SEED,
            names=40,
            policies=("selective", "all"),
            evictions=("random", "lru"),
            fault_plans=(None, "moderate"),
        )
        report = run_differential(config)
        assert report.ok, [d.reason for d in report.divergences]
        assert report.names_checked == 40 * 8
        # cold + warm per name, plus a cold-vs-warm invariant check
        # whenever both phases produced semantic answers
        assert report.names_checked * 2 <= report.checks <= report.names_checked * 3
        payload = report.to_json()
        assert payload["divergences"] == []
        assert len(payload["combos"]) == 8

    def test_sweep_catches_planted_cache_bug(self):
        config = DifferentialConfig(
            seed=SEED,
            names=10,
            policies=("all",),
            evictions=("random",),
            fault_plans=(None,),
        )
        report = run_differential(config, cache_factory=stale_cache_factory)
        assert not report.ok
        assert any("answer set" in d.reason for d in report.divergences)


class TestShrinker:
    def test_planted_bug_shrinks_to_fault_free_triple(self):
        divergence, minimal = planted_bug_canary(seed=SEED)
        assert divergence is not None
        assert minimal is not None
        assert minimal.reproduced
        assert minimal.plan is None or len(minimal.plan) == 0
        assert minimal.seed == SEED
        payload = minimal.to_json()
        assert payload["name"] == minimal.name

    def test_security_divergence_reproduces_under_dnssec(self):
        """The shrinker re-runs a divergence with the sweep's ``dnssec``
        and ``retries`` (recorded in its combo): a lie about security
        state alone is invisible to a validation-off re-run."""
        config = DifferentialConfig(
            seed=SEED, names=5, policies=("selective",), evictions=("random",),
            fault_plans=(None,), dnssec=True,
        )
        report = run_differential(config, cache_factory=insecure_verdict_factory)
        assert run_differential(config).ok
        divergence = report.divergences[0]
        assert divergence.reason == "validation insecure != expected secure"
        assert divergence.combo["dnssec"] is True and divergence.combo["retries"] == 2
        minimal = shrink_divergence(divergence, cache_factory=insecure_verdict_factory)
        assert minimal.reproduced
        assert minimal.reason == divergence.reason

    def test_check_one_clean_name_has_no_divergence(self, corpus_names):
        assert check_one(corpus_names[0], seed=SEED) is None

    def test_nonreproducing_divergence_reported_as_such(self, corpus_names):
        from repro.oracle.harness import Divergence

        ghost = Divergence(
            name=corpus_names[0],
            qtype=int(RRType.A),
            seed=SEED,
            reason="synthetic",
            production={},
            oracle={},
            combo={"policy": "selective", "eviction": "random", "plan": "none",
                   "capacity": 512},
        )
        minimal = shrink_divergence(ghost)
        assert not minimal.reproduced


class TestDifferentialOracleCheck:
    def test_memoised_and_counted(self, corpus_names):
        oracle = DifferentialOracle(seed=SEED)
        internet = build_internet(params=EcosystemParams(seed=SEED))
        resolver = Resolver(internet)
        qname = N(corpus_names[0])
        result = resolver.lookup(qname, RRType.A)
        assert oracle.observe(qname, RRType.A, result) is None
        assert oracle.observe(qname, RRType.A, result) is None  # memo path
        assert oracle.checked == 2
        assert oracle.agreed + oracle.inconclusive == 2
        assert oracle.divergences == 0

    def test_publish_metrics(self, corpus_names):
        oracle = DifferentialOracle(seed=SEED)
        internet = build_internet(params=EcosystemParams(seed=SEED))
        resolver = Resolver(internet)
        qname = N(corpus_names[0])
        oracle.observe(qname, RRType.A, resolver.lookup(qname, RRType.A))
        registry = MetricsRegistry()
        oracle.publish_metrics(registry.scope("oracle"))
        snapshot = registry.snapshot()
        assert snapshot["oracle.checked"] == 1
        assert "oracle.divergence" in snapshot

    def test_samples_positions_one_k_plus_one_and_so_on(self, corpus_names):
        """Every lookup handed over is counted; positions 1, K+1, 2K+1, …
        are checked — the one sampling rule of the scan and the daemon."""
        oracle = DifferentialOracle(seed=SEED, every=3)
        internet = build_internet(params=EcosystemParams(seed=SEED))
        qname = N(corpus_names[0])
        result = Resolver(internet).lookup(qname, RRType.A)
        checked_at = []
        for position in range(1, 8):
            before = oracle.checked
            oracle.observe(qname, RRType.A, result)
            if oracle.checked > before:
                checked_at.append(position)
        assert checked_at == [1, 4, 7]
        assert (oracle.seen, oracle.checked) == (7, 3)

    @pytest.mark.parametrize("every", [0, -1, -3])
    def test_interval_below_one_is_rejected(self, every):
        with pytest.raises(ValueError, match="interval"):
            DifferentialOracle(seed=SEED, every=every)


class TestScanIntegration:
    def test_runner_shadows_every_kth_lookup(self, corpus_names):
        internet = build_internet(params=EcosystemParams(seed=SEED))
        config = ScanConfig(seed=SEED, oracle_check=3)
        rows = []
        report = ScanRunner(internet, config, sink=rows.append).run(corpus_names[:15])
        stats = report.oracle_stats
        assert stats is not None
        assert stats["checked"] == 5  # every 3rd of 15
        assert stats["divergences"] == 0
        assert not any(row.get("oracle_divergence") for row in rows)

    def test_oracle_mirrors_the_universe_not_the_scan_seed(self, corpus_names):
        """A shard task resolves in the scan's universe (``params.seed``)
        under a derived scan seed: the oracle must mirror the universe,
        or every check reads as a divergence."""
        from repro.net import derive_seed

        internet = build_internet(
            params=EcosystemParams(seed=SEED), net_seed=derive_seed(SEED, "net", 0)
        )
        config = ScanConfig(seed=derive_seed(SEED, "scan", 0), oracle_check=1)
        rows = []
        report = ScanRunner(internet, config, sink=rows.append).run(corpus_names[:20])
        assert report.oracle_stats["checked"] == 20
        assert report.oracle_stats["divergences"] == 0
        assert len(rows) == 20

    def test_runner_checks_lookups_one_k_plus_one_and_so_on(self, corpus_names):
        """The runner hands the oracle every finished lookup in the order
        rows are written; the oracle checks positions 1, K+1, 2K+1, …"""
        internet = build_internet(params=EcosystemParams(seed=SEED))
        rows = []
        runner = ScanRunner(internet, ScanConfig(seed=SEED, oracle_check=4), sink=rows.append)
        checked = []
        lookup = runner.oracle.oracle_result

        def recorded(qname, qtype):
            checked.append(qname.to_text(omit_final_dot=True))
            return lookup(qname, qtype)

        runner.oracle.oracle_result = recorded
        runner.run(corpus_names[:18])
        assert [row["name"] for row in rows[::4]] == checked
        assert len(checked) == 5

    @pytest.mark.parametrize("oracle_check", [0, -1, -3])
    def test_negative_interval_is_rejected_by_the_config(self, oracle_check):
        with pytest.raises(ValueError, match="oracle_check"):
            ScanConfig(seed=SEED, oracle_check=oracle_check)

    def test_shard_executor_folds_oracle_tallies(self, corpus_names):
        """Each task samples its own lookups; the parent folds the tasks'
        tallies into one ``oracle_stats``, and rows, spans, summary and
        metrics are the same for any process count (bar the process
        count the summary and the ``mp.processes`` gauge report)."""
        config = ScanConfig(seed=SEED, threads=50, oracle_check=3, metrics=True)
        outputs = []
        for processes in (1, 2, 3):
            out, spans = io.StringIO(), io.StringIO()
            report = run_parallel_scan(
                corpus_names, config, processes=processes, out=out, shards=4,
                add_timestamp=False, span_out=spans,
            )
            summary = report.summary()
            assert summary["mp"].pop("processes") == processes
            metrics = [entry for entry in report.registry.dump() if entry[0] != "mp.processes"]
            outputs.append((out.getvalue(), spans.getvalue(), summary, metrics))
        assert outputs[0] == outputs[1] == outputs[2]
        summary = outputs[0][2]
        # 40 names in 4 shards of 10: lookups 1, 4, 7 and 10 of each task
        assert summary["oracle"] == {
            "checked": 16, "agreed": 16, "inconclusive": 0, "divergences": 0,
        }
        assert report.metrics["oracle.checked"] == 16

    def test_runner_oracle_off_by_default(self, corpus_names):
        internet = build_internet(params=EcosystemParams(seed=SEED))
        config = ScanConfig(seed=SEED, oracle_check=None)
        report = ScanRunner(internet, config).run(corpus_names[:3])
        assert report.oracle_stats is None

    def test_runner_rejects_recursive_modes(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=SEED, mode="google", oracle_check=1)


class TestCLI:
    @pytest.fixture()
    def names_file(self, tmp_path):
        path = tmp_path / "names.txt"
        path.write_text("\n".join(DomainCorpus(CorpusConfig(seed=SEED)).fqdns(10)))
        return str(path)

    def test_oracle_check_flag(self, names_file, tmp_path):
        out = tmp_path / "rows.jsonl"
        meta = tmp_path / "meta.json"
        code = cli_main([
            "ALOOKUP", "-f", names_file, "-o", str(out), "--quiet",
            "--oracle-check", "1", "--metadata-file", str(meta),
            "--seed", str(SEED),
        ])
        assert code == 0
        summary = json.loads(meta.read_text())
        assert summary["oracle"]["checked"] == 10
        assert summary["oracle"]["divergences"] == 0

    def test_oracle_check_usage_errors(self, names_file):
        for argv in (
            ["A", "-f", names_file, "--oracle-check", "0"],
            ["A", "-f", names_file, "--oracle-check", "-2"],
            ["A", "-f", names_file, "--oracle-check", "2", "--mode", "google"],
        ):
            with pytest.raises(SystemExit) as err:
                cli_main(argv)
            assert err.value.code == 2

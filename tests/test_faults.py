"""Unit tests for the fault-injection subsystem (repro.faults), the
per-server health tracker, and retry backoff — the tier-1 slice of the
chaos harness (the long soak lives in tests/soak/)."""

import json
import random

import pytest

from repro.core import (
    Backoff,
    ExternalMachine,
    ResolverConfig,
    SendQuery,
    ServerHealthTracker,
    Status,
)
from repro.core.validation import validate_response_shape
from repro.dnslib import Message, Name, RRType
from repro.faults import (
    Blackout,
    Brownout,
    BurstLoss,
    FaultInjector,
    FaultPlan,
    Flap,
    Garbage,
    LatencySpike,
    Loss,
    PlanError,
    RcodeStorm,
    Truncate,
    directive_from_json,
    escalation_ladder,
    plan_by_name,
    resolve_plan,
)
from repro.net import GilbertElliottLoss, HangError, Simulator
from repro.net.links import LossModel


class FakeSim:
    """Minimal clock stand-in for driving the injector by hand."""

    def __init__(self, now=0.0):
        self.now = now


def make_query(name="www.example.com", qtype=RRType.A, txid=7):
    return Message.make_query(Name.from_text(name), qtype, txid=txid)


def make_response(query):
    response = Message.make_query(
        query.question.name, query.question.rrtype, txid=query.id
    )
    from repro.dnslib import Flags

    response.flags = Flags(response=True)
    return response


class TestPlanParsing:
    def test_roundtrip(self):
        plan = FaultPlan(
            [
                Blackout(servers=("10.0.0.1",), start=5, end=25),
                RcodeStorm(servers=("10.1.",), rcode="REFUSED", probability=0.6),
                BurstLoss(p_enter=0.02, p_exit=0.2, loss_bad=0.9),
            ],
            name="rt",
        )
        again = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert again.to_json() == plan.to_json()
        assert len(again) == 3 and bool(again)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown directive kind"):
            directive_from_json({"kind": "meteor_strike"})

    def test_unknown_field_rejected(self):
        with pytest.raises(PlanError, match="unknown field"):
            directive_from_json({"kind": "loss", "probabilty": 0.1})

    def test_bad_probability_rejected(self):
        with pytest.raises(PlanError):
            directive_from_json({"kind": "loss", "probability": 1.5})
        with pytest.raises(PlanError):
            Truncate(probability=-0.1)

    def test_bad_window_rejected(self):
        with pytest.raises(PlanError, match="bad window"):
            Blackout(start=10.0, end=5.0)

    def test_servers_string_coerced(self):
        directive = directive_from_json({"kind": "blackout", "servers": "10.0.0.1"})
        assert directive.servers == ("10.0.0.1",)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"name": "f", "directives": [{"kind": "blackout"}]}))
        plan = FaultPlan.load(str(path))
        assert plan.name == "f" and isinstance(plan.directives[0], Blackout)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(PlanError, match="invalid JSON"):
            FaultPlan.load(str(path))

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.empty()
        assert len(FaultPlan.empty()) == 0

    def test_bundled_plans(self):
        ladder = escalation_ladder()
        assert [bool(plan) for plan in ladder] == [False, True, True, True, True]
        assert plan_by_name("severe")
        with pytest.raises(KeyError):
            plan_by_name("apocalyptic")
        for plan in ladder:
            text = json.dumps(plan.to_json(), sort_keys=True)
            again = FaultPlan.from_json(json.loads(text))
            assert json.dumps(again.to_json(), sort_keys=True) == text
            assert len(again) == len(plan)

    def test_resolve_plan_reads_every_form(self, tmp_path):
        """A plan or None as is, a file path, a bundled name."""
        plan = plan_by_name("mild")
        assert resolve_plan(plan) is plan
        assert resolve_plan(None) is None
        assert resolve_plan("mild").to_json() == plan.to_json()
        path = tmp_path / "mild.json"
        path.write_text(json.dumps(plan.to_json()))
        assert resolve_plan(str(path)).to_json() == plan.to_json()
        with pytest.raises(KeyError, match="neither a file nor a bundled plan"):
            resolve_plan("apocalyptic")


class TestLossModels:
    def test_round_trip_probability(self):
        model = LossModel(0.1)
        assert model.round_trip_probability == pytest.approx(1 - 0.9**2)

    def test_for_round_trip_inverts(self):
        for target in (0.0, 0.05, 0.3, 0.75):
            model = LossModel.for_round_trip(target)
            assert model.round_trip_probability == pytest.approx(target)

    def test_for_round_trip_validates(self):
        with pytest.raises(ValueError):
            LossModel.for_round_trip(1.0)

    def test_gilbert_elliott_edge_rates(self):
        rng = random.Random(1)
        never = GilbertElliottLoss(p_enter=0.0, p_exit=1.0, loss_good=0.0)
        assert not any(never.dropped(rng) for _ in range(200))
        stuck = GilbertElliottLoss(
            p_enter=1.0, p_exit=0.0, loss_good=0.0, loss_bad=1.0
        )
        assert all(stuck.dropped(rng) for _ in range(200))

    def test_gilbert_elliott_stationary_rate_and_bursts(self):
        chain = GilbertElliottLoss(p_enter=0.1, p_exit=0.5, loss_good=0.0, loss_bad=1.0)
        rng = random.Random(42)
        draws = [chain.dropped(rng) for _ in range(20_000)]
        # stationary bad-state share = p_enter / (p_enter + p_exit) = 1/6
        assert 0.12 < sum(draws) / len(draws) < 0.21
        # losses come in bursts: mean run length ~ 1/p_exit = 2, so there
        # are well fewer distinct loss runs than losses
        runs = sum(1 for i, d in enumerate(draws) if d and (i == 0 or not draws[i - 1]))
        assert runs < 0.75 * sum(draws)

    def test_gilbert_elliott_validates(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_enter=1.5, p_exit=0.5)


class TestInjectorHooks:
    def test_empty_plan_never_touches_rng(self):
        injector = FaultInjector(FaultPlan.empty(), sim=FakeSim(), seed=3)
        state = injector.rng.getstate()
        query = make_query()
        assert injector.on_send("10.0.0.1", "udp") is None
        assert injector.at_server("10.0.0.1", "udp", query) is None
        response = make_response(query)
        assert injector.on_reply("10.0.0.1", "udp", query, response) is response
        assert injector.rng.getstate() == state
        assert injector.total_activations() == 0

    def test_nonmatching_directive_untouched_rng(self):
        plan = FaultPlan([Loss(probability=0.9, servers=("10.9.",))])
        injector = FaultInjector(plan, sim=FakeSim(), seed=3)
        state = injector.rng.getstate()
        assert injector.on_send("10.0.0.1", "udp") is None
        assert injector.rng.getstate() == state

    def test_blackout_targeting_and_window(self):
        plan = FaultPlan(
            [
                Blackout(servers=("192.7.",)),
                Blackout(servers=("1.1.1.1",), start=5.0, end=9.0),
            ]
        )
        sim = FakeSim()
        injector = FaultInjector(plan, sim=sim, seed=0)
        assert injector.on_send("192.7.3.4", "udp").drop
        assert injector.on_send("192.8.0.1", "udp") is None
        assert injector.on_send("1.1.1.1", "udp") is None
        sim.now = 7.0
        assert injector.on_send("1.1.1.1", "udp").drop
        sim.now = 9.0
        assert injector.on_send("1.1.1.1", "udp") is None
        assert injector.counts["blackout_0"] == 1
        assert injector.counts["blackout_1"] == 1

    def test_flap_phase(self):
        plan = FaultPlan([Flap(period=10.0, up_fraction=0.5)])
        sim = FakeSim()
        injector = FaultInjector(plan, sim=sim, seed=0)
        sim.now = 2.0  # up phase
        assert injector.on_send("10.0.0.1", "udp") is None
        sim.now = 7.0  # down phase
        assert injector.on_send("10.0.0.1", "udp").drop
        sim.now = 12.0  # next period, up again
        assert injector.on_send("10.0.0.1", "udp") is None

    def test_rcode_storm_synthesises_reply(self):
        plan = FaultPlan([RcodeStorm(rcode="SERVFAIL")])
        injector = FaultInjector(plan, sim=FakeSim(), seed=0)
        query = make_query()
        reply = injector.at_server("10.0.0.1", "udp", query)
        assert reply is not None and reply.id == query.id
        assert int(reply.flags.rcode) == 2  # SERVFAIL
        assert reply.flags.response
        # shape-valid: the machine processes it as a real SERVFAIL
        assert validate_response_shape(query.question.name, RRType.A, reply) is None

    def test_truncate_udp_only(self):
        plan = FaultPlan([Truncate()])
        injector = FaultInjector(plan, sim=FakeSim(), seed=0)
        query = make_query()
        udp = injector.on_reply("10.0.0.1", "udp", query, make_response(query))
        assert udp.flags.truncated
        tcp = injector.on_reply("10.0.0.1", "tcp", query, make_response(query))
        assert not tcp.flags.truncated

    def test_garbage_fails_validation(self):
        plan = FaultPlan([Garbage()])
        injector = FaultInjector(plan, sim=FakeSim(), seed=0)
        query = make_query()
        for _ in range(8):
            reply = injector.on_reply("10.0.0.1", "udp", query, make_response(query))
            reason = validate_response_shape(query.question.name, RRType.A, reply)
            assert reason is not None

    def test_latency_spike_and_brownout_verdict(self):
        plan = FaultPlan(
            [
                LatencySpike(extra=0.25, factor=2.0),
                Brownout(probability=0.0, latency_factor=3.0),
            ]
        )
        injector = FaultInjector(plan, sim=FakeSim(), seed=0)
        verdict = injector.on_send("10.0.0.1", "udp")
        assert verdict is not None and not verdict.drop
        assert verdict.extra_delay == pytest.approx(0.25)
        assert verdict.latency_factor == pytest.approx(6.0)

    def test_burst_loss_uses_per_server_chains(self):
        plan = FaultPlan([BurstLoss(p_enter=1.0, p_exit=0.0, loss_bad=1.0)])
        injector = FaultInjector(plan, sim=FakeSim(), seed=0)
        assert injector.on_send("10.0.0.1", "udp").drop
        assert injector.on_send("10.0.0.2", "udp").drop
        assert len(injector._chains) == 2

    def test_determinism_same_seed(self):
        plan = FaultPlan([Loss(probability=0.5)])

        def run(seed):
            injector = FaultInjector(plan, sim=FakeSim(), seed=seed)
            return [
                injector.on_send("10.0.0.1", "udp") is not None for _ in range(64)
            ], injector.counts

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_attach_and_metrics(self):
        from repro.obs import MetricsRegistry

        class _Net:
            fault_injector = None

        network = _Net()
        plan = FaultPlan([Blackout()])
        injector = FaultInjector(plan, sim=FakeSim(), seed=0).attach(network)
        assert network.fault_injector is injector
        injector.on_send("10.0.0.1", "udp")
        registry = MetricsRegistry(enabled=True)
        injector.publish_metrics(registry.scope("faults"))
        snapshot = registry.snapshot()
        assert snapshot["faults.blackout_0"] == 1
        assert snapshot["faults.total_activations"] == 1
        assert snapshot["faults.directives"] == 1


class TestServerHealthTracker:
    def test_failures_accumulate_and_decay(self):
        clock = FakeSim()
        tracker = ServerHealthTracker(clock=lambda: clock.now, half_life=10.0)
        tracker.record_failure("10.0.0.1")
        tracker.record_failure("10.0.0.1")
        assert tracker.score("10.0.0.1") == pytest.approx(2.0)
        clock.now = 10.0
        assert tracker.score("10.0.0.1") == pytest.approx(1.0)

    def test_success_credits(self):
        clock = FakeSim()
        tracker = ServerHealthTracker(clock=lambda: clock.now, success_credit=0.5)
        tracker.record_failure("10.0.0.1")
        tracker.record_success("10.0.0.1")
        assert tracker.score("10.0.0.1") == pytest.approx(0.5)
        tracker.record_success("10.0.0.1")
        assert tracker.score("10.0.0.1") == 0.0

    def test_order_sheds_unhealthy_servers_last(self):
        clock = FakeSim()
        tracker = ServerHealthTracker(
            clock=lambda: clock.now, shed_threshold=2.0
        )
        for _ in range(5):
            tracker.record_failure("10.0.0.2")
        assert tracker.is_shed("10.0.0.2")
        servers = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        for seed in range(10):
            ordered = tracker.order(list(servers), random.Random(seed))
            assert sorted(ordered) == sorted(servers)  # nothing removed
            assert ordered[-1] == "10.0.0.2"

    def test_order_healthy_keeps_shuffle(self):
        tracker = ServerHealthTracker(clock=lambda: 0.0)
        servers = [f"10.0.0.{i}" for i in range(6)]
        shuffled = list(servers)
        random.Random(3).shuffle(shuffled)
        assert tracker.order(list(servers), random.Random(3)) == shuffled


def drive_with_backoff(gen, responder):
    """Like test_machine.drive but collects Backoff effects."""
    pauses = []
    try:
        effect = next(gen)
        while True:
            if isinstance(effect, Backoff):
                pauses.append(effect.delay)
                effect = gen.send(None)
                continue
            assert isinstance(effect, SendQuery)
            effect = gen.send(responder(effect))
    except StopIteration as stop:
        return stop.value, pauses


class TestBackoff:
    def test_disabled_by_default(self):
        gen = ExternalMachine(["8.8.8.8"], ResolverConfig(retries=2)).resolve(
            "x.com", RRType.A
        )
        result, pauses = drive_with_backoff(gen, lambda effect: None)
        assert result.status == Status.TIMEOUT
        assert pauses == []

    def test_pauses_between_retries(self):
        config = ResolverConfig(retries=3, backoff_base=0.1, backoff_cap=0.5)
        gen = ExternalMachine(["8.8.8.8"], config, random.Random(1)).resolve(
            "x.com", RRType.A
        )
        result, pauses = drive_with_backoff(gen, lambda effect: None)
        assert result.status == Status.TIMEOUT
        # a pause before every retry, none after the final attempt
        assert len(pauses) == 3
        assert all(0.1 <= pause <= 0.5 for pause in pauses)

    def test_deterministic_given_seed(self):
        def run():
            config = ResolverConfig(retries=3, backoff_base=0.1)
            gen = ExternalMachine(["8.8.8.8"], config, random.Random(9)).resolve(
                "x.com", RRType.A
            )
            return drive_with_backoff(gen, lambda effect: None)[1]

        assert run() == run()


class TestHangDetection:
    def test_bounded_run_raises(self):
        sim = Simulator()

        def forever():
            while True:
                yield 1.0

        sim.spawn(forever())
        with pytest.raises(HangError, match="still busy"):
            sim.run(max_events=100)

    def test_bounded_run_completes_normally(self):
        sim = Simulator()
        ticks = []

        def three():
            for _ in range(3):
                yield 1.0
                ticks.append(sim.now)

        sim.spawn(three())
        sim.run(max_events=100)
        assert ticks == [1.0, 2.0, 3.0]


class TestScanIntegration:
    def _scan(self, plan, seed=13, count=60):
        from repro.ecosystem import EcosystemParams, build_internet
        from repro.framework import ScanConfig, ScanRunner
        from repro.workloads import CorpusConfig, DomainCorpus

        internet = build_internet(params=EcosystemParams(seed=seed), faults=plan, chaos_seed=seed)
        injector = internet.network.fault_injector
        rows = []
        config = ScanConfig(threads=20, seed=seed, server_health=True,
                            backoff_base=0.05)
        names = DomainCorpus(CorpusConfig(seed=seed)).fqdns(count)
        report = ScanRunner(internet, config, sink=rows.append).run(names)
        return rows, report, injector

    def test_chaos_smoke_terminates_classified(self):
        rows, report, injector = self._scan(plan_by_name("severe"))
        assert report.stats.total == 60
        assert sum(report.stats.by_status.values()) == 60
        assert all("status" in row for row in rows)
        assert injector.total_activations() > 0
        # adversity never makes a scan succeed more often
        _, baseline, _ = self._scan(None)
        assert report.stats.successes <= baseline.stats.successes

    def test_empty_plan_equivalent_with_hardening_on(self):
        rows_a, report_a, _ = self._scan(None)
        rows_b, report_b, injector = self._scan(FaultPlan.empty())
        assert rows_a == rows_b
        assert report_a.stats.duration == report_b.stats.duration
        assert injector.total_activations() == 0

"""Tests for the CPU queueing model and network path models."""

import random

import pytest

from repro.net import CapacityQueue, CPUModel, GCModel, LatencyModel, LossModel, Simulator, TokenBucket


class TestCPUModel:
    def test_uncontended_work_finishes_after_cost(self):
        sim = Simulator()
        cpu = CPUModel(sim, cores=2)

        def routine():
            yield cpu.occupy(0.5)
            return sim.now

        future = sim.spawn(routine())
        sim.run()
        assert future.result() == pytest.approx(0.5)

    def test_parallel_work_uses_all_cores(self):
        sim = Simulator()
        cpu = CPUModel(sim, cores=4)

        def routine():
            yield cpu.occupy(1.0)
            return sim.now

        results = sim.run_all(routine() for _ in range(4))
        assert all(r == pytest.approx(1.0) for r in results)

    def test_overload_queues(self):
        sim = Simulator()
        cpu = CPUModel(sim, cores=1)

        def routine():
            yield cpu.occupy(1.0)
            return sim.now

        results = sim.run_all(routine() for _ in range(3))
        assert sorted(results) == [pytest.approx(i) for i in (1.0, 2.0, 3.0)]

    def test_throughput_caps_at_cores_over_cost(self):
        """Closed-loop throughput must plateau at cores/cost ops/sec."""
        sim = Simulator()
        cpu = CPUModel(sim, cores=4)
        cost = 0.01  # capacity = 400 ops/s
        completed = []

        def worker():
            for _ in range(20):
                yield cpu.occupy(cost)
                completed.append(sim.now)

        sim.run_all(worker() for _ in range(50))
        elapsed = max(completed)
        rate = len(completed) / elapsed
        assert rate == pytest.approx(4 / cost, rel=0.05)

    def test_utilisation(self):
        sim = Simulator()
        cpu = CPUModel(sim, cores=2)

        def routine():
            yield cpu.occupy(1.0)

        sim.run_all([routine()])
        assert cpu.utilisation(1.0) == pytest.approx(0.5)
        assert cpu.utilisation(0.0) == 0.0

    def test_requires_at_least_one_core(self):
        with pytest.raises(ValueError):
            CPUModel(Simulator(), cores=0)


class TestGCModel:
    def test_no_stall_inside_period(self):
        gc = GCModel(period=10.0, pause=1.0)
        assert gc.apply(0.0, 5.0) == (0.0, 5.0)

    def test_work_interrupted_by_collection(self):
        gc = GCModel(period=10.0, pause=1.0)
        start, finish = gc.apply(9.5, 1.0)
        assert start == 9.5
        assert finish == pytest.approx(11.5)  # +1s stop-the-world

    def test_work_scheduled_during_stall_waits(self):
        gc = GCModel(period=10.0, pause=1.0)
        start, finish = gc.apply(10.3, 0.2)
        assert start == pytest.approx(11.0)  # pushed past the stall
        assert finish == pytest.approx(11.2)

    def test_disabled(self):
        assert GCModel(period=0, pause=0).apply(0, 100) == (0, 100)

    def test_stop_the_world_stalls_every_core(self):
        """All cores stall during a collection, not just the one whose
        work item crossed the boundary."""
        sim = Simulator()
        cpu = CPUModel(sim, cores=4, gc=GCModel(period=1.0, pause=0.5))
        finish_times = []

        def worker():
            yield 0.99  # arrive just before the collection
            yield cpu.occupy(0.02)
            finish_times.append(sim.now)

        sim.run_all(worker() for _ in range(4))
        # every core's work is interrupted or deferred by the stall
        assert all(t >= 1.5 for t in finish_times)

    def test_frequent_short_gc_gives_fewer_long_stalls(self):
        """Same total overhead; the rare-GC config produces longer
        single stalls, which is what times out in-flight queries."""
        rare = GCModel(period=40.0, pause=4.0)
        frequent = GCModel(period=10.0, pause=1.0)
        assert rare.pause / rare.period == frequent.pause / frequent.period
        assert rare.pause > frequent.pause


class TestLatencyModel:
    def test_samples_are_positive_and_spread(self):
        rng = random.Random(1)
        model = LatencyModel(median=0.03)
        samples = [model.sample(rng) for _ in range(2000)]
        assert min(samples) > 0
        mid = sorted(samples)[len(samples) // 2]
        assert mid == pytest.approx(0.03, rel=0.15)

    def test_floor_enforced(self):
        rng = random.Random(2)
        model = LatencyModel(median=0.0005, floor=0.001)
        assert all(model.sample(rng) >= 0.001 for _ in range(100))


class TestLossModel:
    def test_zero_loss_never_drops(self):
        rng = random.Random(3)
        model = LossModel(0.0)
        assert not any(model.dropped(rng) for _ in range(1000))

    def test_loss_rate_approximates_probability(self):
        rng = random.Random(4)
        model = LossModel(0.2)
        drops = sum(model.dropped(rng) for _ in range(10_000))
        assert 0.17 < drops / 10_000 < 0.23


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate=10, burst=5)
        allowed = sum(bucket.allow(0.0) for _ in range(10))
        assert allowed == 5

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=10, burst=5)
        for _ in range(5):
            assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(0.2)  # 2 tokens refilled

    def test_sustained_rate_is_enforced(self):
        bucket = TokenBucket(rate=100, burst=100)
        allowed = sum(bucket.allow(i / 1000) for i in range(5000))  # 1000 qps for 5s
        # initial burst of 100 plus 100/s sustained over 5s
        assert allowed == pytest.approx(100 + 100 * 5, rel=0.05)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)


class TestCapacityQueue:
    def test_underload_has_no_delay(self):
        queue = CapacityQueue(rate=100)
        assert queue.admit(0.0) == 0.0
        assert queue.admit(1.0) == 0.0

    def test_backlog_builds_delay(self):
        queue = CapacityQueue(rate=10)  # 100ms per query
        first = queue.admit(0.0)
        second = queue.admit(0.0)
        assert first == 0.0
        assert second == pytest.approx(0.1)

    def test_overload_drops(self):
        queue = CapacityQueue(rate=10, max_backlog=0.5)
        outcomes = [queue.admit(0.0) for _ in range(20)]
        assert None in outcomes
        assert queue.dropped > 0
        assert queue.served + queue.dropped == 20

    def test_drains_over_time(self):
        queue = CapacityQueue(rate=10, max_backlog=0.5)
        for _ in range(6):
            queue.admit(0.0)
        assert queue.admit(0.0) is None
        assert queue.admit(10.0) == 0.0

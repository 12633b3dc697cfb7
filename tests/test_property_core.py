"""Property-based tests for core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Delegation, SelectiveCache
from repro.dnslib import Name
from repro.net import CPUModel, Simulator, TokenBucket

zone_names = st.integers(min_value=0, max_value=500).map(
    lambda i: Name.from_text(f"zone-{i}.com")
)

operations = st.lists(
    st.tuples(zone_names, st.booleans()),  # (zone, is_insert)
    min_size=1,
    max_size=200,
)


def delegation_for(zone: Name) -> Delegation:
    ns = Name.from_text("ns1").concatenate(zone)
    return Delegation(zone=zone, ns_names=(ns,), glue=((ns, "10.0.0.1"),))


class TestCacheInvariants:
    @given(operations, st.integers(min_value=1, max_value=50),
           st.sampled_from(["random", "lru"]))
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, ops, capacity, eviction):
        cache = SelectiveCache(capacity=capacity, eviction=eviction, seed=1)
        for zone, is_insert in ops:
            if is_insert:
                cache.put_delegation(delegation_for(zone))
            else:
                cache.get_delegation(zone)
            assert len(cache) <= capacity

    @given(operations)
    @settings(max_examples=60)
    def test_get_returns_last_put(self, ops):
        cache = SelectiveCache(capacity=10_000)  # never evicts here
        expected = {}
        for zone, _ in ops:
            entry = delegation_for(zone)
            cache.put_delegation(entry)
            expected[zone.canonical_key()] = entry
        for zone, _ in ops:
            assert cache.get_delegation(zone) == expected[zone.canonical_key()]

    @given(operations, st.integers(min_value=1, max_value=30))
    @settings(max_examples=40)
    def test_bookkeeping_consistent_under_churn(self, ops, capacity):
        cache = SelectiveCache(capacity=capacity, eviction="random", seed=3)
        for zone, _ in ops:
            cache.put_delegation(delegation_for(zone))
            # internal key list and table must agree at all times
            assert len(cache._keys) == len(cache._entries)
            assert set(cache._keys) == set(cache._entries)

    @given(st.lists(zone_names, min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_best_delegation_is_deepest_ancestor(self, zones):
        cache = SelectiveCache(capacity=10_000)
        for zone in zones:
            cache.put_delegation(delegation_for(zone))
        for zone in zones:
            query = Name.from_text("www").concatenate(zone)
            best = cache.best_delegation(query)
            assert best is not None
            assert query.is_subdomain_of(best.zone)


class TestSimulatorInvariants:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.call_later(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.001, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_cpu_conserves_work(self, costs, cores):
        """Total busy time equals the sum of submitted work, and the
        makespan is at least busy/cores (no work is lost or invented)."""
        sim = Simulator()
        cpu = CPUModel(sim, cores=cores)

        def worker(cost):
            yield cpu.occupy(cost)

        sim.run_all(worker(c) for c in costs)
        assert cpu.busy_seconds == sum(costs)
        assert sim.now >= sum(costs) / cores - 1e-9
        assert sim.now <= sum(costs) + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                    min_size=1, max_size=200),
           st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=40)
    def test_token_bucket_never_exceeds_budget(self, times, rate):
        bucket = TokenBucket(rate=rate, burst=rate)
        allowed = 0
        for now in sorted(times):
            allowed += bucket.allow(now)
        horizon = max(times)
        # can never allow more than burst + rate * elapsed
        assert allowed <= rate + rate * horizon + 1e-6

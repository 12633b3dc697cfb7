"""Tests for the selective delegation cache."""

import pytest

from repro.core import Delegation, SelectiveCache
from repro.dnslib import DNSClass, Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A

N = Name.from_text


def delegation(zone: str, *ips: str) -> Delegation:
    ns_names = tuple(N(f"ns{i + 1}.{zone}") for i in range(max(1, len(ips))))
    glue = tuple((ns_names[i], ip) for i, ip in enumerate(ips))
    return Delegation(zone=N(zone), ns_names=ns_names, glue=glue)


class TestDelegation:
    def test_addresses(self):
        entry = delegation("example.com", "1.2.3.4", "5.6.7.8")
        assert entry.addresses() == ["1.2.3.4", "5.6.7.8"]

    def test_glue_for(self):
        entry = delegation("example.com", "1.2.3.4", "5.6.7.8")
        assert entry.glue_for(N("ns1.example.com")) == ["1.2.3.4"]
        assert entry.glue_for(N("ns9.example.com")) == []


class TestBasicOperations:
    def test_put_and_get(self):
        cache = SelectiveCache(capacity=10)
        entry = delegation("com", "192.5.6.30")
        cache.put_delegation(entry)
        assert cache.get_delegation(N("com")) == entry
        assert cache.get_delegation(N("net")) is None

    def test_case_insensitive_zone_keys(self):
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("Example.COM", "1.1.1.1"))
        assert cache.get_delegation(N("example.com")) is not None

    def test_best_delegation_picks_deepest(self):
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("com", "1.1.1.1"))
        cache.put_delegation(delegation("example.com", "2.2.2.2"))
        best = cache.best_delegation(N("www.example.com"))
        assert best.zone == N("example.com")

    def test_best_delegation_walks_up(self):
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("com", "1.1.1.1"))
        best = cache.best_delegation(N("a.b.c.example.com"))
        assert best.zone == N("com")

    def test_best_delegation_miss(self):
        cache = SelectiveCache(capacity=10)
        assert cache.best_delegation(N("example.org")) is None
        assert cache.stats.misses == 1

    def test_hit_and_miss_stats(self):
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("com", "1.1.1.1"))
        cache.best_delegation(N("a.com"))
        cache.best_delegation(N("b.org"))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_update_replaces_entry(self):
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("com", "1.1.1.1"))
        cache.put_delegation(delegation("com", "9.9.9.9"))
        assert cache.get_delegation(N("com")).addresses() == ["9.9.9.9"]
        assert len(cache) == 1


class TestPolicies:
    def test_selective_ignores_answers(self):
        cache = SelectiveCache(capacity=10, policy="selective")
        record = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_answer(N("a.com"), RRType.A, [record])
        assert cache.get_answer(N("a.com"), RRType.A) is None
        assert len(cache) == 0

    def test_all_policy_caches_answers(self):
        cache = SelectiveCache(capacity=10, policy="all")
        record = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_answer(N("a.com"), RRType.A, [record])
        assert cache.get_answer(N("a.com"), RRType.A) == [record]

    def test_answer_lookups_are_counted(self):
        """Answer-cache traffic shows up in the stats — previously these
        probes were invisible, so the policy="all" ablation reported a
        hit rate built only from delegation walks."""
        cache = SelectiveCache(capacity=10, policy="all")
        record = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        assert cache.get_answer(N("a.com"), RRType.A) is None
        assert cache.stats.answer_misses == 1
        cache.put_answer(N("a.com"), RRType.A, [record])
        assert cache.get_answer(N("a.com"), RRType.A) == [record]
        assert cache.get_answer(N("a.com"), RRType.A) == [record]
        assert cache.stats.answer_hits == 2
        assert cache.stats.answer_misses == 1
        # aggregate hit rate blends delegation and answer probes
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_selective_policy_records_no_answer_stats(self):
        cache = SelectiveCache(capacity=10, policy="selective")
        assert cache.get_answer(N("a.com"), RRType.A) is None
        assert cache.stats.answer_hits == 0
        assert cache.stats.answer_misses == 0

    def test_answer_hits_refresh_lru_position(self):
        cache = SelectiveCache(capacity=2, policy="all", eviction="lru")
        a = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        b = ResourceRecord(N("b.com"), RRType.A, DNSClass.IN, 300, A("5.6.7.8"))
        cache.put_answer(N("a.com"), RRType.A, [a])
        cache.put_answer(N("b.com"), RRType.A, [b])
        assert cache.get_answer(N("a.com"), RRType.A) == [a]  # refresh a
        c = ResourceRecord(N("c.com"), RRType.A, DNSClass.IN, 300, A("9.9.9.9"))
        cache.put_answer(N("c.com"), RRType.A, [c])
        assert cache.get_answer(N("a.com"), RRType.A) == [a]
        assert cache.get_answer(N("b.com"), RRType.A) is None  # b evicted

    def test_none_policy_caches_nothing(self):
        cache = SelectiveCache(capacity=10, policy="none")
        cache.put_delegation(delegation("com", "1.1.1.1"))
        assert cache.get_delegation(N("com")) is None

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SelectiveCache(policy="bogus")

    def test_invalid_eviction_rejected(self):
        with pytest.raises(ValueError):
            SelectiveCache(eviction="fifo")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SelectiveCache(capacity=0)


class TestEviction:
    def test_capacity_is_enforced(self):
        cache = SelectiveCache(capacity=5, eviction="random", seed=1)
        for i in range(50):
            cache.put_delegation(delegation(f"zone{i}.com", "1.1.1.1"))
        assert len(cache) == 5
        assert cache.stats.evictions == 45

    def test_lru_evicts_oldest(self):
        cache = SelectiveCache(capacity=2, eviction="lru")
        cache.put_delegation(delegation("a.com", "1.1.1.1"))
        cache.put_delegation(delegation("b.com", "1.1.1.1"))
        cache.get_delegation(N("a.com"))  # touch a: b becomes LRU
        cache.put_delegation(delegation("c.com", "1.1.1.1"))
        assert cache.get_delegation(N("a.com")) is not None
        assert cache.get_delegation(N("b.com")) is None

    def test_random_eviction_eventually_evicts_hot_entries(self):
        """The Figure 2 mechanism: under random eviction, churn can push
        out hot upper-layer entries; a larger cache makes that rarer."""

        def survival(capacity):
            cache = SelectiveCache(capacity=capacity, eviction="random", seed=7)
            cache.put_delegation(delegation("com", "1.1.1.1"))
            lost = 0
            for i in range(3000):
                cache.put_delegation(delegation(f"z{i}.com", "2.2.2.2"))
                if cache.get_delegation(N("com")) is None:
                    lost += 1
                    cache.put_delegation(delegation("com", "1.1.1.1"))
            return lost

        assert survival(100) > survival(2000)

    def test_eviction_keeps_key_bookkeeping_consistent(self):
        cache = SelectiveCache(capacity=3, eviction="random", seed=3)
        for i in range(100):
            cache.put_delegation(delegation(f"z{i}.com", "1.1.1.1"))
            found = sum(
                1 for j in range(i + 1) if cache.get_delegation(N(f"z{j}.com")) is not None
            )
            assert found == len(cache) <= 3

    def test_mixed_tables_under_lru(self):
        cache = SelectiveCache(capacity=4, policy="all", eviction="lru")
        record = ResourceRecord(N("x.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        for i in range(4):
            cache.put_delegation(delegation(f"d{i}.com", "1.1.1.1"))
        cache.put_answer(N("x.com"), RRType.A, [record])
        assert len(cache) == 4

    def test_lru_recency_is_shared_across_tables(self):
        """Regression: "lru" used to evict the oldest entry of whichever
        table happened to be *larger*, so a just-touched delegation
        could be thrown out while a never-read answer survived.  The
        recency order must span both tables."""
        cache = SelectiveCache(capacity=3, policy="all", eviction="lru")
        answer = ResourceRecord(N("a1.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_delegation(delegation("d1.com", "1.1.1.1"))
        cache.put_delegation(delegation("d2.com", "2.2.2.2"))
        cache.put_answer(N("a1.com"), RRType.A, [answer])
        # touch both delegations: the answer is now globally least recent
        assert cache.get_delegation(N("d1.com")) is not None
        assert cache.get_delegation(N("d2.com")) is not None
        another = ResourceRecord(N("a2.com"), RRType.A, DNSClass.IN, 300, A("5.6.7.8"))
        cache.put_answer(N("a2.com"), RRType.A, [another])
        # pre-fix: the delegation table was larger, so d1 got evicted
        assert cache.get_delegation(N("d1.com")) is not None
        assert cache.get_delegation(N("d2.com")) is not None
        assert cache.get_answer(N("a1.com"), RRType.A) is None


class TestInsertAccounting:
    def test_overwrite_is_an_update_not_an_insert(self):
        """Regression: overwriting a live key used to count as a fresh
        insert, so long scans reported more inserts than the cache had
        ever held entries and the hit-rate denominators drifted."""
        cache = SelectiveCache(capacity=10)
        cache.put_delegation(delegation("com", "1.1.1.1"))
        cache.put_delegation(delegation("com", "9.9.9.9"))
        assert cache.stats.inserts == 1
        assert cache.stats.updates == 1
        assert len(cache) == 1

    def test_answer_overwrite_counted_as_update(self):
        cache = SelectiveCache(capacity=10, policy="all")
        record = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_answer(N("a.com"), RRType.A, [record])
        cache.put_answer(N("a.com"), RRType.A, [record])
        assert cache.stats.inserts == 1
        assert cache.stats.updates == 1


class TestExpiry:
    """Entry lifetimes against a virtual clock.

    Regression suite: the cache used to have no notion of time at all —
    every entry lived forever, so a scan running longer than a zone's
    TTL kept serving dead delegations (and, under policy="all", stale
    leaf answers)."""

    def _clocked(self, **kwargs):
        now = [0.0]
        cache = SelectiveCache(clock=lambda: now[0], **kwargs)
        return cache, now

    def test_delegation_expires_after_ttl(self):
        cache, now = self._clocked(capacity=10)
        entry = delegation("com", "1.1.1.1")
        entry = Delegation(zone=entry.zone, ns_names=entry.ns_names, glue=entry.glue, ttl=60)
        cache.put_delegation(entry)
        now[0] = 59.9
        assert cache.get_delegation(N("com")) is not None
        now[0] = 60.0  # expiry boundary: TTL seconds after insert is dead
        assert cache.get_delegation(N("com")) is None
        assert cache.stats.expired == 1
        assert len(cache) == 0  # dropped lazily on the probe

    def test_expired_cut_falls_back_to_ancestor(self):
        cache, now = self._clocked(capacity=10)
        com = delegation("com", "1.1.1.1")
        cache.put_delegation(com)  # ttl None: never expires
        deep = delegation("example.com", "2.2.2.2")
        deep = Delegation(zone=deep.zone, ns_names=deep.ns_names, glue=deep.glue, ttl=30)
        cache.put_delegation(deep)
        best = cache.best_delegation(N("www.example.com"))
        assert best.zone == N("example.com")
        now[0] = 31.0
        best = cache.best_delegation(N("www.example.com"))
        assert best is not None and best.zone == N("com")
        assert cache.stats.expired == 1
        assert cache.stats.hits == 2  # the ancestor still counts as a hit

    def test_expiry_walk_can_end_in_a_miss(self):
        cache, now = self._clocked(capacity=10)
        entry = delegation("org", "1.1.1.1")
        entry = Delegation(zone=entry.zone, ns_names=entry.ns_names, glue=entry.glue, ttl=10)
        cache.put_delegation(entry)
        now[0] = 11.0
        assert cache.best_delegation(N("a.org")) is None
        assert cache.stats.misses == 1
        assert cache.stats.expired == 1

    def test_answer_lifetime_is_min_record_ttl(self):
        cache, now = self._clocked(capacity=10, policy="all")
        short = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 20, A("1.2.3.4"))
        long = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("5.6.7.8"))
        cache.put_answer(N("a.com"), RRType.A, [short, long])
        now[0] = 19.9
        assert cache.get_answer(N("a.com"), RRType.A) is not None
        now[0] = 20.0
        assert cache.get_answer(N("a.com"), RRType.A) is None
        assert cache.stats.expired == 1
        assert cache.stats.answer_misses == 1

    def test_no_clock_means_no_expiry(self):
        cache = SelectiveCache(capacity=10)
        entry = delegation("com", "1.1.1.1")
        entry = Delegation(zone=entry.zone, ns_names=entry.ns_names, glue=entry.glue, ttl=1)
        cache.put_delegation(entry)
        assert cache.get_delegation(N("com")) is not None  # forever

    def test_overwrite_refreshes_lifetime(self):
        cache, now = self._clocked(capacity=10)
        entry = delegation("com", "1.1.1.1")
        cache.put_delegation(
            Delegation(zone=entry.zone, ns_names=entry.ns_names, glue=entry.glue, ttl=10)
        )
        now[0] = 8.0
        cache.put_delegation(
            Delegation(zone=entry.zone, ns_names=entry.ns_names, glue=entry.glue, ttl=10)
        )
        now[0] = 15.0  # past the first deadline, inside the second
        assert cache.get_delegation(N("com")) is not None


class TestExpiryBoundary:
    """Satellite regression suite: the ``clock() == expires_at`` instant.

    The boundary rule must be *uniform*: at exactly the expiry instant
    an entry is dead on the probe path, on the ``best_delegation``
    walk, and on the eviction path — and the drop is always accounted
    as ``expired``, never ``evictions``.  FP-exact: the tests pin the
    exact boundary and its ``math.nextafter`` neighbour."""

    def _clocked(self, **kwargs):
        now = [0.0]
        cache = SelectiveCache(clock=lambda: now[0], **kwargs)
        return cache, now

    def _with_ttl(self, zone: str, ttl: int) -> Delegation:
        entry = delegation(zone, "1.1.1.1")
        return Delegation(zone=entry.zone, ns_names=entry.ns_names,
                          glue=entry.glue, ttl=ttl)

    def test_probe_boundary_is_fp_exact(self):
        import math

        cache, now = self._clocked(capacity=10)
        cache.put_delegation(self._with_ttl("com", 60))
        now[0] = math.nextafter(60.0, 0.0)  # largest float below the boundary
        assert cache.get_delegation(N("com")) is not None
        assert cache.stats.expired == 0
        now[0] = 60.0  # the boundary itself: dead
        assert cache.get_delegation(N("com")) is None
        assert cache.stats.expired == 1

    def test_best_delegation_walk_uses_the_same_boundary(self):
        import math

        cache, now = self._clocked(capacity=10)
        cache.put_delegation(self._with_ttl("example.com", 30))
        now[0] = math.nextafter(30.0, 0.0)
        assert cache.best_delegation(N("www.example.com")) is not None
        now[0] = 30.0
        assert cache.best_delegation(N("www.example.com")) is None
        assert cache.stats.expired == 1
        assert cache.stats.misses == 1

    def test_eviction_of_expired_victim_counts_as_expired(self):
        """Regression: a capacity eviction whose victim had already
        passed its deadline used to count as ``evictions`` — the same
        dead entry was classified differently depending on whether a
        probe or the capacity sweep found it first."""
        cache, now = self._clocked(capacity=1, eviction="lru")
        cache.put_delegation(self._with_ttl("a.com", 10))
        now[0] = 10.0  # victim is dead at exactly its deadline
        cache.put_delegation(self._with_ttl("b.com", 10))
        assert cache.stats.expired == 1
        assert cache.stats.evictions == 0

    def test_eviction_of_live_victim_still_counts_as_eviction(self):
        import math

        cache, now = self._clocked(capacity=1, eviction="lru")
        cache.put_delegation(self._with_ttl("a.com", 10))
        now[0] = math.nextafter(10.0, 0.0)  # victim still (barely) alive
        cache.put_delegation(self._with_ttl("b.com", 10))
        assert cache.stats.evictions == 1
        assert cache.stats.expired == 0

    def test_boundary_identical_across_probe_and_eviction(self):
        """The three lifetime paths agree at the exact boundary: same
        clock reading, same classification."""
        for probe_first in (True, False):
            cache, now = self._clocked(capacity=1, eviction="lru")
            cache.put_delegation(self._with_ttl("x.com", 25))
            now[0] = 25.0
            if probe_first:
                assert cache.get_delegation(N("x.com")) is None
                assert (cache.stats.expired, cache.stats.evictions) == (1, 0)
            else:
                cache.put_delegation(self._with_ttl("y.com", 25))
                assert (cache.stats.expired, cache.stats.evictions) == (1, 0)


class TestServeStale:
    """RFC 8767: expired answers stay servable — bounded, read-only,
    and only through the explicit stale APIs."""

    def _cache(self, stale_ttl=600.0, **kwargs):
        now = [0.0]
        cache = SelectiveCache(
            capacity=32, policy="all", clock=lambda: now[0],
            stale_ttl=stale_ttl, **kwargs
        )
        return cache, now

    def _record(self, name="a.com", ttl=300, ip="1.2.3.4"):
        return ResourceRecord(N(name), RRType.A, DNSClass.IN, ttl, A(ip))

    def test_stale_ttl_requires_clock(self):
        with pytest.raises(ValueError):
            SelectiveCache(stale_ttl=60.0)

    def test_stale_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            SelectiveCache(stale_ttl=0.0, clock=lambda: 0.0)

    def test_expired_answer_is_a_fresh_miss_but_stale_hit(self):
        cache, now = self._cache()
        record = self._record()
        cache.put_answer(N("a.com"), RRType.A, [record])
        now[0] = 300.0  # boundary: dead on the fresh path...
        assert cache.get_answer(N("a.com"), RRType.A) is None
        # ...but retained, not dropped: age 0.0 through the stale API
        stale = cache.get_stale_answer(N("a.com"), RRType.A)
        assert stale == ([record], 0.0)
        assert cache.stats.stale_hits == 1
        assert cache.stats.expired == 0

    def test_stale_read_never_rejuvenates(self):
        """Serving stale must not make the entry younger: the reported
        age keeps growing across reads."""
        cache, now = self._cache()
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        now[0] = 400.0
        _, age1 = cache.get_stale_answer(N("a.com"), RRType.A)
        now[0] = 500.0
        _, age2 = cache.get_stale_answer(N("a.com"), RRType.A)
        assert (age1, age2) == (100.0, 200.0)

    def test_stale_window_cap_finalises_the_entry(self):
        cache, now = self._cache(stale_ttl=600.0)
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        import math

        now[0] = math.nextafter(900.0, 0.0)  # 300 + 600, just inside
        assert cache.get_stale_answer(N("a.com"), RRType.A) is not None
        now[0] = 900.0  # at the cap: same >= boundary rule, finalised
        assert cache.get_stale_answer(N("a.com"), RRType.A) is None
        assert cache.stats.expired == 1
        assert len(cache) == 0

    def test_fresh_entry_is_not_stale(self):
        cache, now = self._cache()
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        now[0] = 100.0
        assert cache.get_stale_answer(N("a.com"), RRType.A) is None
        assert cache.stats.stale_hits == 0

    def test_delegations_are_exempt_from_serve_stale(self):
        """RFC 8767 staleness applies to answers; the delegation walk
        must keep dropping expired cuts (a stale NS set would steer
        every future query at dead servers)."""
        cache, now = self._cache()
        entry = delegation("com", "1.1.1.1")
        cache.put_delegation(Delegation(zone=entry.zone, ns_names=entry.ns_names,
                                        glue=entry.glue, ttl=60))
        now[0] = 60.0
        assert cache.get_delegation(N("com")) is None
        assert cache.stats.expired == 1
        assert len(cache) == 0

    def test_upstream_refresh_restores_freshness(self):
        cache, now = self._cache()
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        now[0] = 400.0  # stale
        assert cache.get_answer(N("a.com"), RRType.A) is None
        cache.put_answer(N("a.com"), RRType.A, [self._record(ip="9.9.9.9")])
        fresh = cache.get_answer(N("a.com"), RRType.A)
        assert fresh is not None and fresh[0].rdata.address == "9.9.9.9"
        assert cache.get_stale_answer(N("a.com"), RRType.A) is None


class TestNegativeCache:
    def _cache(self, **kwargs):
        now = [0.0]
        cache = SelectiveCache(capacity=32, policy="all",
                               clock=lambda: now[0], **kwargs)
        return cache, now

    def test_put_and_get_negative(self):
        cache, now = self._cache()
        cache.put_negative(N("gone.com"), RRType.A, "NXDOMAIN", 900)
        assert cache.get_negative(N("gone.com"), RRType.A) == "NXDOMAIN"
        assert cache.stats.answer_hits == 1

    def test_negative_expires_on_boundary(self):
        cache, now = self._cache()
        cache.put_negative(N("gone.com"), RRType.A, "NXDOMAIN", 900)
        now[0] = 900.0
        assert cache.get_negative(N("gone.com"), RRType.A) is None

    def test_negative_stale_window(self):
        cache, now = self._cache(stale_ttl=600.0)
        cache.put_negative(N("gone.com"), RRType.A, "NXDOMAIN", 900)
        now[0] = 1000.0
        assert cache.get_negative(N("gone.com"), RRType.A) is None
        assert cache.get_stale_negative(N("gone.com"), RRType.A) == ("NXDOMAIN", 100.0)

    def test_negative_needs_all_policy(self):
        cache = SelectiveCache(capacity=8, policy="selective")
        cache.put_negative(N("gone.com"), RRType.A, "NXDOMAIN", 900)
        assert cache.get_negative(N("gone.com"), RRType.A) is None
        assert len(cache) == 0

    def test_negative_does_not_collide_with_positive(self):
        cache, now = self._cache()
        record = ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_answer(N("a.com"), RRType.A, [record])
        cache.put_negative(N("a.com"), RRType.A, "NXDOMAIN", 900)
        assert cache.get_answer(N("a.com"), RRType.A) == [record]
        assert cache.get_negative(N("a.com"), RRType.A) == "NXDOMAIN"
        assert len(cache) == 2


class TestHeatAndPrefetchState:
    def _cache(self, **kwargs):
        now = [0.0]
        cache = SelectiveCache(capacity=32, policy="all", track_heat=True,
                               clock=lambda: now[0], **kwargs)
        return cache, now

    def _record(self, ip="1.2.3.4"):
        return ResourceRecord(N("a.com"), RRType.A, DNSClass.IN, 300, A(ip))

    def test_hits_accumulate_and_store_resets(self):
        cache, now = self._cache()
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        for _ in range(3):
            cache.get_answer(N("a.com"), RRType.A)
        assert cache.answer_heat(N("a.com"), RRType.A) == (300.0, 3)
        cache.put_answer(N("a.com"), RRType.A, [self._record("9.9.9.9")])
        remaining, hits = cache.answer_heat(N("a.com"), RRType.A)
        assert hits == 0  # fresh data starts cold

    def test_remaining_ttl_counts_down(self):
        cache, now = self._cache()
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        now[0] = 120.0
        remaining, _ = cache.answer_heat(N("a.com"), RRType.A)
        assert remaining == 180.0

    def test_stale_entry_reports_nonpositive_remaining(self):
        """Prefetch gates on ``0 < remaining``: a stale-retained entry
        must never qualify (refreshing it is the failure path's job)."""
        cache, now = self._cache(stale_ttl=600.0)
        cache.put_answer(N("a.com"), RRType.A, [self._record()])
        now[0] = 350.0
        remaining, _ = cache.answer_heat(N("a.com"), RRType.A)
        assert remaining == -50.0

    def test_absent_and_heatless(self):
        cache, now = self._cache()
        assert cache.answer_heat(N("nope.com"), RRType.A) is None
        assert cache.stats.answer_misses == 0  # pure read: no stats

    def test_hot_answers_enumerates_what_was_hit(self):
        cache, now = self._cache()
        hot, cold = N("a.com"), N("cold.com")
        cache.put_answer(hot, RRType.A, [self._record()])
        cache.put_answer(cold, RRType.A, [self._record()])
        cache.put_delegation(Delegation(N("com"), (N("ns.com"),), ((N("ns.com"), "1.1.1.1"),), 300))
        cache.put_delegation(Delegation(N("com"), (N("ns.com"),), ((N("ns.com"), "1.1.1.1"),), 300))
        for _ in range(3):
            cache.get_answer(hot, RRType.A)
        reads = (cache.stats.answer_hits, cache.stats.answer_misses)
        assert cache.hot_answers(3) == [(hot.canonical_key(), int(RRType.A))]
        assert cache.hot_answers(4) == []
        # an entry never hit has no heat record, and 0 hits is a legal bar:
        # answers only, though a re-stored delegation has one too
        assert sorted(cache.hot_answers(0)) == sorted(
            [(hot.canonical_key(), 1), (cold.canonical_key(), 1)]
        )
        cache.put_answer(hot, RRType.A, [self._record("9.9.9.9")])
        assert cache.hot_answers(1) == []  # fresh data starts cold
        assert (cache.stats.answer_hits, cache.stats.answer_misses) == reads  # pure read


class TestRevalidationHooks:
    def _cache(self, **kwargs):
        now = [0.0]
        cache = SelectiveCache(capacity=64, policy="all",
                               clock=lambda: now[0], **kwargs)
        return cache, now

    def _fill(self, cache):
        record = ResourceRecord(N("x"), RRType.A, DNSClass.IN, 300, A("1.2.3.4"))
        cache.put_delegation(delegation("example.com", "1.1.1.1"))
        cache.put_delegation(delegation("www.example.com", "2.2.2.2"))
        cache.put_delegation(delegation("other.com", "3.3.3.3"))
        cache.put_answer(N("a.example.com"), RRType.A, [record])
        cache.put_answer(N("a.other.com"), RRType.A, [record])
        cache.put_negative(N("gone.example.com"), RRType.A, "NXDOMAIN", 900)

    def test_invalidate_subtree_scopes_to_the_zone(self):
        cache, now = self._cache()
        self._fill(cache)
        dropped = cache.invalidate_subtree(N("example.com"))
        # the cut itself, the deeper cut, the answer, and the negative
        assert dropped == 4
        assert cache.stats.invalidated == 4
        assert cache.get_delegation(N("other.com")) is not None
        assert cache.get_answer(N("a.other.com"), RRType.A) is not None
        assert cache.get_delegation(N("example.com")) is None
        assert cache.get_negative(N("gone.example.com"), RRType.A) is None

    def test_invalidate_subtree_respects_label_boundaries(self):
        """A suffix match on text would wrongly drop ``oo.com`` entries
        for a delta to ``o.com``; the canonical-key tuple match cannot."""
        cache, now = self._cache()
        cache.put_delegation(delegation("oo.com", "1.1.1.1"))
        assert cache.invalidate_subtree(N("o.com")) == 0
        assert cache.get_delegation(N("oo.com")) is not None

    def test_invalidate_subtree_drops_stale_entries_too(self):
        """Revalidation during a blackout must not leave known-changed
        stale data servable: the subtree drop takes the stale copies
        with it, and the stale path cannot resurrect them."""
        cache, now = self._cache(stale_ttl=600.0)
        record = ResourceRecord(N("a.example.com"), RRType.A, DNSClass.IN, 300,
                                A("1.2.3.4"))
        cache.put_answer(N("a.example.com"), RRType.A, [record])
        now[0] = 400.0  # stale but servable
        assert cache.get_stale_answer(N("a.example.com"), RRType.A) is not None
        cache.invalidate_subtree(N("example.com"))
        assert cache.get_stale_answer(N("a.example.com"), RRType.A) is None

    def test_flush_drops_everything(self):
        cache, now = self._cache()
        self._fill(cache)
        count = len(cache)
        assert cache.flush() == count
        assert len(cache) == 0
        assert cache.stats.invalidated == count

    def test_root_subtree_is_a_flush(self):
        cache, now = self._cache()
        self._fill(cache)
        count = len(cache)
        assert cache.invalidate_subtree(Name.root()) == count
        assert len(cache) == 0

"""The cache model: a hypothesis ``RuleBasedStateMachine`` drives
``SelectiveCache``'s whole surface — delegations and the
``best_delegation`` walk, answers, negatives, security state, stale
reads, heat, the clock, ``invalidate_subtree``, ``flush``, and eviction
under both policies — against a naive model written from the module's
docstring: one dict of ``key -> (value, expires)``, a recency list, and
a scan for every question.

After every step the two must agree on each value read, on the live key
set (in recency order under ``lru``), on every ``CacheStats`` counter
and on the size.  Random eviction is the one choice the model cannot
predict: it takes the victim the cache chose and checks the rest
(a victim was live in the model, and an already-dead victim counts as
``expired``, not ``evictions``).

The four lifetime bugs fixed in this cache's history are planted again,
one at a time, as canaries the machine must catch within its tier-1
budget of 200 machines of 40 steps (each is caught in under a second on
a 2-core host; the clean budget takes a few seconds).  The ``slow`` run
takes 10^5 fresh steps.
"""

import __future__
import inspect
import textwrap

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import Delegation, SelectiveCache
from repro.core import cache as cache_module
from repro.dnslib import DNSClass, Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A
from repro.dnslib.rdata.dnssec import RRSIG

N = Name.from_text
EPOCH = 1_000_000

#: A small tree, so that cuts nest, subtrees overlap and keys collide.
NAMES = st.sampled_from(
    [".", "com", "example.com", "a.example.com", "b.example.com", "x.a.example.com", "org", "x.org"]
)
QTYPES = st.sampled_from([RRType.A, RRType.AAAA])
#: Integer and half-second steps land the clock exactly on expiry
#: instants, where every boundary rule is decided.
TTLS = st.sampled_from([None, 0, 1, 2, 3, 5])
RECORD_TTLS = st.sampled_from([0, 1, 2, 3, 5])

#: Tier-1 budget for the clean machine.
BUDGET = settings(
    max_examples=200,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    database=None,
)


class Model:
    """``SelectiveCache`` as its docstring states it, naively."""

    def __init__(self, capacity, policy, eviction, stale_ttl, track_heat, epoch_base):
        self.capacity, self.policy, self.eviction = capacity, policy, eviction
        self.stale_ttl, self.epoch_base = stale_ttl, epoch_base
        self.heat = {} if track_heat else None
        self.entries = {}  # key -> (value, expires)
        self.order = []  # recency, least recent first
        self.now = 0.0
        self.stats = dict.fromkeys(
            ("hits", "misses", "evictions", "inserts", "updates", "expired",
             "answer_hits", "answer_misses", "stale_hits", "invalidated"),
            0,
        )

    def dead(self, key) -> bool:
        expires = self.entries[key][1]
        return expires is not None and self.now >= expires

    def drop(self, key) -> None:
        del self.entries[key]
        self.order.remove(key)
        if self.heat is not None:
            self.heat.pop(key, None)

    def touch(self, key) -> None:
        self.order.remove(key)
        self.order.append(key)

    def store(self, key, value, ttl, victims) -> None:
        expires = None if ttl is None else self.now + ttl
        if key in self.entries:
            self.entries[key] = (value, expires)
            self.touch(key)
            self.stats["updates"] += 1
            if self.heat is not None:
                self.heat[key] = 0
            return
        self.entries[key] = (value, expires)
        self.order.append(key)
        self.stats["inserts"] += 1
        evicted = []
        while len(self.entries) > self.capacity:
            if self.eviction == "lru":
                victim = self.order[0]
            else:
                assert len(evicted) < len(victims), "the cache outgrew its capacity"
                victim = victims[len(evicted)]
            assert victim in self.entries, f"evicted {victim}, which the model never held"
            self.stats["expired" if self.dead(victim) else "evictions"] += 1
            self.drop(victim)
            evicted.append(victim)
        assert sorted(evicted, key=repr) == victims, f"cache evicted {victims}, model {evicted}"

    def probe(self, key):
        if key not in self.entries:
            return None
        if self.dead(key):
            expires = self.entries[key][1]
            if self.stale_ttl is not None and key[0] != "ns" and self.now < expires + self.stale_ttl:
                return None  # retained for the stale reads
            self.drop(key)
            self.stats["expired"] += 1
            return None
        if self.eviction == "lru":
            self.touch(key)
        return self.entries[key][0]

    def best_delegation(self, labels):
        for cut in range(len(labels) + 1):
            key = ("ns", labels[cut:])
            if key not in self.entries:
                continue
            if self.dead(key):
                self.drop(key)
                self.stats["expired"] += 1
                continue
            if self.eviction == "lru":
                self.touch(key)
            self.stats["hits"] += 1
            return self.entries[key][0]
        self.stats["misses"] += 1
        return None

    def answer_ttl(self, records):
        ttl = min(record.ttl for record in records)
        if self.epoch_base is not None:
            now_epoch = self.epoch_base + self.now
            for record in records:
                if record.rrtype == RRType.RRSIG:
                    ttl = min(ttl, record.rdata.expiration - now_epoch)
            if ttl <= 0:
                return None, False
        return ttl, True

    def leaf_read(self, key, heat: bool):
        if self.policy != "all":
            return None
        value = self.probe(key)
        self.stats["answer_misses" if value is None else "answer_hits"] += 1
        if value is not None and heat and self.heat is not None:
            self.heat[key] = self.heat.get(key, 0) + 1
        return value

    def stale(self, key):
        if self.stale_ttl is None or key not in self.entries:
            return None
        value, expires = self.entries[key]
        if expires is None or self.now < expires:
            return None
        if self.now >= expires + self.stale_ttl:
            self.drop(key)
            self.stats["expired"] += 1
            return None
        self.stats["stale_hits"] += 1
        return value, self.now - expires

    def invalidate(self, labels) -> int:
        """Drop every entry at or below the cut ``labels`` (all of them
        at the root)."""
        victims = [
            key for key in self.entries
            if len(key[1]) >= len(labels) and key[1][len(key[1]) - len(labels):] == labels
        ]
        for key in victims:
            self.drop(key)
        self.stats["invalidated"] += len(victims)
        return len(victims)


def _key(name: str) -> tuple:
    return N(name).canonical_key()


class CacheMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(1, 6),
        policy=st.sampled_from(["selective", "all", "none"]),
        eviction=st.sampled_from(["random", "lru"]),
        stale_ttl=st.sampled_from([None, 1.5, 3.0]),
        track_heat=st.booleans(),
        epoch_base=st.sampled_from([None, EPOCH]),
        seed=st.integers(0, 3),
    )
    def build(self, capacity, policy, eviction, stale_ttl, track_heat, epoch_base, seed):
        self.model = Model(capacity, policy, eviction, stale_ttl, track_heat, epoch_base)
        self.cache = SelectiveCache(
            capacity, policy, eviction, seed, clock=lambda: self.model.now,
            stale_ttl=stale_ttl, track_heat=track_heat, epoch_base=epoch_base,
        )

    def _stored(self, key, value, ttl) -> None:
        """Mirror a store the cache just made (taking its eviction choice)."""
        victims = (set(self.model.entries) | {key}) - set(self.cache._entries)
        self.model.store(key, value, ttl, sorted(victims, key=repr))

    # -- the clock ----------------------------------------------------------

    @rule(step=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def advance(self, step):
        self.model.now += step

    # -- delegations ----------------------------------------------------------

    @rule(zone=NAMES, ttl=TTLS)
    def put_delegation(self, zone, ttl):
        ns = N(f"ns1.{zone}" if zone != "." else "a.root-servers.net")
        delegation = Delegation(zone=N(zone), ns_names=(ns,), glue=((ns, "192.0.2.53"),), ttl=ttl)
        self.cache.put_delegation(delegation)
        if self.model.policy != "none":
            self._stored(("ns", _key(zone)), delegation, ttl)

    @rule(zone=NAMES)
    def get_delegation(self, zone):
        assert self.cache.get_delegation(N(zone)) == self.model.probe(("ns", _key(zone)))

    @rule(name=NAMES)
    def best_delegation(self, name):
        assert self.cache.best_delegation(N(name)) == self.model.best_delegation(_key(name))

    # -- answers and negatives ------------------------------------------------

    @rule(name=NAMES, qtype=QTYPES, ttls=st.lists(RECORD_TTLS, min_size=1, max_size=2),
          signature=st.sampled_from([None, -1, 0, 1, 2, 4]))
    def put_answer(self, name, qtype, ttls, signature):
        records = [
            ResourceRecord(N(name), qtype, DNSClass.IN, ttl, A(f"192.0.2.{index}"))
            for index, ttl in enumerate(ttls, 1)
        ]
        if signature is not None:
            expiration = EPOCH + int(self.model.now) + signature
            rrsig = RRSIG(int(qtype), 253, 2, ttls[0], expiration, EPOCH, 1, N("com"), b"sig")
            records.append(ResourceRecord(N(name), RRType.RRSIG, DNSClass.IN, ttls[0], rrsig))
        self.cache.put_answer(N(name), qtype, records)
        if self.model.policy == "all":
            ttl, cacheable = self.model.answer_ttl(records)
            if cacheable:
                self._stored(("ans", _key(name), int(qtype)), records, ttl)

    @rule(name=NAMES, qtype=QTYPES)
    def get_answer(self, name, qtype):
        expected = self.model.leaf_read(("ans", _key(name), int(qtype)), heat=True)
        assert self.cache.get_answer(N(name), qtype) == expected

    @rule(name=NAMES, qtype=QTYPES, status=st.sampled_from(["NXDOMAIN", "NOERROR"]), ttl=TTLS)
    def put_negative(self, name, qtype, status, ttl):
        self.cache.put_negative(N(name), qtype, status, ttl)
        if self.model.policy == "all":
            self._stored(("neg", _key(name), int(qtype)), status, ttl)

    @rule(name=NAMES, qtype=QTYPES)
    def get_negative(self, name, qtype):
        expected = self.model.leaf_read(("neg", _key(name), int(qtype)), heat=False)
        assert self.cache.get_negative(N(name), qtype) == expected

    # -- DNSSEC validation state ----------------------------------------------

    @rule(zone=NAMES, status=st.sampled_from(["SECURE", "INSECURE"]), ttl=TTLS)
    def put_security(self, zone, status, ttl):
        self.cache.put_security(N(zone), status, b"key", ttl)
        self._stored(("sec", _key(zone)), (status, b"key"), ttl)

    @rule(zone=NAMES)
    def get_security(self, zone):
        assert self.cache.get_security(N(zone)) == self.model.probe(("sec", _key(zone)))

    # -- serve-stale and prefetch state ---------------------------------------

    @rule(name=NAMES, qtype=QTYPES)
    def get_stale_answer(self, name, qtype):
        expected = self.model.stale(("ans", _key(name), int(qtype)))
        assert self.cache.get_stale_answer(N(name), qtype) == expected

    @rule(name=NAMES, qtype=QTYPES)
    def get_stale_negative(self, name, qtype):
        expected = self.model.stale(("neg", _key(name), int(qtype)))
        assert self.cache.get_stale_negative(N(name), qtype) == expected

    @rule(name=NAMES, qtype=QTYPES)
    def answer_heat(self, name, qtype):
        key = ("ans", _key(name), int(qtype))
        entry = self.model.entries.get(key)
        expected = None
        if entry is not None and entry[1] is not None:
            heat = self.model.heat
            expected = (entry[1] - self.model.now, heat.get(key, 0) if heat is not None else 0)
        assert self.cache.answer_heat(N(name), qtype) == expected

    @rule(min_hits=st.integers(0, 2))
    def hot_answers(self, min_hits):
        heat = self.model.heat or {}
        keys = heat if min_hits > 0 else self.model.entries
        expected = [(k[1], k[2]) for k in keys if k[0] == "ans" and heat.get(k, 0) >= min_hits]
        assert sorted(self.cache.hot_answers(min_hits)) == sorted(expected)

    # -- revalidation ---------------------------------------------------------

    @rule(zone=NAMES)
    def invalidate_subtree(self, zone):
        assert self.cache.invalidate_subtree(N(zone)) == self.model.invalidate(_key(zone))

    @rule()
    def flush(self):
        assert self.cache.flush() == self.model.invalidate(())

    # -- what must hold after every step --------------------------------------

    @invariant()
    def agrees_with_the_model(self):
        if not hasattr(self, "model"):
            return
        cache, model = self.cache, self.model
        if model.eviction == "lru":
            assert list(cache._entries) == model.order
        assert set(cache._entries) == set(model.entries)
        assert {key: entry[1] for key, entry in cache._entries.items()} == {
            key: entry[1] for key, entry in model.entries.items()
        }
        assert sorted(cache._keys, key=repr) == sorted(cache._entries, key=repr)
        assert all(cache._keys[position] == key for key, position in cache._key_pos.items())
        assert vars(cache.stats) == model.stats
        assert len(cache) == len(model.entries) <= model.capacity


def test_cache_agrees_with_its_model():
    run_state_machine_as_test(CacheMachine, settings=BUDGET)


@pytest.mark.slow
def test_cache_agrees_with_its_model_nightly():
    """10^5 steps, drawn afresh on each run."""
    run_state_machine_as_test(
        CacheMachine, settings=settings(BUDGET, max_examples=2500, derandomize=False)
    )


#: Historical lifetime bugs, as (method, fixed code, planted code).
CANARIES = {
    # entries never expired: every store dropped its lifetime
    "never-expires": (
        "_store",
        "expires = self._clock() + ttl",
        "expires = None",
    ),
    # the boundary: at exactly expires_at a probed entry was still live
    "alive-at-expiry": (
        "_probe",
        "if expires is not None and self._clock() >= expires:",
        "if expires is not None and self._clock() > expires:",
    ),
    # an already-dead eviction victim counted as a capacity eviction
    "dead-victim-evicted": (
        "_enforce_capacity",
        "if expires is not None and self._clock() >= expires:",
        "if False:",
    ),
    # a signed answer outlived its signature
    "outlives-rrsig": (
        "put_answer",
        "if ttl is None or remaining < ttl:",
        "if False:",
    ),
}


def _planted(method: str, fixed: str, planted: str):
    """``SelectiveCache.<method>`` compiled again with ``fixed`` swapped
    for ``planted`` (which must occur: a canary must not go stale)."""
    source = textwrap.dedent(inspect.getsource(getattr(SelectiveCache, method)))
    assert source.count(fixed) == 1, f"{method} no longer holds {fixed!r}"
    namespace = dict(vars(cache_module))
    flags = __future__.annotations.compiler_flag
    code = compile(source.replace(fixed, planted), cache_module.__file__, "exec", flags, True)
    exec(code, namespace)
    return namespace[method]


@pytest.mark.parametrize("canary", sorted(CANARIES))
def test_planted_lifetime_bug_is_caught(canary, monkeypatch):
    method, fixed, planted = CANARIES[canary]
    monkeypatch.setattr(SelectiveCache, method, _planted(method, fixed, planted))
    hunt = settings(BUDGET, phases=[Phase.generate])
    with pytest.raises(AssertionError):
        run_state_machine_as_test(CacheMachine, settings=hunt)

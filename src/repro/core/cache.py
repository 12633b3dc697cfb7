"""ZDNS's selective cache.

Section 3.4: caching leaf answers for unique-name workloads only causes
thrashing, so ZDNS caches *only* NS delegations and their glue.  The
cache here supports three policies for the ablation benchmark —
``selective`` (paper behaviour), ``all`` (also cache leaf answers,
Unbound-style) and ``none`` — and two eviction strategies: ``random``
(a hash-map eviction like the Go implementation's, whose interaction
with hot upper-layer entries produces Figure 2's cache-size
sensitivity) and ``lru``.

Entries carry a lifetime: each insert records ``expires_at`` from the
minimum RR TTL of the cached records against the supplied virtual
clock, and a probe that finds an expired entry treats it as a miss and
drops it lazily (``CacheStats.expired`` counts those drops).  Without a
clock — the standalone/legacy construction — entries never expire.

The boundary rule is uniform across every lifetime path: at exactly
``clock() == expires_at`` an entry is dead — on the probe path, on the
``best_delegation`` walk, on the eviction path (an already-expired
victim counts as ``expired``, not ``evictions``), and in the stale
window arithmetic below.

Service-mode extensions (all inert for batch scans):

* ``stale_ttl`` — an RFC 8767 serve-stale window.  Expired leaf
  answers and negative entries are *retained* for up to ``stale_ttl``
  seconds past ``expires_at`` and readable only through the explicit
  ``get_stale_answer``/``get_stale_negative`` APIs, which a resolver
  service may consult **only after upstream resolution failed**.
  Stale reads are strictly read-only: they never refresh recency or
  lifetime, so a served-stale entry keeps ageing until a *successful*
  upstream refresh overwrites it.  Delegations are exempt — the fresh
  paths (``_probe``/``best_delegation``/``get_answer``) treat a
  stale-retained entry exactly like a miss.
* heat tracking (``track_heat=True``) — per-answer hit counts backing
  prefetch decisions: ``hot_answers`` enumerates the entries that were
  hit, ``answer_heat`` reports (remaining TTL, hits since last store),
  so a service can refresh hot, about-to-expire entries.  A store
  resets the count: new data starts cold.
* revalidation hooks — ``invalidate_subtree(zone)`` drops every
  delegation, answer, and negative entry at/below a zone cut (the
  Janus-style incremental path after a zone delta) and ``flush()``
  drops everything (the full-flush comparison baseline); both count
  into ``CacheStats.invalidated``.
* negative entries (``put_negative``/``get_negative``) — RFC 2308
  negative caching for NXDOMAIN/NODATA outcomes, policy="all" only,
  keyed separately so they never collide with positive answers.

DNSSEC extensions (inert unless ``epoch_base`` is supplied):

* RRSIG-aware lifetimes — a cached answer whose RRset carries an RRSIG
  expires at ``min(TTL, signature expiration − now)``: serving a record
  past its signature's validity would flip a Secure answer to Bogus
  mid-TTL.  ``epoch_base`` maps the virtual clock onto the absolute
  epoch RRSIG timestamps are expressed in.
* validation state (``put_security``/``get_security``) — per-zone
  chain-of-trust outcomes plus validated DNSKEY material, stored under
  ``("sec", canonical_key)`` regardless of policy so that
  ``invalidate_subtree`` drops them together with the delegations and
  answers below a delta'd cut (a rolled key must never leave the old
  chain pinned).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from ..dnslib import Name, ResourceRecord, RRType


@dataclass(frozen=True)
class Delegation:
    """A cached zone cut: nameserver names plus any glue addresses.

    ``ttl`` is the minimum TTL over the NS and glue records the cut was
    built from (None when unknown, e.g. hand-built test fixtures —
    such delegations never expire).
    """

    zone: Name
    ns_names: tuple[Name, ...]
    glue: tuple[tuple[Name, str], ...]  # (ns name, IPv4) pairs
    ttl: int | None = None

    def addresses(self) -> list[str]:
        return [ip for _, ip in self.glue]

    def glue_for(self, ns_name: Name) -> list[str]:
        return [ip for name, ip in self.glue if name == ns_name]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    updates: int = 0  # overwrites of a live key (not counted as inserts)
    expired: int = 0  # entries dropped because their TTL ran out
    answer_hits: int = 0  # leaf-answer lookups (policy="all" only)
    answer_misses: int = 0
    stale_hits: int = 0  # expired entries served from the stale window
    invalidated: int = 0  # entries dropped by revalidation hooks

    @property
    def hit_rate(self) -> float:
        """Hit rate over every cache probe — delegation walks *and*
        leaf-answer lookups.  With the paper's selective policy the
        answer counters stay zero, so this remains the delegation hit
        rate; under the ``all`` ablation it now reflects the answer
        cache too (previously those probes were silently uncounted)."""
        total = self.hits + self.misses + self.answer_hits + self.answer_misses
        return (self.hits + self.answer_hits) / total if total else 0.0


#: What the cache keeps (``policy``) and what it drops when full (``eviction``).
CACHE_POLICIES = ("selective", "all", "none")
CACHE_EVICTIONS = ("random", "lru")


class SelectiveCache:
    """Bounded delegation cache with pluggable eviction.

    ``clock`` is a zero-argument callable returning the current
    (virtual) time; entry lifetimes are measured against it.  ``None``
    disables expiry entirely.
    """

    def __init__(
        self,
        capacity: int = 600_000,
        policy: str = "selective",
        eviction: str = "random",
        seed: int = 0,
        clock: Callable[[], float] | None = None,
        stale_ttl: float | None = None,
        track_heat: bool = False,
        epoch_base: int | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if eviction not in CACHE_EVICTIONS:
            raise ValueError(f"unknown eviction {eviction!r}")
        if stale_ttl is not None and stale_ttl <= 0:
            raise ValueError("stale_ttl must be positive (or None to disable)")
        if stale_ttl is not None and clock is None:
            raise ValueError("stale_ttl needs a clock")
        if epoch_base is not None and clock is None:
            raise ValueError("epoch_base needs a clock")
        self.capacity = capacity
        self.policy = policy
        self.eviction = eviction
        self.stale_ttl = stale_ttl
        #: Absolute epoch the virtual clock's zero maps to.  Set (by
        #: DNSSEC-enabled runs) it activates RRSIG-aware answer
        #: lifetimes; None keeps the pre-DNSSEC behaviour exactly.
        self.epoch_base = epoch_base
        self.stats = CacheStats()
        self._rng = random.Random(seed)
        self._clock = clock
        #: Per-key hit counts since last store (prefetch heat); None
        #: keeps the tracking entirely off the batch-scan hot path.
        self._heat: dict[tuple, int] | None = {} if track_heat else None
        #: One table for delegations *and* leaf answers, in one recency
        #: order: keys are ("ns", canonical_key) or ("ans",
        #: canonical_key, qtype), values are (payload, expires_at|None).
        #: A single OrderedDict means "lru" eviction removes the
        #: globally least-recent entry, not the oldest of whichever
        #: table happens to be larger.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._keys: list[tuple] = []  # for O(1) random eviction
        self._key_pos: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def publish_metrics(self, scope) -> None:
        """Publish cache statistics as registry gauges.

        ``scope`` is a :class:`repro.obs.metrics.Scope` (typically
        ``registry.scope("cache")``).  The per-probe counters stay on
        :class:`CacheStats` — `best_delegation` is the hottest cache
        path and must not pay instrument calls per probe — and are
        mirrored wholesale here at publish time.
        """
        stats = self.stats
        scope.gauge("hits").set(stats.hits)
        scope.gauge("misses").set(stats.misses)
        scope.gauge("answer_hits").set(stats.answer_hits)
        scope.gauge("answer_misses").set(stats.answer_misses)
        scope.gauge("inserts").set(stats.inserts)
        scope.gauge("updates").set(stats.updates)
        scope.gauge("expired").set(stats.expired)
        scope.gauge("evictions").set(stats.evictions)
        scope.gauge("stale_hits").set(stats.stale_hits)
        scope.gauge("invalidated").set(stats.invalidated)
        scope.gauge("hit_rate").set(round(stats.hit_rate, 4))
        scope.gauge("size").set(len(self))
        scope.gauge("capacity").set(self.capacity)

    # -- shared entry plumbing --------------------------------------------

    def _store(self, key: tuple, value, ttl: int | None) -> None:
        expires = None
        if self._clock is not None and ttl is not None:
            expires = self._clock() + ttl
        entries = self._entries
        if key in entries:
            entries[key] = (value, expires)
            # an overwrite refreshes recency; capacity is unchanged
            entries.move_to_end(key)
            self.stats.updates += 1
            if self._heat is not None:
                self._heat[key] = 0  # fresh data starts cold
            return
        self._register_key(key)
        entries[key] = (value, expires)
        self.stats.inserts += 1
        self._enforce_capacity()

    def _probe(self, key: tuple):
        """The live payload at ``key``, or None.  An expired entry is
        indistinguishable from a miss — dropped on the spot, unless a
        leaf entry sits inside the serve-stale window, in which case it
        is retained (still a miss here) for ``get_stale_*``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, expires = entry
        if expires is not None and self._clock() >= expires:
            if (
                self.stale_ttl is not None
                and key[0] != "ns"
                and self._clock() < expires + self.stale_ttl
            ):
                return None
            self._drop_key(key)
            self.stats.expired += 1
            return None
        if self.eviction == "lru":
            self._entries.move_to_end(key)
        return value

    def _stale_probe(self, key: tuple) -> tuple | None:
        """An expired-but-within-stale-cap payload as ``(value, age)``,
        or None.  Read-only: no recency refresh, no lifetime extension —
        serving stale must never make an entry *younger* (the upstream
        refresh path is the only way back to freshness).  A probe past
        the cap finalises the entry: dropped and counted ``expired``."""
        if self.stale_ttl is None:
            return None
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, expires = entry
        if expires is None:
            return None
        now = self._clock()
        if now < expires:
            return None  # still fresh: belongs to the normal path
        if now >= expires + self.stale_ttl:
            self._drop_key(key)
            self.stats.expired += 1
            return None
        return value, now - expires

    # -- delegations -----------------------------------------------------

    def put_delegation(self, delegation: Delegation) -> None:
        if self.policy == "none":
            return
        key = ("ns", delegation.zone.canonical_key())
        self._store(key, delegation, delegation.ttl)

    def get_delegation(self, zone: Name) -> Delegation | None:
        return self._probe(("ns", zone.canonical_key()))

    def best_delegation(self, qname: Name) -> Delegation | None:
        """The deepest cached zone cut at or above ``qname``.

        A hit means iteration can start below the root; a total miss
        means a full walk from the root servers.  An expired cut is
        dropped and the walk continues to shallower ancestors.

        The walk probes sliced views of ``qname``'s canonical key
        directly — one memoised key fetch, zero :class:`Name`
        constructions — instead of materialising a Name per ancestor.
        This is the hottest cache path: every lookup starts here.
        """
        key = qname.canonical_key()
        entries = self._entries
        lru = self.eviction == "lru"
        clock = self._clock
        for i in range(len(key) + 1):
            probe = ("ns", key[i:])
            entry = entries.get(probe)
            if entry is None:
                continue
            value, expires = entry
            if expires is not None and clock() >= expires:
                self._drop_key(probe)
                self.stats.expired += 1
                continue
            if lru:
                entries.move_to_end(probe)
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return None

    # -- leaf answers (only with policy="all") ----------------------------

    def put_answer(self, qname: Name, qtype: int, records: list[ResourceRecord]) -> None:
        if self.policy != "all":
            return
        key = ("ans", qname.canonical_key(), int(qtype))
        ttl = None
        for record in records:
            if ttl is None or record.ttl < ttl:
                ttl = record.ttl
        if self.epoch_base is not None:
            # A signed RRset is only servable while its signature is
            # valid: clamp the lifetime to the earliest RRSIG expiry.
            now_epoch = self.epoch_base + self._clock()
            for record in records:
                if int(record.rrtype) == int(RRType.RRSIG):
                    remaining = record.rdata.expiration - now_epoch
                    if ttl is None or remaining < ttl:
                        ttl = remaining
            if ttl is not None and ttl <= 0:
                return  # signature already expired: never cacheable
        self._store(key, list(records), ttl)

    def get_answer(self, qname: Name, qtype: int) -> list[ResourceRecord] | None:
        if self.policy != "all":
            return None
        key = ("ans", qname.canonical_key(), int(qtype))
        value = self._probe(key)
        if value is None:
            self.stats.answer_misses += 1
            return None
        self.stats.answer_hits += 1
        heat = self._heat
        if heat is not None:
            heat[key] = heat.get(key, 0) + 1
        return value

    # -- negative entries (RFC 2308, policy="all" only) --------------------

    def put_negative(self, qname: Name, qtype: int, status: str, ttl: int | None) -> None:
        """Cache an NXDOMAIN/NODATA outcome under its own key space."""
        if self.policy != "all":
            return
        self._store(("neg", qname.canonical_key(), int(qtype)), str(status), ttl)

    def get_negative(self, qname: Name, qtype: int) -> str | None:
        """The cached negative status for a question, or None."""
        if self.policy != "all":
            return None
        value = self._probe(("neg", qname.canonical_key(), int(qtype)))
        if value is None:
            self.stats.answer_misses += 1
            return None
        self.stats.answer_hits += 1
        return value

    # -- DNSSEC validation state -------------------------------------------

    def epoch_now(self) -> float:
        """Absolute DNSSEC time: ``epoch_base`` plus the virtual clock
        (zero when neither is configured)."""
        base = self.epoch_base or 0
        return base + (self._clock() if self._clock is not None else 0.0)

    def put_security(self, zone: Name, status: str, key: bytes, ttl: int | None) -> None:
        """Cache a zone's validated chain-of-trust outcome plus its
        validated DNSKEY material (empty for non-secure zones).  Stored
        regardless of policy — this is resolver validation state, not a
        leaf answer — and keyed ``("sec", canonical_key)`` so subtree
        invalidation drops it along with everything below the cut."""
        self._store(("sec", zone.canonical_key()), (str(status), bytes(key)), ttl)

    def get_security(self, zone: Name) -> tuple[str, bytes] | None:
        """The cached (status, key) validation outcome for a zone."""
        return self._probe(("sec", zone.canonical_key()))

    # -- serve-stale (RFC 8767) and prefetch state -------------------------

    def get_stale_answer(self, qname: Name, qtype: int) -> tuple[list[ResourceRecord], float] | None:
        """An expired answer still inside the stale window, as
        ``(records, age_past_expiry)``.  Only meaningful after upstream
        resolution failed — the caller enforces RFC 8767's "only on
        failure" rule; the cache enforces the bounded lifetime."""
        out = self._stale_probe(("ans", qname.canonical_key(), int(qtype)))
        if out is None:
            return None
        self.stats.stale_hits += 1
        return out

    def get_stale_negative(self, qname: Name, qtype: int) -> tuple[str, float] | None:
        """The stale-window counterpart of :meth:`get_negative`."""
        out = self._stale_probe(("neg", qname.canonical_key(), int(qtype)))
        if out is None:
            return None
        self.stats.stale_hits += 1
        return out

    def answer_heat(self, qname: Name, qtype: int) -> tuple[float, int] | None:
        """Prefetch introspection: ``(remaining_ttl, hits since last
        store)`` for a cached positive answer, or None when absent or
        never-expiring.  Stale-retained entries report ``remaining <=
        0`` — prefetch must only refresh *live* entries, so callers gate
        on ``0 < remaining``.  Pure read: no stats, no recency."""
        key = ("ans", qname.canonical_key(), int(qtype))
        entry = self._entries.get(key)
        if entry is None:
            return None
        _, expires = entry
        if expires is None:
            return None
        hits = self._heat.get(key, 0) if self._heat is not None else 0
        return expires - self._clock(), hits

    def hot_answers(self, min_hits: int) -> list[tuple[tuple[bytes, ...], int]]:
        """Prefetch introspection: ``(canonical_key, qtype)`` of every
        cached positive answer hit at least ``min_hits`` times since it
        was stored, so that a sweep's cost follows the entries that are
        hot and not a catalogue of names.  An entry never hit has no
        heat record: ``min_hits <= 0`` walks every entry instead.  Pure
        read: no stats, no recency."""
        heat = self._heat or {}
        keys = heat if min_hits > 0 else self._entries
        return [
            (key[1], key[2])
            for key in keys
            if key[0] == "ans" and heat.get(key, 0) >= min_hits
        ]

    # -- revalidation hooks ------------------------------------------------

    def invalidate_subtree(self, zone: Name) -> int:
        """Drop every delegation, answer, negative, and validation
        entry at or below ``zone`` — the incremental (Janus-style) revalidation
        path after a zone delta.  Canonical keys are label tuples, so
        the suffix test aligns on label boundaries by construction.
        Returns the number of entries dropped (``stats.invalidated``)."""
        suffix = zone.canonical_key()
        n = len(suffix)
        if n == 0:
            return self.flush()
        victims = [key for key in self._keys if key[1][-n:] == suffix]
        for key in victims:
            self._drop_key(key)
        self.stats.invalidated += len(victims)
        return len(victims)

    def flush(self) -> int:
        """Drop everything — the full-flush revalidation baseline."""
        count = len(self._entries)
        self._entries.clear()
        self._keys.clear()
        self._key_pos.clear()
        if self._heat is not None:
            self._heat.clear()
        self.stats.invalidated += count
        return count

    # -- eviction ---------------------------------------------------------

    def _register_key(self, key: tuple) -> None:
        self._key_pos[key] = len(self._keys)
        self._keys.append(key)

    def _drop_key(self, key: tuple) -> None:
        position = self._key_pos.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[position] = last
            self._key_pos[last] = position
        self._entries.pop(key, None)
        if self._heat is not None:
            self._heat.pop(key, None)

    def _enforce_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            if self.eviction == "random":
                victim = self._keys[self._rng.randrange(len(self._keys))]
            else:  # lru: the globally least-recently-touched entry
                victim = next(iter(self._entries))
            _, expires = self._entries[victim]
            self._drop_key(victim)
            if expires is not None and self._clock() >= expires:
                # the victim was already dead when evicted: same
                # boundary rule (>= at exactly expires_at) as the probe
                # path, and the same stats classification — an expiry,
                # not a capacity casualty
                self.stats.expired += 1
            else:
                self.stats.evictions += 1

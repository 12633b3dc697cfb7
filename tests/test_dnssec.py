"""DNSSEC: the validating resolver path over the signed universe —
validation outcomes, RRSIG-aware cache lifetimes, zone-delta chain
invalidation, sabotage fault directives, the deployment study, and the
oracle's security cross-check.

Fixture domains are deterministic in the seed-2022 universe (found by
probing ``synth.dnssec_profile``): ``smoke-124.org`` signs cleanly,
``smoke-203.org`` is an island of trust, ``smoke-687.org`` has a broken
parent DS, ``smoke-3206.org`` serves expired signatures, and the
``com`` TLD is one of the unsigned registries.
"""

import json
import random
from types import SimpleNamespace

import pytest

import repro.ecosystem.servers as servers_module
from repro.core import (
    BOGUS,
    CHAIN_COUNTS,
    INDETERMINATE,
    INSECURE,
    SECURE,
    SECURITY_STATES,
    Resolver,
    ResolverConfig,
    SelectiveCache,
    Status,
    Validator,
    trust_anchor_for,
)
from repro.core.dnssec import ChainEvidence
from repro.dnslib import DNSClass, Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A
from repro.dnslib.rdata.names import CNAME
from repro.ecosystem import (
    EPOCH_BASE,
    EcosystemParams,
    build_internet,
    publish_zone_delta,
)
from repro.ecosystem.content import sign_sections
from repro.ecosystem.dnssec import (
    DNSKEY_TTL,
    NSEC_TTL,
    make_ds,
    make_nsec,
    sign_rrset,
    zone_key_bytes,
)
from repro.faults import FaultInjector, FaultPlan, RolloverDesync, StripRrsig
from repro.net import derive_seed
from repro.oracle import (
    DifferentialConfig,
    DifferentialOracle,
    OracleResult,
    ProductionView,
    compare_views,
    run_differential,
)
from repro.service import ResolverService, ServiceConfig
from repro.workloads import CorpusConfig, DomainCorpus

N = Name.from_text
SEED = 2022

CLEAN = N("smoke-124.org")
ISLAND = N("smoke-203.org")
BROKEN_DS = N("smoke-687.org")
EXPIRED = N("smoke-3206.org")
UNSIGNED_ORG = N("smoke-0.org")
UNSIGNED_TLD = N("smoke-0.com")
NXDOMAIN_ORG = N("nope-1.org")


@pytest.fixture(scope="module")
def internet():
    return build_internet(params=EcosystemParams(seed=SEED))


@pytest.fixture(scope="module")
def synth(internet):
    return internet.synth


def validating_resolver(internet, **config_overrides):
    return Resolver(
        internet, config=ResolverConfig(dnssec=True, **config_overrides)
    )


# ---------------------------------------------------------------------------
# the planted universe
# ---------------------------------------------------------------------------


class TestPlantedProfiles:
    """Pin the fixture domains' ground truth so a zone-generator change
    that silently moves them shows up here, not as a validator 'bug'."""

    def test_root_and_org_signed(self, synth):
        assert synth.dnssec_profile(Name.root()).signed
        assert synth.dnssec_profile(N("org")).signed
        assert not synth.dnssec_profile(N("com")).signed

    def test_fixture_classes(self, synth):
        clean = synth.dnssec_profile(CLEAN)
        assert clean.signed and not (clean.island or clean.broken_ds or clean.expired)
        assert synth.dnssec_profile(ISLAND).island
        assert synth.dnssec_profile(BROKEN_DS).broken_ds
        assert synth.dnssec_profile(EXPIRED).expired
        assert not synth.dnssec_profile(UNSIGNED_ORG).signed
        assert synth.profile(UNSIGNED_ORG).exists
        assert not synth.profile(NXDOMAIN_ORG).exists

    def test_generation_rolls_keys_but_not_deployment(self):
        internet = build_internet(params=EcosystemParams(seed=SEED), wire_mode="never")
        before = internet.synth.dnssec_profile(CLEAN)
        publish_zone_delta(internet, CLEAN)
        after = internet.synth.dnssec_profile(CLEAN)
        assert after.signed == before.signed
        assert after.island == before.island
        assert after.key != before.key
        assert after.key == zone_key_bytes(SEED, CLEAN, 1)


# ---------------------------------------------------------------------------
# validation outcomes (the tentpole state machine)
# ---------------------------------------------------------------------------


class TestValidationOutcomes:
    def test_clean_chain_secure(self, internet):
        result = validating_resolver(internet).lookup(CLEAN, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == SECURE

    def test_island_of_trust_insecure(self, internet):
        result = validating_resolver(internet).lookup(ISLAND, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == INSECURE

    def test_broken_ds_bogus(self, internet):
        result = validating_resolver(internet).lookup(BROKEN_DS, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == BOGUS

    def test_expired_signature_bogus(self, internet):
        result = validating_resolver(internet).lookup(EXPIRED, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == BOGUS

    def test_unsigned_base_under_signed_tld_insecure(self, internet):
        result = validating_resolver(internet).lookup(UNSIGNED_ORG, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == INSECURE

    def test_unsigned_tld_insecure(self, internet):
        result = validating_resolver(internet).lookup(UNSIGNED_TLD, RRType.A)
        assert result.status == Status.NOERROR
        assert result.security == INSECURE

    def test_nxdomain_under_signed_tld_is_authenticated(self, internet):
        result = validating_resolver(internet).lookup(NXDOMAIN_ORG, RRType.A)
        assert result.status == Status.NXDOMAIN
        assert result.security == SECURE

    def test_dnssec_off_reports_nothing(self, internet):
        result = Resolver(internet).lookup(CLEAN, RRType.A)
        assert result.security is None
        assert "dnssec" not in result.to_json().get("data", {})

    def test_security_in_result_json(self, internet):
        row = validating_resolver(internet).lookup(CLEAN, RRType.A).to_json()
        assert row["data"]["dnssec"] == SECURE

    def test_chain_memoised_in_cache(self, internet):
        resolver = validating_resolver(internet)
        resolver.lookup(CLEAN, RRType.A)
        assert resolver.cache.get_security(Name.root()) == (
            SECURE, zone_key_bytes(SEED, Name.root(), 0)
        )
        assert resolver.cache.get_security(N("org")) == (
            SECURE, zone_key_bytes(SEED, N("org"), 0)
        )
        assert resolver.cache.get_security(CLEAN) == (
            SECURE, zone_key_bytes(SEED, CLEAN, 0)
        )

    def test_warm_lookup_reuses_memo(self, internet):
        resolver = validating_resolver(internet)
        resolver.lookup(CLEAN, RRType.A)
        cold_queries = internet.network.stats.udp_queries
        second = resolver.lookup(N("smoke-137.org"), RRType.A)
        warm_queries = internet.network.stats.udp_queries - cold_queries
        assert second.security == SECURE
        # the org/root chain comes from the memo: the warm lookup only
        # walks the new base's own cut (DS + DNSKEY), not the whole chain
        assert warm_queries < cold_queries

    def test_trust_anchor_mismatch_bogus(self, internet):
        resolver = validating_resolver(internet)
        resolver.config.trust_anchor = b"\x00" * 16
        result = resolver.lookup(CLEAN, RRType.A)
        assert result.security == BOGUS


def queries_of(result, rrtype) -> int:
    """Queries of one type the lookup put on the wire, off its trace."""
    return sum(1 for step in result.trace if step.qtype == int(rrtype) and not step.cached)


COLD_VERDICTS = [
    (CLEAN, Status.NOERROR, SECURE),
    (ISLAND, Status.NOERROR, INSECURE),
    (BROKEN_DS, Status.NOERROR, BOGUS),
    (EXPIRED, Status.NOERROR, BOGUS),
    (UNSIGNED_ORG, Status.NOERROR, INSECURE),
    (NXDOMAIN_ORG, Status.NXDOMAIN, SECURE),
]


class TestReferralProofs:
    """The DS / no-DS proof rides the referral the lookup follows anyway;
    the explicit DS query is the miss path, and a proof is believed only
    on the parent's validated signature."""

    @pytest.mark.parametrize("name,status,security", COLD_VERDICTS)
    def test_cold_lookup_sends_no_ds_query(self, internet, name, status, security):
        result = validating_resolver(internet).lookup(name, RRType.A)
        assert (result.status, result.security) == (status, security)
        assert queries_of(result, RRType.DS) == 0
        evidence = result.evidence
        assert evidence.proof_fallbacks == 0
        assert evidence.proofs_harvested == len(evidence.proofs) > 0
        # what validation sent is DNSKEY fetches only, all in the trace
        assert evidence.chain_queries == queries_of(result, RRType.DNSKEY)

    @pytest.mark.parametrize("name,status,security", COLD_VERDICTS)
    def test_without_a_proof_the_validator_asks(self, monkeypatch, name, status, security):
        monkeypatch.setattr(servers_module, "referral_proof", lambda *args: ())
        internet = build_internet(params=EcosystemParams(seed=SEED))
        result = validating_resolver(internet).lookup(name, RRType.A)
        assert (result.status, result.security) == (status, security)
        assert result.evidence.proofs_harvested == 0
        assert result.evidence.proof_fallbacks == queries_of(result, RRType.DS) > 0

    def test_warm_answer_cache_falls_back_too(self, internet):
        """An answer served from the cache followed no referral, so
        once the zone's memo has lapsed the proof has to be fetched."""
        cache = SelectiveCache(
            capacity=1000, policy="all",
            clock=lambda: internet.sim.now, epoch_base=EPOCH_BASE,
        )
        resolver = Resolver(internet, cache=cache, config=ResolverConfig(dnssec=True))
        assert resolver.lookup(CLEAN, RRType.A).security == SECURE
        cache._drop_key(("sec", CLEAN.canonical_key()))
        warm = resolver.lookup(CLEAN, RRType.A)
        assert warm.security == SECURE
        assert warm.evidence.proofs == {}
        assert warm.evidence.proof_fallbacks == queries_of(warm, RRType.DS) == 1

    def _forging_internet(self, monkeypatch, target, forge):
        """A universe whose parent attaches ``forge(honest proof)`` to
        every referral for ``target``."""
        honest = servers_module.referral_proof

        def referral_proof(synth, parent, child):
            proof = honest(synth, parent, child)
            return forge(synth, proof) if child == target else proof

        monkeypatch.setattr(servers_module, "referral_proof", referral_proof)
        return build_internet(params=EcosystemParams(seed=SEED))

    def _lookup_recording_memos(self, internet, name):
        resolver = validating_resolver(internet)
        memos = []
        put_security = resolver.cache.put_security

        def recording(zone, status, key, ttl):
            memos.append((zone, status))
            put_security(zone, status, key, ttl)

        resolver.cache.put_security = recording
        return resolver.lookup(name, RRType.A), memos

    @pytest.mark.parametrize(
        "signer",
        [
            pytest.param(None, id="unsigned-ds"),
            pytest.param(ISLAND, id="rrsig-by-the-child"),
            pytest.param(N("org"), id="child-key-claiming-to-be-the-parent"),
        ],
    )
    def test_forged_ds_never_upgrades_an_island(self, monkeypatch, signer):
        def forge(synth, proof):
            """A DS for the island's real key, unsigned or with an
            RRSIG naming ``signer`` made with the island's own key."""
            dp = synth.dnssec_profile(ISLAND)
            ds = make_ds(ISLAND, dp.key)
            if signer is None:
                return [ds]
            return [ds, sign_rrset([ds], signer, dp.key, dp.inception, dp.expiration)]

        internet = self._forging_internet(monkeypatch, ISLAND, forge)
        result, memos = self._lookup_recording_memos(internet, ISLAND)
        assert result.security == INSECURE
        # the forgery was seen and set aside: the parent was asked, and
        # only its answer reached the memo
        assert ISLAND in result.evidence.proofs
        assert result.evidence.proof_fallbacks == 1
        assert (ISLAND, INSECURE) in memos
        assert (ISLAND, SECURE) not in memos

    def test_unsigned_nsec_never_downgrades_a_secure_zone(self, monkeypatch):
        internet = self._forging_internet(
            monkeypatch, CLEAN,
            lambda synth, proof: [make_nsec(CLEAN, N("org"), (int(RRType.NS),))],
        )
        result, memos = self._lookup_recording_memos(internet, CLEAN)
        assert result.security == SECURE
        assert result.evidence.proof_fallbacks == 1
        assert (CLEAN, INSECURE) not in memos

    @pytest.mark.parametrize("owner", [UNSIGNED_ORG, UNSIGNED_TLD], ids=["sibling", "out-of-bailiwick"])
    def test_proof_for_another_owner_is_not_kept(self, monkeypatch, owner):
        """A referral speaks for the cut it delegates and no other: a
        DS owned by anything else — in the parent's bailiwick or not —
        is dropped at the door, however it is signed."""

        def forge(synth, proof):
            ds = make_ds(owner, synth.dnssec_profile(ISLAND).key)
            dp = synth.dnssec_profile(N("org"))
            return proof + [ds, sign_rrset([ds], N("org"), dp.key, dp.inception, dp.expiration)]

        internet = self._forging_internet(monkeypatch, ISLAND, forge)
        result, memos = self._lookup_recording_memos(internet, ISLAND)
        assert result.security == INSECURE
        assert result.evidence.proof_fallbacks == 0  # the honest half was used
        assert owner not in result.evidence.proofs
        assert owner not in [zone for zone, _ in memos]

    def test_harvest_keeps_only_the_referred_zones_proof(self):
        key = b"k" * 16
        ds = make_ds(CLEAN, key)
        rrsig = sign_rrset([ds], N("org"), key, 0, 1)
        other = make_ds(ISLAND, key)
        ns_sig = sign_rrset(
            [ResourceRecord(CLEAN, RRType.A, DNSClass.IN, 300, A("192.0.2.1"))], N("org"), key, 0, 1
        )
        evidence = ChainEvidence()
        evidence.harvest(CLEAN, [other, ds, ns_sig, rrsig])
        assert evidence.proofs == {CLEAN: [ds, rrsig]}
        assert evidence.proofs_harvested == 1
        evidence.harvest(ISLAND, [ns_sig])
        assert ISLAND not in evidence.proofs and evidence.proofs_harvested == 1

    def test_chain_fetches_teach_the_lookup_nothing(self, internet):
        """With no delegation cache every DNSKEY fetch re-walks from the
        root through proof-carrying referrals: the evidence still says
        what the lookup saw, not what validating it then stirred up."""
        cache = SelectiveCache(
            capacity=1000, policy="none",
            clock=lambda: internet.sim.now, epoch_base=EPOCH_BASE,
        )
        resolver = Resolver(internet, cache=cache, config=ResolverConfig(dnssec=True))
        result = resolver.lookup(CLEAN, RRType.A)
        assert result.security == SECURE
        evidence = result.evidence
        assert set(evidence.proofs) == {N("org"), CLEAN}
        assert evidence.proofs_harvested == 2
        assert evidence.last_zone == CLEAN
        # root, root → org, root → org → base: the fetches did walk
        assert evidence.chain_queries == queries_of(result, RRType.DNSKEY) == 6


class TestDenialAfterCname:
    """A CNAME chain that ends in a denial takes the chain status of the
    zone that issued the denial — whatever zones validating the CNAME
    itself talks to first, and whatever the chain memos already hold.

    The synthetic universe only plants same-zone CNAMEs, so the signed
    ``smoke-124.org`` is made to serve one that leaves the zone."""

    ALIAS = N("alias.smoke-124.org")

    def _internet(self, monkeypatch, target):
        honest = servers_module.build_answer

        def build_answer(synth, query, profile, **kwargs):
            if query.question.name != self.ALIAS:
                return honest(synth, query, profile, **kwargs)
            response = query.make_response(authoritative=True)
            response.answers.append(
                ResourceRecord(self.ALIAS, RRType.CNAME, DNSClass.IN, 300, CNAME(target))
            )
            if kwargs.get("do"):
                sign_sections(synth, response, CLEAN, synth.dnssec_profile(CLEAN))
            return response

        monkeypatch.setattr(servers_module, "build_answer", build_answer)
        return build_internet(params=EcosystemParams(seed=SEED))

    @staticmethod
    def _missing_under(base):
        synth = build_internet(params=EcosystemParams(seed=SEED)).synth
        profile = synth.profile(base)
        return next(
            name
            for name in (N(f"gone-{i}.{base.to_text()}") for i in range(100))
            if not synth.subdomain_exists(name, profile)
        )

    @pytest.mark.parametrize(
        "base,security",
        [
            pytest.param(N("smoke-137.org"), SECURE, id="secure-sibling"),
            pytest.param(UNSIGNED_ORG, INSECURE, id="unsigned-base"),
            pytest.param(UNSIGNED_TLD, INSECURE, id="unsigned-tld"),
            pytest.param(ISLAND, INSECURE, id="island"),
            pytest.param(BROKEN_DS, BOGUS, id="broken-ds"),
        ],
    )
    def test_denial_is_judged_by_the_zone_that_issued_it(self, monkeypatch, base, security):
        target = self._missing_under(base)
        internet = self._internet(monkeypatch, target)
        resolver = validating_resolver(internet)
        cold = resolver.lookup(self.ALIAS, RRType.A)
        assert [int(r.rrtype) for r in cold.answers] == [int(RRType.CNAME), int(RRType.RRSIG)]
        assert (cold.status, cold.security) == (Status.NXDOMAIN, security)
        assert cold.evidence.last_zone == base
        assert cold.evidence.chain_queries > 0  # the CNAME's chain was fetched first
        warm = resolver.lookup(self.ALIAS, RRType.A)
        assert (warm.status, warm.security) == (Status.NXDOMAIN, security)
        assert warm.evidence.chain_queries == 0


class TestRrsetSignatures:
    """``_rrset_security`` against pre-seeded chain memos (no network)."""

    ZONE = N("rolled.org")

    def _validator(self, key):
        cache = SelectiveCache(capacity=10, clock=lambda: 0.0, epoch_base=EPOCH_BASE)
        cache.put_security(self.ZONE, SECURE, key, DNSKEY_TTL)
        machine = SimpleNamespace(cache=cache, config=ResolverConfig(dnssec=True))
        return Validator(machine)

    def _verdict(self, validator, records, sigs):
        walk = validator._rrset_security(records, sigs)
        with pytest.raises(StopIteration) as stop:
            next(walk)  # every signer is memoised: nothing to fetch
        return stop.value.value

    def _rrset(self, *generations):
        record = ResourceRecord(
            N("www.rolled.org"), RRType.A, DNSClass.IN, 300, A("192.0.2.9")
        )
        sigs = [
            sign_rrset(
                [record], self.ZONE, zone_key_bytes(SEED, self.ZONE, generation),
                EPOCH_BASE - 10, EPOCH_BASE + 10,
            )
            for generation in generations
        ]
        return [record], sigs

    def test_rolled_key_rrsig_ahead_of_the_valid_one_is_secure(self):
        validator = self._validator(zone_key_bytes(SEED, self.ZONE, 1))
        records, sigs = self._rrset(0, 1)  # stale generation first
        assert self._verdict(validator, records, sigs) == SECURE

    def test_only_stale_rrsigs_is_bogus(self):
        validator = self._validator(zone_key_bytes(SEED, self.ZONE, 2))
        records, sigs = self._rrset(0, 1)
        assert self._verdict(validator, records, sigs) == BOGUS


class TestMemoLifetimes:
    """A ``("sec", zone)`` memo lives as long as the records that proved
    it stay provable, not a flat ``DNSKEY_TTL``."""

    def _lookup(self, name, **params):
        internet = build_internet(params=EcosystemParams(seed=SEED, **params))
        skew = [0.0]
        cache = SelectiveCache(
            capacity=1000, clock=lambda: internet.sim.now + skew[0], epoch_base=EPOCH_BASE
        )
        resolver = Resolver(internet, cache=cache, config=ResolverConfig(dnssec=True))
        result = resolver.lookup(name, RRType.A)
        return result, cache, skew, internet.sim.now

    @staticmethod
    def _expiry(cache, zone):
        return cache._entries[("sec", zone.canonical_key())][1]

    def test_insecure_memo_dies_with_its_nsec(self):
        result, cache, skew, finished = self._lookup(UNSIGNED_ORG)
        assert result.security == INSECURE
        expires = self._expiry(cache, UNSIGNED_ORG)
        assert expires == pytest.approx(finished + NSEC_TTL, abs=1.0)  # stored mid-lookup
        skew[0] = expires - finished - 0.001
        assert cache.get_security(UNSIGNED_ORG) == (INSECURE, b"")
        skew[0] = expires - finished  # clock == expires_at: dead
        assert cache.get_security(UNSIGNED_ORG) is None
        # the secure parent above it was proved by hour-long records
        assert self._expiry(cache, N("org")) > finished + DNSKEY_TTL - 1.0

    def test_secure_memo_dies_with_its_signatures(self):
        result, cache, skew, finished = self._lookup(CLEAN, dnssec_validity=1000)
        assert result.security == SECURE
        for zone in (Name.root(), N("org"), CLEAN):
            assert self._expiry(cache, zone) == pytest.approx(1000.0, abs=1e-6)
        expires = self._expiry(cache, CLEAN)
        skew[0] = expires - finished - 0.001
        assert cache.get_security(CLEAN) is not None
        skew[0] = expires - finished
        assert cache.get_security(CLEAN) is None

    def test_inherited_status_is_not_memoised(self):
        """Below an insecure cut a zone has no proof of its own: the
        parent's memo answers, so nothing can outlive it."""
        result, cache, _, _ = self._lookup(N("www.smoke-0.com"))
        assert result.security == INSECURE
        assert cache.get_security(N("com")) == (INSECURE, b"")
        assert cache.get_security(UNSIGNED_TLD) is None


# ---------------------------------------------------------------------------
# satellite 2: RRSIG-aware cache lifetimes
# ---------------------------------------------------------------------------


class TestRrsigAwareLifetimes:
    def _cache(self, now, **kw):
        kw.setdefault("epoch_base", EPOCH_BASE)
        return SelectiveCache(
            capacity=100, policy="all", clock=lambda: now[0], **kw
        )

    def _signed_rrset(self, ttl=300, expires_in=50):
        owner = N("www.signed-ttl.org")
        record = ResourceRecord(owner, RRType.A, DNSClass.IN, ttl, A("192.0.2.7"))
        rrsig = sign_rrset(
            [record], N("org"), b"k" * 16,
            inception=EPOCH_BASE - 10, expiration=EPOCH_BASE + expires_in,
        )
        return owner, [record, rrsig]

    def test_answer_expires_at_signature_not_ttl(self):
        now = [0.0]
        cache = self._cache(now)
        owner, records = self._signed_rrset(ttl=300, expires_in=50)
        cache.put_answer(owner, RRType.A, records)
        now[0] = 49.0  # signature still valid
        assert cache.get_answer(owner, RRType.A) is not None
        now[0] = 50.0  # virtual clock crosses the RRSIG expiration
        assert cache.get_answer(owner, RRType.A) is None
        assert cache.stats.expired == 1

    def test_unsigned_answer_keeps_full_ttl(self):
        now = [0.0]
        cache = self._cache(now)
        owner = N("www.unsigned-ttl.com")
        record = ResourceRecord(owner, RRType.A, DNSClass.IN, 300, A("192.0.2.8"))
        cache.put_answer(owner, RRType.A, [record])
        now[0] = 299.0
        assert cache.get_answer(owner, RRType.A) is not None

    def test_already_expired_signature_never_stored(self):
        now = [0.0]
        cache = self._cache(now)
        owner, records = self._signed_rrset(expires_in=-1)
        cache.put_answer(owner, RRType.A, records)
        assert len(cache) == 0
        assert cache.get_answer(owner, RRType.A) is None

    def test_without_epoch_base_behaviour_is_pre_dnssec(self):
        """``epoch_base=None`` pins the exact pre-DNSSEC lifetime: the
        RRSIG is cached like any record and only the TTL counts."""
        now = [0.0]
        cache = self._cache(now, epoch_base=None)
        owner, records = self._signed_rrset(ttl=300, expires_in=50)
        cache.put_answer(owner, RRType.A, records)
        now[0] = 250.0  # far past the signature, inside the TTL
        assert cache.get_answer(owner, RRType.A) is not None


# ---------------------------------------------------------------------------
# satellite 3: zone deltas must drop the chain memos below the cut
# ---------------------------------------------------------------------------


class TestDeltaDropsChainMemos:
    def test_stale_memo_is_load_bearing(self):
        """A delta rolls the zone key.  If invalidation missed the
        ``("sec", ...)`` memo, the next lookup would validate gen-1
        signatures against the pinned gen-0 key and land Bogus — the
        exact regression ``invalidate_subtree`` exists to prevent."""
        internet = build_internet(params=EcosystemParams(seed=SEED))
        cache = SelectiveCache(
            capacity=10_000, policy="selective",
            clock=lambda: internet.sim.now, epoch_base=EPOCH_BASE,
        )
        resolver = Resolver(internet, cache=cache, config=ResolverConfig(dnssec=True))
        first = resolver.lookup(CLEAN, RRType.A)
        assert first.security == SECURE
        assert cache.get_security(CLEAN) == (SECURE, zone_key_bytes(SEED, CLEAN, 0))

        publish_zone_delta(internet, CLEAN)
        # simulate a buggy invalidation: delegations and answers below
        # the cut are dropped, but the security memos are left pinned
        suffix = CLEAN.canonical_key()
        for key in [
            k for k in cache._keys
            if k[0] != "sec" and k[1][-len(suffix):] == suffix
        ]:
            cache._drop_key(key)
        stale = resolver.lookup(CLEAN, RRType.A)
        assert stale.status == Status.NOERROR
        assert stale.security == BOGUS  # gen-1 RRSIGs vs pinned gen-0 key

        dropped = cache.invalidate_subtree(CLEAN)
        assert dropped > 0
        fresh = resolver.lookup(CLEAN, RRType.A)
        assert fresh.status == Status.NOERROR
        assert fresh.security == SECURE
        assert cache.get_security(CLEAN) == (SECURE, zone_key_bytes(SEED, CLEAN, 1))

    def test_invalidate_subtree_drops_sec_and_ds_state(self):
        """After a delta and ``invalidate_subtree`` the next lookup
        re-anchors on the generation-1 key, and no generation-0 DS is
        left anywhere to contradict it: the proof a lookup validates
        with is the one its own referral carried."""
        internet = build_internet(params=EcosystemParams(seed=SEED))
        cache = SelectiveCache(
            capacity=10_000, policy="all",
            clock=lambda: internet.sim.now, epoch_base=EPOCH_BASE,
        )
        resolver = Resolver(internet, cache=cache, config=ResolverConfig(dnssec=True))
        first = resolver.lookup(CLEAN, RRType.A)
        assert first.security == SECURE
        assert cache.get_security(CLEAN) == (SECURE, zone_key_bytes(SEED, CLEAN, 0))
        assert not [key for key in cache._keys if key[0] == "ans" and key[2] == int(RRType.DS)]

        publish_zone_delta(internet, CLEAN)
        cache.invalidate_subtree(CLEAN)
        assert cache.get_security(CLEAN) is None
        assert cache.get_security(N("org")) is not None  # above the cut: kept

        fresh = resolver.lookup(CLEAN, RRType.A)
        assert fresh.status == Status.NOERROR
        assert fresh.security == SECURE
        assert cache.get_security(CLEAN) == (SECURE, zone_key_bytes(SEED, CLEAN, 1))
        (ds,) = [r for r in fresh.evidence.proofs[CLEAN] if r.rrtype == RRType.DS]
        assert ds == make_ds(CLEAN, zone_key_bytes(SEED, CLEAN, 1))
        assert fresh.evidence.proof_fallbacks == 0

    def test_service_delta_routine_rolls_the_memo(self):
        """Through the daemon's own delta machinery: seed 24's first
        delta lands on ``d7198390-6.dev`` (signed, clean, in the
        catalog), so after the run the cached chain memo must hold the
        *generation-1* key — the gen-0 memo surviving the delta is the
        regression this test pins."""
        cfg = ServiceConfig(
            seed=24, duration=240.0, catalog_size=40, base_qps=3.0,
            workers=4, dnssec=True, delta_times=(100.0,),
            revalidation="incremental", status_interval=100.0,
        )
        # recompute the delta target exactly like the daemon does
        catalog = [
            N(t) for t in DomainCorpus(CorpusConfig(seed=cfg.seed)).fqdns(cfg.catalog_size)
        ]
        rng = random.Random(derive_seed(cfg.seed, "deltas"))
        service = ResolverService(cfg)
        base = service.internet.synth.base_domain_of(catalog[rng.randrange(len(catalog))])
        assert base == N("d7198390-6.dev")

        report = service.run()
        assert report.counters["deltas_published"] == 1
        assert report.counters["revalidate_jobs"] > 0
        assert service.cache.get_security(base) == (
            SECURE, zone_key_bytes(cfg.seed, base, 1)
        )


# ---------------------------------------------------------------------------
# fault directives: strip_rrsig / rollover_desync
# ---------------------------------------------------------------------------


class TestDnssecFaults:
    def _lookup_under(self, plan, dnssec=True):
        internet = build_internet(params=EcosystemParams(seed=SEED))
        injector = FaultInjector(plan, sim=internet.sim, seed=5)
        injector.attach(internet.network)
        config = ResolverConfig(dnssec=dnssec)
        result = Resolver(internet, config=config).lookup(CLEAN, RRType.A)
        return result, injector

    def test_strip_rrsig_turns_secure_into_bogus(self):
        result, injector = self._lookup_under(FaultPlan([StripRrsig()]))
        assert result.status == Status.NOERROR
        assert result.security == BOGUS
        assert injector.total_activations() > 0

    def test_rollover_desync_turns_secure_into_bogus(self):
        result, injector = self._lookup_under(FaultPlan([RolloverDesync()]))
        assert result.status == Status.NOERROR
        assert result.security == BOGUS
        assert injector.total_activations() > 0

    def test_directives_inert_without_do_bit(self):
        """A DNSSEC-oblivious lookup carries no RRSIGs, so the sabotage
        directives must neither fire nor perturb the reply stream."""
        result, injector = self._lookup_under(FaultPlan([StripRrsig()]), dnssec=False)
        assert result.status == Status.NOERROR
        assert result.security is None
        assert injector.total_activations() == 0

    def test_plan_json_round_trip(self):
        import json

        plan = FaultPlan(
            [StripRrsig(servers=("10.4.",)), RolloverDesync(probability=0.5)],
            name="dnssec-sabotage",
        )
        again = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        directives = list(again)
        assert [d.kind for d in directives] == ["strip_rrsig", "rollover_desync"]
        assert directives[1].probability == 0.5


# ---------------------------------------------------------------------------
# satellite 4: the oracle over the signed universe
# ---------------------------------------------------------------------------


class TestOracleSecurity:
    def test_expected_security_white_box(self):
        oracle = DifferentialOracle(seed=SEED, dnssec=True)
        expected = oracle.reference.expected_security
        assert expected(CLEAN) == SECURE
        assert expected(ISLAND) == INSECURE
        assert expected(BROKEN_DS) == BOGUS
        assert expected(EXPIRED) == BOGUS
        assert expected(UNSIGNED_TLD) == INSECURE
        assert expected(NXDOMAIN_ORG) == SECURE

    def test_compare_views_has_teeth(self):
        """A validator that calls a planted-Bogus chain Secure must
        diverge — otherwise the sweep proves nothing by passing."""
        oracle = OracleResult(
            name="smoke-687.org", qtype=int(RRType.A), status="NOERROR",
            final_key="smoke-687.org.", final_name="smoke-687.org.",
            chain=("smoke-687.org.",), acceptable=(("192.0.2.1",),),
            security=BOGUS,
        )
        lying = ProductionView(
            status="NOERROR", final_key="smoke-687.org.",
            final_name="smoke-687.org.", terminal=("192.0.2.1",),
            security=SECURE,
        )
        verdict, reason = compare_views(lying, oracle)
        assert verdict == "diverge"
        assert "validation" in reason
        honest = ProductionView(
            status="NOERROR", final_key="smoke-687.org.",
            final_name="smoke-687.org.", terminal=("192.0.2.1",),
            security=BOGUS,
        )
        assert compare_views(honest, oracle)[0] == "agree"
        # indeterminate (chain fetches died) is never a divergence
        unsure = ProductionView(
            status="NOERROR", final_key="smoke-687.org.",
            final_name="smoke-687.org.", terminal=("192.0.2.1",),
            security=INDETERMINATE,
        )
        assert compare_views(unsure, oracle)[0] == "agree"

    def test_differential_sweep_zero_divergences(self):
        report = run_differential(
            DifferentialConfig(
                seed=SEED, names=25, policies=("selective", "all"),
                evictions=("lru",), fault_plans=(None,), dnssec=True,
            )
        )
        assert report.checks > 0
        assert report.divergences == []

    def test_differential_sweep_off_still_clean(self):
        report = run_differential(
            DifferentialConfig(
                seed=SEED, names=15, policies=("selective",),
                evictions=("lru",), fault_plans=(None,), dnssec=False,
            )
        )
        assert report.divergences == []


# ---------------------------------------------------------------------------
# the deployment study
# ---------------------------------------------------------------------------


class TestDeploymentStudy:
    def test_measured_equals_planted(self):
        from repro.analysis import run_dnssec_study

        bases = list(DomainCorpus(CorpusConfig(seed=SEED)).base_domains(2000))

        def study():
            # a fresh universe each time: the module's shared one carries
            # warm state from earlier tests, which moves the chain counts
            internet = build_internet(params=EcosystemParams(seed=SEED))
            return run_dnssec_study(internet, bases, threads=500, seed=SEED)

        findings = study()
        assert findings.mismatches == 0
        assert findings.domains_semantic > 0
        for state in ("secure", "insecure", "bogus"):
            assert findings.measured[state] == findings.planted[state], state
        assert findings.measured["bogus"] > 0  # the anomalies actually fired
        assert 0.0 < findings.signed_fraction < 0.2
        payload = findings.to_json()
        assert payload["mismatches"] == 0
        assert payload["measured_secure_pct"] == payload["planted_secure_pct"]
        # What validation asked the network for, exactly.  A DS round
        # trip per zone creeping back shows as ds_queries /
        # proof_fallbacks rising; a signed parent's referrals no longer
        # carrying the DS / no-DS proof shows as proofs_harvested falling.
        # A change that moves a count edits it here, in its own diff.
        chain = findings.chain
        assert chain["ds_queries"] == 28
        assert chain["proof_fallbacks"] == 28
        assert chain["dnskey_queries"] == 108
        assert chain["proofs_harvested"] == 965
        assert chain["ds_queries"] + chain["dnskey_queries"] == chain["chain_queries"]
        # and the whole study replays byte for byte
        assert json.dumps(study().to_json(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )


# ---------------------------------------------------------------------------
# framework / CLI wiring
# ---------------------------------------------------------------------------


    def test_bad_threads_is_a_usage_error(self, monkeypatch, capsys):
        """``--threads 0`` exits 2 with a usage line naming the flag
        before the universe is built (it built one, then died with the
        config's traceback)."""
        import repro.ecosystem
        from repro.analysis.dnssecstudy import main as study_main

        def build_internet(*args, **kwargs):
            raise AssertionError("the universe was built")

        monkeypatch.setattr(repro.ecosystem, "build_internet", build_internet)
        with pytest.raises(SystemExit) as excinfo:
            study_main(["--threads", "0", "--domains", "5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "threads" in err


class TestCliWiring:
    def test_dnssec_requires_iterative(self, tmp_path):
        from repro.framework.cli import main as cli_main

        names = tmp_path / "names.txt"
        names.write_text("smoke-124.org\n")
        with pytest.raises(SystemExit):
            cli_main([
                "A", "-f", str(names), "--mode", "external", "--dnssec",
                "-o", str(tmp_path / "out.jsonl"),
            ])

    def test_rows_carry_validation_state(self, tmp_path):
        import json

        from repro.framework.cli import main as cli_main

        names = tmp_path / "names.txt"
        names.write_text("smoke-124.org\nsmoke-0.com\nnope-1.org\n")
        out = tmp_path / "out.jsonl"
        code = cli_main([
            "A", "-f", str(names), "--dnssec", "--seed", str(SEED),
            "--threads", "3", "-o", str(out), "--quiet",
        ])
        assert code == 0
        rows = {row["name"]: row for row in map(json.loads, out.read_text().splitlines())}
        assert rows["smoke-124.org"]["data"]["dnssec"] == SECURE
        assert rows["smoke-0.com"]["data"]["dnssec"] == INSECURE
        assert rows["nope-1.org"]["data"]["dnssec"] == SECURE

    def test_scan_stats_tally_outcomes(self, internet):
        from repro.framework import ScanConfig, ScanRunner

        config = ScanConfig(
            module="A", mode="iterative", threads=4, seed=SEED, dnssec=True
        )
        report = ScanRunner(internet, config).run(
            ["smoke-124.org", "smoke-203.org", "smoke-687.org"]
        )
        stats = report.dnssec_stats
        assert stats is not None
        assert stats.get(SECURE, 0) >= 1
        assert stats.get(INSECURE, 0) >= 1
        assert stats.get(BOGUS, 0) >= 1
        assert set(stats) == set(SECURITY_STATES) | set(CHAIN_COUNTS)
        # three cold lookups under one shared chain: no DS query at all
        assert stats["proof_fallbacks"] == 0
        assert stats["proofs_harvested"] > 0
        assert 0 < stats["chain_queries"] < report.stats.queries_sent

    def test_trust_anchor_helper_matches_root(self, synth):
        from repro.ecosystem.dnssec import ds_digest

        anchor = trust_anchor_for(synth)
        assert anchor == ds_digest(Name.root(), synth.dnssec_profile(Name.root()).key)

    def test_service_config_serialises_dnssec(self):
        assert ServiceConfig(dnssec=True).to_json()["dnssec"] is True
        assert ServiceConfig().to_json()["dnssec"] is False

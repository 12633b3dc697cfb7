"""Integration tests: the core resolver running against the full
simulated Internet."""

import pytest

from repro.core import Resolver, ResolverConfig, SelectiveCache, Status
from repro.dnslib import Name, RRType, name_from_ipv4_ptr
from repro.ecosystem import EcosystemParams, ZoneSynthesizer, build_internet

N = Name.from_text


@pytest.fixture(scope="module")
def internet():
    return build_internet(params=EcosystemParams(seed=77))


@pytest.fixture(scope="module")
def synth(internet):
    return internet.synth


def find_domain(synth, predicate, tld="com", limit=30000, prefix="itest"):
    for i in range(limit):
        base = N(f"{prefix}-{i}.{tld}")
        profile = synth.profile(base)
        if predicate(profile):
            return base, profile
    raise AssertionError("no matching domain found")


class TestIterativeOnUniverse:
    def test_resolves_existing_domain(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists and not p.truncates)
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NOERROR
        assert result.answers

    def test_answers_match_synth(self, internet, synth):
        base, profile = find_domain(
            synth,
            lambda p: p.exists and not p.truncates and p.consistent_answers
            and all(ns.drop_prob == 0 and not ns.lame for ns in p.nameservers),
        )
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.A)
        got = sorted(record.rdata.address for record in result.answers)
        assert got == sorted(synth.host_addresses(base, "a"))

    def test_nxdomain_for_unregistered(self, internet, synth):
        base, _ = find_domain(synth, lambda p: not p.exists and not p.dead)
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NXDOMAIN

    def test_dead_domain_fails(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.dead)
        resolver = Resolver(
            internet, ResolverConfig(retries=0, iteration_timeout=0.5)
        )
        result = resolver.lookup(base, RRType.A)
        assert result.status in (Status.ITERATIVE_TIMEOUT, Status.SERVFAIL, Status.ERROR)

    def test_truncated_domain_resolved_via_tcp(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists and p.truncates)
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NOERROR
        assert internet.network.stats.tcp_queries > 0

    def test_mx_lookup(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists and p.has_mx and not p.truncates)
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.MX)
        assert result.status == Status.NOERROR
        assert all(int(record.rrtype) == int(RRType.MX) for record in result.answers)

    def test_caa_direct(self, internet, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and p.caa is not None and not p.caa.via_cname
        )
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.CAA)
        assert result.status == Status.NOERROR
        tags = {record.rdata.tag for record in result.answers}
        assert tags  # has some CAA tags

    def test_caa_via_cname_chased(self, internet, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and p.caa is not None and p.caa.via_cname,
            limit=200000,
        )
        resolver = Resolver(internet)
        result = resolver.lookup(base, RRType.CAA)
        assert result.status == Status.NOERROR
        types = {int(record.rrtype) for record in result.answers}
        assert int(RRType.CNAME) in types
        assert int(RRType.CAA) in types

    def test_ptr_existing(self, internet, synth):
        ip = next(
            f"23.7.{i}.9" for i in range(200) if synth.ptr_status(f"23.7.{i}.9") == "noerror"
        )
        resolver = Resolver(internet)
        result = resolver.lookup(name_from_ipv4_ptr(ip), RRType.PTR)
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata.target == synth.ptr_target(ip)

    def test_ptr_nxdomain(self, internet, synth):
        ip = next(
            f"23.8.{i}.9" for i in range(200) if synth.ptr_status(f"23.8.{i}.9") == "nxdomain"
        )
        resolver = Resolver(internet)
        result = resolver.lookup(name_from_ipv4_ptr(ip), RRType.PTR)
        assert result.status == Status.NXDOMAIN

    def test_cache_reduces_queries(self, internet, synth):
        cache = SelectiveCache(capacity=10_000)
        resolver = Resolver(internet, cache=cache)
        first, _ = find_domain(synth, lambda p: p.exists and not p.truncates, prefix="warm")
        second, _ = find_domain(synth, lambda p: p.exists and not p.truncates, prefix="warm2")
        r1 = resolver.lookup(first, RRType.A)
        r2 = resolver.lookup(second, RRType.A)
        # second lookup starts at the cached .com delegation
        assert next(iter(r2.trace)).cached
        assert cache.stats.hits >= 1

    def test_trace_layers_descend(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists and not p.truncates)
        cache = SelectiveCache(capacity=10)
        resolver = Resolver(
            internet, ResolverConfig(record_trace=True), cache=cache
        )
        result = resolver.lookup(N("www").concatenate(base), RRType.A)
        layers = [step.layer for step in result.trace if not step.cached]
        assert layers[0] == "."
        assert layers[1] == base.labels[-1].decode()
        # trace carries full result blocks (Appendix C)
        assert any(step.results for step in result.trace)


class TestExternalOnUniverse:
    def test_google_resolves(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists)
        resolver = Resolver(internet, ResolverConfig(mode="google"))
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NOERROR
        assert result.resolver == "8.8.8.8:53"

    def test_cloudflare_resolves(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.exists)
        resolver = Resolver(internet, ResolverConfig(mode="cloudflare"))
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NOERROR

    def test_external_nxdomain(self, internet, synth):
        base, _ = find_domain(synth, lambda p: not p.exists and not p.dead)
        resolver = Resolver(internet, ResolverConfig(mode="google"))
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.NXDOMAIN

    def test_external_dead_servfails(self, internet, synth):
        base, _ = find_domain(synth, lambda p: p.dead)
        resolver = Resolver(internet, ResolverConfig(mode="google", retries=0))
        result = resolver.lookup(base, RRType.A)
        assert result.status == Status.SERVFAIL

    def test_external_ptr(self, internet, synth):
        ip = next(
            f"34.9.{i}.7" for i in range(200) if synth.ptr_status(f"34.9.{i}.7") == "noerror"
        )
        resolver = Resolver(internet, ResolverConfig(mode="cloudflare"))
        result = resolver.lookup(name_from_ipv4_ptr(ip), RRType.PTR)
        assert result.status == Status.NOERROR

    def test_iterative_and_external_agree(self, internet, synth):
        base, _ = find_domain(
            synth,
            lambda p: p.exists and not p.truncates and p.consistent_answers
            and all(ns.drop_prob == 0 and not ns.lame for ns in p.nameservers),
        )
        iterative = Resolver(internet).lookup(base, RRType.A)
        external = Resolver(internet, ResolverConfig(mode="google")).lookup(base, RRType.A)
        iter_ips = sorted(r.rdata.address for r in iterative.answers)
        ext_ips = sorted(r.rdata.address for r in external.answers)
        assert iter_ips == ext_ips


class TestResolverFacade:
    def test_rejects_non_internet(self):
        with pytest.raises(TypeError):
            Resolver(object())

    def test_rejects_unknown_mode(self, internet):
        with pytest.raises(ValueError):
            Resolver(internet, ResolverConfig(mode="quantum"))

    def test_leaves_the_callers_config_alone(self):
        """The stack validates with its own copy of the config: reusing
        one config across two universes must not carry the first root's
        trust anchor into the second (it made every signed name bogus)."""
        from collections import Counter

        from repro.workloads import CorpusConfig, DomainCorpus

        def universe(seed):
            return build_internet(params=EcosystemParams(seed=seed, p_tld_signed=1.0))

        config = ResolverConfig(dnssec=True)
        first = Resolver(universe(1), config=config)
        assert first.config.trust_anchor is not None
        assert config.trust_anchor is None
        names = list(DomainCorpus(CorpusConfig(seed=2)).fqdns(40))
        verdicts = {}
        for label, given in (("reused", config), ("fresh", ResolverConfig(dnssec=True))):
            resolver = Resolver(universe(2), config=given)
            verdicts[label] = Counter(resolver.lookup(n, RRType.A).security for n in names)
        assert verdicts["reused"] == verdicts["fresh"]
        assert verdicts["fresh"] == {"secure": 13, "insecure": 25, "indeterminate": 2}
        assert config == ResolverConfig(dnssec=True)

    def test_external_modes_build_no_cache(self, internet):
        assert Resolver(internet, ResolverConfig(mode="google")).cache is None
        assert Resolver(internet).cache is not None

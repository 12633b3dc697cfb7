"""Tests for procedural zone synthesis: determinism and statistics."""

import pytest

from repro.dnslib import Name
from repro.ecosystem import EcosystemParams, ZoneSynthesizer
from repro.ecosystem.params import CCTLDS, LEGACY_GTLDS, all_tlds, tld_class

N = Name.from_text


@pytest.fixture(scope="module")
def synth():
    return ZoneSynthesizer(EcosystemParams(seed=11))


def sample_domains(count, tld="com", start=0):
    return [N(f"domain-{i}.{tld}") for i in range(start, start + count)]


class TestDeterminism:
    def test_same_name_same_profile(self, synth):
        fresh = ZoneSynthesizer(EcosystemParams(seed=11))
        for name in sample_domains(50):
            a = synth.profile(name)
            b = fresh.profile(name)
            assert a.exists == b.exists
            assert a.provider.name == b.provider.name
            assert [ns.ip for ns in a.nameservers] == [ns.ip for ns in b.nameservers]

    def test_different_seed_different_universe(self):
        a = ZoneSynthesizer(EcosystemParams(seed=1))
        b = ZoneSynthesizer(EcosystemParams(seed=2))
        names = sample_domains(200)
        differences = sum(
            a.profile(n).exists != b.profile(n).exists for n in names
        )
        assert differences > 0

    def test_ptr_deterministic(self, synth):
        assert synth.ptr_status("23.45.67.89") == synth.ptr_status("23.45.67.89")
        assert synth.ptr_target("23.45.67.89") == synth.ptr_target("23.45.67.89")

    def test_host_addresses_deterministic(self, synth):
        assert synth.host_addresses(N("a.b.com")) == synth.host_addresses(N("a.b.com"))


class TestBaseDomainMapping:
    def test_simple(self, synth):
        assert synth.base_domain_of(N("www.example.com")) == N("example.com")

    def test_deep(self, synth):
        assert synth.base_domain_of(N("a.b.c.example.de")) == N("example.de")

    def test_unknown_tld(self, synth):
        assert synth.base_domain_of(N("host.internal")) is None

    def test_bare_tld(self, synth):
        assert synth.base_domain_of(N("com")) is None


class TestTldClass:
    def test_agrees_with_a_scan_of_the_population(self):
        """The lookup table answers as the first match in ``all_tlds()``
        order did, and unknown TLDs are None."""
        first = {}
        for tld, cls in all_tlds():
            first.setdefault(tld, cls)
        assert first and all(tld_class(tld) == cls for tld, cls in first.items())
        assert tld_class("com") == "legacy"
        assert tld_class("internal") is None


class TestStatistics:
    def test_existence_rate_matches_params(self, synth):
        names = sample_domains(4000)
        rate = sum(synth.profile(n).exists for n in names) / len(names)
        # p_base_exists = 0.70 / 0.9 ~= 0.78
        assert 0.74 <= rate <= 0.82

    def test_fqdn_resolution_rate_near_70_percent(self, synth):
        resolving = 0
        total = 4000
        for i in range(total):
            fqdn = N(f"www{i}.domain-{i}.com")
            profile = synth.profile(synth.base_domain_of(fqdn))
            if profile.exists and synth.subdomain_exists(fqdn, profile):
                resolving += 1
        assert 0.64 <= resolving / total <= 0.76

    def test_dead_rate_small(self, synth):
        names = sample_domains(5000)
        dead = sum(synth.profile(n).dead for n in names) / len(names)
        assert 0.01 <= dead <= 0.04

    def test_truncation_rate_near_paper(self, synth):
        names = sample_domains(20000)
        rate = sum(synth.profile(n).truncates for n in names) / len(names)
        assert 0.002 <= rate <= 0.007  # paper: 0.4%

    def test_flaky_nameserver_rate(self, synth):
        """Section 5: ~0.55% of resolvable domains have a blocking NS."""
        names = sample_domains(20000)
        flaky = 0
        total = 0
        for name in names:
            profile = synth.profile(name)
            if not profile.exists:
                continue
            total += 1
            if any(ns.drop_prob > 0 for ns in profile.nameservers):
                flaky += 1
        assert 0.004 <= flaky / total <= 0.035

    def test_vn_domains_flakier_than_com(self, synth):
        def flaky_rate(tld):
            flagged = 0
            count = 3000
            for name in sample_domains(count, tld):
                profile = synth.profile(name)
                if any(ns.drop_prob > 0 for ns in profile.nameservers):
                    flagged += 1
            return flagged / count

        assert flaky_rate("vn") > 3 * flaky_rate("com")

    def test_provider_share_roughly_matches_weights(self, synth):
        names = sample_domains(6000)
        cloudflare = sum(
            synth.profile(n).provider.name == "cloudflare-dns.example" for n in names
        )
        assert 0.08 <= cloudflare / len(names) <= 0.16  # weight 0.12

    def test_ptr_rates(self, synth):
        # spread samples over many distinct /24 zones
        statuses = [
            synth.ptr_status(f"23.{(i // 256) % 256}.{i % 256}.{(i * 37) % 256}")
            for i in range(6000)
        ]
        noerror = statuses.count("noerror") / len(statuses)
        dead = statuses.count("dead") / len(statuses)
        assert 0.50 <= noerror <= 0.60  # p_ptr_exists = 0.55
        assert 0.03 <= dead <= 0.08


class TestCAAProfiles:
    def collect(self, synth, tld, count=30000):
        profiles = []
        for name in sample_domains(count, tld):
            profile = synth.profile(name)
            if profile.exists:
                profiles.append(profile)
        return profiles

    def test_caa_rate_gtld(self, synth):
        profiles = self.collect(synth, "com")
        rate = sum(p.caa is not None for p in profiles) / len(profiles)
        assert 0.010 <= rate <= 0.022  # paper: 1.69% overall

    def test_cctld_more_likely_than_gtld(self, synth):
        com = self.collect(synth, "com", 40000)
        de = self.collect(synth, "de", 40000)
        com_rate = sum(p.caa is not None for p in com) / len(com)
        de_rate = sum(p.caa is not None for p in de) / len(de)
        assert de_rate > com_rate

    def test_pl_is_caa_heavy(self, synth):
        pl = self.collect(synth, "pl", 20000)
        de = self.collect(synth, "de", 20000)
        pl_rate = sum(p.caa is not None for p in pl) / len(pl)
        de_rate = sum(p.caa is not None for p in de) / len(de)
        assert pl_rate > 4 * de_rate

    def test_tag_mix(self, synth):
        records = [p.caa for p in self.collect(synth, "com", 120000) if p.caa]
        issue = sum(bool(c.issue) for c in records) / len(records)
        issuewild = sum(bool(c.issuewild) for c in records) / len(records)
        iodef = sum(bool(c.iodef) for c in records) / len(records)
        assert 0.93 <= issue <= 1.0  # paper: 96.8%
        assert 0.48 <= issuewild <= 0.62  # paper: 55.27%
        assert 0.04 <= iodef <= 0.10  # paper: 6.87%

    def test_letsencrypt_dominates_issue(self, synth):
        records = [p.caa for p in self.collect(synth, "com", 120000) if p.caa]
        with_issue = [c for c in records if c.issue]
        le = sum("letsencrypt.org" in c.issue for c in with_issue) / len(with_issue)
        assert le >= 0.88  # paper: 92.4%

    def test_nonexistent_domains_have_no_caa(self, synth):
        for name in sample_domains(2000, "com", start=50_000):
            profile = synth.profile(name)
            if not profile.exists:
                assert profile.caa is None


class TestLazyContentFacts:
    """``has_mx``/``has_spf``/``has_dmarc``/``caa`` are drawn on first
    read; the values are the ones an eager profile had, so no zone
    anywhere changes."""

    LAZY = ("has_mx", "has_spf", "has_dmarc", "caa")

    @staticmethod
    def corpus_bases(count):
        from repro.workloads import DomainCorpus

        corpus = DomainCorpus()
        bases = {}  # consecutive corpus indices share base domains
        index = 0
        while len(bases) < count:
            bases[N(corpus.base_domain(index))] = None
            index += 1
        return list(bases)

    @pytest.mark.parametrize("generation", [0, 1])
    def test_lazy_equals_eager(self, generation):
        from repro.ecosystem import rand

        synth = ZoneSynthesizer(EcosystemParams(seed=2022))
        seed = synth.params.seed
        with_caa = 0
        for base in self.corpus_bases(2000):
            if generation:
                synth.bump_generation(base)
            profile = synth.profile(base)
            assert not set(self.LAZY) & set(vars(profile)), "drawn before anyone read it"
            key = base.key_text()
            gkey = f"{key}#gen{generation}" if generation else key
            # the draws as ``_profile`` made them eagerly
            eager = {
                "has_mx": rand.uniform(seed, gkey, "mx") < 0.72,
                "has_spf": rand.uniform(seed, gkey, "spf") < 0.60,
                "has_dmarc": rand.uniform(seed, gkey, "dmarc") < 0.42,
                "caa": synth._caa_profile(gkey, profile.tld, profile.tld_cls)
                if profile.exists
                else None,
            }
            assert {name: getattr(profile, name) for name in self.LAZY} == eager
            assert set(self.LAZY) <= set(vars(profile))  # drawn once, kept
            with_caa += profile.caa is not None
        assert with_caa > 0  # the gated draws were exercised

    def test_equality_hash_and_repr_see_the_lazy_fields(self):
        read, compared, printed = (ZoneSynthesizer(EcosystemParams(seed=2022)) for _ in range(3))
        for base in self.corpus_bases(200):
            a = read.profile(base)
            facts = [getattr(a, name) for name in self.LAZY]
            b = compared.profile(base)  # nothing read yet
            assert a == b and hash(a) == hash(b)
            text = repr(printed.profile(base))  # nothing read yet
            assert text == repr(a)
            assert f"has_mx={facts[0]!r}, has_spf={facts[1]!r}, has_dmarc={facts[2]!r}" in text
            assert text.endswith(f"caa={facts[3]!r})")

    def test_differing_lazy_field_breaks_equality(self):
        synth = ZoneSynthesizer(EcosystemParams(seed=2022))
        base = self.corpus_bases(1)[0]
        a = synth.profile(base)
        b = ZoneSynthesizer(EcosystemParams(seed=2022)).profile(base)
        object.__setattr__(b, "has_mx", not a.has_mx)
        assert a != b

    def test_unknown_attribute_is_still_an_attribute_error(self):
        profile = ZoneSynthesizer(EcosystemParams(seed=2022)).profile(N("example.com"))
        with pytest.raises(AttributeError):
            profile.has_mxx
        assert not hasattr(profile, "nameserver")


class TestInfraAddressBook:
    def test_tld_ns_resolvable(self, synth):
        name = synth.tld_ns_name("com", 0)
        assert synth.infra_a_record(name) == synth.tld_ns_ip("com", 0)

    def test_provider_ns_resolvable(self, synth):
        name = synth.provider_ns_name(0, 1)
        assert synth.infra_a_record(name) == synth.provider_ns_ip(0, 1)

    def test_rdns_ns_resolvable(self, synth):
        name = synth.rdns_ns_name(17, 1)
        assert synth.infra_a_record(name) == synth.rdns_ns_ip(17, 1)

    def test_unknown_names_return_none(self, synth):
        assert synth.infra_a_record(N("ns1.unknown-host.example")) is None
        assert synth.infra_a_record(N("www.google.com")) is None
        assert synth.infra_a_record(N("nsX.nic-com.example")) is None

    def test_distinct_server_ips(self, synth):
        ips = {synth.tld_ns_ip(t, k) for t, _ in synth.tlds() for k in range(2)}
        ips |= {synth.provider_ns_ip(i, 0) for i in range(len(synth.params.providers))}
        ips |= {synth.rdns_ns_ip(op, k) for op in range(8) for k in range(2)}
        # no collisions across tiers
        count = len(synth.tlds()) * 2 + len(synth.params.providers) + 16
        assert len(ips) == count

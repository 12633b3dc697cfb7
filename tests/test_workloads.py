"""Tests for workload generators (corpus and IPv4 space)."""

import pytest

from repro.workloads import (
    CorpusConfig,
    DomainCorpus,
    census,
    is_public,
    permuted_ipv4,
    ptr_names,
)


@pytest.fixture(scope="module")
def corpus():
    return DomainCorpus(CorpusConfig(seed=5))


class TestCorpus:
    def test_deterministic(self, corpus):
        again = DomainCorpus(CorpusConfig(seed=5))
        assert list(corpus.fqdns(100)) == list(again.fqdns(100))

    def test_seed_changes_names(self, corpus):
        other = DomainCorpus(CorpusConfig(seed=6))
        assert list(corpus.fqdns(50)) != list(other.fqdns(50))

    def test_fqdn_is_under_base(self, corpus):
        for i in range(200):
            fqdn = corpus.fqdn(i)
            base = corpus.base_domain(i)
            assert fqdn == base or fqdn.endswith("." + base)

    def test_fqdns_per_domain_ratio(self, corpus):
        count = 20_000
        bases = {corpus.base_domain(i) for i in range(count)}
        ratio = count / len(bases)
        assert 2.0 <= ratio <= 3.0  # paper: 234M/93M ~= 2.5

    def test_class_shares_match_table3(self, corpus):
        result = census(corpus, 30_000)
        total = result.total_fqdns
        assert 0.52 <= result.fqdns["legacy"] / total <= 0.59  # 55.3%
        assert 0.35 <= result.fqdns["cc"] / total <= 0.42  # 38.7%
        assert 0.04 <= result.fqdns["ng"] / total <= 0.08  # 6.0%

    def test_census_domain_counts_are_distinct_bases(self, corpus):
        result = census(corpus, 5000)
        assert result.total_domains <= 5000
        assert result.total_domains >= 1000

    def test_census_tld_counts(self, corpus):
        result = census(corpus, 30_000)
        assert result.tlds["legacy"] == 5
        assert result.tlds["cc"] >= 25
        assert result.tlds["ng"] >= 10

    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 7, 12_344, 12_345, 12_346])
    def test_streams_equal_their_per_index_reference(self, corpus, start):
        """``fqdns`` and ``base_domains`` draw each family once; a start
        inside a family (2.5 indices each) must still match index by index."""
        assert list(corpus.fqdns(40, start)) == [corpus.fqdn(i) for i in range(start, start + 40)]
        bases = []
        index = start
        while len(bases) < 20:
            if corpus.base_domain(index) not in bases:
                bases.append(corpus.base_domain(index))
            index += 1
        assert list(corpus.base_domains(20, start)) == bases
        assert list(corpus.base_domains(0, start)) == []

    def test_census_equals_its_per_index_reference(self, corpus):
        sample = 3000
        fqdns, domains, tlds = {}, {}, {}
        for index in range(sample):
            base, tld, cls = corpus._draws(corpus._family(index))  # drawn per index
            fqdns[cls] = fqdns.get(cls, 0) + 1
            domains.setdefault(cls, set()).add(base)
            tlds.setdefault(cls, set()).add(tld)
        result = census(corpus, sample)
        assert result.fqdns == fqdns
        assert result.domains == {cls: len(values) for cls, values in domains.items()}
        assert result.tlds == {cls: len(values) for cls, values in tlds.items()}

    def test_base_domains_are_unique(self, corpus):
        bases = list(corpus.base_domains(500))
        assert len(bases) == len(set(bases)) == 500

    def test_start_offset_skips(self, corpus):
        a = list(corpus.fqdns(10, start=0))
        b = list(corpus.fqdns(10, start=5))
        assert a[5:] == b[:5]


class TestIPv4:
    def test_all_public(self):
        for ip in permuted_ipv4(5000, seed=1):
            assert is_public(int(ip.split(".")[0]))

    def test_no_duplicates_in_window(self):
        ips = list(permuted_ipv4(50_000, seed=2))
        assert len(set(ips)) == len(ips)

    def test_deterministic(self):
        assert list(permuted_ipv4(100, seed=3)) == list(permuted_ipv4(100, seed=3))

    def test_seed_changes_order(self):
        assert list(permuted_ipv4(100, seed=1)) != list(permuted_ipv4(100, seed=2))

    def test_start_resumes(self):
        full = list(permuted_ipv4(200, seed=4))
        # a later start skips earlier raw indices (not a strict suffix
        # because exclusions differ, but must overlap heavily)
        resumed = list(permuted_ipv4(100, seed=4, start=100))
        assert set(resumed) & set(full)

    def test_spreads_across_slash8(self):
        firsts = {ip.split(".")[0] for ip in permuted_ipv4(2000, seed=5)}
        assert len(firsts) > 100

    def test_ptr_names_format(self):
        name = next(iter(ptr_names(1, seed=6)))
        assert name.endswith(".in-addr.arpa")
        assert len(name.split(".")) == 6

    def test_excluded_ranges(self):
        assert not is_public(10)
        assert not is_public(127)
        assert not is_public(240)
        assert is_public(8)


class TestCorpusRepeatability:
    def test_generators_are_restartable(self, corpus):
        """Generators can be consumed twice (fresh iterators)."""
        first = list(corpus.fqdns(20))
        second = list(corpus.fqdns(20))
        assert first == second

    def test_base_domains_offset(self, corpus):
        a = list(corpus.base_domains(50))
        b = list(corpus.base_domains(50, start=200))
        assert not (set(a) & set(b)) or a != b

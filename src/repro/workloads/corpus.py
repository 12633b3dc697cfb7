"""Workload generation: the certificate-transparency-style domain
corpus of Appendix A (Table 3) and the IPv4 PTR target space.

The paper's corpus is 234M FQDNs from browser-trusted certificates,
mapping to 93M base domains across 1702 TLDs, split 55% legacy gTLD /
39% ccTLD / 6% new gTLD.  The generator reproduces those *shares* over
a deterministic synthetic population of any requested size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..ecosystem import rand
from ..ecosystem.params import CCTLDS, LEGACY_GTLDS, NGTLDS, TLD_CLASS_WEIGHTS
from ..ecosystem.zonegen import SUBDOMAIN_LABELS

#: Average FQDNs per base domain in the paper: 234M / 93M ~= 2.5.
FQDNS_PER_DOMAIN = 2.5

_CLASS_TLDS = {
    "legacy": LEGACY_GTLDS,
    "cc": CCTLDS,
    "ng": NGTLDS,
}


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 2022
    #: Probability an emitted FQDN is the bare base domain.
    p_apex: float = 0.40


class DomainCorpus:
    """Deterministic, index-addressable synthetic CT-log corpus."""

    def __init__(self, config: CorpusConfig | None = None):
        self.config = config or CorpusConfig()

    def _family(self, index: int) -> int:
        """FQDNs are folded into families of ~2.5 sharing a base domain,
        matching the paper's 234M FQDNs over 93M base domains."""
        return int(index / FQDNS_PER_DOMAIN)

    def _draws(self, family: int) -> tuple[str, str, str]:
        """(base domain, tld, class) of a family, its TLD following
        Table 3 weights, so that all FQDNs of one base domain share it."""
        seed = self.config.seed
        cls = rand.weighted_choice(seed, TLD_CLASS_WEIGHTS, "tldclass", family)
        tld = rand.weighted_choice(seed, _CLASS_TLDS[cls], "tld", cls, family)
        token = rand.h64(seed, "base", tld, family) % 10_000_000
        return f"d{token}-{family}.{tld}", tld, cls

    def _walk(self, start: int) -> Iterator[tuple[int, str, str, str]]:
        """(index, base domain, tld, class) from ``start`` on, drawing
        each family once rather than once per index."""
        for family, indices in itertools.groupby(itertools.count(start), self._family):
            draws = self._draws(family)
            for index in indices:
                yield (index, *draws)

    def base_domain(self, index: int) -> str:
        """The registrable domain the index-th FQDN belongs to."""
        return self._draws(self._family(index))[0]

    def fqdn(self, index: int) -> str:
        """The index-th fully qualified domain name."""
        return self._leaf(index, self.base_domain(index))

    def _leaf(self, index: int, base: str) -> str:
        seed = self.config.seed
        if rand.uniform(seed, "apex", index) < self.config.p_apex:
            return base
        label = rand.choice(seed, SUBDOMAIN_LABELS, "sub", index)
        return f"{label}.{base}"

    def fqdns(self, count: int, start: int = 0) -> Iterator[str]:
        for index, base, _tld, _cls in itertools.islice(self._walk(start), count):
            yield self._leaf(index, base)

    def base_domains(self, count: int, start: int = 0) -> Iterator[str]:
        """Distinct base domains (for base-domain studies like CAA)."""
        seen: set[str] = set()
        walk = self._walk(start)
        while len(seen) < count:
            _index, base, _tld, _cls = next(walk)
            if base not in seen:
                seen.add(base)
                yield base


@dataclass
class CorpusCensus:
    """Table 3: corpus breakdown by TLD class."""

    fqdns: dict[str, int]
    domains: dict[str, int]
    tlds: dict[str, int]

    def row(self, cls: str) -> tuple[int, int, int]:
        return self.fqdns[cls], self.domains[cls], self.tlds[cls]

    @property
    def total_fqdns(self) -> int:
        return sum(self.fqdns.values())

    @property
    def total_domains(self) -> int:
        return sum(self.domains.values())


def census(corpus: DomainCorpus, sample: int) -> CorpusCensus:
    """Tabulate a corpus prefix the way Table 3 does."""
    fqdns = {"legacy": 0, "cc": 0, "ng": 0}
    domains_seen: dict[str, set[str]] = {"legacy": set(), "cc": set(), "ng": set()}
    tlds_seen: dict[str, set[str]] = {"legacy": set(), "cc": set(), "ng": set()}
    for _index, base, tld, cls in itertools.islice(corpus._walk(0), sample):
        fqdns[cls] += 1
        domains_seen[cls].add(base)
        tlds_seen[cls].add(tld)
    return CorpusCensus(
        fqdns=fqdns,
        domains={cls: len(values) for cls, values in domains_seen.items()},
        tlds={cls: len(values) for cls, values in tlds_seen.items()},
    )

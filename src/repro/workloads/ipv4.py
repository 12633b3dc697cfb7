"""IPv4 PTR scan targets.

The paper queries PTR records for the full public IPv4 space (3.7B
addresses).  Like ZMap, targets are emitted in a pseudorandom
permutation so load spreads across reverse zones; the permutation is a
bijective affine map over the 32-bit space (deterministic, seekable,
zero memory)."""

from __future__ import annotations

from typing import Iterator

#: Multiplier for the affine permutation: any odd constant is a
#: bijection mod 2**32; this one mixes octets well.
_MULTIPLIER = 2_654_435_761  # Knuth's golden-ratio hash constant (odd)

#: First octets excluded as non-public (loopback, RFC1918 10/8, etc.).
_EXCLUDED_FIRST_OCTETS = frozenset({0, 10, 127} | set(range(224, 256)))


def is_public(first_octet: int) -> bool:
    """Whether addresses with this first octet are publicly routable."""
    return first_octet not in _EXCLUDED_FIRST_OCTETS


def permuted_ipv4(count: int, seed: int = 0, start: int = 0) -> Iterator[str]:
    """Yield ``count`` public IPv4 addresses in permuted order.

    ``start`` allows resuming/partitioning a scan, like ZMap shards.
    """
    emitted = 0
    index = start
    while emitted < count:
        value = (_MULTIPLIER * index + seed) & 0xFFFFFFFF
        index += 1
        first = value >> 24
        if not is_public(first):
            continue
        yield f"{first}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"
        emitted += 1


#: The paper's 10M-lookup reverse scans revisit each /16 zone ~150
#: times.  Folding targets into eight /8s preserves that reuse density
#: at scaled lookup counts (2048 /16 zones).
_DENSE_FIRST_OCTETS = (23, 34, 45, 52, 64, 77, 81, 89)


def dense_ptr_targets(count: int, offset: int, seed: int = 2022) -> list[str]:
    """``count`` permuted IPv4 targets from index ``offset``, folded into
    a dense /8 subset: the Figure 2 cache-study workload.  The default
    seed is the one every benchmark runs under."""
    targets = []
    for ip in permuted_ipv4(count, seed=seed, start=offset):
        first, rest = ip.split(".", 1)
        folded = _DENSE_FIRST_OCTETS[int(first) % len(_DENSE_FIRST_OCTETS)]
        targets.append(f"{folded}.{rest}")
    return targets


def ptr_names(count: int, seed: int = 0, start: int = 0) -> Iterator[str]:
    """The same targets as in-addr.arpa names (raw PTR module input)."""
    for ip in permuted_ipv4(count, seed, start):
        a, b, c, d = ip.split(".")
        yield f"{d}.{c}.{b}.{a}.in-addr.arpa"


#: Size of the public IPv4 space the paper scans.
PUBLIC_IPV4_COUNT = 3_700_000_000

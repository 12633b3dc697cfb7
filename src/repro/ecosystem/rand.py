"""Deterministic per-name randomness.

Every stochastic property of the simulated Internet (does this domain
exist? which provider hosts it? is this nameserver flaky?) is a pure
function of (global seed, domain name, property tag).  That makes zone
synthesis O(1) in memory — any of 2**64 names has a well-defined zone —
and makes every experiment reproducible.
"""

from __future__ import annotations

import struct
from hashlib import blake2b

_MAX = float(1 << 64)

#: Packed representations of the handful of global seeds in play; the
#: encode is hoisted out of the (very hot) h64 body.
_PACKED_SEEDS: dict[int, bytes] = {}


def h64(seed: int, *parts: object) -> int:
    """A 64-bit hash of (seed, parts).

    Feeds blake2b one pre-joined buffer: the packed seed, then each part
    (``bytes`` as is, anything else as its ``str`` in UTF-8) followed by
    a zero byte.  That is the byte stream of the historical per-part
    ``update`` loop, so every digest — and therefore every synthesised
    zone — is unchanged.  Parts that are all ``str`` (most draws: a name
    key and a tag) are joined and encoded in one step; a ``str`` part is
    hashed as its characters.  Any other part costs a caught
    ``TypeError`` first, so a hot draw indexed by an ``int`` passes its
    decimal text instead (the same bytes, so the same draw)."""
    packed = _PACKED_SEEDS.get(seed)
    if packed is None:
        packed = _PACKED_SEEDS[seed] = struct.pack("<q", seed)
    if parts:
        try:
            buf = packed + "\x00".join(parts).encode("utf-8") + b"\x00"
        except TypeError:  # an int or bytes part: encode part by part
            buf = packed + b"\x00".join(
                [part if isinstance(part, bytes) else str(part).encode("utf-8") for part in parts]
            ) + b"\x00"
    else:
        buf = packed
    return int.from_bytes(blake2b(buf, digest_size=8).digest(), "little")


def uniform(seed: int, *parts: object) -> float:
    """Deterministic draw in [0, 1)."""
    return h64(seed, *parts) / _MAX


def randint(seed: int, low: int, high: int, *parts: object) -> int:
    """Deterministic integer in [low, high]."""
    if high < low:
        raise ValueError("empty range")
    return low + h64(seed, *parts) % (high - low + 1)


def choice(seed: int, options: list, *parts: object):
    """Deterministic pick from a non-empty list."""
    return options[h64(seed, *parts) % len(options)]


class Weights:
    """Options, each with a weight, and their total (summed once, where
    the table is built, not on every draw)."""

    __slots__ = ("pairs", "total")

    def __init__(self, pairs):
        self.pairs: tuple[tuple[object, float], ...] = tuple(pairs)
        self.total = sum(weight for _, weight in self.pairs)


def weighted_choice(seed: int, weighted: Weights, *parts: object):
    """Deterministic pick where each option carries a weight."""
    point = uniform(seed, *parts) * weighted.total
    acc = 0.0
    pairs = weighted.pairs
    for option, weight in pairs:
        acc += weight
        if point < acc:
            return option
    return pairs[-1][0]

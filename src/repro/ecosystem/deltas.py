"""Zone-delta publication: in-place mutation of the simulated Internet.

A long-lived resolver service faces a moving target: zones re-delegate,
records change, and a cache built yesterday is partially wrong today.
This module gives the simulated universe that behaviour without
breaking its two load-bearing properties:

* **Determinism.**  A base domain's zone is a pure function of
  ``(seed, name, generation)``; publishing a delta just advances the
  generation counter in the :class:`~repro.ecosystem.zonegen.ZoneSynthesizer`,
  so two runs that publish the same deltas at the same virtual times see
  byte-identical universes.  Batch scans never publish, their generation
  map stays empty, and the synthesiser's hot path is untouched.
* **Nothing to flush.**  No authoritative server keeps a response:
  each reply is built from the synthesiser for the query in hand, and
  the synthesiser's own memos (``_profile``, ``_dnssec_profile``) carry
  the generation in their key.  The query after a delta is therefore
  answered from the new generation by every server that can speak for
  the zone (TLD referral, provider answer, glue, CNAME chases into it)
  with no server visited; what a delta leaves stale is the *resolver's*
  cache, which the service revalidates incrementally.

What a delta changes: the domain's delegation (provider, NS set,
per-server flakiness), its leaf content (host addresses, MX/SPF/DMARC
posture, CAA, www-CNAME shape) — everything except its *registration*:
an existing domain stays existing, so a delta models a zone update or
transfer, not a takedown.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnslib import Name

__all__ = ["ZoneDelta", "publish_zone_delta"]


@dataclass(frozen=True)
class ZoneDelta:
    """One published mutation, as recorded in service event logs."""

    seq: int
    #: Virtual-clock time of publication.
    time: float
    #: The mutated base domain (presentation text, no final dot).
    base: str
    #: The zone's generation after this delta (1 = first mutation).
    generation: int

    def to_row(self) -> dict:
        return {
            "event": "zone_delta",
            "seq": self.seq,
            "t": round(self.time, 6),
            "base": self.base,
            "generation": self.generation,
        }


def publish_zone_delta(internet, base: Name | str) -> int:
    """Mutate one base domain's zone in place.

    Advances the zone's generation in the universe's synthesiser (the
    next ``profile()``/``host_addresses()`` calls re-derive delegation
    and content under the new generation; no server holds a pre-delta
    response, so nothing is flushed).  Returns the new generation
    number.

    The caller decides *when* (virtual time) and *what* (which base);
    this function is pure bookkeeping, so it is equally usable by the
    resolver service, the differential oracle's mirror
    (:meth:`repro.oracle.DifferentialOracle.note_zone_change`), and
    tests.
    """
    if isinstance(base, str):
        base = Name.from_text(base)
    synth = internet.synth
    registrable = synth.base_domain_of(base)
    if registrable is None:
        raise ValueError(f"{base.to_text()} is not under a known TLD")
    return synth.bump_generation(registrable)

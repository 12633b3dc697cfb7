"""DNSSEC chain-of-trust validation for the iterative resolver.

The validator runs as a post-pass over a finished lookup (RFC 4035
section 4 shape, simplified to the synthetic universe's single-key
zones): it walks the chain of trust from the root trust anchor down to
each answer RRset's signer and classifies the lookup as

* ``secure`` — every answer RRset verifies under an unbroken chain,
* ``insecure`` — the chain ends at a proven unsigned delegation (an
  authenticated NSEC denial of DS, or an island of trust whose parent
  never published a DS),
* ``bogus`` — a broken chain: DS/DNSKEY mismatch, failed or expired
  signature, or signed-zone data arriving without its RRSIGs,
* ``indeterminate`` — validation could not complete (query budget
  exhausted, chain fetches timed out).

What the walk needs from the network is a DNSKEY RRset per signed zone
and, per cut, the parent's word on the child's DS.  The second it
normally already has: a DO-bit referral from a signed parent carries
the DS RRset — or the NSEC proving there is none — with its RRSIG
(RFC 4035 section 3.1.4.1), and the machine keeps those records on the
lookup (:class:`ChainEvidence`) as it follows the referral.  The
validator judges a carried proof exactly as it judges a fetched DS
answer — signature checked under the parent's already-validated key —
and sends the explicit DS query only when no proof rode along or the
carried one does not hold up.  A negative answer likewise takes the
chain status of the zone whose server issued it, instead of probing DS
at every label of a name that zone just said does not exist.

Per-zone outcomes (and the validated DNSKEY material) are memoised in
the shared cache under ``("sec", zone)`` keys, each for as long as the
records that proved it stay provable, so warm lookups revalidate from
cache without re-walking the chain — and so a zone delta's
``invalidate_subtree`` drops the memo together with the stale
delegations below the cut.

The crypto primitives are the synthetic hash-signature scheme from
:mod:`repro.ecosystem.dnssec`; the *state machine* here is the part the
paper's toolkit would run against real RSA/ECDSA material.
"""

from __future__ import annotations

from ..dnslib import Name, RRType
from ..ecosystem.dnssec import DNSKEY_TTL, ds_digest, ds_matches, verify_rrsig
from .status import Status

#: Every RRset verified under an unbroken chain from the trust anchor.
SECURE = "secure"
#: The chain ends at a proven unsigned delegation.
INSECURE = "insecure"
#: Broken chain: bad DS, failed/expired signature, or stripped RRSIGs.
BOGUS = "bogus"
#: Validation could not complete.
INDETERMINATE = "indeterminate"

SECURITY_STATES = (SECURE, INSECURE, BOGUS, INDETERMINATE)

#: Internal zone-walk outcome: the DS probe proved the name is not a
#: zone cut at all (nodata NSEC without the NS type bit, or the name
#: does not exist) — the enclosing zone's status carries through.
_TRANSPARENT = "transparent"

#: Aggregation severity: one bogus RRset poisons the lookup, one
#: incomplete check degrades it, one insecure RRset caps it.
_SEVERITY = {SECURE: 0, INSECURE: 1, INDETERMINATE: 2, BOGUS: 3}

_NSEC = int(RRType.NSEC)
_RRSIG = int(RRType.RRSIG)
_DNSKEY = int(RRType.DNSKEY)
_DS = int(RRType.DS)
_NS = int(RRType.NS)


def aggregate(outcomes) -> str:
    """Fold per-RRset outcomes into one lookup-level status."""
    worst = SECURE
    for outcome in outcomes:
        if _SEVERITY[outcome] > _SEVERITY[worst]:
            worst = outcome
    return worst


#: :class:`ChainEvidence`'s per-lookup counters, which a scan sums.
CHAIN_COUNTS = ("chain_queries", "proofs_harvested", "proof_fallbacks")


class ChainEvidence:
    """What one validating lookup learned about the chain of trust on
    its way down, and what validating it then cost.

    The machine fills ``proofs`` and ``last_zone`` while resolving (a
    lookup without ``dnssec`` has no such object at all) and takes the
    object off the lookup while the validator reads them, so the
    validator's own chain fetches add nothing to either; the counters
    are what a scan sums.
    """

    __slots__ = ("proofs", "last_zone", "proofs_harvested", "proof_fallbacks", "chain_queries")

    def __init__(self):
        #: Per referred zone, the DS or NSEC records (plus covering
        #: RRSIGs) its parent's referral carried.  Unverified: trust is
        #: the validator's call.
        self.proofs: dict[Name, list] = {}
        #: The zone whose server spoke last — for a lookup that ends in
        #: NXDOMAIN/NODATA, the zone that issued the denial.
        self.last_zone: Name | None = None
        #: Referrals that carried a proof.
        self.proofs_harvested = 0
        #: Cuts the validator had to send an explicit DS query for.
        self.proof_fallbacks = 0
        #: Every query validation itself sent (DS and DNSKEY fetches).
        self.chain_queries = 0

    def harvest(self, zone: Name, authorities) -> None:
        """Keep a referral's DS / no-DS proof for ``zone``: only records
        owned by the referred zone itself, so a server can speak for no
        cut but the one it is delegating."""
        proof = [
            record
            for record in authorities
            if record.name == zone
            and (
                int(record.rrtype) in (_DS, _NSEC)
                or (int(record.rrtype) == _RRSIG and record.rdata.type_covered in (_DS, _NSEC))
            )
        ]
        if proof:
            self.proofs[zone] = proof
            self.proofs_harvested += 1


class Validator:
    """One chain-of-trust walk over one finished lookup.

    Drives sub-resolutions (DNSKEY fetches, and DS fetches for cuts no
    referral vouched for) through the owning :class:`IterativeMachine`'s
    ``_walk`` against the lookup's own query budget, so
    validation cost is bounded by the same ``max_queries`` cap as
    resolution itself.
    """

    def __init__(self, machine):
        self.machine = machine
        self.cache = machine.cache
        self.config = machine.config
        #: Validated DNSKEY material for secure zones, by zone.
        self._keys: dict[Name, bytes] = {}

    # -- plumbing ----------------------------------------------------------

    def _now(self) -> float | None:
        """Absolute validation time, or None when the cache has no
        epoch mapping (then signature windows are not checked)."""
        if self.cache.epoch_base is None:
            return None
        return self.cache.epoch_now()

    def _fetch(self, name: Name, qtype: RRType):
        """A chain fetch through the owning machine (answers, status)."""
        return (yield from self.machine._walk(name, qtype, self._result, self._budget))

    def _provable_for(self, records, sigs, signer: Name, key: bytes | None) -> int | None:
        """Seconds ``records`` stay provable — their TTL, clamped to the
        verifying RRSIG's remaining validity — or None when no RRSIG by
        ``signer`` verifies under ``key``."""
        if key is None or not records:
            return None
        now = self._now()
        for sig in sigs:
            rdata = sig.rdata
            if rdata.signer == signer and verify_rrsig(rdata, records, key, now):
                ttl = min(record.ttl for record in records)
                return ttl if now is None else min(ttl, rdata.expiration - now)
        return None

    # -- entry point -------------------------------------------------------

    def validate(self, result, evidence, budget):
        """The lookup-level security status for ``result``, given the
        ``evidence`` its resolution gathered."""
        self._result = result
        self._budget = budget
        self._evidence = evidence
        status = result.status
        if status not in (Status.NOERROR, Status.NXDOMAIN):
            return INDETERMINATE  # nothing resolvable to validate
        rrsets, rrsigs = _group_answers(result.answers)
        outcomes = []
        for (owner_key, rtype), records in rrsets.items():
            sigs = rrsigs.get((owner_key, rtype), [])
            outcome = yield from self._rrset_security(records, sigs)
            outcomes.append(outcome)
        if not rrsets or status == Status.NXDOMAIN:
            # A denial (NODATA, or NXDOMAIN — possibly at the end of a
            # CNAME chain) is as good as the zone that issued it: from
            # inside a secure chain it is authenticated, from below an
            # unsigned cut it is insecure.
            _, denial = yield from self._nearest_cut(self._evidence.last_zone)
            outcomes.append(denial)
        return aggregate(outcomes)

    # -- RRset-level validation --------------------------------------------

    def _rrset_security(self, records, sigs):
        """Validate one (owner, type) RRset against its RRSIGs: any one
        that verifies under a secure signer chain makes it secure (a
        rolled-key RRSIG may sit beside the current one); otherwise the
        worst that can be said of the signers decides."""
        if not sigs:
            # Unsigned data: fine below an insecure cut, bogus (stripped)
            # under a fully secure chain.
            return (yield from self._chain_security(records[0].name))
        failures = []
        now = self._now()
        for sig in sigs:
            signer = sig.rdata.signer
            status = yield from self._zone_security(signer)
            if status == SECURE:
                key = self._keys.get(signer)
                if key is None:
                    status = INDETERMINATE
                elif verify_rrsig(sig.rdata, records, key, now):
                    return SECURE
                else:
                    status = BOGUS
            elif status == _TRANSPARENT:
                status = INSECURE
            failures.append(status)
        return aggregate(failures)

    def _chain_security(self, name: Name):
        """Unsigned data at ``name``: walk every cut from the root down."""
        labels = name.labels
        for depth in range(len(labels) + 1):
            zone = Name.intern(labels[len(labels) - depth :])
            status = yield from self._zone_security(zone)
            if status == _TRANSPARENT:
                continue  # not a cut: still inside the enclosing zone
            if status != SECURE:
                return status
        # Every cut on the path is secure (or transparent): unsigned
        # data under it means the RRSIGs were lost.
        return BOGUS

    # -- zone-level chain walk ---------------------------------------------

    def _nearest_cut(self, zone: Name):
        """The nearest real cut at or above ``zone``: (cut, status)."""
        status = yield from self._zone_security(zone)
        while status == _TRANSPARENT and zone.labels:
            zone = zone.parent()
            status = yield from self._zone_security(zone)
        return zone, status

    def _zone_security(self, zone: Name):
        """The chain-of-trust status of one zone cut, memoised."""
        cached = self.cache.get_security(zone)
        if cached is not None:
            status, key = cached
            if key:
                self._keys[zone] = key
            return status
        status, key, lifetime = yield from self._walk_zone(zone)
        if key:
            self._keys[zone] = key
        if lifetime is not None:
            self.cache.put_security(zone, status, key, min(lifetime, DNSKEY_TTL))
        return status

    def _walk_zone(self, zone: Name):
        """``(status, validated key, lifetime)`` for one cut.

        The lifetime is how long the records that proved the status
        stay provable; None means there is nothing to memoise — a
        transient failure, or a status inherited from a parent whose own
        memo already answers.
        """
        if zone.is_root:
            return (yield from self._walk_root())

        parent, parent_status = yield from self._nearest_cut(zone.parent())
        if parent_status != SECURE:
            # Below an insecure or broken cut every descendant inherits
            # the parent's fate; nothing deeper can upgrade it.
            return parent_status, b"", None

        evidence = self._evidence
        carried = evidence.proofs.get(zone)
        judged = self._judge_ds(carried, parent) if carried else None
        if judged is None or judged[0] in (BOGUS, _TRANSPARENT):
            # No proof rode the referral, or it does not hold up (a
            # referral cannot say its own target is no cut): ask.
            evidence.proof_fallbacks += 1
            answers, status = yield from self._fetch(zone, RRType.DS)
            if status == Status.NXDOMAIN:
                return _TRANSPARENT, b"", None  # name doesn't exist: not a cut
            if status != Status.NOERROR:
                return INDETERMINATE, b"", None
            judged = self._judge_ds(answers, parent)
        status, ds_records, lifetime = judged
        if status != SECURE:
            return status, b"", lifetime

        key_answers, key_status = yield from self._fetch(zone, RRType.DNSKEY)
        if key_status != Status.NOERROR:
            return INDETERMINATE, b"", None
        dnskeys = [r for r in key_answers if int(r.rrtype) == _DNSKEY]
        if not dnskeys:
            return BOGUS, b"", lifetime  # DS promises a key the zone won't serve
        key = dnskeys[0].rdata.public_key
        lifetime = min(lifetime, *(r.ttl for r in dnskeys))
        if not any(ds_matches(ds.rdata, key, zone) for ds in ds_records):
            return BOGUS, b"", lifetime  # botched rollover: DS↔DNSKEY mismatch
        key_lifetime = self._provable_for(dnskeys, _covering(key_answers, _DNSKEY), zone, key)
        if key_lifetime is None:
            return BOGUS, b"", lifetime
        return SECURE, key, min(lifetime, key_lifetime)

    def _walk_root(self):
        """Bootstrap: the root DNSKEY against the configured anchor."""
        root = Name.root()
        answers, status = yield from self._fetch(root, RRType.DNSKEY)
        if status != Status.NOERROR:
            return INDETERMINATE, b"", None
        dnskeys = [r for r in answers if int(r.rrtype) == _DNSKEY]
        if not dnskeys:
            return BOGUS, b"", DNSKEY_TTL
        key = dnskeys[0].rdata.public_key
        ttl = min(r.ttl for r in dnskeys)
        anchor = self.config.trust_anchor
        if anchor is not None and ds_digest(root, key) != anchor:
            return BOGUS, b"", ttl
        lifetime = self._provable_for(dnskeys, _covering(answers, _DNSKEY), root, key)
        if lifetime is None:
            return BOGUS, b"", ttl
        return SECURE, key, lifetime

    def _judge_ds(self, records, parent: Name):
        """What the (secure) parent's DS records prove about a cut —
        fetched as a DS answer or carried on the referral, the same
        check: ``(status, DS RRset, lifetime)``.

        A DS RRset signed by the parent makes the cut ``SECURE`` so far
        (its DNSKEY still has to match).  A signed NSEC instead decides
        by its type bitmap: the NS bit means the name *is* a delegation
        with no DS — a proven insecure cut; no NS bit means the name is
        not a zone cut at all (the walk continues through it).  Nothing
        the parent's validated key vouches for means the records could
        have been forged or stripped: bogus.
        """
        ds_records = [r for r in records if int(r.rrtype) == _DS]
        covered = _DS if ds_records else _NSEC
        rrset = ds_records or [r for r in records if int(r.rrtype) == _NSEC]
        lifetime = self._provable_for(
            rrset, _covering(records, covered), parent, self._keys.get(parent)
        )
        if lifetime is None:
            ttl = min((r.ttl for r in rrset), default=DNSKEY_TTL)
            return BOGUS, (), ttl
        if ds_records:
            return SECURE, ds_records, lifetime
        if _NS in rrset[0].rdata.types:
            return INSECURE, (), lifetime
        return _TRANSPARENT, (), lifetime


def _covering(records, covered: int) -> list:
    """The RRSIGs among ``records`` that cover type ``covered``."""
    return [
        r for r in records if int(r.rrtype) == _RRSIG and r.rdata.type_covered == covered
    ]


def _group_answers(answers):
    """Split a lookup's answers into RRsets and their covering RRSIGs.

    Both maps are keyed ``(owner key_text, type)`` — for RRSIGs the
    type is the *covered* type, so lookup is a direct join.
    """
    rrsets: dict[tuple, list] = {}
    rrsigs: dict[tuple, list] = {}
    for record in answers:
        if int(record.rrtype) == _RRSIG:
            key = (record.name.key_text(), int(record.rdata.type_covered))
            rrsigs.setdefault(key, []).append(record)
        else:
            key = (record.name.key_text(), int(record.rrtype))
            rrsets.setdefault(key, []).append(record)
    return rrsets, rrsigs


def trust_anchor_for(synth) -> bytes:
    """The root trust anchor for a :class:`ZoneSynthesizer`'s universe —
    what a real deployment would carry as the IANA root anchor file."""
    root = Name.root()
    return ds_digest(root, synth.dnssec_profile(root).key)

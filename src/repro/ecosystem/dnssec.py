"""Synthetic DNSSEC material for the simulated Internet.

Real public-key cryptography would dominate every signed response, so
the simulated universe uses *hash signatures*: a zone's "private key"
and "public key" are the same seed-derived byte string, and an RRSIG's
signature is a keyed blake2b digest over the canonical RRset.  A
validator holding the DNSKEY recomputes the digest and compares; a
validator without it (or with a rolled key) cannot.  This preserves
every property the resolver-side state machine cares about — DS↔DNSKEY
binding, signature↔key binding, expiry windows, unverifiable data after
stripping or desync — at hash cost, and keeps all material a pure
function of (seed, zone, generation) so the reference oracle can
re-derive it independently.

Algorithm number 253 (PRIVATEDNS, RFC 4034 appendix A.1) marks the
records as deliberately non-standard.
"""

from __future__ import annotations

from hashlib import blake2b

from ..dnslib import DNSClass, Name, ResourceRecord, RRType
from ..dnslib.rdata.dnssec import DNSKEY, DS, NSEC, RRSIG
from ..dnslib.wire import WireWriter
from . import rand

#: Virtual-clock zero maps to this absolute epoch (2022-10-25, the
#: paper's measurement window) when stamping RRSIG inception/expiration.
EPOCH_BASE = 1_666_656_000

#: RFC 4034 appendix A.1 private algorithm; protocol is always 3.
ALGORITHM = 253
PROTOCOL = 3
#: Digest type is notionally SHA-256-shaped (type 2) but blake2b-based.
DIGEST_TYPE = 2
#: DNSKEY flags: zone key + SEP (one combined KSK/ZSK per zone).
KEY_FLAGS = 257

DNSKEY_TTL = 3600
DS_TTL = 3600
NSEC_TTL = 300


def zone_key_bytes(seed: int, zone: Name, generation: int = 0) -> bytes:
    """The zone's 16-byte key material — pure in (seed, zone, generation).

    Salting with the generation means ``bump_generation`` rolls the key:
    cached RRSIGs made by the old key no longer verify against the new
    DNSKEY, which is exactly the stale-chain hazard the delta machinery
    must flush (and the ``rollover_desync`` fault directive emulates).
    """
    word = rand.h64(seed, "dnskey", zone.key_text(), generation)
    return blake2b(word.to_bytes(8, "little"), digest_size=16).digest()


def key_tag(public_key: bytes) -> int:
    """A stable 16-bit identifier for the key (not the RFC 4034 sum)."""
    return int.from_bytes(blake2b(public_key, digest_size=2).digest(), "big")


def make_dnskey(zone: Name, public_key: bytes) -> ResourceRecord:
    """The zone's apex DNSKEY record."""
    return ResourceRecord(
        zone, RRType.DNSKEY, DNSClass.IN, DNSKEY_TTL,
        DNSKEY(KEY_FLAGS, PROTOCOL, ALGORITHM, public_key),
    )


def ds_digest(child_zone: Name, public_key: bytes) -> bytes:
    """The parent-side digest binding a child zone to its DNSKEY."""
    h = blake2b(digest_size=16)
    h.update(b"ds|")
    h.update(child_zone.key_text().encode("ascii"))
    h.update(b"|")
    h.update(public_key)
    return h.digest()


def make_ds(child_zone: Name, public_key: bytes, broken: bool = False) -> ResourceRecord:
    """The DS record the parent serves for ``child_zone``.

    ``broken=True`` plants a botched-rollover chain: digest bytes are
    flipped, so the DS can never match the child's DNSKEY (Bogus).
    """
    digest = ds_digest(child_zone, public_key)
    if broken:
        digest = bytes(b ^ 0xFF for b in digest)
    return ResourceRecord(
        child_zone, RRType.DS, DNSClass.IN, DS_TTL,
        DS(key_tag(public_key), ALGORITHM, DIGEST_TYPE, digest),
    )


def ds_matches(ds_rdata, public_key: bytes, child_zone: Name) -> bool:
    """Does a parent-side DS bind this child DNSKEY?"""
    return ds_rdata.digest == ds_digest(child_zone, public_key)


def _rrset_digest(public_key: bytes, signer: Name, records, expiration: int, inception: int) -> bytes:
    """Keyed digest over the canonical RRset — the "signature" bytes."""
    first = records[0]
    h = blake2b(digest_size=24)
    h.update(public_key)
    h.update(b"|")
    h.update(signer.key_text().encode("ascii"))
    h.update(b"|")
    h.update(first.name.key_text().encode("ascii"))
    h.update(int(first.rrtype).to_bytes(2, "big"))
    h.update(expiration.to_bytes(4, "big"))
    h.update(inception.to_bytes(4, "big"))
    for wire in sorted(_rdata_wire(record) for record in records):
        h.update(b"|")
        h.update(wire)
    return h.digest()


def _rdata_wire(record: ResourceRecord) -> bytes:
    writer = WireWriter(enable_compression=False)
    record.rdata.to_wire(writer)
    return writer.getvalue()


def sign_rrset(
    records,
    signer: Name,
    public_key: bytes,
    inception: int,
    expiration: int,
) -> ResourceRecord:
    """An RRSIG covering ``records`` (same owner/type), made by ``signer``."""
    first = records[0]
    signature = _rrset_digest(public_key, signer, records, expiration, inception)
    rdata = RRSIG(
        int(first.rrtype),
        ALGORITHM,
        len(first.name.labels),
        first.ttl,
        expiration,
        inception,
        key_tag(public_key),
        signer,
        signature,
    )
    return ResourceRecord(first.name, RRType.RRSIG, DNSClass.IN, first.ttl, rdata)


def verify_rrsig(rrsig_rdata, records, public_key: bytes, now_epoch: float | None = None) -> bool:
    """Does the signature verify against this RRset and key (and time)?"""
    if not records:
        return False
    if now_epoch is not None and not (rrsig_rdata.inception <= now_epoch <= rrsig_rdata.expiration):
        return False
    expected = _rrset_digest(
        public_key, rrsig_rdata.signer, records,
        rrsig_rdata.expiration, rrsig_rdata.inception,
    )
    return rrsig_rdata.signature == expected


def make_nsec(owner: Name, zone: Name, types: tuple[int, ...]) -> ResourceRecord:
    """A single synthetic NSEC proving ``owner``'s type set (or absence).

    The simulated universe has no materialised zone file to walk, so the
    "next name" is a deterministic fiction one label below the owner —
    enough for decode/encode realism and for validators to observe
    authenticated denial, without a full canonical ordering.
    """
    next_name = owner.child(b"\x00")
    return ResourceRecord(
        owner, RRType.NSEC, DNSClass.IN, NSEC_TTL,
        NSEC(next_name, types + (int(RRType.RRSIG), int(RRType.NSEC))),
    )

"""Lookup status codes, mirroring ZDNS's output vocabulary."""

from __future__ import annotations

import enum

from ..dnslib import Rcode


class Status(str, enum.Enum):
    """Outcome of one lookup, as emitted in the JSON ``status`` field."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    SERVFAIL = "SERVFAIL"
    REFUSED = "REFUSED"
    TRUNCATED = "TRUNCATED"
    TIMEOUT = "TIMEOUT"
    ITERATIVE_TIMEOUT = "ITERATIVE_TIMEOUT"
    ITER_LIMIT = "ITER_LIMIT"
    RATE_LIMITED = "RATE_LIMITED"
    FORMERR = "FORMERR"
    ERROR = "ERROR"

    #: ``str(status)`` is the value ("NOERROR"), made in C: a member of
    #: a ``str`` enum is its value's characters.
    __str__ = str.__str__

    @property
    def is_success(self) -> bool:
        """The paper counts NOERROR *and* NXDOMAIN as successes
        (Section 4.1: 'a NOERROR or NXDOMAIN response')."""
        return self in (Status.NOERROR, Status.NXDOMAIN)


#: Statuses with resolution *meaning*; everything else is a failure to
#: resolve (timeouts, lame zones, unreachable servers, chase limits).
SEMANTIC_STATUSES = frozenset({"NOERROR", "NXDOMAIN"})


_STATUS_BY_RCODE = {
    int(Rcode.NOERROR): Status.NOERROR,
    int(Rcode.NXDOMAIN): Status.NXDOMAIN,
    int(Rcode.SERVFAIL): Status.SERVFAIL,
    int(Rcode.REFUSED): Status.REFUSED,
    int(Rcode.FORMERR): Status.FORMERR,
}


def status_from_rcode(rcode: Rcode | int) -> Status:
    """Map a DNS response code onto a lookup Status."""
    return _STATUS_BY_RCODE.get(int(rcode), Status.ERROR)

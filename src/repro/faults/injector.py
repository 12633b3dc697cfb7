"""The fault injector: executes a :class:`FaultPlan` against the
simulated network.

The injector hangs off :class:`repro.net.SimNetwork` (``attach()``) and
is consulted at three points of every simulated exchange:

* :meth:`on_send` — before the request leaves the client: blackouts,
  flaps, correlated/burst loss, brownout loss, latency spikes;
* :meth:`at_server` — when the request reaches the server: rcode storms
  answer *instead of* the real zone;
* :meth:`on_reply` — before the response is delivered: inbound loss,
  forced truncation, malformed/garbage replies.

Determinism contract: the injector draws from its **own**
``random.Random(chaos_seed)``, never from the network's RNG, so

* the same ``(seed, chaos_seed, plan)`` replays bit-identically, and
* an *empty* plan is byte-for-byte equivalent to no injector at all —
  every hook returns before touching the RNG when no directive matches.

Per-directive activation counts are kept as plain ints (the hooks sit
on the packet hot path) and published one-shot into the PR 2 metrics
registry via :meth:`publish_metrics` (scope ``faults``).
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..dnslib import Flags, Message, Name, Question, Rcode, RRType
from ..dnslib.message import ResourceRecord
from ..net.links import GilbertElliottLoss
from .plan import (
    Blackout,
    Brownout,
    BurstLoss,
    FaultPlan,
    Flap,
    Garbage,
    LatencySpike,
    Loss,
    RcodeStorm,
    RolloverDesync,
    StripRrsig,
    Truncate,
)

__all__ = ["FaultInjector", "SendVerdict"]

_RCODES = {
    "SERVFAIL": Rcode.SERVFAIL,
    "REFUSED": Rcode.REFUSED,
    "NOTIMP": Rcode.NOTIMP,
    "FORMERR": Rcode.FORMERR,
}

#: Owner name echoed by "garbage" replies — never a real query name.
_GARBAGE_NAME = Name.from_text("garbage.invalid.")


class SendVerdict:
    """Outcome of the outbound hook for one packet."""

    __slots__ = ("drop", "extra_delay", "latency_factor")

    def __init__(self, drop: bool = False, extra_delay: float = 0.0,
                 latency_factor: float = 1.0):
        self.drop = drop
        self.extra_delay = extra_delay
        self.latency_factor = latency_factor


class FaultInjector:
    """Evaluates a fault plan over the virtual clock.

    ``sim`` supplies the clock (directive windows and flap phases are
    virtual-time); ``seed`` seeds the injector's private RNG.
    """

    def __init__(self, plan: FaultPlan, sim, seed: int = 0):
        self.plan = plan
        self.sim = sim
        self.rng = random.Random(seed)
        self.seed = seed
        #: per-directive activation counts, keyed by ``kind_index``
        self.counts: dict[str, int] = {}
        self._labels: dict[int, str] = {}
        #: Gilbert–Elliott chain per (directive index, server ip)
        self._chains: dict[tuple[int, str], GilbertElliottLoss] = {}
        self._directives = list(enumerate(plan.directives))
        for index, directive in self._directives:
            key = f"{directive.kind}_{index}"
            self._labels[index] = key
            self.counts[key] = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, network) -> "FaultInjector":
        """Install on a :class:`repro.net.SimNetwork`; returns self."""
        network.fault_injector = self
        return self

    def _hit(self, index: int) -> None:
        self.counts[self._labels[index]] += 1

    def _chain(self, index: int, directive: BurstLoss, ip: str) -> GilbertElliottLoss:
        chain = self._chains.get((index, ip))
        if chain is None:
            chain = GilbertElliottLoss(
                p_enter=directive.p_enter,
                p_exit=directive.p_exit,
                loss_good=directive.loss_good,
                loss_bad=directive.loss_bad,
            )
            self._chains[(index, ip)] = chain
        return chain

    # -- hooks (called by SimNetwork._query) ----------------------------------

    def on_send(self, dst_ip: str, protocol: str) -> SendVerdict | None:
        """Outbound fate of one packet; None = untouched (fast path)."""
        now = self.sim.now
        verdict = None
        for index, directive in self._directives:
            if not (directive.active(now) and directive.matches(dst_ip)):
                continue
            kind = type(directive)
            if kind is Blackout:
                self._hit(index)
                return SendVerdict(drop=True)
            if kind is Flap:
                if directive.down(now):
                    self._hit(index)
                    return SendVerdict(drop=True)
            elif kind is BurstLoss:
                if self._chain(index, directive, dst_ip).dropped(self.rng):
                    self._hit(index)
                    return SendVerdict(drop=True)
            elif kind is Loss:
                if self.rng.random() < directive.probability:
                    self._hit(index)
                    return SendVerdict(drop=True)
            elif kind is Brownout:
                if self.rng.random() < directive.probability:
                    self._hit(index)
                    return SendVerdict(drop=True)
                verdict = verdict or SendVerdict()
                verdict.latency_factor *= directive.latency_factor
            elif kind is LatencySpike:
                self._hit(index)
                verdict = verdict or SendVerdict()
                verdict.extra_delay += directive.extra
                verdict.latency_factor *= directive.factor
        return verdict

    def at_server(self, dst_ip: str, protocol: str, query: Message) -> Message | None:
        """A synthetic reply to use *instead of* the server, or None."""
        now = self.sim.now
        for index, directive in self._directives:
            if type(directive) is not RcodeStorm:
                continue
            if not (directive.active(now) and directive.matches(dst_ip)):
                continue
            if directive.probability < 1.0 and self.rng.random() >= directive.probability:
                continue
            self._hit(index)
            return Message(
                id=query.id,
                flags=Flags(response=True, rcode=_RCODES[directive.rcode]),
                questions=list(query.questions),
            )
        return None

    def on_reply(self, dst_ip: str, protocol: str, query: Message,
                 response: Message) -> Message | None:
        """Inbound fate: the (possibly transformed) response, or None to
        drop it."""
        now = self.sim.now
        for index, directive in self._directives:
            if not (directive.active(now) and directive.matches(dst_ip)):
                continue
            kind = type(directive)
            if kind is Blackout:
                self._hit(index)
                return None
            if kind is Flap:
                if directive.down(now):
                    self._hit(index)
                    return None
            elif kind is BurstLoss:
                if self._chain(index, directive, dst_ip).dropped(self.rng):
                    self._hit(index)
                    return None
            elif kind is Loss:
                if self.rng.random() < directive.probability:
                    self._hit(index)
                    return None
            elif kind is Brownout:
                if self.rng.random() < directive.probability:
                    self._hit(index)
                    return None
            elif kind is Truncate:
                if protocol == "udp" and not response.flags.truncated:
                    if directive.probability >= 1.0 or self.rng.random() < directive.probability:
                        self._hit(index)
                        response = Message(
                            id=response.id,
                            flags=replace(response.flags, truncated=True),
                            questions=list(response.questions),
                        )
            elif kind is StripRrsig:
                # Gate on the reply actually carrying signatures BEFORE
                # drawing: DNSSEC-oblivious traffic must not perturb the
                # RNG stream (byte-identical replays without --dnssec).
                if _carries_rrsig(response):
                    if directive.probability >= 1.0 or self.rng.random() < directive.probability:
                        self._hit(index)
                        response = _strip_rrsigs(response)
            elif kind is RolloverDesync:
                if _carries_rrsig(response):
                    if directive.probability >= 1.0 or self.rng.random() < directive.probability:
                        self._hit(index)
                        response = _desync_rrsigs(response)
            elif kind is Garbage:
                if directive.probability >= 1.0 or self.rng.random() < directive.probability:
                    self._hit(index)
                    response = self._garbage_reply(query)
        return response

    def _garbage_reply(self, query: Message) -> Message:
        """A structurally bogus reply: alternates between echoing the
        wrong question and not being a response at all — both classes
        the validation layer must reject (and the property suite proves
        the codec survives)."""
        if self.rng.random() < 0.5:
            question = query.question
            bad = Question(_GARBAGE_NAME, question.rrtype if question else 1)
            return Message(
                id=query.id, flags=Flags(response=True), questions=[bad]
            )
        return Message(id=query.id, flags=Flags(response=False),
                       questions=list(query.questions))

    # -- reporting ------------------------------------------------------------

    def total_activations(self) -> int:
        return sum(self.counts.values())

    def publish_metrics(self, scope) -> None:
        """One-shot publish into a registry scope (``faults``)."""
        for key, value in self.counts.items():
            scope.gauge(key).set(value)
        scope.gauge("total_activations").set(self.total_activations())
        scope.gauge("directives").set(len(self.plan))


# -- DNSSEC reply transforms ------------------------------------------------

_RRSIG = int(RRType.RRSIG)


def _carries_rrsig(response: Message) -> bool:
    return any(
        int(record.rrtype) == _RRSIG
        for section in (response.answers, response.authorities, response.additionals)
        for record in section
    )


def _strip_rrsigs(response: Message) -> Message:
    """A clone of ``response`` with every RRSIG removed."""

    def keep(section):
        return [r for r in section if int(r.rrtype) != _RRSIG]

    return Message(
        id=response.id,
        flags=response.flags,
        questions=list(response.questions),
        answers=keep(response.answers),
        authorities=keep(response.authorities),
        additionals=keep(response.additionals),
    )


def _desync_rrsigs(response: Message) -> Message:
    """A clone whose RRSIGs were made by a key the zone retired: the
    key tag is flipped and the signature bytes perturbed, so nothing
    verifies under the currently published DNSKEY."""

    def corrupt(section):
        out = []
        for record in section:
            if int(record.rrtype) != _RRSIG:
                out.append(record)
                continue
            rd = record.rdata
            signature = bytes(rd.signature)
            signature = bytes([signature[0] ^ 0xFF]) + signature[1:] if signature else b"\xff"
            out.append(
                ResourceRecord(
                    record.name,
                    record.rrtype,
                    record.rrclass,
                    record.ttl,
                    type(rd)(
                        rd.type_covered,
                        rd.algorithm,
                        rd.labels,
                        rd.original_ttl,
                        rd.expiration,
                        rd.inception,
                        rd.key_tag ^ 0xFFFF,
                        rd.signer,
                        signature,
                    ),
                )
            )
        return out

    return Message(
        id=response.id,
        flags=response.flags,
        questions=list(response.questions),
        answers=corrupt(response.answers),
        authorities=corrupt(response.authorities),
        additionals=corrupt(response.additionals),
    )

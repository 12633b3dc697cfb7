"""Public recursive resolver models (Google-like and Cloudflare-like).

Both answer from the same procedural zone universe with a warm cache.
The Google model enforces a per-client-IP rate limit [2] — the factor-
of-six /32 success drop in Figure 1 — while Cloudflare does not [1].
Both have finite aggregate service capacity, which is what MassDNS's
open-loop blasting overruns in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnslib import Flags, Message, Name, Rcode, RRType
from ..dnslib.rdata.names import PTR
from ..net import CapacityQueue, ServerReply, TokenBucket
from . import rand
from .content import ANSWER_TTL, build_answer, nxdomain, rr, soa_for
from .params import EcosystemParams
from .zonegen import ZoneSynthesizer

_IN_ADDR = Name.from_text("in-addr.arpa")

#: Extra delay a recursive resolver eats before SERVFAILing on a dead
#: delegation (it must exhaust its own upstream retries first).
_DEAD_PENALTY = 1.6


@dataclass
class ResolverStats:
    queries: int = 0
    rate_limited: int = 0
    shed: int = 0
    answered: int = 0


class PublicResolver:
    """A warm-cache recursive resolver serving the whole universe."""

    def __init__(
        self,
        synth: ZoneSynthesizer,
        rate_limit_per_ip: float | None = None,
        capacity: float | None = None,
        max_backlog: float | None = None,
    ):
        params = synth.params
        self.synth = synth
        self.rate_limit_per_ip = rate_limit_per_ip
        self._buckets: dict[str, TokenBucket] = {}
        self._capacity = CapacityQueue(
            rate=capacity if capacity is not None else params.public_capacity,
            max_backlog=max_backlog if max_backlog is not None else params.public_max_backlog,
        )
        self.stats = ResolverStats()
        #: Names already recursed once: repeat queries (client retries)
        #: hit the fresh cache and skip the recursion delay tail.
        self._warm: set[str] = set()
        self._cold_query = True

    @classmethod
    def google_like(cls, synth: ZoneSynthesizer) -> "PublicResolver":
        return cls(synth, rate_limit_per_ip=synth.params.google_rate_limit)

    @classmethod
    def cloudflare_like(cls, synth: ZoneSynthesizer) -> "PublicResolver":
        return cls(synth, rate_limit_per_ip=None)

    # ------------------------------------------------------------------

    def handle_query(self, query: Message, client_ip: str, now: float, protocol: str):
        self.stats.queries += 1
        if self.rate_limit_per_ip is not None:
            bucket = self._buckets.get(client_ip)
            if bucket is None:
                bucket = TokenBucket(self.rate_limit_per_ip, burst=self.rate_limit_per_ip / 4)
                self._buckets[client_ip] = bucket
            if not bucket.allow(now):
                self.stats.rate_limited += 1
                return None  # Google drops over-limit queries silently

        queue_delay = self._capacity.admit(now)
        if queue_delay is None:
            # overloaded: refuse quickly without recursing (cheap path)
            self.stats.shed += 1
            return ServerReply(query.make_response(rcode=Rcode.SERVFAIL), delay=0.05)

        response, extra = self._resolve(query)
        response.flags = Flags.from_int((response.flags.to_int() | 0x0080) & ~0x0400)  # RA=1, AA=0
        self.stats.answered += 1
        return ServerReply(response, delay=queue_delay + extra)

    # ------------------------------------------------------------------

    def _resolve(self, query: Message) -> tuple[Message, float]:
        """Answer plus the recursion delay beyond the client RTT."""
        question = query.question
        if question is None:
            return query.make_response(rcode=Rcode.FORMERR), 0.0
        params = self.synth.params
        name = question.name
        key = name.key_text()

        # recursion cost is paid once per name: a client retry finds the
        # resolver's cache freshly filled
        cold = key not in self._warm
        extra = 0.0
        if cold:
            self._warm.add(key)
            if rand.uniform(params.seed, key, "rcache") < params.public_miss_rate:
                extra += params.public_miss_delay
            if rand.uniform(params.seed, key, "slowtail") < params.public_slow_rate:
                # heavy recursion tail (upstream loss / lame servers)
                spread = params.public_slow_max - params.public_slow_min
                extra += params.public_slow_min + spread * rand.uniform(params.seed, key, "slowmag")
        self._cold_query = cold

        if name.is_subdomain_of(_IN_ADDR):
            return self._resolve_ptr(query, name, extra)

        base = self.synth.base_domain_of(name)
        if base is None:
            return nxdomain(query, Name.root()), extra
        profile = self.synth.profile(base)
        if profile.dead:
            # upstream retries exhausted once; the negative result is
            # then served from cache
            penalty = _DEAD_PENALTY if self._cold_query else 0.02
            return query.make_response(rcode=Rcode.SERVFAIL), extra + penalty
        if not profile.exists:
            return nxdomain(query, Name.intern(name.canonical_key()[-1:])), extra
        answer = build_answer(self.synth, query, profile, ns=None, protocol=protocol_for(query))
        if answer.rcode == Rcode.NOERROR and answer.answers:
            answer = self._chase_cname(answer, profile)
        return answer, extra

    def _chase_cname(self, answer: Message, profile) -> Message:
        """Recursive resolvers return the full chain for CAA-via-CNAME."""
        last = answer.answers[-1]
        if int(last.rrtype) != int(RRType.CNAME):
            return answer
        qtype = answer.question.rrtype
        if int(qtype) != int(RRType.CAA):
            return answer
        target_query = Message.make_query(last.rdata.target, qtype, txid=answer.id)
        chained = build_answer(self.synth, target_query, profile, ns=None)
        answer.answers.extend(chained.answers)
        return answer

    def _resolve_ptr(self, query: Message, name: Name, extra: float) -> tuple[Message, float]:
        rev = name.relativize(_IN_ADDR)
        octets = []
        for label in reversed(rev):
            try:
                octets.append(int(label))
            except ValueError:
                return nxdomain(query, _IN_ADDR), extra
        if len(octets) != 4 or not all(0 <= o <= 255 for o in octets):
            return nxdomain(query, _IN_ADDR), extra
        ip = ".".join(str(o) for o in octets)
        status = self.synth.ptr_status(ip)
        if status == "dead":
            penalty = _DEAD_PENALTY if self._cold_query else 0.02
            return query.make_response(rcode=Rcode.SERVFAIL), extra + penalty
        if status == "nxdomain" or int(query.question.rrtype) != int(RRType.PTR):
            response = query.make_response(rcode=Rcode.NXDOMAIN)
            response.authorities.append(soa_for(_IN_ADDR))
            return response, extra
        response = query.make_response()
        response.answers.append(rr(name, RRType.PTR, ANSWER_TTL, PTR(self.synth.ptr_target(ip))))
        return response, extra


def protocol_for(query: Message) -> str:
    """Public resolvers answer over whatever transport the client used;
    truncation towards the client is handled by the network layer."""
    return "tcp"

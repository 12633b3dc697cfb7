"""Sans-IO iterative resolution state machine.

The resolver logic is a generator that *yields* :class:`SendQuery`
effects and receives responses (or ``None`` on timeout).  Drivers in
:mod:`repro.core.engine` execute those effects against the simulated
network or real sockets; unit tests execute them against scripted
responses.  This mirrors ZDNS's split between the DNS library and the
framework, and keeps one implementation of the tricky logic —
referrals, glue, CNAME chasing, TCP fallback, lame-delegation handling
— shared by every transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..dnslib import Message, Name, Rcode, ResourceRecord, RRType
from .cache import Delegation, SelectiveCache
from .config import ResolverConfig
from .status import Status, status_from_rcode
from .trace import Trace, message_to_json
from .validation import sanitize_response, validate_response_shape

if TYPE_CHECKING:  # the validator loads with a validating resolver (core.engine)
    from .dnssec import ChainEvidence


@dataclass(frozen=True)
class SendQuery:
    """Effect: transmit one query and await its response."""

    server_ip: str
    name: Name
    qtype: RRType
    timeout: float
    protocol: str = "udp"
    recursion_desired: bool = False
    qclass: int = 1  # IN; CH for e.g. version.bind
    #: Set the EDNS DO bit: ask the server for DNSSEC material
    #: (RRSIGs, NSEC denials, DNSKEY/DS at the right cuts).
    dnssec_ok: bool = False


@dataclass(frozen=True)
class Backoff:
    """Effect: pause ``delay`` seconds before the next retry attempt.

    Emitted between failed attempts when ``ResolverConfig.backoff_base``
    is set; drivers sleep (virtual or wall clock) and send ``None`` back
    into the machine."""

    delay: float


class _WeaklyReferenced:
    """A ``__weakref__`` slot for a slotted dataclass on every supported
    Python (``dataclass(weakref_slot=True)`` needs 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(slots=True)
class LookupResult(_WeaklyReferenced):
    """Outcome of one full lookup."""

    name: str
    qtype: RRType
    status: Status = Status.ERROR
    answers: list[ResourceRecord] = field(default_factory=list)
    authorities: list[ResourceRecord] = field(default_factory=list)
    additionals: list[ResourceRecord] = field(default_factory=list)
    trace: Trace = field(default_factory=Trace)
    queries_sent: int = 0
    retries_used: int = 0
    resolver: str = ""
    protocol: str = "udp"
    #: DNSSEC validation outcome (secure/insecure/bogus/indeterminate),
    #: or None when validation was not enabled for this lookup.
    security: str | None = None
    #: What the walk learned about the chain of trust and what
    #: validating it cost (validating lookups only, else None).
    evidence: ChainEvidence | None = None

    @property
    def is_success(self) -> bool:
        return self.status.is_success

    def to_json(self) -> dict:
        """ZDNS-style output record (Appendix C shape)."""
        data = {
            "answers": [record.to_json() for record in self.answers],
            "protocol": self.protocol,
            "resolver": self.resolver,
        }
        if self.authorities:
            data["authorities"] = [record.to_json() for record in self.authorities]
        if self.additionals:
            data["additionals"] = [record.to_json() for record in self.additionals]
        if self.security is not None:
            data["dnssec"] = self.security
        out = {
            "name": self.name,
            "class": "IN",
            "status": str(self.status),
            "data": data,
        }
        trace = self.trace.to_json()
        if trace:
            out["trace"] = trace
        return out


class _Abort(Exception):
    """Internal: unwind a resolution with a terminal status."""

    def __init__(self, status: Status):
        self.status = status


def _match_answers(response: Message, name: Name, qtype: int) -> list[ResourceRecord]:
    """Answer records owned by ``name`` of the queried (or CNAME) type."""
    wanted = []
    for record in response.answers:
        if record.name != name:
            continue
        if int(record.rrtype) == int(qtype) or int(qtype) == int(RRType.ANY):
            wanted.append(record)
        elif int(record.rrtype) in (int(RRType.CNAME), int(RRType.RRSIG)):
            # RRSIGs only ever appear when the query carried DO, so
            # collecting them here leaves DO-less lookups untouched.
            wanted.append(record)
    return wanted


def _referral_zone(response: Message) -> Name | None:
    for record in response.authorities:
        if int(record.rrtype) == int(RRType.NS):
            return record.name
    return None


def _delegation_from(response: Message, zone: Name) -> Delegation:
    ns_names = []
    ttl = None
    for record in response.authorities:
        if int(record.rrtype) == int(RRType.NS) and record.name == zone:
            ns_names.append(record.rdata.target)
            if ttl is None or record.ttl < ttl:
                ttl = record.ttl
    ns_names = tuple(ns_names)
    glue = []
    for record in response.additionals:
        if int(record.rrtype) == int(RRType.A) and record.name in ns_names:
            glue.append((record.name, record.rdata.address))
            if ttl is None or record.ttl < ttl:
                ttl = record.ttl
    # The cut's lifetime is bounded by its shortest constituent record:
    # once any NS/glue RR would have fallen out of a classic resolver's
    # cache, the whole delegation must be re-fetched.
    return Delegation(zone=zone, ns_names=ns_names, glue=tuple(glue), ttl=ttl)


class IterativeMachine:
    """Performs full iterative resolution with selective caching.

    Keeps no state between lookups: every lookup's state lives in its
    own generator frames and :class:`LookupResult`, so one machine
    serves a whole scan."""

    def __init__(
        self,
        cache: SelectiveCache,
        root_ips: list[str],
        config: ResolverConfig | None = None,
        rng: random.Random | None = None,
    ):
        self.cache = cache
        self.root_ips = list(root_ips)
        self.config = config or ResolverConfig()
        self.rng = rng or random.Random(0)
        if self.config.dnssec:  # bound once: a validating lookup imports nothing
            from . import dnssec

            self._dnssec = dnssec

    # ------------------------------------------------------------------

    def resolve(self, name: Name | str, qtype: RRType):
        """Generator: yields SendQuery, receives Message|None, returns
        LookupResult.  One walk per owner name along a CNAME chain."""
        if isinstance(name, str):
            name = Name.from_text(name)
        result = LookupResult(
            name=name.to_text(omit_final_dot=True),
            qtype=qtype,
            trace=Trace(self.config.tracer),
            resolver="iterative",
        )
        if self.config.dnssec:
            result.evidence = self._dnssec.ChainEvidence()
        budget = _Budget(self.config.max_queries)
        trace = result.trace
        trace.open("lookup", name=result.name, type=int(qtype))
        try:
            answers: list[ResourceRecord] = []
            current = name
            for _hop in range(self.config.max_cname_chase + 1):
                step_answers, status = yield from self._walk(current, qtype, result, budget)
                answers.extend(step_answers)
                if status != Status.NOERROR or int(qtype) in (int(RRType.CNAME), int(RRType.ANY)):
                    break
                current = _cname_target(step_answers, current, qtype)
                if current is None:
                    break
            else:
                status = Status.ERROR  # CNAME chain too long
            result.status = status
            result.answers = answers
        except _Abort as abort:
            trace.unwind(str(abort.status))
            result.status = abort.status
        if self.config.dnssec:
            yield from self._validate(result, budget)
        result.queries_sent = budget.sent
        result.retries_used = budget.retries
        trace.close(str(result.status), queries=budget.sent, retries=budget.retries)
        return result

    # ------------------------------------------------------------------

    def _validate(self, result, budget):
        """DNSSEC post-pass: walk the chain of trust and stamp
        ``result.security``.  Validation never clobbers the semantic
        status — running out of query budget mid-walk leaves the answer
        intact and marks it indeterminate.

        The chain fetches run through the same ``result`` (its trace,
        its budget) but not its evidence: that stays what the lookup
        itself saw — above all the zone that issued the final denial —
        whatever servers validating it then talks to."""
        dnssec = self._dnssec
        evidence, result.evidence = result.evidence, None
        sent_before = budget.sent
        try:
            result.security = yield from dnssec.Validator(self).validate(result, evidence, budget)
        except _Abort as abort:
            result.trace.unwind(str(abort.status))
            result.security = dnssec.INDETERMINATE
        finally:
            result.evidence = evidence
        evidence.chain_queries = budget.sent - sent_before

    def _walk(self, name: Name, qtype: RRType, result, budget, depth: int = 0):
        """One delegation walk for a single owner name, recorded as a
        ``step``: returns (answers, status)."""
        trace = result.trace
        trace.open("step", name=name.to_text(omit_final_dot=True), depth=depth, type=int(qtype))
        if depth > self.config.max_glueless_depth:
            raise _Abort(Status.ERROR)
        evidence = result.evidence

        # Leaf-answer cache: a no-op under the paper's selective policy,
        # only live for the policy="all" ablation (section 3.4).
        trace.open("cache_probe")
        cached_answers = self.cache.get_answer(name, int(qtype))
        if cached_answers is not None:
            trace.close("answer_hit", row={"depth": depth})
            return _ended(trace, list(cached_answers), Status.NOERROR)

        start = name
        if self.config.dnssec and int(qtype) == int(RRType.DS) and name.labels:
            # DS lives on the parent side of the cut: starting the walk
            # from a cached delegation for the name itself would route
            # the query to the child zone, which cannot answer it.
            start = name.parent()
        cached = self.cache.best_delegation(start)
        servers = cached.addresses() if cached is not None else None
        if servers:
            zone = cached.zone
            trace.close(
                "hit",
                row={"depth": depth + len(zone.labels)},
                layer=zone.to_text(omit_final_dot=True) or ".",
            )
        else:
            trace.close("miss", layer=None)
            zone = Name.root()
            servers = list(self.root_ips)

        for _layer_hop in range(self.config.max_referrals):
            response = yield from self._query_layer(
                name, qtype, servers, result, budget, zone, depth
            )
            rcode = response.rcode
            if evidence is not None:
                evidence.last_zone = zone

            if rcode != Rcode.NOERROR:
                return _ended(trace, [], status_from_rcode(rcode))

            matched = _match_answers(response, name, int(qtype))
            if matched:
                self.cache.put_answer(name, int(qtype), matched)
                return _ended(trace, matched, Status.NOERROR)
            if response.answers and not matched:
                # answers for someone else: no data for us
                return _ended(trace, [], Status.NOERROR)

            referral = _referral_zone(response)
            if referral is not None and not response.flags.authoritative:
                if not referral.is_subdomain_of(zone) or referral == zone:
                    # upward or sideways referral: lame server
                    return _ended(trace, [], Status.ERROR)
                if not name.is_subdomain_of(referral):
                    return _ended(trace, [], Status.ERROR)
                delegation = _delegation_from(response, referral)
                if delegation.ns_names:
                    self.cache.put_delegation(delegation)
                if evidence is not None:
                    evidence.harvest(referral, response.authorities)
                addresses = delegation.addresses()
                if not addresses:
                    layer = referral.to_text(omit_final_dot=True) or "."
                    trace.open("glueless", layer=layer, depth=depth)
                    addresses = yield from self._resolve_glueless(delegation, result, budget, depth)
                    trace.close("NOERROR" if addresses else str(Status.SERVFAIL))
                    if not addresses:
                        return _ended(trace, [], Status.SERVFAIL)
                zone = referral
                servers = addresses
                continue

            # authoritative NOERROR with no answers: NODATA
            if self.config.dnssec and int(qtype) == int(RRType.DS):
                # surface the parent's authenticated denial (NSEC plus
                # its RRSIG) so the validator can tell a proven insecure
                # delegation apart from a stripped response
                denial = [
                    record
                    for record in response.authorities
                    if int(record.rrtype) in (int(RRType.NSEC), int(RRType.RRSIG))
                ]
                return _ended(trace, denial, Status.NOERROR)
            return _ended(trace, [], Status.NOERROR)

        return _ended(trace, [], Status.ITER_LIMIT)

    def _admit(self, response: Message, name: Name, qtype: int, zone: Name):
        """The one accept path of a reply, whichever leg carried it:
        shape-check, then (strict bailiwick) strip what ``zone``'s
        server has no authority to assert.  A TCP retry is as forgeable
        as the UDP leg was — the differential oracle found a garbage TCP
        reply accepted as an authoritative NODATA, and out-of-bailiwick
        glue rode in the same way.  Returns ``(response, failure)``."""
        config = self.config
        if config.validate_responses:
            if validate_response_shape(name, qtype, response) is not None:
                # malformed/hostile response: treat like packet loss
                return response, Status.FORMERR
            if config.strict_bailiwick:
                response, _report = sanitize_response(response, name, qtype, zone)
        return response, None

    def _query_layer(self, name, qtype, servers, result, budget, zone, depth):
        """Try the layer's servers (with retries) until one responds;
        returns its (admitted) response."""
        config = self.config
        health = config.health
        if health is not None:
            # failure-aware ordering: shed load away from unhealthy
            # servers (blackouts, storms) instead of burning retries
            order = health.order(list(servers), self.rng)
        else:
            order = list(servers)
            self.rng.shuffle(order)
        trace = result.trace
        tries = config.retries + 1
        timeout = config.iteration_timeout
        dnssec_ok = config.dnssec
        last_pause = 0.0
        # Everything the attempts' steps share is computed once.
        name_text = name.to_text(omit_final_dot=True)
        layer_text = zone.to_text(omit_final_dot=True) or "."
        step_depth = depth + len(zone.labels) + 1
        qtype_int = int(qtype)
        last_failure = Status.ITERATIVE_TIMEOUT
        for attempt in range(tries):
            server_ip = order[attempt % len(order)]
            budget.spend()
            trace.open(
                "query",
                name=name_text,
                layer=layer_text,
                depth=step_depth,
                name_server=f"{server_ip}:53",
                try_count=attempt + 1,
                type=qtype_int,
            )
            query = SendQuery(
                server_ip=server_ip,
                name=name,
                qtype=qtype,
                timeout=timeout,
                dnssec_ok=dnssec_ok,
            )
            response = yield query
            # What did this attempt die of?  ``failure`` closes its step
            # and (unless a plain timeout) is what the layer reports if
            # every attempt dies.
            failure = None
            if response is None:
                failure = Status.TIMEOUT
            else:
                response, failure = self._admit(response, name, qtype_int, zone)
                if failure is None and response.flags.truncated:
                    # the UDP leg ends truncated; the TCP retry is its own
                    # step, so both timings stay visible
                    trace.close(str(Status.TRUNCATED))
                    if not config.tcp_on_truncated:
                        raise _Abort(Status.TRUNCATED)
                    budget.spend()
                    trace.reopen(protocol="tcp")
                    response = yield replace(query, protocol="tcp")
                    if response is None:
                        failure = Status.TIMEOUT
                    else:
                        response, failure = self._admit(response, name, qtype_int, zone)
                if failure is None and response.rcode in (Rcode.SERVFAIL, Rcode.REFUSED):
                    failure = status_from_rcode(response.rcode)
            if failure is None:
                trace.close(
                    str(status_from_rcode(response.rcode)),
                    row=(
                        {"results": message_to_json(response, f"{server_ip}:53")}
                        if config.record_trace
                        else None
                    ),
                )
                if health is not None:
                    health.record_success(server_ip)
                return response
            trace.close(str(failure))
            budget.retries += 1
            if failure is not Status.TIMEOUT:
                last_failure = failure
            if health is not None:
                health.record_failure(server_ip)
            if config.backoff_base and attempt + 1 < tries:
                last_pause = _next_pause(config, self.rng, last_pause)
                yield Backoff(last_pause)
        raise _Abort(last_failure)

    def _resolve_glueless(self, delegation: Delegation, result, budget, depth):
        """Referral without glue: resolve one NS name's address."""
        for ns_name in delegation.ns_names:
            answers, status = yield from self._walk(ns_name, RRType.A, result, budget, depth + 1)
            addresses = []
            ttl = delegation.ttl
            for record in answers:
                if int(record.rrtype) == int(RRType.A):
                    addresses.append(record.rdata.address)
                    if ttl is None or record.ttl < ttl:
                        ttl = record.ttl
            if status == Status.NOERROR and addresses:
                # refresh the cache with the learned glue; the refreshed
                # cut lives no longer than its shortest record
                self.cache.put_delegation(
                    Delegation(
                        zone=delegation.zone,
                        ns_names=delegation.ns_names,
                        glue=tuple((ns_name, ip) for ip in addresses),
                        ttl=ttl,
                    )
                )
                return addresses
        return []


class ExternalMachine:
    """Stub resolution against an external recursive resolver."""

    def __init__(
        self, resolver_ips: list[str], config: ResolverConfig | None = None, rng=None, port: int = 53
    ):
        if not resolver_ips:
            raise ValueError("need at least one resolver address")
        self.resolver_ips = list(resolver_ips)
        self.config = config or ResolverConfig()
        self.rng = rng or random.Random(0)
        #: The resolvers' port, as rows name it (the driver addresses it).
        self.port = port

    def resolve(self, name: Name | str, qtype: RRType):
        if isinstance(name, str):
            name = Name.from_text(name)
        config = self.config
        result = LookupResult(
            name=name.to_text(omit_final_dot=True), qtype=qtype, trace=Trace(config.tracer)
        )
        trace = result.trace
        tries = config.retries + 1
        status = Status.TIMEOUT
        health = config.health
        last_pause = 0.0
        trace.open("lookup", name=result.name, type=int(qtype), mode="external")
        for attempt in range(tries):
            if health is not None and len(self.resolver_ips) > 1:
                # failure-aware pick: healthy upstreams first
                server_ip = health.order(self.resolver_ips, self.rng)[0]
            else:
                # load-balance across upstream resolvers per attempt
                server_ip = self.resolver_ips[
                    self.rng.randrange(len(self.resolver_ips))
                    if len(self.resolver_ips) > 1
                    else 0
                ]
            result.resolver = f"{server_ip}:{self.port}"
            result.queries_sent += 1
            trace.open(
                "query",
                name=result.name,
                name_server=result.resolver,
                try_count=attempt + 1,
                type=int(qtype),
            )
            query = SendQuery(
                server_ip=server_ip,
                name=name,
                qtype=qtype,
                timeout=config.external_timeout,
                recursion_desired=True,
                dnssec_ok=config.dnssec,
            )
            response = yield query
            if response is not None and response.flags.truncated and config.tcp_on_truncated:
                trace.close(str(Status.TRUNCATED))
                trace.reopen(protocol="tcp")
                result.queries_sent += 1
                response = yield replace(query, protocol="tcp")
                if response is not None:
                    result.protocol = "tcp"
            # What did this attempt die of?  (Never a plain timeout's
            # business to overwrite an earlier attempt's status.)
            failure = None
            if response is None:
                failure = Status.TIMEOUT
            elif (
                config.validate_responses
                and validate_response_shape(name, int(qtype), response) is not None
            ):
                # malformed/hostile response: treat like packet loss
                failure = status = Status.FORMERR
            else:
                status = status_from_rcode(response.rcode)
                if (
                    config.retry_servfail
                    and status in (Status.SERVFAIL, Status.REFUSED)
                    and attempt + 1 < tries
                ):
                    failure = status
            trace.close(str(failure or status))
            if failure is None:
                if health is not None:
                    health.record_success(server_ip)
                result.answers = list(response.answers)
                result.authorities = list(response.authorities)
                result.additionals = list(response.additionals)
                break
            result.retries_used += 1
            if health is not None:
                health.record_failure(server_ip)
            if config.backoff_base and attempt + 1 < tries:
                last_pause = _next_pause(config, self.rng, last_pause)
                yield Backoff(last_pause)
        result.status = status
        trace.close(str(status), queries=result.queries_sent, retries=result.retries_used)
        return result


def _next_pause(config: ResolverConfig, rng: random.Random, last_pause: float) -> float:
    """The next retry pause: decorrelated jitter, capped."""
    base = config.backoff_base
    return min(config.backoff_cap, rng.uniform(base, 3.0 * (last_pause or base)))


class _Budget:
    """Per-lookup query budget: hard stop against referral loops."""

    def __init__(self, limit: int):
        self.limit = limit
        self.sent = 0
        self.retries = 0

    def spend(self) -> None:
        """Count one query about to be sent, or refuse it."""
        if self.sent >= self.limit:
            raise _Abort(Status.ITER_LIMIT)
        self.sent += 1


def _ended(trace: Trace, answers: list[ResourceRecord], status: Status):
    """Close a walk's ``step`` with its status; returns (answers, status)."""
    trace.close(str(status))
    return answers, status


def _cname_target(answers: list[ResourceRecord], name: Name, qtype: RRType) -> Name | None:
    """If the matched answers are only a CNAME, the chase target."""
    has_final = any(int(r.rrtype) == int(qtype) for r in answers)
    if has_final:
        return None
    for record in answers:
        if int(record.rrtype) == int(RRType.CNAME) and record.name == name:
            return record.rdata.target
    return None

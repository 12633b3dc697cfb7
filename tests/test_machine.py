"""Unit tests for the sans-IO resolution machines, driven by scripted
responses (no network, simulated or otherwise)."""

import random

import pytest

from repro.core import (
    Delegation,
    ExternalMachine,
    IterativeMachine,
    ResolverConfig,
    SelectiveCache,
    SendQuery,
    Status,
)
from repro.dnslib import (
    DNSClass,
    Flags,
    Message,
    Name,
    Question,
    Rcode,
    ResourceRecord,
    RRType,
)
from repro.dnslib.rdata.address import A
from repro.dnslib.rdata.names import CNAME, NS

N = Name.from_text
ROOTS = ["199.0.0.1", "199.0.0.2"]


def rr(name, rrtype, rdata, ttl=300):
    return ResourceRecord(N(name), rrtype, DNSClass.IN, ttl, rdata)


def answer_msg(qname, records, rcode=Rcode.NOERROR, authoritative=True, truncated=False):
    msg = Message(
        flags=Flags(response=True, authoritative=authoritative, rcode=rcode, truncated=truncated)
    )
    msg.answers = list(records)
    return msg


def referral_msg(zone, ns_ips):
    msg = Message(flags=Flags(response=True))
    for i, ip in enumerate(ns_ips):
        ns_name = f"ns{i + 1}.{zone}"
        msg.authorities.append(rr(zone, RRType.NS, NS(N(ns_name))))
        if ip is not None:
            msg.additionals.append(rr(ns_name, RRType.A, A(ip)))
    return msg


def drive(gen, responder):
    """Run a machine generator against a responder(effect) callable."""
    try:
        effect = next(gen)
        while True:
            assert isinstance(effect, SendQuery)
            effect = gen.send(responder(effect))
    except StopIteration as stop:
        return stop.value


def machine(cache=None, config=None, seed=0):
    # NB: "cache or ..." would discard an *empty* cache (it has __len__)
    return IterativeMachine(
        cache if cache is not None else SelectiveCache(capacity=1000),
        ROOTS,
        config or ResolverConfig(retries=1),
        random.Random(seed),
    )


class ScriptedInternet:
    """Routes effects to per-server responders and logs every query."""

    def __init__(self):
        self.servers = {}
        self.log = []

    def add(self, ip, fn):
        self.servers[ip] = fn

    def __call__(self, effect):
        self.log.append((effect.server_ip, effect.name.to_text(), int(effect.qtype), effect.protocol))
        handler = self.servers.get(effect.server_ip)
        return handler(effect) if handler else None


def standard_tree(final_records=None, rcode=Rcode.NOERROR):
    """root -> com -> example.com serving ``final_records``."""
    net = ScriptedInternet()
    for ip in ROOTS:
        net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))
    net.add(10 * "", lambda e: None)
    net.add("10.0.0.1", lambda e: referral_msg("example.com", ["10.1.0.1"]))
    records = final_records if final_records is not None else [
        rr("www.example.com", RRType.A, A("93.0.0.1"))
    ]
    net.add("10.1.0.1", lambda e: answer_msg(e.name.to_text(), records, rcode=rcode))
    return net


class TestIterativeWalk:
    def test_full_walk_from_root(self):
        net = standard_tree()
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata == A("93.0.0.1")
        assert result.queries_sent == 3
        servers = [entry[0] for entry in net.log]
        assert servers[0] in ROOTS
        assert servers[1:] == ["10.0.0.1", "10.1.0.1"]

    def test_trace_records_layers(self):
        net = standard_tree()
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        layers = [step.layer for step in result.trace]
        assert layers == [".", "com", "example.com"]
        assert [step.depth for step in result.trace] == [1, 2, 3]

    def test_delegations_are_cached(self):
        cache = SelectiveCache(capacity=100)
        net = standard_tree()
        drive(machine(cache).resolve("www.example.com", RRType.A), net)
        assert cache.get_delegation(N("com")) is not None
        assert cache.get_delegation(N("example.com")) is not None

    def test_cached_start_skips_layers(self):
        cache = SelectiveCache(capacity=100)
        net = standard_tree()
        drive(machine(cache).resolve("www.example.com", RRType.A), net)
        net.log.clear()
        result = drive(machine(cache).resolve("other.example.com", RRType.A), net)
        assert result.status == Status.NOERROR
        assert [entry[0] for entry in net.log] == ["10.1.0.1"]
        assert next(iter(result.trace)).cached

    def test_leaf_answers_not_cached(self):
        cache = SelectiveCache(capacity=100)
        drive(machine(cache).resolve("www.example.com", RRType.A), standard_tree())
        assert cache.get_answer(N("www.example.com"), RRType.A) is None

    def test_nxdomain(self):
        net = standard_tree(final_records=[], rcode=Rcode.NXDOMAIN)
        result = drive(machine().resolve("gone.example.com", RRType.A), net)
        assert result.status == Status.NXDOMAIN
        assert result.is_success  # the paper counts NXDOMAIN as success

    def test_nodata(self):
        net = standard_tree(final_records=[])
        result = drive(machine().resolve("www.example.com", RRType.AAAA), net)
        assert result.status == Status.NOERROR
        assert not result.answers


class TestFailureHandling:
    def test_negative_retries_rejected(self):
        # -1 used to mean zero attempts: no query sent, every name a timeout
        with pytest.raises(ValueError, match="retries"):
            ResolverConfig(retries=-1)

    def test_timeouts_exhaust_to_iterative_timeout(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: None)  # silence
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.ITERATIVE_TIMEOUT
        assert result.retries_used >= 1

    def test_retry_second_server_succeeds(self):
        net = ScriptedInternet()
        net.add(ROOTS[0], lambda e: None)
        net.add(ROOTS[1], lambda e: referral_msg("com", ["10.0.0.1"]))
        net.add("10.0.0.1", lambda e: answer_msg("x.com", [rr("x.com", RRType.A, A("1.2.3.4"))]))
        result = drive(machine(config=ResolverConfig(retries=2)).resolve("x.com", RRType.A), net)
        assert result.status == Status.NOERROR
        assert result.retries_used >= 0
        assert result.queries_sent >= 2

    def test_servfail_tries_next_and_reports(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: answer_msg("x.com", [], rcode=Rcode.SERVFAIL))
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.SERVFAIL

    def test_refused_reported(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: answer_msg("x.com", [], rcode=Rcode.REFUSED))
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.REFUSED

    def test_upward_referral_is_error(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))
        # the com server refers back to com: a lame loop
        net.add("10.0.0.1", lambda e: referral_msg("com", ["10.0.0.1"]))
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.ERROR

    def test_sideways_referral_is_error(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))
        net.add("10.0.0.1", lambda e: referral_msg("org", ["10.0.0.2"]))
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.ERROR

    def test_query_budget_enforced(self):
        config = ResolverConfig(retries=0, max_queries=5)
        net = ScriptedInternet()
        # an endless chain of deeper referrals
        def deeper(effect):
            depth = len(effect.name.labels)
            zone = effect.name.to_text(omit_final_dot=True)
            suffix = ".".join(zone.split(".")[-min(depth, 1):])
            return referral_msg(zone, ["10.0.0.9"])

        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.9"]))

        labels = "a.b.c.d.e.f.g.h.i.j.k.l.m.n.o.p.com"
        zones = labels.split(".")
        def chain(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            # always refer one label deeper toward the query name
            parts = qname.split(".")
            for i in range(len(parts) - 1, -1, -1):
                zone = ".".join(parts[i:])
                yield zone

        state = {"depth": 1}
        def refer_deeper(effect):
            parts = effect.name.to_text(omit_final_dot=True).split(".")
            state["depth"] += 1
            zone = ".".join(parts[-min(state["depth"], len(parts)):])
            return referral_msg(zone, ["10.0.0.9"])

        net.add("10.0.0.9", refer_deeper)
        result = drive(machine(config=config).resolve(labels, RRType.A), net)
        assert result.status in (Status.ITER_LIMIT, Status.ERROR)
        # the refused sixth query was never sent, so it is not counted
        assert result.queries_sent == len(net.log) == 5

    def test_budget_spent_at_tcp_fallback_keeps_the_udp_row(self):
        net = standard_tree()
        net.add("10.1.0.1", lambda e: answer_msg("www.example.com", [], truncated=True))
        config = ResolverConfig(retries=0, max_queries=3)
        result = drive(machine(config=config).resolve("www.example.com", RRType.A), net)
        assert result.status == Status.ITER_LIMIT
        assert result.queries_sent == len(net.log) == 3
        assert [(step.layer, step.status) for step in result.trace if not step.cached] == [
            (".", "NOERROR"),
            ("com", "NOERROR"),
            ("example.com", "TRUNCATED"),
        ]


class TestTruncationFallback:
    def test_tc_triggers_tcp_retry(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))

        def auth(effect):
            if effect.protocol == "udp":
                return answer_msg("x.com", [], truncated=True)
            return answer_msg("x.com", [rr("x.com", RRType.A, A("4.3.2.1"))])

        net.add("10.0.0.1", auth)
        result = drive(machine().resolve("x.com", RRType.A), net)
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata == A("4.3.2.1")
        assert ("10.0.0.1", "x.com.", 1, "tcp") in net.log

    def test_tcp_disabled_counts_as_failure(self):
        config = ResolverConfig(retries=0, tcp_on_truncated=False)
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))
        net.add("10.0.0.1", lambda e: answer_msg("x.com", [], truncated=True))
        result = drive(machine(config=config).resolve("x.com", RRType.A), net)
        assert result.status != Status.NOERROR


class TestCNAMEChasing:
    def test_single_hop(self):
        net = standard_tree(
            final_records=None
        )
        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            if qname == "www.example.com":
                return answer_msg(qname, [rr(qname, RRType.CNAME, CNAME(N("target.example.com")))])
            return answer_msg(qname, [rr(qname, RRType.A, A("7.7.7.7"))])

        net.add("10.1.0.1", auth)
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.NOERROR
        types = [int(record.rrtype) for record in result.answers]
        assert int(RRType.CNAME) in types and int(RRType.A) in types

    def test_cname_answer_in_same_response_not_rechased(self):
        records = [
            rr("www.example.com", RRType.CNAME, CNAME(N("example.com"))),
            rr("example.com", RRType.A, A("9.9.9.9")),
        ]
        net = standard_tree(final_records=records)
        # machine chases because matched set has CNAME but no A for owner
        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            if qname == "www.example.com":
                return answer_msg(qname, records)
            return answer_msg(qname, [rr(qname, RRType.A, A("9.9.9.9"))])
        net.add("10.1.0.1", auth)
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.NOERROR

    def test_chain_loop_aborts(self):
        net = standard_tree()
        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            nxt = "a.example.com" if qname != "a.example.com" else "b.example.com"
            return answer_msg(qname, [rr(qname, RRType.CNAME, CNAME(N(nxt)))])
        net.add("10.1.0.1", auth)
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.ERROR

    def test_cname_query_type_not_chased(self):
        net = standard_tree(
            final_records=[rr("www.example.com", RRType.CNAME, CNAME(N("t.example.com")))]
        )
        result = drive(machine().resolve("www.example.com", RRType.CNAME), net)
        assert result.status == Status.NOERROR
        assert len(result.answers) == 1

    def test_self_loop_aborts(self):
        """A CNAME pointing at its own owner (a -> a) must exhaust the
        chase budget and abort, not spin or return the bare CNAME as a
        terminal answer."""
        net = standard_tree()

        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            return answer_msg(qname, [rr(qname, RRType.CNAME, CNAME(N(qname)))])

        net.add("10.1.0.1", auth)
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.ERROR

    def _chain_tree(self, links):
        """c0 -> c1 -> ... -> c<links>, with an A record at the end."""
        net = standard_tree()

        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            index = int(qname.split(".", 1)[0][1:])
            if index < links:
                target = f"c{index + 1}.example.com"
                return answer_msg(qname, [rr(qname, RRType.CNAME, CNAME(N(target)))])
            return answer_msg(qname, [rr(qname, RRType.A, A("7.7.7.7"))])

        net.add("10.1.0.1", auth)
        return net

    def test_chain_at_chase_limit_succeeds(self):
        config = ResolverConfig(retries=1, max_cname_chase=3)
        net = self._chain_tree(links=3)
        result = drive(
            machine(config=config).resolve("c0.example.com", RRType.A), net
        )
        assert result.status == Status.NOERROR
        assert any(int(record.rrtype) == int(RRType.A) for record in result.answers)

    def test_chain_one_past_limit_aborts(self):
        config = ResolverConfig(retries=1, max_cname_chase=3)
        net = self._chain_tree(links=4)
        result = drive(
            machine(config=config).resolve("c0.example.com", RRType.A), net
        )
        assert result.status == Status.ERROR

    def test_apex_cname_warm_hit_with_answer_cache(self):
        """A CNAME at a zone apex under policy="all": the warm lookup
        must be served from the answer cache and present the same view
        of the chain as the cold one."""
        cache = SelectiveCache(capacity=100, policy="all")
        net = standard_tree()

        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            if qname == "example.com":
                return answer_msg(
                    qname, [rr(qname, RRType.CNAME, CNAME(N("alias.example.com")))]
                )
            return answer_msg(qname, [rr(qname, RRType.A, A("7.7.7.7"))])

        net.add("10.1.0.1", auth)

        def view(res):
            return sorted(
                (record.name.to_text(), int(record.rrtype), repr(record.rdata))
                for record in res.answers
            )

        cold = drive(machine(cache).resolve("example.com", RRType.A), net)
        assert cold.status == Status.NOERROR
        warm = drive(machine(cache).resolve("example.com", RRType.A), net)
        assert warm.status == Status.NOERROR
        assert cache.stats.answer_hits >= 1
        assert view(cold) == view(warm)


class TestTCPFallbackValidation:
    def test_garbage_tcp_retry_is_not_trusted(self):
        """Regression (found by the differential oracle): the TCP retry
        after a truncated UDP response skipped response validation, so a
        wrong-question garbage reply over TCP was ingested and surfaced
        as an authoritative NODATA (NOERROR with no answers)."""
        net = standard_tree()

        def auth(effect):
            qname = effect.name.to_text(omit_final_dot=True)
            if effect.protocol == "tcp":
                garbage = answer_msg("garbage.invalid", [])
                garbage.questions = [Question(N("garbage.invalid"), RRType.A)]
                return garbage
            return answer_msg(
                qname, [rr(qname, RRType.A, A("7.7.7.7"))], truncated=True
            )

        net.add("10.1.0.1", auth)
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert not (result.status == Status.NOERROR and not result.answers)
        assert result.status != Status.NOERROR

    @pytest.mark.parametrize("leg", ["udp", "tcp"])
    def test_strict_bailiwick_strips_either_leg(self, leg):
        """``sanitize_response`` sat in the UDP branch only: a truncated
        UDP reply followed by a TCP referral carrying out-of-bailiwick
        glue cached ``ns1.bank.org -> 6.6.6.6`` on a ``com`` server's
        word and queried it.  Both legs go through one accept path."""
        net = standard_tree()

        def com(effect):
            poisoned = Message(flags=Flags(response=True))
            poisoned.authorities.append(rr("example.com", RRType.NS, NS(N("ns1.bank.org"))))
            poisoned.additionals.append(rr("ns1.bank.org", RRType.A, A("6.6.6.6")))
            if leg == "tcp" and effect.protocol == "udp":
                return answer_msg(effect.name.to_text(), [], authoritative=False, truncated=True)
            return poisoned

        net.add("10.0.0.1", com)
        net.add("6.6.6.6", lambda e: answer_msg(e.name.to_text(), [rr("www.example.com", RRType.A, A("6.6.6.7"))]))
        cache = SelectiveCache(capacity=1000)
        config = ResolverConfig(retries=1, strict_bailiwick=True)
        result = drive(machine(cache, config).resolve("www.example.com", RRType.A), net)
        assert "6.6.6.6" not in [entry[0] for entry in net.log]
        assert cache.get_delegation(N("example.com")).glue == ()
        assert result.status != Status.NOERROR
        assert (leg == "tcp") == any(entry[3] == "tcp" for entry in net.log)


class FaultyResponder:
    """Wraps a responder with a :class:`FaultInjector`, mimicking the
    hook order of ``SimNetwork._query`` (on_send → at_server → on_reply)
    so a scripted :class:`FaultPlan` can drive the sans-IO machine
    directly — no simulator needed.  The fake clock advances one second
    per query, so time-windowed directives script multi-attempt
    scenarios (e.g. "SERVFAIL until t=0.5, then recover")."""

    def __init__(self, inner, plan, seed=0):
        from repro.faults import FaultInjector

        class _Clock:
            now = 0.0

        self.clock = _Clock()
        self.injector = FaultInjector(plan, sim=self.clock, seed=seed)
        self.inner = inner

    def __call__(self, effect):
        from repro.dnslib import Message

        injector = self.injector
        try:
            verdict = injector.on_send(effect.server_ip, effect.protocol)
            if verdict is not None and verdict.drop:
                return None
            query = Message.make_query(effect.name, effect.qtype)
            synthetic = injector.at_server(effect.server_ip, effect.protocol, query)
            if synthetic is not None:
                return synthetic
            response = self.inner(effect)
            if response is None:
                return None
            return injector.on_reply(effect.server_ip, effect.protocol, query, response)
        finally:
            self.clock.now += 1.0


class TestFaultPlanDriven:
    """The satellite scenarios: scripted fault plans proving the machine
    recovers through rcode storms and forced truncation."""

    def test_retry_servfail_recovers_after_storm_window(self):
        from repro.faults import FaultPlan, RcodeStorm

        # the resolver SERVFAILs until t=0.5, then serves normally: with
        # retry_servfail on, attempt 1 eats the storm and attempt 2 wins
        plan = FaultPlan([RcodeStorm(rcode="SERVFAIL", end=0.5)])
        net = ScriptedInternet()
        net.add("8.8.8.8", lambda e: answer_msg(
            "x.com", [rr("x.com", RRType.A, A("5.5.5.5"))]
        ))
        responder = FaultyResponder(net, plan)
        gen = ExternalMachine(
            ["8.8.8.8"], ResolverConfig(retries=1, retry_servfail=True)
        ).resolve("x.com", RRType.A)
        result = drive(gen, responder)
        assert result.status == Status.NOERROR
        assert result.queries_sent == 2
        assert responder.injector.counts["rcode_storm_0"] == 1

    def test_retry_servfail_off_reports_storm_rcode(self):
        from repro.faults import FaultPlan, RcodeStorm

        plan = FaultPlan([RcodeStorm(rcode="REFUSED")])
        net = ScriptedInternet()
        net.add("8.8.8.8", lambda e: answer_msg(
            "x.com", [rr("x.com", RRType.A, A("5.5.5.5"))]
        ))
        gen = ExternalMachine(
            ["8.8.8.8"], ResolverConfig(retries=2, retry_servfail=False)
        ).resolve("x.com", RRType.A)
        result = drive(gen, FaultyResponder(net, plan))
        assert result.status == Status.REFUSED
        assert result.queries_sent == 1

    def test_iterative_storm_tries_next_root(self):
        from repro.faults import FaultPlan, RcodeStorm

        # only the first-tried root storms; the machine moves on
        plan = FaultPlan([RcodeStorm(rcode="SERVFAIL", end=0.5)])
        net = standard_tree()
        result = drive(
            machine(config=ResolverConfig(retries=2)).resolve(
                "www.example.com", RRType.A
            ),
            FaultyResponder(net, plan),
        )
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata == A("93.0.0.1")

    def test_forced_truncation_falls_back_to_tcp(self):
        from repro.faults import FaultPlan, Truncate

        # every UDP reply gets the TC bit: the machine must re-ask each
        # layer over TCP (which the injector leaves untouched)
        plan = FaultPlan([Truncate()])
        net = standard_tree()
        responder = FaultyResponder(net, plan)
        result = drive(machine().resolve("www.example.com", RRType.A), responder)
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata == A("93.0.0.1")
        protocols = [entry[3] for entry in net.log]
        assert "tcp" in protocols
        assert responder.injector.counts["truncate_0"] >= 1

    def test_truncation_with_tcp_disabled_fails(self):
        from repro.faults import FaultPlan, Truncate

        plan = FaultPlan([Truncate()])
        config = ResolverConfig(retries=0, tcp_on_truncated=False)
        result = drive(
            machine(config=config).resolve("www.example.com", RRType.A),
            FaultyResponder(standard_tree(), plan),
        )
        assert result.status != Status.NOERROR

    def test_garbage_reply_rejected_not_interpreted(self):
        from repro.faults import FaultPlan, Garbage

        # garbage until t=1.5 (2 queries), then clean: validation must
        # reject the bogus replies and the retry path must still win
        plan = FaultPlan([Garbage(end=1.5)])
        net = ScriptedInternet()
        net.add("8.8.8.8", lambda e: answer_msg(
            "x.com", [rr("x.com", RRType.A, A("5.5.5.5"))]
        ))
        gen = ExternalMachine(
            ["8.8.8.8"], ResolverConfig(retries=3)
        ).resolve("x.com", RRType.A)
        result = drive(gen, FaultyResponder(net, plan))
        assert result.status == Status.NOERROR
        assert result.queries_sent >= 2


class TestGluelessReferrals:
    def test_ns_address_resolved_out_of_band(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            def root(effect):
                qname = effect.name.to_text(omit_final_dot=True)
                if qname.endswith("example.net"):
                    return referral_msg("example.net", ["10.2.0.1"])
                return referral_msg("com", ["10.0.0.1"])
            net.add(ip, root)
        # com referral for example.com has NO glue; NS is ns1.example.net
        def com_server(effect):
            msg = Message(flags=Flags(response=True))
            msg.authorities.append(rr("example.com", RRType.NS, NS(N("ns1.example.net"))))
            return msg
        net.add("10.0.0.1", com_server)
        net.add("10.2.0.1", lambda e: answer_msg(
            e.name.to_text(), [rr(e.name.to_text(omit_final_dot=True), RRType.A, A("10.3.0.1"))]
        ))
        net.add("10.3.0.1", lambda e: answer_msg(
            "www.example.com", [rr("www.example.com", RRType.A, A("8.8.4.4"))]
        ))
        result = drive(machine().resolve("www.example.com", RRType.A), net)
        assert result.status == Status.NOERROR
        assert result.answers[0].rdata == A("8.8.4.4")
        assert ("10.3.0.1", "www.example.com.", 1, "udp") in net.log

    def test_unresolvable_glueless_is_servfail(self):
        net = ScriptedInternet()
        for ip in ROOTS:
            net.add(ip, lambda e: referral_msg("com", ["10.0.0.1"]))
        def com_server(effect):
            msg = Message(flags=Flags(response=True))
            msg.authorities.append(rr("example.com", RRType.NS, NS(N("ns1.dark.example"))))
            return msg
        net.add("10.0.0.1", com_server)
        config = ResolverConfig(retries=0)
        result = drive(machine(config=config).resolve("www.example.com", RRType.A), net)
        assert result.status in (Status.SERVFAIL, Status.ERROR, Status.ITERATIVE_TIMEOUT)


class TestExternalMachine:
    def responder_ok(self, effect):
        assert effect.recursion_desired
        return answer_msg(
            effect.name.to_text(), [rr(effect.name.to_text(omit_final_dot=True), RRType.A, A("5.5.5.5"))]
        )

    def test_basic_lookup(self):
        gen = ExternalMachine(["8.8.8.8"]).resolve("x.com", RRType.A)
        result = drive(gen, self.responder_ok)
        assert result.status == Status.NOERROR
        assert result.resolver == "8.8.8.8:53"
        assert result.queries_sent == 1

    def test_timeout_retries_then_fails(self):
        gen = ExternalMachine(["8.8.8.8"], ResolverConfig(retries=2)).resolve("x.com", RRType.A)
        calls = []
        result = drive(gen, lambda e: calls.append(1))
        assert result.status == Status.TIMEOUT
        assert len(calls) == 3
        assert result.retries_used == 3

    def test_servfail_retried_then_reported(self):
        attempts = []
        def responder(effect):
            attempts.append(1)
            return answer_msg("x.com", [], rcode=Rcode.SERVFAIL)
        gen = ExternalMachine(["8.8.8.8"], ResolverConfig(retries=1)).resolve("x.com", RRType.A)
        result = drive(gen, responder)
        assert result.status == Status.SERVFAIL
        assert len(attempts) == 2

    def test_truncated_retries_over_tcp(self):
        def responder(effect):
            if effect.protocol == "udp":
                return answer_msg("x.com", [], truncated=True)
            return answer_msg("x.com", [rr("x.com", RRType.A, A("6.6.6.6"))])
        gen = ExternalMachine(["8.8.8.8"]).resolve("x.com", RRType.A)
        result = drive(gen, responder)
        assert result.status == Status.NOERROR
        assert result.protocol == "tcp"

    def test_load_balances_across_resolvers(self):
        ips = {f"8.8.8.{i}" for i in range(4)}
        seen = set()
        def responder(effect):
            seen.add(effect.server_ip)
            return None
        gen = ExternalMachine(sorted(ips), ResolverConfig(retries=20)).resolve("x.com", RRType.A)
        drive(gen, responder)
        assert len(seen) >= 3

    def test_requires_a_resolver(self):
        with pytest.raises(ValueError):
            ExternalMachine([])

    def test_nxdomain_passthrough(self):
        gen = ExternalMachine(["8.8.8.8"]).resolve("gone.com", RRType.A)
        result = drive(gen, lambda e: answer_msg("gone.com", [], rcode=Rcode.NXDOMAIN))
        assert result.status == Status.NXDOMAIN
        assert result.is_success

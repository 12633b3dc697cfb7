"""Tests for the simulated authoritative servers and public resolvers."""

import pytest

from repro.dnslib import DNSClass, Message, Name, Rcode, RRType, add_edns, name_from_ipv4_ptr
from repro.ecosystem import (
    ArpaServer,
    EcosystemParams,
    InfraServer,
    ProviderAuthServer,
    PublicResolver,
    RdnsOperatorServer,
    RootServer,
    TLDServer,
    ZoneSynthesizer,
)
from repro.ecosystem.dnssec import ds_matches, verify_rrsig
from repro.ecosystem.zonegen import provider_ns_ip, provider_ns_name

N = Name.from_text


@pytest.fixture(scope="module")
def synth():
    return ZoneSynthesizer(EcosystemParams(seed=33))


def ask(server, name, rrtype=RRType.A, client="198.18.0.0", now=0.0, protocol="udp", rrclass=DNSClass.IN,
        do=False):
    query = Message.make_query(name, rrtype, rrclass=rrclass, txid=7, recursion_desired=False)
    if do:
        add_edns(query, dnssec_ok=True)
    reply = server.handle_query(query, client, now, protocol)
    return reply.message if reply is not None else None


def find_domain(synth, predicate, tld="com", prefix="srv", limit=60_000):
    for i in range(limit):
        base = N(f"{prefix}-{i}.{tld}")
        if predicate(synth.profile(base)):
            return base, synth.profile(base)
    raise AssertionError("not found")


class TestRootServer:
    def test_tld_referral_with_glue(self, synth):
        root = RootServer(synth)
        response = ask(root, "example.com")
        assert response.rcode == Rcode.NOERROR
        assert not response.flags.authoritative
        ns_names = [r.rdata.target for r in response.authorities]
        assert len(ns_names) == 2
        glue = {r.name: r.rdata.address for r in response.additionals}
        assert set(glue) == set(ns_names)

    def test_unknown_tld_nxdomain(self, synth):
        root = RootServer(synth)
        assert ask(root, "host.unknown-tld").rcode == Rcode.NXDOMAIN

    def test_arpa_referral(self, synth):
        root = RootServer(synth)
        response = ask(root, "1.2.0.192.in-addr.arpa", RRType.PTR)
        assert response.authorities
        assert response.authorities[0].name == N("in-addr.arpa")

    def test_example_tld_referral(self, synth):
        root = RootServer(synth)
        response = ask(root, "ns1.cloudflare-dns.example")
        assert {r.rdata.address for r in response.additionals} == set(synth.infra_server_ips())

    def test_root_itself(self, synth):
        root = RootServer(synth)
        response = ask(root, ".")
        assert response.rcode == Rcode.NOERROR
        assert not response.answers


class TestTLDServer:
    def test_registered_domain_referral(self, synth):
        base, profile = find_domain(synth, lambda p: p.exists)
        server = TLDServer(synth, "com")
        response = ask(server, base)
        ns_ips = {r.rdata.address for r in response.additionals}
        assert ns_ips == {ns.ip for ns in profile.nameservers}

    def test_unregistered_nxdomain(self, synth):
        base, _ = find_domain(synth, lambda p: not p.exists and not p.dead)
        response = ask(TLDServer(synth, "com"), base)
        assert response.rcode == Rcode.NXDOMAIN
        assert response.authorities[0].rrtype == RRType.SOA

    def test_dead_domain_referred_to_dark_space(self, synth):
        base, _ = find_domain(synth, lambda p: p.dead)
        response = ask(TLDServer(synth, "com"), base)
        assert response.rcode == Rcode.NOERROR
        for record in response.additionals:
            assert record.rdata.address.startswith("203.0.113.")

    def test_out_of_zone_refused(self, synth):
        response = ask(TLDServer(synth, "com"), "example.net")
        assert response.rcode == Rcode.REFUSED


class TestReferralProofs:
    """A DO-bit referral from a signed parent carries the child's DS /
    no-DS proof (RFC 4035 section 3.1.4.1).  Fixture zones are the
    seed-2022 ones ``tests/test_dnssec.py`` pins."""

    #: DO-less referrals for ``smoke-124.org``, captured on the commit
    #: before referrals learned to carry proofs.
    ROOT_REFERRAL = (
        "00078000000100000002000209736d6f6b652d313234036f72670000010001c016000200010002a3"
        "000015036e7331076e69632d6f7267076578616d706c6500c016000200010002a3000006036e7332"
        "c02fc02b000100010002a3000004c0060201c04c000100010002a3000004c0060202"
    )
    ORG_REFERRAL = (
        "00078000000100000004000409736d6f6b652d313234036f72670000010001c00c000200010002a3"
        "00001b036e73340d6e616d6563686561702d646e73076578616d706c6500c00c000200010002a300"
        "0006036e7333c02fc00c000200010002a3000006036e7332c02fc00c000200010002a3000006036e"
        "7331c02fc02b000100010002a3000004c0070404c052000100010002a3000004c0070403c0640001"
        "00010002a3000004c0070402c076000100010002a3000004c0070401"
    )

    @pytest.fixture(scope="class")
    def signed(self):
        return ZoneSynthesizer(EcosystemParams(seed=2022))

    def proof_of(self, signed, server, child):
        """The non-NS authority records of a DO referral for ``child``,
        RRSIG checked under the parent's key."""
        response = ask(server, child, do=True)
        assert not response.flags.authoritative
        extra = [r for r in response.authorities if r.rrtype != RRType.NS]
        assert all(r.name == N(child) for r in extra)
        rrset, rrsig = extra
        assert rrsig.rrtype == RRType.RRSIG and rrsig.rdata.type_covered == int(rrset.rrtype)
        parent = N(child).parent()
        assert rrsig.rdata.signer == parent
        assert verify_rrsig(rrsig.rdata, [rrset], signed.dnssec_profile(parent).key)
        return rrset

    def test_signed_child_gets_ds(self, signed):
        ds = self.proof_of(signed, TLDServer(signed, "org"), "smoke-124.org")
        assert ds.rrtype == RRType.DS
        child = N("smoke-124.org")
        assert ds_matches(ds.rdata, signed.dnssec_profile(child).key, child)

    def test_root_vouches_for_signed_tld(self, signed):
        ds = self.proof_of(signed, RootServer(signed), "org")
        assert ds.rrtype == RRType.DS
        assert ds_matches(ds.rdata, signed.dnssec_profile(N("org")).key, N("org"))

    @pytest.mark.parametrize("child", ["smoke-0.org", "smoke-203.org"])
    def test_unsigned_and_island_children_get_nsec(self, signed, child):
        nsec = self.proof_of(signed, TLDServer(signed, "org"), child)
        assert nsec.rrtype == RRType.NSEC
        assert int(RRType.NS) in nsec.rdata.types
        assert int(RRType.DS) not in nsec.rdata.types

    def test_broken_ds_is_served_as_planted(self, signed):
        ds = self.proof_of(signed, TLDServer(signed, "org"), "smoke-687.org")
        assert ds.rrtype == RRType.DS
        child = N("smoke-687.org")
        assert not ds_matches(ds.rdata, signed.dnssec_profile(child).key, child)

    def test_dead_delegation_carries_its_proof_too(self, signed):
        base, _ = find_domain(signed, lambda p: p.dead, tld="org", prefix="smoke")
        self.proof_of(signed, TLDServer(signed, "org"), base.to_text(omit_final_dot=True))

    def test_unsigned_parent_carries_nothing(self, signed):
        assert not signed.dnssec_profile(N("com")).signed
        response = ask(TLDServer(signed, "com"), "smoke-0.com", do=True)
        assert {r.rrtype for r in response.authorities} == {RRType.NS}

    def test_do_less_referral_bytes_unchanged(self, signed):
        root = ask(RootServer(signed), "smoke-124.org")
        assert root.to_wire().hex() == self.ROOT_REFERRAL
        org = ask(TLDServer(signed, "org"), "smoke-124.org")
        assert org.to_wire().hex() == self.ORG_REFERRAL


class TestProviderAuthServer:
    def make_server(self, synth, profile, ns_index=0):
        target = profile.nameservers[ns_index]
        slot = int(target.name.labels[0][2:]) - 1
        return ProviderAuthServer(synth, profile.provider_index, slot, seed=33)

    def test_answers_a_for_hosted_domain(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and not p.truncates
            and p.nameservers[0].drop_prob == 0 and not p.nameservers[0].lame
        )
        server = self.make_server(synth, profile)
        response = ask(server, base)
        assert response.flags.authoritative
        assert {r.rdata.address for r in response.answers} == {
            record.address for record in synth.host_addresses(base, "a")
        }

    def test_refuses_unhosted_domain(self, synth):
        base, profile = find_domain(synth, lambda p: p.exists)
        other = next(
            i for i, p in enumerate(synth.params.providers) if i != profile.provider_index
        )
        server = ProviderAuthServer(synth, other, 0, seed=33)
        response = ask(server, base)
        assert response.rcode == Rcode.REFUSED
        assert server.refused == 1

    def test_lame_delegation_refuses(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and any(ns.lame for ns in p.nameservers),
            limit=200_000,
        )
        index = next(i for i, ns in enumerate(profile.nameservers) if ns.lame)
        server = self.make_server(synth, profile, index)
        assert ask(server, base).rcode == Rcode.REFUSED

    def test_severe_flaky_drops_most_queries(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and any(ns.drop_prob > 0.9 for ns in p.nameservers),
            limit=400_000,
        )
        index = next(i for i, ns in enumerate(profile.nameservers) if ns.drop_prob > 0.9)
        server = self.make_server(synth, profile, index)
        answered = sum(ask(server, base) is not None for _ in range(50))
        assert answered < 25

    def test_truncation_on_udp_but_not_tcp(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and p.truncates and p.nameservers[0].drop_prob == 0
            and not p.nameservers[0].lame
        )
        server = self.make_server(synth, profile)
        udp = ask(server, base, protocol="udp")
        tcp = ask(server, base, protocol="tcp")
        assert udp.flags.truncated and not udp.answers
        assert not tcp.flags.truncated and tcp.answers

    def test_version_bind_chaos(self, synth):
        base, profile = find_domain(synth, lambda p: p.exists)
        server = self.make_server(synth, profile)
        response = ask(server, "version.bind", RRType.TXT, rrclass=DNSClass.CH)
        assert response.answers
        assert response.answers[0].rdata.joined()

    def test_nxdomain_for_missing_subdomain(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and p.nameservers[0].drop_prob == 0
            and not p.nameservers[0].lame
        )
        server = self.make_server(synth, profile)
        missing = next(
            label for label in ("zz1", "zz2", "zz3", "zz4", "zz5", "qqq", "zzz9")
            if not synth.subdomain_exists(N(label).concatenate(base), profile)
        )
        response = ask(server, N(missing).concatenate(base))
        assert response.rcode == Rcode.NXDOMAIN


class TestInfraServer:
    def test_resolves_nameserver_hosts(self, synth):
        infra = InfraServer(synth)
        name = provider_ns_name(synth.params.providers[2], 1)
        response = ask(infra, name)
        assert response.answers[0].rdata.address == provider_ns_ip(2, 1)

    def test_resolves_ptr_targets(self, synth):
        infra = InfraServer(synth)
        target = synth.ptr_target("23.4.5.6")
        response = ask(infra, target)
        assert response.answers

    def test_refuses_foreign_zone(self, synth):
        assert ask(InfraServer(synth), "www.google.com").rcode == Rcode.REFUSED


class TestReverseTree:
    def test_arpa_delegates_slash8(self, synth):
        arpa = ArpaServer(synth)
        response = ask(arpa, "9.8.7.23.in-addr.arpa", RRType.PTR)
        assert response.authorities[0].name == N("23.in-addr.arpa")

    def test_operator_walk_to_leaf(self, synth):
        ip = next(
            f"23.40.{i}.9" for i in range(256) if synth.ptr_status(f"23.40.{i}.9") == "noerror"
        )
        octets = tuple(int(x) for x in ip.split("."))
        name = name_from_ipv4_ptr(ip)

        op8 = synth.rdns_operator(octets[:1])
        server8 = RdnsOperatorServer(synth, op8, 0)
        ref16 = ask(server8, name, RRType.PTR)
        assert ref16.authorities[0].name == N(f"{octets[1]}.{octets[0]}.in-addr.arpa")

        op16 = synth.rdns_operator(octets[:2])
        server16 = RdnsOperatorServer(synth, op16, 0)
        ref24 = ask(server16, name, RRType.PTR)
        assert ref24.authorities[0].name == N(
            f"{octets[2]}.{octets[1]}.{octets[0]}.in-addr.arpa"
        )

        op24 = synth.rdns_operator(octets[:3])
        server24 = RdnsOperatorServer(synth, op24, 0)
        answer = ask(server24, name, RRType.PTR)
        assert answer.flags.authoritative
        assert answer.answers[0].rdata.target == synth.ptr_target(ip)

    def test_nxdomain_leaf(self, synth):
        ip = next(
            f"23.41.{i}.9" for i in range(256) if synth.ptr_status(f"23.41.{i}.9") == "nxdomain"
        )
        octets = tuple(int(x) for x in ip.split("."))
        server = RdnsOperatorServer(synth, synth.rdns_operator(octets[:3]), 0)
        assert ask(server, name_from_ipv4_ptr(ip), RRType.PTR).rcode == Rcode.NXDOMAIN

    def test_wrong_operator_refuses(self, synth):
        octets = (23, 42, 7)
        op24 = synth.rdns_operator(octets)
        wrong = (op24 + 1) % synth.params.rdns_operators
        # ensure the wrong operator isn't coincidentally authoritative
        # for a parent zone of this name
        if synth.rdns_operator(octets[:1]) == wrong or synth.rdns_operator(octets[:2]) == wrong:
            wrong = (op24 + 2) % synth.params.rdns_operators
        server = RdnsOperatorServer(synth, wrong, 0)
        response = ask(server, name_from_ipv4_ptr("23.42.7.1"), RRType.PTR)
        if response is not None:
            assert response.rcode == Rcode.REFUSED


class TestNothingKept:
    """No server keeps a response: identical queries are answered with
    equal bytes in section lists of their own, so a client that
    sanitises one reply cannot edit the next."""

    def cases(self, synth):
        base, profile = find_domain(
            synth, lambda p: p.exists and not p.truncates
            and p.nameservers[0].drop_prob == 0 and not p.nameservers[0].lame
        )
        slot = int(profile.nameservers[0].name.labels[0][2:]) - 1
        leaf = next(
            f"23.40.{i}.9" for i in range(256) if synth.ptr_status(f"23.40.{i}.9") == "noerror"
        )
        leaf_operator = synth.rdns_operator(tuple(int(x) for x in leaf.split("."))[:3])
        return [
            (RootServer(synth), "example.com", RRType.A),
            (TLDServer(synth, "com"), base, RRType.A),
            (InfraServer(synth), synth.tld_ns_name("com", 0), RRType.A),
            (ProviderAuthServer(synth, profile.provider_index, slot, seed=33), base, RRType.A),
            (ArpaServer(synth), "9.8.7.23.in-addr.arpa", RRType.PTR),
            (RdnsOperatorServer(synth, leaf_operator, 0), name_from_ipv4_ptr(leaf), RRType.PTR),
        ]

    @pytest.mark.parametrize("do", [False, True])
    def test_equal_bytes_in_lists_of_their_own(self, synth, do):
        for server, name, rrtype in self.cases(synth):
            first = ask(server, name, rrtype, do=do)
            second = ask(server, name, rrtype, do=do)
            wire = second.to_wire()
            assert first.to_wire() == wire, type(server).__name__
            assert first.answers or first.authorities
            for section in ("questions", "answers", "authorities", "additionals"):
                assert getattr(first, section) is not getattr(second, section)
                getattr(first, section).clear()  # what a sanitising client may do
            assert ask(server, name, rrtype, do=do).to_wire() == wire, type(server).__name__


class TestPublicResolverModel:
    def test_google_rate_limit_drops(self, synth):
        resolver = PublicResolver(synth, rate_limit_per_ip=10.0)
        query = Message.make_query("a.com", RRType.A)
        outcomes = [
            resolver.handle_query(query, "1.2.3.4", 0.0, "udp") for _ in range(30)
        ]
        assert any(outcome is None for outcome in outcomes)
        assert resolver.stats.rate_limited > 0

    def test_rate_limit_is_per_client(self, synth):
        resolver = PublicResolver(synth, rate_limit_per_ip=10.0)
        query = Message.make_query("a.com", RRType.A)
        for _ in range(30):
            resolver.handle_query(query, "1.2.3.4", 0.0, "udp")
        assert resolver.handle_query(query, "5.6.7.8", 0.0, "udp") is not None

    def test_capacity_shedding_servfails(self, synth):
        resolver = PublicResolver(synth, capacity=10.0, max_backlog=0.1)
        query = Message.make_query("a.com", RRType.A)
        rcodes = [
            resolver.handle_query(query, "1.2.3.4", 0.0, "udp").message.rcode
            for _ in range(50)
        ]
        assert Rcode.SERVFAIL in rcodes
        assert resolver.stats.shed > 0

    def test_warm_cache_faster_on_retry(self, synth):
        resolver = PublicResolver.cloudflare_like(synth)
        # find a name with a slow first recursion
        for i in range(5000):
            name = f"slow-{i}.com"
            profile = synth.profile(N(name))
            if not profile.exists:
                continue
            query = Message.make_query(name, RRType.A)
            first = resolver.handle_query(query, "1.1.2.2", 0.0, "udp")
            if first.delay > 0.4:
                second = resolver.handle_query(query, "1.1.2.2", 0.0, "udp")
                assert second.delay < first.delay
                return
        pytest.skip("no slow-tail name found in sample")

    def test_recursion_available_flag_set(self, synth):
        resolver = PublicResolver.cloudflare_like(synth)
        reply = resolver.handle_query(Message.make_query("a.com", RRType.A), "9.9.9.9", 0.0, "udp")
        assert reply.message.flags.recursion_available

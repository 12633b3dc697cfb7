"""Tests for scan modules running on the simulated Internet."""

import pytest

from repro.core import ResolverConfig, SelectiveCache
from repro.core.engine import SimDriver
from repro.dnslib import Name, RRType
from repro.ecosystem import EcosystemParams, build_internet
from repro.modules import ModuleContext, available_modules, get_module
from repro.net import SimUDPSocket, SourceIPPool

N = Name.from_text


@pytest.fixture(scope="module")
def internet():
    return build_internet(params=EcosystemParams(seed=99))


@pytest.fixture(scope="module")
def synth(internet):
    return internet.synth


def run_module(internet, module_name, raw_input, mode="iterative", retries=2, **ctx_kwargs):
    module = get_module(module_name)
    context = ModuleContext(
        mode=mode,
        root_ips=internet.root_ips,
        resolver_ips=[internet.google_ip],
        cache=SelectiveCache(capacity=10_000),
        config=ResolverConfig(retries=retries),
        **ctx_kwargs,
    )
    driver = SimDriver(internet.network)
    socket = SimUDPSocket(internet.network, SourceIPPool())
    routine = driver.execute(module.lookup(raw_input, context), socket)
    future = internet.sim.spawn(routine)
    internet.sim.run()
    row = future.result()
    row.pop("_result", None)
    return row


def find(synth, predicate, tld="com", prefix="mtest", limit=50000):
    for i in range(limit):
        base = N(f"{prefix}-{i}.{tld}")
        profile = synth.profile(base)
        if predicate(profile):
            return f"{prefix}-{i}.{tld}", profile
    raise AssertionError("no matching domain")


class TestRegistry:
    def test_all_paper_types_have_modules(self):
        modules = set(available_modules())
        for name in ["A", "AAAA", "CAA", "MX", "TXT", "PTR", "NS", "SOA", "SPF", "URI"]:
            assert name in modules

    def test_lookup_modules_registered(self):
        modules = set(available_modules())
        assert {"ALOOKUP", "MXLOOKUP", "NSLOOKUP", "SPFLOOKUP", "DMARC",
                "BINDVERSION", "CAALOOKUP", "ALLNS", "PTRIP"} <= modules

    def test_case_insensitive(self):
        assert get_module("mxlookup").name == "MXLOOKUP"

    def test_unknown_module_raises(self):
        with pytest.raises(KeyError):
            get_module("NOPE")

    def test_at_least_60_modules(self):
        assert len(available_modules()) >= 60


class TestRawModules:
    def test_a_module_row_shape(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and not p.truncates)
        row = run_module(internet, "A", name)
        assert row["status"] == "NOERROR"
        assert row["name"] == name
        assert row["data"]["answers"]
        assert all(a["type"] == "A" for a in row["data"]["answers"])

    def test_ns_module(self, internet, synth):
        name, profile = find(synth, lambda p: p.exists)
        row = run_module(internet, "NS", name)
        assert row["status"] == "NOERROR"
        got = {a["answer"].rstrip(".") for a in row["data"]["answers"]}
        want = {ns.name.to_text(omit_final_dot=True) for ns in profile.nameservers}
        assert got == want

    def test_txt_module_spf_content(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and p.has_spf)
        row = run_module(internet, "TXT", name)
        assert any("v=spf1" in a["answer"] for a in row["data"]["answers"])

    def test_soa_module(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists)
        row = run_module(internet, "SOA", name)
        assert row["data"]["answers"][0]["answer"]["serial"] > 0

    def test_ptrip_module_accepts_plain_ip(self, internet, synth):
        ip = next(
            f"23.11.{i}.8" for i in range(200) if synth.ptr_status(f"23.11.{i}.8") == "noerror"
        )
        row = run_module(internet, "PTRIP", ip)
        assert row["status"] == "NOERROR"
        assert row["data"]["answers"][0]["type"] == "PTR"

    def test_external_mode(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists)
        row = run_module(internet, "A", name, mode="external")
        assert row["status"] == "NOERROR"
        assert row["data"]["resolver"] == "8.8.8.8:53"


class TestLookupModules:
    def test_alookup_returns_addresses(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and not p.truncates)
        row = run_module(internet, "ALOOKUP", name)
        assert row["status"] == "NOERROR"
        assert row["data"]["ipv4_addresses"]

    def test_alookup_follows_www_cname(self, internet, synth):
        name, profile = find(
            synth, lambda p: p.exists and p.www_is_cname and not p.truncates
        )
        fqdn = f"www.{name}"
        if not synth.subdomain_exists(N(fqdn), profile):
            pytest.skip("www missing for this domain")
        row = run_module(internet, "ALOOKUP", fqdn)
        assert row["status"] == "NOERROR"
        assert set(row["data"]["ipv4_addresses"]) == {
            record.address for record in synth.host_addresses(N(name), "a")
        }

    def test_mxlookup_resolves_exchanges(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and p.has_mx and not p.truncates)
        row = run_module(internet, "MXLOOKUP", name)
        assert row["status"] == "NOERROR"
        assert row["data"]["exchanges"]
        for exchange in row["data"]["exchanges"]:
            assert exchange["ipv4_addresses"], exchange
            assert exchange["preference"] % 10 == 0

    def test_nslookup_addresses_match_profile(self, internet, synth):
        name, profile = find(synth, lambda p: p.exists)
        row = run_module(internet, "NSLOOKUP", name)
        ips = {ip for server in row["data"]["servers"] for ip in server["ipv4_addresses"]}
        assert ips == {ns.ip for ns in profile.nameservers}


class TestALookupIPv6Leg:
    """Regression: the --ipv6 leg used to run on a *second* machine from
    ``context.machine()`` (separate health/rng view) and its query and
    retry accounting was thrown away — ``queries_sent`` covered only the
    IPv4 leg, undercounting the scan's real traffic."""

    def _drive_counting(self, gen, internet):
        """Drive a module generator by answering SendQuery effects
        straight from the simulated servers, counting every query."""
        from repro.core import Backoff, SendQuery
        from repro.dnslib import Message

        sent = 0
        try:
            effect = next(gen)
            while True:
                if isinstance(effect, Backoff):
                    effect = gen.send(None)
                    continue
                assert isinstance(effect, SendQuery)
                sent += 1
                server = internet.network.server_for(effect.server_ip)
                response = None
                if server is not None:
                    query = Message.make_query(effect.name, effect.qtype)
                    reply = server.handle_query(
                        query, "192.0.2.77", 0.0, effect.protocol
                    )
                    response = reply.message if reply is not None else None
                effect = gen.send(response)
        except StopIteration as stop:
            return stop.value, sent

    def test_ipv6_leg_queries_are_accounted(self):
        from repro.modules.lookups import ALookupModule

        internet = build_internet(params=EcosystemParams(seed=7))
        synth = internet.synth
        module = ALookupModule()
        module.include_ipv6 = True

        name = None
        for i in range(50_000):
            candidate = f"v6test-{i}.com"
            profile = synth.profile(N(candidate))
            if profile.exists and not profile.truncates and all(
                ns.drop_prob == 0 and not ns.lame for ns in profile.nameservers
            ):
                name = candidate
                break
        assert name is not None

        context = ModuleContext(
            mode="iterative",
            root_ips=internet.root_ips,
            resolver_ips=[],
            cache=SelectiveCache(capacity=10_000),
            config=ResolverConfig(retries=2),
        )
        row, sent = self._drive_counting(module.lookup(name, context), internet)
        assert row["status"] == "NOERROR"
        assert "ipv6_addresses" in row["data"]
        result = row["_result"]
        # the AAAA leg is at least one extra query beyond the IPv4 walk,
        # and every wire query must be visible in the row's accounting
        assert result.queries_sent == sent
        assert sent >= 2

    def test_ipv6_leg_reuses_the_cache(self):
        """The AAAA leg must start from the delegations the IPv4 walk
        just cached — one shared machine, not a cold second resolver."""
        from repro.modules.lookups import ALookupModule

        internet = build_internet(params=EcosystemParams(seed=7))
        synth = internet.synth
        module = ALookupModule()
        module.include_ipv6 = True
        name = None
        for i in range(50_000):
            candidate = f"v6test-{i}.com"
            profile = synth.profile(N(candidate))
            if profile.exists and not profile.truncates and all(
                ns.drop_prob == 0 and not ns.lame for ns in profile.nameservers
            ):
                name = candidate
                break
        cache = SelectiveCache(capacity=10_000)
        context = ModuleContext(
            mode="iterative",
            root_ips=internet.root_ips,
            resolver_ips=[],
            cache=cache,
            config=ResolverConfig(retries=2),
        )
        row, sent = self._drive_counting(module.lookup(name, context), internet)
        assert row["status"] == "NOERROR"
        # IPv4 leg: root + com + auth = 3; AAAA leg rides the cached
        # delegation chain, so the total stays well under two full walks
        assert sent <= 4


class TestMiscModules:
    def test_spf_found(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and p.has_spf)
        row = run_module(internet, "SPFLOOKUP", name)
        assert row["status"] == "NOERROR"
        assert row["data"]["spf"].startswith("v=spf1")

    def test_spf_missing_is_error_status(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and not p.has_spf)
        row = run_module(internet, "SPFLOOKUP", name)
        assert row["status"] == "ERROR"
        assert row["data"]["spf"] is None

    def test_dmarc_found(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and p.has_dmarc)
        row = run_module(internet, "DMARC", name)
        assert row["status"] == "NOERROR"
        assert row["data"]["dmarc"].startswith("v=DMARC1")

    def test_bindversion(self, internet, synth):
        _, profile = find(synth, lambda p: p.exists)
        server_ip = profile.nameservers[0].ip
        row = run_module(internet, "BINDVERSION", server_ip)
        assert row["status"] == "NOERROR"
        assert row["data"]["version"]

    def test_caa_module_direct(self, internet, synth):
        name, profile = find(
            synth, lambda p: p.exists and p.caa is not None and not p.caa.via_cname
        )
        row = run_module(internet, "CAALOOKUP", name)
        assert row["data"]["has_caa"]
        assert not row["data"]["followed_cname"]
        tags = {record["tag"] for record in row["data"]["records"]}
        expected = set()
        if profile.caa.issue:
            expected.add("issue")
        if profile.caa.issuewild:
            expected.add("issuewild")
        if profile.caa.iodef:
            expected.add("iodef")
        expected.update(profile.caa.invalid_tags)
        assert tags == expected

    def test_caa_module_via_cname(self, internet, synth):
        name, _ = find(
            synth,
            lambda p: p.exists and p.caa is not None and p.caa.via_cname,
            limit=400_000,
        )
        row = run_module(internet, "CAALOOKUP", name)
        assert row["data"]["followed_cname"]
        assert row["data"]["has_caa"]

    def test_caa_invalid_tag_flagged(self, internet, synth):
        name, _ = find(
            synth,
            lambda p: p.exists and p.caa is not None and p.caa.invalid_tags,
            limit=800_000,
        )
        row = run_module(internet, "CAALOOKUP", name)
        assert any(not record["valid_tag"] for record in row["data"]["records"])

    def test_caa_none_for_non_holder(self, internet, synth):
        name, _ = find(synth, lambda p: p.exists and p.caa is None)
        row = run_module(internet, "CAALOOKUP", name)
        assert not row["data"]["has_caa"]


class TestAllNameserversModule:
    def test_healthy_domain_consistent(self, internet, synth):
        name, profile = find(
            synth,
            lambda p: p.exists and p.consistent_answers and not p.truncates
            and all(ns.drop_prob == 0 and not ns.lame for ns in p.nameservers),
        )
        row = run_module(internet, "ALLNS", name, retries=3)
        data = row["data"]
        assert len(data["nameservers"]) == len(profile.nameservers)
        assert data["consistent"] is True
        assert data["max_tries"] == 1

    def test_inconsistent_provider_detected(self, internet, synth):
        name, profile = find(
            synth,
            lambda p: p.exists and not p.consistent_answers and not p.truncates
            and len(p.nameservers) >= 2
            and all(ns.drop_prob == 0 and not ns.lame for ns in p.nameservers),
            limit=200_000,
        )
        row = run_module(internet, "ALLNS", name, retries=3)
        assert row["data"]["consistent"] is False

    def test_flaky_ns_needs_retries(self, internet, synth):
        name, profile = find(
            synth,
            lambda p: p.exists and not p.truncates
            and any(ns.drop_prob >= 0.9 for ns in p.nameservers),
            limit=400_000,
        )
        row = run_module(internet, "ALLNS", name, retries=9)
        assert row["data"]["max_tries"] >= 2


class TestHTTPSRecords:
    def test_https_module_on_cdn_hosted_domain(self, internet, synth):
        name, _ = find(
            synth,
            lambda p: p.exists
            and p.provider.consistent_answers
            and p.provider.ns_pool >= 6,
            limit=100_000,
        )
        # some of these domains publish HTTPS bindings; find one that does
        from repro.ecosystem import rand as _rand

        for i in range(100_000):
            candidate = f"mtest-{i}.com"
            profile = synth.profile(N(candidate))
            if (
                profile.exists
                and profile.provider.consistent_answers
                and profile.provider.ns_pool >= 6
                and _rand.uniform(synth.params.seed, candidate, "https-rr") < 0.5
                and not profile.truncates
                and all(ns.drop_prob == 0 and not ns.lame for ns in profile.nameservers)
            ):
                row = run_module(internet, "HTTPS", candidate)
                assert row["status"] == "NOERROR"
                answer = row["data"]["answers"][0]["answer"]
                assert answer["priority"] == 1
                assert "alpn" in answer["params"]
                return
        raise AssertionError("no HTTPS-publishing domain found")

    def test_https_nodata_for_small_provider(self, internet, synth):
        name, _ = find(
            synth,
            lambda p: p.exists and p.provider.ns_pool < 6 and not p.truncates
            and all(ns.drop_prob == 0 and not ns.lame for ns in p.nameservers),
        )
        row = run_module(internet, "HTTPS", name)
        assert row["status"] == "NOERROR"
        assert not row["data"]["answers"]


def test_iterative_context_without_a_cache_raises():
    """No silent clockless fallback cache (its entries never expired):
    an iterative context takes the resolver stack's cache or none."""
    with pytest.raises(ValueError, match="needs a cache"):
        ModuleContext(mode="iterative", root_ips=["198.41.0.4"])
    assert ModuleContext(mode="external", resolver_ips=["8.8.8.8"]).cache is None

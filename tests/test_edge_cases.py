"""Edge-case tests across the stack: malformed inputs, odd
configurations, and defensive behaviour."""

import pytest

from repro.core import Resolver, ResolverConfig, SelectiveCache, Status
from repro.core.machine import ExternalMachine, IterativeMachine
from repro.dnslib import Message, Name, Rcode, RRType
from repro.ecosystem import EcosystemParams, build_internet
from repro.modules import get_module, ModuleContext
from repro.net import ServerReply, SimNetwork, Simulator, LatencyModel


@pytest.fixture(scope="module")
def internet():
    return build_internet(params=EcosystemParams(seed=88), wire_mode="always")


class MalformedServer:
    """Answers with garbage bytes that fail to parse."""

    def handle_query(self, query, client_ip, now, protocol):
        response = query.make_response()
        # claim 5 answers but include none: decoders must reject this
        return ServerReply(response)


class TestResolverEdgeCases:
    def test_lookup_of_bare_tld(self, internet):
        resolver = Resolver(internet)
        result = resolver.lookup("com", RRType.A)
        # TLD apex has no A record: NOERROR/NODATA
        assert result.status in (Status.NOERROR, Status.NXDOMAIN)
        assert not result.answers

    def test_lookup_of_root(self, internet):
        resolver = Resolver(internet)
        result = resolver.lookup(".", RRType.NS)
        assert result.status in (Status.NOERROR, Status.ERROR)

    def test_unknown_tld_iterative(self, internet):
        resolver = Resolver(internet)
        result = resolver.lookup("host.notatld", RRType.A)
        assert result.status == Status.NXDOMAIN

    def test_very_deep_name(self, internet):
        resolver = Resolver(internet)
        deep = ".".join(["x"] * 20) + ".com"
        result = resolver.lookup(deep, RRType.A)
        assert result.status in (Status.NOERROR, Status.NXDOMAIN)

    def test_custom_external_resolver_list(self, internet):
        resolver = Resolver(
            internet,
            ResolverConfig(mode="external", resolver_ips=[internet.google_ip, internet.cloudflare_ip]),
        )
        result = resolver.lookup("edge-0.com", RRType.A)
        assert result.status in (Status.NOERROR, Status.NXDOMAIN)

    def test_zero_retries_config(self, internet):
        resolver = Resolver(internet, ResolverConfig(mode="google", retries=0))
        result = resolver.lookup("edge-1.com", RRType.A)
        assert result.status in (Status.NOERROR, Status.NXDOMAIN, Status.SERVFAIL, Status.TIMEOUT)

    def test_case_preserved_in_query_name(self, internet):
        resolver = Resolver(internet)
        upper = resolver.lookup("EDGE-2.COM", RRType.A)
        lower = resolver.lookup("edge-2.com", RRType.A)
        assert upper.status == lower.status


class TestQueryTypeCoverage:
    """Raw modules for less common types still behave sanely on the
    simulated Internet (NODATA rather than crashes)."""

    @pytest.mark.parametrize("module_name", [
        "AAAA", "NS", "SOA", "TXT", "MX", "CAA", "CNAME", "SRV",
        "DNSKEY", "TLSA", "NAPTR", "URI", "LOC", "SSHFP",
    ])
    def test_module_never_crashes(self, internet, module_name):
        import random

        from repro.core.engine import SimDriver
        from repro.net import SimUDPSocket, SourceIPPool

        module = get_module(module_name)
        context = ModuleContext(
            mode="external",
            resolver_ips=[internet.google_ip],
            config=ResolverConfig(retries=1),
            rng=random.Random(1),
        )
        driver = SimDriver(internet.network)
        socket = SimUDPSocket(internet.network, SourceIPPool())
        routine = driver.execute(module.lookup("edge-3.com", context), socket)
        future = internet.sim.spawn(routine)
        internet.sim.run()
        row = future.result()
        assert "status" in row


class TestMachineDefensiveness:
    def test_iterative_with_no_root_servers(self):
        machine = IterativeMachine(SelectiveCache(), [], ResolverConfig())
        gen = machine.resolve("a.com", RRType.A)
        with pytest.raises(Exception):
            # zero servers is a configuration error; it must not loop
            effect = next(gen)
            for _ in range(100):
                effect = gen.send(None)

    def test_external_timeout_zero_times_out_fast(self):
        sim = Simulator()
        network = SimNetwork(sim, wire_mode="never")
        network.register_server("10.0.0.1", MalformedServer(), latency=LatencyModel(median=0.05))
        machine = ExternalMachine(["10.0.0.1"], ResolverConfig(retries=0, external_timeout=0.01))

        def routine():
            gen = machine.resolve("a.com", RRType.A)
            effect = next(gen)
            response = yield network.query_udp("198.18.0.0", effect.server_ip,
                                               _msg(effect), effect.timeout)
            try:
                gen.send(response)
            except StopIteration as stop:
                return stop.value

        future = sim.spawn(routine())
        sim.run()
        assert future.result().status == Status.TIMEOUT


def _msg(effect):
    return Message.make_query(effect.name, effect.qtype, recursion_desired=True)

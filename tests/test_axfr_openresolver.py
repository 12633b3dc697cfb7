"""Tests for the AXFR and open-resolver modules."""

import random

import pytest

from repro.core import ResolverConfig, SelectiveCache
from repro.core.engine import SimDriver
from repro.dnslib import Name, RRType, parse_zone
from repro.ecosystem import EcosystemParams, build_internet
from repro.ecosystem.staticzone import StaticZoneServer
from repro.ecosystem.zonegen import provider_ns_ip
from repro.modules import ModuleContext, get_module
from repro.net import LatencyModel, SimUDPSocket, SourceIPPool

ZONE = """\
$ORIGIN transfer.test.
$TTL 300
@    IN SOA ns1.transfer.test. admin.transfer.test. 7 2 3 4 5
@    IN NS  ns1
ns1  IN A   10.7.0.1
@    IN A   192.0.2.50
www  IN A   192.0.2.51
"""


@pytest.fixture(scope="module")
def internet():
    inet = build_internet(params=EcosystemParams(seed=111), wire_mode="never")
    # an (atypically) transfer-permissive static server
    server = StaticZoneServer(parse_zone(ZONE))
    inet.network.register_server("10.7.0.1", server, latency=LatencyModel(median=0.01))
    return inet


def run_module(internet, module_name, raw, **module_attrs):
    module = get_module(module_name)
    for key, value in module_attrs.items():
        setattr(module, key, value)
    context = ModuleContext(
        mode="iterative",
        root_ips=internet.root_ips,
        resolver_ips=[internet.google_ip],
        cache=SelectiveCache(capacity=10_000),
        config=ResolverConfig(retries=1),
        rng=random.Random(2),
    )
    driver = SimDriver(internet.network)
    socket = SimUDPSocket(internet.network, SourceIPPool())
    future = internet.sim.spawn(driver.execute(module.lookup(raw, context), socket))
    internet.sim.run()
    row = future.result()
    row.pop("_result", None)
    return row


class TestAXFR:
    def test_transferable_zone(self, internet):
        row = run_module(internet, "AXFR", "transfer.test@10.7.0.1")
        assert row["data"]["transferable"]
        # SOA twice + NS + 3 A records
        assert row["data"]["record_count"] == 6

    def test_refused_for_wrong_zone(self, internet):
        row = run_module(internet, "AXFR", "other.test@10.7.0.1")
        assert not row["data"]["transferable"]
        assert row["data"]["attempts"][0]["status"] == "REFUSED"

    def test_provider_servers_refuse_axfr(self, internet):
        synth = internet.synth
        base = next(
            Name.from_text(f"ax-{i}.com")
            for i in range(20_000)
            if synth.profile(Name.from_text(f"ax-{i}.com")).exists
        )
        row = run_module(internet, "AXFR", base.to_text(omit_final_dot=True))
        assert not row["data"]["transferable"]
        assert row["data"]["attempts"]

    def test_unresponsive_server(self, internet):
        row = run_module(internet, "AXFR", "transfer.test@10.99.99.99")
        assert row["data"]["attempts"][0]["status"] == "TIMEOUT"


class TestOpenResolver:
    def probe(self, internet, synth):
        for i in range(20_000):
            name = f"probe-{i}.com"
            if synth.profile(Name.from_text(name)).exists:
                return name
        raise AssertionError

    def test_public_resolver_is_open(self, internet):
        probe = self.probe(internet, internet.synth)
        row = run_module(internet, "OPENRESOLVER", "8.8.8.8", probe_name=probe)
        assert row["data"]["classification"] == "open"
        assert row["data"]["recursion_available"] is True

    def test_authoritative_server_is_closed(self, internet):
        synth = internet.synth
        profile = synth.profile(Name.from_text(self.probe(internet, synth)))
        # ask a *different* provider's server: it refuses
        other_index = (profile.provider_index + 1) % len(synth.params.providers)
        server_ip = provider_ns_ip(other_index, 0)
        row = run_module(
            internet, "OPENRESOLVER", server_ip, probe_name=self.probe(internet, synth)
        )
        assert row["data"]["classification"] == "closed"

    def test_dark_address_unresponsive(self, internet):
        row = run_module(internet, "OPENRESOLVER", "203.0.113.250")
        assert row["data"]["classification"] == "unresponsive"
        assert row["status"] == "TIMEOUT"

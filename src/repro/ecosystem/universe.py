"""Assembly of the simulated Internet: wires every server into a
SimNetwork and exposes the handles experiments need."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net import LatencyModel, LossModel, SimNetwork, Simulator
from .params import (
    CLOUDFLARE_RESOLVER_IP,
    GOOGLE_RESOLVER_IP,
    ROOT_SERVER_IPS,
    EcosystemParams,
)
from .publicresolver import PublicResolver
from .servers import (
    ArpaServer,
    InfraServer,
    ProviderAuthServer,
    RdnsOperatorServer,
    RootServer,
    TLDServer,
)
from .zonegen import ZoneSynthesizer


@dataclass
class SimInternet:
    """A fully wired simulated Internet."""

    sim: Simulator
    network: SimNetwork
    synth: ZoneSynthesizer
    params: EcosystemParams
    root_ips: list[str]
    google: PublicResolver
    cloudflare: PublicResolver
    provider_servers: list[ProviderAuthServer] = field(default_factory=list)

    @property
    def google_ip(self) -> str:
        return GOOGLE_RESOLVER_IP

    @property
    def cloudflare_ip(self) -> str:
        return CLOUDFLARE_RESOLVER_IP


def build_internet(
    sim: Simulator | None = None,
    params: EcosystemParams | None = None,
    wire_mode: str = "always",
    wire_sample: int = 16,
    net_seed: int | None = None,
    faults=None,
    chaos_seed: int = 0,
) -> SimInternet:
    """Construct the whole simulated DNS universe.

    Registers: 13 roots, 2 servers per TLD, every provider nameserver
    host, the ``example`` infrastructure servers, the arpa servers, two
    hosts per reverse-DNS operator, and both public resolvers.

    ``net_seed`` decouples the network RNG (latency/loss draws) from the
    ecosystem seed (zone contents).  The multi-process executor builds
    the *same* universe in every shard (``params.seed``) but gives each
    shard an independent packet-level RNG stream, exactly as disjoint
    slices of one Internet would behave.

    ``faults`` is a :class:`~repro.faults.FaultPlan`, or a spec naming
    one (a JSON file path or a bundled plan name); when given, a
    :class:`~repro.faults.FaultInjector` seeded with ``chaos_seed``
    executes it on the network.  This is the one place a plan is
    attached, so the fault subsystem loads only for a run that has one.
    """
    params = params or EcosystemParams()
    sim = sim or Simulator()
    network = SimNetwork(
        sim,
        seed=params.seed if net_seed is None else net_seed,
        wire_mode=wire_mode,
        wire_sample=wire_sample,
    )
    synth = ZoneSynthesizer(params)

    root_latency = LatencyModel(median=params.root_rtt)
    tld_latency = LatencyModel(median=params.tld_rtt)
    auth_latency = LatencyModel(median=params.auth_rtt)
    rdns_latency = LatencyModel(median=params.rdns_rtt)
    auth_loss = LossModel(params.auth_loss)

    root = RootServer(synth)
    for ip in ROOT_SERVER_IPS:
        network.register_server(ip, root, latency=root_latency, loss=LossModel(0.002))

    for tld, _cls in synth.tlds():
        server = TLDServer(synth, tld)
        for k in range(2):
            network.register_server(
                synth.tld_ns_ip(tld, k), server, latency=tld_latency, loss=LossModel(0.004)
            )

    infra = InfraServer(synth)
    for ip in synth.infra_server_ips():
        network.register_server(ip, infra, latency=tld_latency, loss=LossModel(0.004))

    provider_servers: list[ProviderAuthServer] = []
    for index, provider in enumerate(params.providers):
        for slot in range(provider.ns_pool):
            server = ProviderAuthServer(synth, index, slot, seed=params.seed)
            provider_servers.append(server)
            network.register_server(server.ip, server, latency=auth_latency, loss=auth_loss)

    arpa = ArpaServer(synth)
    for ip in synth.arpa_server_ips():
        network.register_server(ip, arpa, latency=root_latency, loss=LossModel(0.002))

    for operator in range(params.rdns_operators):
        for slot in range(2):
            server = RdnsOperatorServer(synth, operator, slot)
            network.register_server(
                synth.rdns_ns_ip(operator, slot), server, latency=rdns_latency, loss=auth_loss
            )

    google = PublicResolver.google_like(synth)
    cloudflare = PublicResolver.cloudflare_like(synth)
    public_latency = LatencyModel(median=params.public_rtt)
    network.register_server(GOOGLE_RESOLVER_IP, google, latency=public_latency, loss=LossModel(0.004))
    network.register_server(CLOUDFLARE_RESOLVER_IP, cloudflare, latency=public_latency, loss=LossModel(0.004))

    if faults is not None:
        from ..faults import FaultInjector, resolve_plan

        FaultInjector(resolve_plan(faults), sim, seed=chaos_seed).attach(network)

    return SimInternet(
        sim=sim,
        network=network,
        synth=synth,
        params=params,
        root_ips=list(ROOT_SERVER_IPS),
        google=google,
        cloudflare=cloudflare,
        provider_servers=provider_servers,
    )

"""Drivers that execute resolution machines against transports.

The machine yields :class:`SendQuery` effects; a driver turns each into
actual I/O — simulated sockets (with client CPU accounting) or real UDP
sockets — and feeds the response back in.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from ..dnslib import Message, add_edns
from ..dnslib.edns import OPT
from ..dnslib.message import ResourceRecord
from ..dnslib.name import Name
from ..dnslib.types import RRType
from ..net import (
    DEFAULT_PORTS_PER_IP,
    CPUModel,
    GCModel,
    Routine,
    SimNetwork,
    SimUDPSocket,
    SourceIPPool,
    UDPTransport,
)
from .cache import SelectiveCache
from .config import ClientCostModel, ResolverConfig
from .dnssec import trust_anchor_for
from .machine import Backoff, LookupResult, SendQuery


class SimDriver:
    """Runs machine generators as simulator routines.

    Charges client CPU per packet on the shared :class:`CPUModel` —
    this is where the paper's thread-scaling plateau comes from — and
    optionally pays a per-query socket setup cost (the socket-reuse
    ablation of Section 3.4).
    """

    def __init__(
        self,
        network: SimNetwork,
        cpu: CPUModel | None = None,
        costs: ClientCostModel | None = None,
        reuse_sockets: bool = True,
        edns_payload: int | None = 1232,
        seed: int = 0,
    ):
        self.network = network
        self.cpu = cpu
        self.costs = costs or ClientCostModel()
        self.reuse_sockets = reuse_sockets
        self.edns_payload = edns_payload
        self._txid_rng = random.Random(seed)
        self._randrange = self._txid_rng.randrange  # hot: one per query
        #: The OPT pseudo-record is identical for every query this
        #: driver builds (frozen dataclass, safely shared), so build it
        #: once instead of running ``add_edns``'s scan per packet.
        self._opt_record = (
            ResourceRecord(Name.root(), RRType.OPT, edns_payload, 0, OPT(()))
            if edns_payload is not None
            else None
        )
        #: Its DO-bit twin (OPT TTL bit 15 set), for queries whose
        #: effect asks for DNSSEC material.  Same build-once sharing.
        self._opt_record_do = (
            ResourceRecord(Name.root(), RRType.OPT, edns_payload, 0x8000, OPT(()))
            if edns_payload is not None
            else None
        )

    def _build_query(self, effect: SendQuery) -> Message:
        message = Message.make_query(
            effect.name,
            effect.qtype,
            rrclass=effect.qclass,
            txid=self._randrange(0x10000),
            recursion_desired=effect.recursion_desired,
        )
        if self._opt_record is not None:
            message.additionals.append(
                self._opt_record_do if effect.dnssec_ok else self._opt_record
            )
        return message

    def execute(self, machine_gen, socket: SimUDPSocket) -> Routine:
        """A simulator routine driving one lookup to completion."""
        if self.cpu is not None and self.costs.per_lookup:
            yield self.cpu.occupy(self.costs.per_lookup)
        try:
            effect = next(machine_gen)
        except StopIteration as stop:
            return stop.value

        sim = self.network.sim
        cpu = self.cpu
        send_cost = receive_cost = 0.0
        if cpu is not None:
            send_cost = self.costs.per_send
            if not self.reuse_sockets:
                send_cost += self.costs.per_socket_setup
            receive_cost = self.costs.per_receive
        while True:
            if type(effect) is Backoff:
                # retry backoff: sleep virtual time, no CPU charged
                yield effect.delay
                try:
                    effect = machine_gen.send(None)
                except StopIteration as stop:
                    return stop.value
                continue
            if cpu is not None:
                yield cpu.occupy(send_cost)
            sent_at = sim.now
            query = self._build_query(effect)
            if effect.protocol == "tcp":
                future = socket.query_tcp(effect.server_ip, query, effect.timeout)
            else:
                future = socket.query(effect.server_ip, query, effect.timeout)
            response = yield future
            if response is not None and cpu is not None:
                yield cpu.occupy(receive_cost)
                if sim.now >= sent_at + effect.timeout:
                    # processed too late (e.g. a GC stall, Section 3.4):
                    # the deadline passed, so the lookup logic sees a
                    # timeout even though bytes eventually arrived.
                    # The deadline instant itself counts as a timeout —
                    # same tie-break as the socket-level race, where the
                    # timer (scheduled at send, so sequenced first) beats
                    # a delivery landing at exactly sent_at + timeout.
                    # ``sent_at + timeout`` reproduces the timer's
                    # deadline bit-for-bit; a subtraction on the left
                    # would round differently and reopen the disagreement
                    # for either protocol (UDP and TCP share this path).
                    response = None
            try:
                effect = machine_gen.send(response)
            except StopIteration as stop:
                return stop.value


class LiveDriver:
    """Runs machine generators against real UDP sockets (blocking)."""

    def __init__(self, transport: UDPTransport, port_override: int | None = None, edns_payload: int | None = 1232, seed: int = 0):
        self.transport = transport
        #: When testing against loopback servers, every SendQuery's
        #: destination port is overridden (servers bind ephemeral ports).
        self.port_override = port_override
        self.edns_payload = edns_payload
        self._txid_rng = random.Random(seed)

    def execute(self, machine_gen) -> LookupResult:
        try:
            effect = next(machine_gen)
        except StopIteration as stop:
            return stop.value
        while True:
            if type(effect) is Backoff:
                time.sleep(effect.delay)
                try:
                    effect = machine_gen.send(None)
                except StopIteration as stop:
                    return stop.value
                continue
            message = Message.make_query(
                effect.name,
                effect.qtype,
                rrclass=effect.qclass,
                txid=self._txid_rng.randrange(0x10000),
                recursion_desired=effect.recursion_desired,
            )
            if self.edns_payload is not None:
                add_edns(message, payload_size=self.edns_payload, dnssec_ok=effect.dnssec_ok)
            port = self.port_override if self.port_override is not None else 53
            response = self.transport.query(message, (effect.server_ip, port), effect.timeout)
            try:
                effect = machine_gen.send(response)
            except StopIteration as stop:
                return stop.value


class Resolver:
    """One resolver stack on a simulated Internet, built in one place.

    Owns the pieces every lookup needs: a copy of the
    :class:`ResolverConfig` (with the DNSSEC trust anchor filled in),
    the :class:`SelectiveCache` (iterative mode; on the simulator's
    clock, RRSIG-aware when validating), the client CPU model, the
    source-address pool, the :class:`SimDriver`, per-worker sockets
    (:meth:`socket`) and the machine factory (``context.machine()``).

    Used alone it is the library entry point the paper's Section 7
    community request asks for: :meth:`lookup` runs one lookup to
    quiescence.  The scan runner, the resolver daemon, the oracle sweep
    and the dig baseline each build one and drive its pieces in their
    own loops (``driver.execute(machine.resolve(...), socket)``); the
    keywords after ``record_trace`` exist for them, and each passes the
    seeds, cache policy, costs and CPU model it needs.
    """

    def __init__(
        self,
        internet,
        mode: str = "iterative",
        config: ResolverConfig | None = None,
        cache: SelectiveCache | None = None,
        resolver_ips: list[str] | None = None,
        record_trace: bool = False,
        *,
        #: the machines' RNG; None = the universe's seed
        seed: int | None = None,
        cache_size: int = 600_000,
        cache_policy: str = "selective",
        cache_eviction: str = "random",
        cache_seed: int = 0,
        stale_ttl: float | None = None,
        track_heat: bool = False,
        #: a CPU model shared with something else; else one of ``cores``
        #: cores is built (None = lookups charge no client CPU)
        cpu: CPUModel | None = None,
        cores: int | None = None,
        gc: GCModel | None = None,
        #: None = the mode's calibrated default
        costs: ClientCostModel | None = None,
        reuse_sockets: bool = True,
        driver_seed: int = 0,
        source_prefix: int = 32,
        ports_per_ip: int = DEFAULT_PORTS_PER_IP,
    ):
        from ..ecosystem import EPOCH_BASE, SimInternet  # local imports to avoid cycles
        from ..modules.base import ModuleContext

        if not isinstance(internet, SimInternet):
            raise TypeError("Resolver expects a SimInternet (see build_internet)")
        if mode == "iterative":
            ips = []
        elif mode == "google":
            ips = [internet.google_ip]
        elif mode == "cloudflare":
            ips = [internet.cloudflare_ip]
        elif mode == "external":
            ips = list(resolver_ips or [internet.google_ip])
        else:
            raise ValueError(f"unknown mode {mode!r}")
        iterative = mode == "iterative"
        self.internet = internet
        self.mode = mode
        # a copy: the caller's config may go on to serve another universe
        config = replace(config or ResolverConfig())
        if record_trace:
            config.record_trace_results = True
        if config.dnssec and config.trust_anchor is None:
            config.trust_anchor = trust_anchor_for(internet.synth)
        self.config = config
        sim = internet.sim
        if cache is None and iterative:
            cache = SelectiveCache(
                capacity=cache_size,
                policy=cache_policy,
                eviction=cache_eviction,
                seed=cache_seed,
                clock=lambda: sim.now,
                stale_ttl=stale_ttl,
                track_heat=track_heat,
                epoch_base=EPOCH_BASE if config.dnssec else None,
            )
        self.cache = cache
        if cpu is None and cores is not None:
            cpu = CPUModel(sim, cores=cores, gc=gc)
        self.cpu = cpu
        if costs is None:
            costs = ClientCostModel.for_iterative() if iterative else ClientCostModel()
        self.driver = SimDriver(
            internet.network, cpu=cpu, costs=costs, reuse_sockets=reuse_sockets, seed=driver_seed
        )
        self.pool = SourceIPPool(prefix_length=source_prefix, ports_per_ip=ports_per_ip)
        self.context = ModuleContext(
            mode="iterative" if iterative else "external",
            root_ips=internet.root_ips,
            resolver_ips=ips,
            cache=cache,
            config=config,
            rng=random.Random(internet.params.seed if seed is None else seed),
        )
        self._socket: SimUDPSocket | None = None

    def socket(self) -> SimUDPSocket:
        """A new simulated socket bound from the pool (one per worker);
        raises :class:`~repro.net.PortExhaustedError` when it is spent."""
        return SimUDPSocket(self.internet.network, self.pool)

    def lookup(self, name, qtype) -> LookupResult:
        """Resolve one name, running the simulation to quiescence."""
        if self._socket is None:
            self._socket = self.socket()
        routine = self.driver.execute(self.context.machine().resolve(name, qtype), self._socket)
        future = self.internet.sim.spawn(routine)
        self.internet.sim.run()
        return future.result()

"""Drivers that execute resolution machines against transports.

The machine yields :class:`SendQuery` effects; a driver turns each into
actual I/O — simulated sockets (with client CPU accounting) or real UDP
sockets — and feeds the response back in.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import TYPE_CHECKING

from ..dnslib import Message
from ..dnslib.edns import OPT
from ..dnslib.message import ResourceRecord
from ..dnslib.name import Name
from ..dnslib.types import RRType
from ..net import (
    CPUModel,
    GCModel,
    Routine,
    SimNetwork,
    SimUDPSocket,
    SourceIPPool,
)
from .cache import SelectiveCache
from .config import ClientCostModel, ResolverConfig
from .machine import Backoff, LookupResult, SendQuery

if TYPE_CHECKING:  # live transports load only where a live scan builds one
    from ..net import UDPTransport


class _QueryBuilder:
    """Turns a :class:`SendQuery` effect into the query message: the
    driver's own txid stream, and an OPT record built once per driver."""

    def __init__(self, edns_payload: int | None, seed: int):
        self.edns_payload = edns_payload
        self._txid_rng = random.Random(seed)
        self._randrange = self._txid_rng.randrange  # hot: one per query
        #: The OPT pseudo-record is identical for every query this
        #: driver builds (frozen dataclass, safely shared), so build it
        #: once instead of appending a fresh one per packet.
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


class SimDriver(_QueryBuilder):
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
        super().__init__(edns_payload, seed)
        self.network = network
        self.cpu = cpu
        self.costs = costs or ClientCostModel()
        self.reuse_sockets = reuse_sockets

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


class LiveDriver(_QueryBuilder):
    """Runs machine generators against real sockets (blocking): UDP, and
    TCP to the same address for an effect that asks for it."""

    def __init__(self, transport: UDPTransport, port_override: int | None = None, edns_payload: int | None = 1232, seed: int = 0):
        super().__init__(edns_payload, seed)
        self.transport = transport
        #: When testing against loopback servers, every SendQuery's
        #: destination port is overridden (servers bind ephemeral ports).
        self.port_override = port_override

    def execute(self, machine_gen):
        """Drive a machine's or a module's lookup to completion; returns
        what it returns (a :class:`LookupResult`, or a module's row)."""
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
            port = self.port_override if self.port_override is not None else 53
            send = self.transport.query_tcp if effect.protocol == "tcp" else self.transport.query
            response = send(self._build_query(effect), (effect.server_ip, port), effect.timeout)
            try:
                effect = machine_gen.send(response)
            except StopIteration as stop:
                return stop.value


class Resolver:
    """One resolver stack on a simulated Internet, built in one place.

    Built from one :class:`ResolverConfig`: a copy of it (with the
    DNSSEC trust anchor filled in), the :class:`SelectiveCache`
    (iterative mode; on the simulator's clock, RRSIG-aware when
    validating), the client CPU model, the source-address pool, the
    :class:`SimDriver`, per-worker sockets (:meth:`socket`) and the
    machine factory (``context.machine()``), all on the config's one
    ``seed`` (None = the universe's).  The keywords are what no config
    holds: a ``cache`` or ``cpu`` shared with something else, and the
    daemon's serve-stale window and heat tracking.

    Used alone it is the library entry point the paper's Section 7
    community request asks for: :meth:`lookup` runs one lookup to
    quiescence.  The scan runner, the resolver daemon, the oracle sweep
    and the dig baseline each build one and drive its pieces in their
    own loops (``driver.execute(machine.resolve(...), socket)``).
    """

    def __init__(
        self,
        internet,
        config: ResolverConfig | None = None,
        *,
        cache: SelectiveCache | None = None,
        cpu: CPUModel | None = None,
        stale_ttl: float | None = None,
        track_heat: bool = False,
    ):
        from ..ecosystem import SimInternet  # local imports to avoid cycles
        from ..modules.base import ModuleContext

        if not isinstance(internet, SimInternet):
            raise TypeError("Resolver expects a SimInternet (see build_internet)")
        # a copy: the caller's config may go on to serve another universe
        config = replace(config or ResolverConfig())
        if config.dnssec:
            # the validator loads with a validating stack, not mid-lookup
            from .dnssec import trust_anchor_for

            if config.trust_anchor is None:
                config.trust_anchor = trust_anchor_for(internet.synth)
        self.internet = internet
        self.config = config
        iterative = config.mode == "iterative"
        seed = internet.params.seed if config.seed is None else config.seed
        sim = internet.sim
        if cache is None and iterative:
            cache = SelectiveCache(
                capacity=config.cache_size,
                policy=config.cache_policy,
                eviction=config.cache_eviction,
                seed=seed,
                clock=lambda: sim.now,
                stale_ttl=stale_ttl,
                track_heat=track_heat,
                epoch_base=internet.synth.dnssec.EPOCH_BASE if config.dnssec else None,
            )
        self.cache = cache
        if cpu is None and config.cores is not None:
            gc = GCModel(config.gc_period, config.gc_pause) if config.gc_period else None
            cpu = CPUModel(sim, cores=config.cores, gc=gc)
        self.cpu = cpu
        costs = config.costs or (ClientCostModel.for_iterative() if iterative else ClientCostModel())
        self.driver = SimDriver(
            internet.network, cpu=cpu, costs=costs, reuse_sockets=config.reuse_sockets, seed=seed
        )
        self.pool = SourceIPPool(config.source_prefix, config.ports_per_ip)
        public = {"google": internet.google_ip, "cloudflare": internet.cloudflare_ip}
        self.context = ModuleContext(
            mode="iterative" if iterative else "external",
            root_ips=internet.root_ips,
            resolver_ips=[public[config.mode]] if config.mode in public else config.resolver_ips,
            cache=cache,
            config=config,
            rng=random.Random(seed),
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

"""Drivers that execute resolution machines against transports.

The machine yields :class:`SendQuery` effects; a driver turns each into
actual I/O — simulated sockets (with client CPU accounting) or real UDP
sockets — and feeds the response back in.
"""

from __future__ import annotations

import random
import time

from ..dnslib import Message, add_edns
from ..dnslib.edns import OPT
from ..dnslib.message import ResourceRecord
from ..dnslib.name import Name
from ..dnslib.types import RRType
from ..net import CPUModel, Routine, SimNetwork, SimUDPSocket, SourceIPPool, UDPTransport
from .cache import SelectiveCache
from .config import ClientCostModel, ResolverConfig
from .machine import Backoff, ExternalMachine, IterativeMachine, LookupResult, SendQuery


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
    """Convenience facade: one-shot lookups on a simulated Internet.

    For high-throughput scanning use :mod:`repro.framework`, which runs
    thousands of concurrent routines; this class is the simple library
    entry point the paper's Section 7 community request asks for.
    """

    def __init__(self, internet, mode: str = "iterative", config: ResolverConfig | None = None,
                 cache: SelectiveCache | None = None, resolver_ips: list[str] | None = None,
                 record_trace: bool = False):
        from ..ecosystem import EPOCH_BASE, SimInternet  # local import to avoid cycles

        if not isinstance(internet, SimInternet):
            raise TypeError("Resolver expects a SimInternet (see build_internet)")
        self.internet = internet
        self.config = config or ResolverConfig()
        if record_trace:
            self.config.record_trace_results = True
        # "cache or ..." would wrongly discard an empty cache (it has __len__)
        self.cache = cache if cache is not None else SelectiveCache(
            capacity=600_000,
            clock=lambda: internet.sim.now,
            epoch_base=EPOCH_BASE if self.config.dnssec else None,
        )
        if self.config.dnssec and self.config.trust_anchor is None:
            from .dnssec import trust_anchor_for

            self.config.trust_anchor = trust_anchor_for(internet.synth)
        self.mode = mode
        self._pool = SourceIPPool(prefix_length=32)
        self._driver = SimDriver(internet.network)
        self._socket = SimUDPSocket(internet.network, self._pool)
        self._rng = random.Random(internet.params.seed)
        if mode == "iterative":
            self._machine_factory = lambda name, qtype: IterativeMachine(
                self.cache, internet.root_ips, self.config, self._rng
            ).resolve(name, qtype)
        elif mode in ("google", "cloudflare", "external"):
            if mode == "google":
                ips = [internet.google_ip]
            elif mode == "cloudflare":
                ips = [internet.cloudflare_ip]
            else:
                ips = resolver_ips or [internet.google_ip]
            self._machine_factory = lambda name, qtype: ExternalMachine(
                ips, self.config, self._rng
            ).resolve(name, qtype)
        else:
            raise ValueError(f"unknown mode {mode!r}")

    def lookup(self, name, qtype) -> LookupResult:
        """Resolve one name, running the simulation to quiescence."""
        routine = self._driver.execute(self._machine_factory(name, qtype), self._socket)
        future = self.internet.sim.spawn(routine)
        self.internet.sim.run()
        return future.result()

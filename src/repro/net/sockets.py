"""Simulated UDP/TCP networking: sockets, source address pools, and the
network fabric connecting scanner routines to simulated servers.

ZDNS's key socket optimisation — one long-lived raw UDP socket per
routine bound to a static source port — is modelled explicitly: each
simulated socket consumes one (source IP, port) pair from a finite
:class:`SourceIPPool` (45K ephemeral ports per IP, as in the paper's
evaluation), so a /32 scanner caps out near 45K threads.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Protocol

from ..dnslib import MAX_UDP_PAYLOAD, Message, WireError, max_payload
from .links import LatencyModel, LossModel
from .sim import SimFuture, Simulator

#: Ephemeral ports available per source IP in the paper's setup.
DEFAULT_PORTS_PER_IP = 45_000

#: Extra round trips consumed by a TCP handshake before the query flows.
TCP_HANDSHAKE_RTTS = 1.0


class PortExhaustedError(RuntimeError):
    """No free (IP, port) pairs remain — the /32 socket limit in Figure 1."""


@dataclass(frozen=True)
class ServerReply:
    """A server's answer plus any server-side processing delay."""

    message: Message
    delay: float = 0.0


class SimServer(Protocol):
    """Anything that can answer simulated DNS queries."""

    def handle_query(
        self, query: Message, client_ip: str, now: float, protocol: str
    ) -> ServerReply | None:
        """Return a reply, or ``None`` to drop the query silently."""


class SourceIPPool:
    """A pool of scanning source addresses with per-IP port accounting.

    ``prefix_length`` mirrors the paper's /32, /29 and /28 experiments:
    a /32 contributes one usable IP, a /29 eight, a /28 sixteen.
    """

    def __init__(
        self,
        prefix_length: int = 32,
        ports_per_ip: int = DEFAULT_PORTS_PER_IP,
        base_ip: str = "198.18.0.0",
    ):
        if not 0 <= prefix_length <= 32:
            raise ValueError("prefix_length must be 0..32")
        self.prefix_length = prefix_length
        self.ports_per_ip = ports_per_ip
        self._base = _ip_to_int(base_ip)
        self._count = 1 << (32 - prefix_length)
        #: Per IP reached so far (a short prefix spans up to 2**32 of them).
        self._used_ports: dict[str, int] = defaultdict(int)
        self._released: dict[str, list[int]] = defaultdict(list)
        self._next_ip = 0  # round-robin cursor: spread load across IPs

    @property
    def ip_count(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Total sockets this pool can hand out concurrently."""
        return self._count * self.ports_per_ip

    @property
    def in_use(self) -> int:
        return sum(self._used_ports.values()) - sum(len(v) for v in self._released.values())

    def acquire(self) -> tuple[str, int]:
        """Bind a socket: returns (ip, port) or raises PortExhaustedError.

        IPs are assigned round-robin so concurrent sockets spread evenly
        across the scanning subnet — this is what lets a /28 sidestep
        Google's per-client-IP rate limit in Figure 1.
        """
        for _ in range(self._count):
            index = self._next_ip
            self._next_ip = (index + 1) % self._count
            ip = _int_to_ip(self._base + index)
            if self._released[ip]:
                return ip, self._released[ip].pop()
            if self._used_ports[ip] < self.ports_per_ip:
                port = 20_000 + self._used_ports[ip]
                self._used_ports[ip] += 1
                return ip, port
        raise PortExhaustedError(
            f"all {self.capacity} (ip, port) pairs of the /{self.prefix_length} in use"
        )

    def release(self, binding: tuple[str, int]) -> None:
        ip, port = binding
        self._released[ip].append(port)


def _ip_to_int(ip: str) -> int:
    a, b, c, d = (int(x) for x in ip.split("."))
    return a << 24 | b << 16 | c << 8 | d


def _int_to_ip(value: int) -> str:
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


@dataclass
class NetworkStats:
    """Packet-level counters across the whole fabric."""

    udp_queries: int = 0
    tcp_queries: int = 0
    lost_outbound: int = 0
    lost_inbound: int = 0
    server_drops: int = 0
    truncated_replies: int = 0
    wire_validations: int = 0
    #: encoded packets that failed to decode (the original object was
    #: delivered instead): a codec regression, unless a test plants one
    wire_errors: int = 0


@dataclass
class _Destination:
    server: SimServer
    latency: LatencyModel
    loss: LossModel


class SimNetwork:
    """The fabric: routes queries from sockets to registered servers.

    ``wire_mode`` controls codec fidelity:

    * ``"always"``  — every packet is encoded and re-decoded (tests),
    * ``"sampled"`` — every ``wire_sample``-th packet is (big sweeps),
    * ``"never"``   — messages pass as objects (pure scheduling studies).
    """

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        wire_mode: str = "always",
        wire_sample: int = 16,
    ):
        if wire_mode not in ("always", "sampled", "never"):
            raise ValueError(f"unknown wire_mode {wire_mode!r}")
        self.sim = sim
        self.rng = random.Random(seed)
        self.wire_mode = wire_mode
        self.wire_sample = wire_sample
        self.stats = NetworkStats()
        self._servers: dict[str, _Destination] = {}
        self._packet_count = 0
        #: Optional :class:`repro.faults.FaultInjector` (see
        #: ``FaultInjector.attach``).  None costs one attribute read per
        #: exchange; the injector draws from its *own* RNG, so attaching
        #: one with an empty plan leaves results byte-identical.
        self.fault_injector = None

    def register_server(
        self,
        ip: str,
        server: SimServer,
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
    ) -> None:
        self._servers[ip] = _Destination(
            server=server,
            latency=latency or LatencyModel(median=0.030),
            loss=loss or LossModel(0.0),
        )

    def server_for(self, ip: str) -> SimServer | None:
        destination = self._servers.get(ip)
        return destination.server if destination else None

    def servers(self) -> list[SimServer]:
        """Every registered server object, deduplicated (a server bound
        to several IPs — the 13-address root, dual-homed TLDs — appears
        once), in registration order."""
        seen: set[int] = set()
        out: list[SimServer] = []
        for destination in self._servers.values():
            marker = id(destination.server)
            if marker not in seen:
                seen.add(marker)
                out.append(destination.server)
        return out

    # -- query paths ----------------------------------------------------------

    def query_udp(self, src_ip: str, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        """Send a UDP query; resolves to the response Message or None."""
        self.stats.udp_queries += 1
        return self._query(src_ip, dst_ip, message, timeout, protocol="udp", extra_rtts=0.0)

    def query_tcp(self, src_ip: str, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        """Send a TCP query: an extra handshake RTT, but no truncation."""
        self.stats.tcp_queries += 1
        return self._query(
            src_ip, dst_ip, message, timeout, protocol="tcp", extra_rtts=TCP_HANDSHAKE_RTTS
        )

    def query_stream(
        self, src_ip: str, dst_ip: str, message: Message, timeout: float, extra_rtts: float
    ) -> SimFuture:
        """A reliable stream exchange with a configurable number of
        setup round trips (used by the DoT/DoH transport model)."""
        self.stats.tcp_queries += 1
        return self._query(
            src_ip, dst_ip, message, timeout, protocol="tcp", extra_rtts=extra_rtts
        )

    def _query(
        self,
        src_ip: str,
        dst_ip: str,
        message: Message,
        timeout: float,
        protocol: str,
        extra_rtts: float,
    ) -> SimFuture:
        # the one future of the exchange: the reply resolves it, or its
        # own deadline does (to None) — every early return below is
        # silence, then that timeout
        response_future = self.sim.future_with_deadline(timeout)
        destination = self._servers.get(dst_ip)
        if destination is None:
            return response_future  # unrouted address

        injector = self.fault_injector
        rtt = destination.latency.sample(self.rng) * (1.0 + extra_rtts)
        if injector is not None:
            verdict = injector.on_send(dst_ip, protocol)
            if verdict is not None:
                if verdict.drop:
                    # injected outage/loss: the injector keeps the
                    # per-directive count; link-level stats stay pure
                    return response_future
                rtt = rtt * verdict.latency_factor + verdict.extra_delay
        query_wire = self._maybe_wire(message)

        # Link loss is drawn once per *direction* (here: the request leg;
        # below: the response leg), so LossModel(p) yields an exchange
        # failure rate of 1-(1-p)^2 — see LossModel.round_trip_probability
        # and LossModel.for_round_trip for the conversion.
        if protocol == "udp" and destination.loss.dropped(self.rng):
            self.stats.lost_outbound += 1
            return response_future

        exchange = _Exchange(
            self, destination, injector, src_ip, dst_ip, protocol, message, query_wire, rtt,
            response_future,
        )
        self.sim._at(self.sim.now + rtt / 2, exchange.at_server)
        return response_future

    # -- wire fidelity --------------------------------------------------------

    def _should_validate(self) -> bool:
        if self.wire_mode == "always":
            return True
        if self.wire_mode == "never":
            return False
        self._packet_count += 1
        return self._packet_count % self.wire_sample == 0

    def _maybe_wire(self, message: Message) -> bytes | None:
        if self._should_validate():
            self.stats.wire_validations += 1
            return message.to_wire()
        return None

    def _maybe_unwire(self, wire: bytes | None, original: Message) -> Message:
        if wire is None:
            return original
        try:
            return Message.from_wire(wire)
        except WireError:
            # A malformed packet a real scanner would have to tolerate.
            self.stats.wire_errors += 1
            return original


@dataclass(slots=True)
class _Exchange:
    """One query in flight: what its two events — arrival at the server,
    then delivery of the reply — need, scheduled as its bound methods."""

    network: SimNetwork
    destination: _Destination
    injector: object
    src_ip: str
    dst_ip: str
    protocol: str
    message: Message | None
    query_wire: bytes | None
    rtt: float
    future: SimFuture
    response: Message | None = None
    reply_wire: bytes | None = None

    def at_server(self) -> None:
        network, injector = self.network, self.injector
        dst_ip, protocol = self.dst_ip, self.protocol
        query = network._maybe_unwire(self.query_wire, self.message)
        synthetic = injector.at_server(dst_ip, protocol, query) if injector is not None else None
        if synthetic is not None:
            reply = ServerReply(synthetic)
        else:
            server = self.destination.server
            reply = server.handle_query(query, self.src_ip, network.sim.now, protocol)
        if reply is None:
            network.stats.server_drops += 1
            return
        response = reply.message
        if injector is not None:
            response = injector.on_reply(dst_ip, protocol, query, response)
            if response is None:
                return  # injected inbound drop (counted per directive)
        reply_wire = network._maybe_wire(response)
        if (
            protocol == "udp"
            and reply_wire is not None
            # no client advertises less, so most replies skip the OPT parse
            and len(reply_wire) > MAX_UDP_PAYLOAD
        ):
            # Size-based truncation against the client's EDNS payload.
            limit = max_payload(query)
            if len(reply_wire) > limit:
                reply_wire = response.to_wire(max_size=limit)
                response = Message.from_wire(reply_wire)
        if response.flags.truncated:
            network.stats.truncated_replies += 1
        # the response leg's independent per-direction loss draw
        if protocol == "udp" and self.destination.loss.dropped(network.rng):
            network.stats.lost_inbound += 1
            return
        self.message = self.query_wire = None
        self.response = response
        self.reply_wire = reply_wire
        network.sim._at(network.sim.now + self.rtt / 2 + reply.delay, self.deliver)

    def deliver(self) -> None:
        # after the deadline the waiter is gone: no decoding a reply
        # nobody will ever read
        future = self.future
        if not future.done:
            future.set_result(self.network._maybe_unwire(self.reply_wire, self.response))


class SimUDPSocket:
    """A long-lived simulated socket bound to one (IP, port) pair."""

    def __init__(self, network: SimNetwork, pool: SourceIPPool):
        self.network = network
        self._pool = pool
        self.binding = pool.acquire()
        self._closed = False
        #: Queries sent, over UDP and TCP: one scan worker's count.
        self.queries_sent = 0

    @property
    def source_ip(self) -> str:
        return self.binding[0]

    def query(self, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        if self._closed:
            raise RuntimeError("socket is closed")
        self.queries_sent += 1
        return self.network.query_udp(self.source_ip, dst_ip, message, timeout)

    def query_tcp(self, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        if self._closed:
            raise RuntimeError("socket is closed")
        self.queries_sent += 1
        return self.network.query_tcp(self.source_ip, dst_ip, message, timeout)

    def close(self) -> None:
        if not self._closed:
            self._pool.release(self.binding)
            self._closed = True

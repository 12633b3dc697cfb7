"""Encrypted DNS transports (DoT / DoH) — the paper's Section 7 future
work, implemented as a simulation model.

Encrypted DNS forgoes the raw-UDP-socket optimisation: every channel
needs a TCP handshake plus a TLS handshake (extra round trips and
asymmetric-crypto CPU), and each query pays symmetric-crypto and
framing overhead.  The proposed mitigation — reusing TLS connections
across resolutions — is modelled via a per-destination channel pool, so
the cost/benefit the paper anticipates can be measured
(``bench_ext_encrypted``)."""

from __future__ import annotations

from dataclasses import dataclass

from ..dnslib import Message
from .cpu import CPUModel
from .sim import SimFuture
from .sockets import SimNetwork, SimUDPSocket, SourceIPPool


@dataclass(frozen=True)
class EncryptedTransportParams:
    """Cost model for a DoT/DoH-style channel."""

    #: Round trips to establish the channel (TCP + TLS 1.3 = 2).
    handshake_rtts: float = 2.0
    #: Asymmetric-crypto CPU per handshake (key exchange, certificate
    #: verification).
    handshake_cpu: float = 1.2e-3
    #: Symmetric crypto + framing CPU per query/response pair.
    per_query_cpu: float = 60e-6
    #: Idle timeout after which a kept-alive channel is torn down.
    idle_timeout: float = 10.0

    @classmethod
    def dot(cls) -> "EncryptedTransportParams":
        return cls()

    @classmethod
    def doh(cls) -> "EncryptedTransportParams":
        # HTTP framing adds per-query work on top of TLS
        return cls(per_query_cpu=95e-6, handshake_cpu=1.3e-3)


class SimEncryptedSocket:
    """A DoT/DoH client endpoint over the simulated network.

    With ``reuse_connections=True`` an established channel to a
    destination is kept alive and reused (the paper's proposed
    optimisation); otherwise every query pays the full handshake.
    """

    def __init__(
        self,
        network: SimNetwork,
        pool: SourceIPPool,
        params: EncryptedTransportParams | None = None,
        cpu: CPUModel | None = None,
        reuse_connections: bool = True,
    ):
        self.network = network
        self.params = params or EncryptedTransportParams.dot()
        self.cpu = cpu
        self.reuse_connections = reuse_connections
        self._udp = SimUDPSocket(network, pool)  # carries the bound (ip, port)
        #: destination ip -> time the channel was last used
        self._channels: dict[str, float] = {}
        self.handshakes = 0
        self.queries = 0

    @property
    def source_ip(self) -> str:
        return self._udp.source_ip

    def _channel_open(self, dst_ip: str) -> bool:
        if not self.reuse_connections:
            return False
        last_used = self._channels.get(dst_ip)
        if last_used is None:
            return False
        if self.network.sim.now - last_used > self.params.idle_timeout:
            del self._channels[dst_ip]
            return False
        return True

    def query(self, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        """Issue one encrypted query; resolves to the response or None.

        Composes: (optional) handshake latency+CPU, per-query crypto
        CPU, then a reliable (TCP-like) exchange.
        """
        sim = self.network.sim
        self.queries += 1

        def routine():
            fresh = not self._channel_open(dst_ip)
            if fresh:
                self.handshakes += 1
                if self.cpu is not None:
                    yield self.cpu.occupy(self.params.handshake_cpu)
            if self.cpu is not None:
                yield self.cpu.occupy(self.params.per_query_cpu)
            # a fresh channel pays TCP+TLS setup round trips; a warm one
            # is a single framed exchange
            extra_rtts = self.params.handshake_rtts if fresh else 0.0
            response = yield self.network.query_stream(
                self.source_ip, dst_ip, message, timeout, extra_rtts
            )
            if response is not None and self.reuse_connections:
                self._channels[dst_ip] = sim.now
            return response

        return sim.spawn(routine())  # a crash surfaces through the outcome

    def query_tcp(self, dst_ip: str, message: Message, timeout: float) -> SimFuture:
        """Encrypted transports are already stream-based."""
        return self.query(dst_ip, message, timeout)

    def close(self) -> None:
        self._udp.close()
        self._channels.clear()

"""Real-socket transport: the toolkit working over an actual network.

The simulator reproduces the paper's performance claims; this module
makes the same resolver logic usable against real servers.  One
long-lived UDP socket per transport (ZDNS's socket-reuse optimisation)
and a TCP connection per truncated answer's retry, plus a small threaded
server (UDP and TCP on one port) used by the tests and examples to serve
simulated zones over loopback.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable

from ..dnslib import Message, WireError, peek_txid

#: Buffer large enough for any EDNS payload we advertise.
_RECV_SIZE = 4096


def _send_framed(stream: socket.socket, wire: bytes) -> None:
    """One DNS message over TCP: a 2-byte length, then the message
    (RFC 1035 §4.2.2)."""
    stream.sendall(len(wire).to_bytes(2, "big") + wire)


def _recv_framed(stream: socket.socket) -> bytes | None:
    """The next length-prefixed message on ``stream``, or None if the
    peer closed it first."""
    head = _recv_exactly(stream, 2)
    return None if head is None else _recv_exactly(stream, int.from_bytes(head, "big"))


def _recv_exactly(stream: socket.socket, size: int) -> bytes | None:
    data = b""
    while len(data) < size:
        chunk = stream.recv(size - len(data))
        if not chunk:
            return None
        data += chunk
    return data


class UDPTransport:
    """A long-lived UDP socket for issuing DNS queries.

    Thread-safe for sequential use; one transport per worker thread
    mirrors ZDNS's one-socket-per-routine design.
    """

    def __init__(self, bind_ip: str = "0.0.0.0", bind_port: int = 0):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((bind_ip, bind_port))
        #: Queries sent, over UDP and TCP: a live scan's ``queries_sent``.
        self.queries_sent = 0

    @property
    def bound_address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def query(self, message: Message, server: tuple[str, int], timeout: float = 3.0) -> Message | None:
        """Send one query and wait for the matching response (by txid).

        Returns ``None`` on timeout; raises WireError only if every
        received packet within the window is unparseable.
        """
        wire = message.to_wire()
        want_txid = message.id & 0xFFFF
        self.queries_sent += 1
        self._sock.settimeout(timeout)
        self._sock.sendto(wire, server)
        while True:
            try:
                data, _ = self._sock.recvfrom(_RECV_SIZE)
            except socket.timeout:
                return None
            # peek the transaction id first: wrong-txid datagrams
            # (cross-talk, late retransmissions) are discarded without
            # ever paying for a full message decode
            try:
                if peek_txid(data) != want_txid:
                    continue
                response = Message.from_wire(data)
            except WireError:
                continue  # garbage or cross-talk: keep listening
            return response

    def query_tcp(self, message: Message, server: tuple[str, int], timeout: float = 3.0) -> Message | None:
        """Send one query over a new TCP connection to ``server`` (the
        retry of a truncated answer).  Returns ``None`` when the
        connection is refused, closed or times out, or the answer does
        not parse."""
        self.queries_sent += 1
        try:
            with socket.create_connection(server, timeout=timeout) as stream:
                _send_framed(stream, message.to_wire())
                data = _recv_framed(stream)
            return Message.from_wire(data) if data is not None else None
        except (OSError, WireError):
            return None

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "UDPTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


Handler = Callable[[Message, tuple[str, int]], Message | None]


class UDPServer:
    """A minimal threaded DNS server for loopback testing: UDP, and TCP
    on the same port for clients that retry a truncated answer."""

    def __init__(self, handler: Handler, bind_ip: str = "127.0.0.1", bind_port: int = 0):
        self.handler = handler
        for attempt in range(8):
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._sock.bind((bind_ip, bind_port))
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                self._listener.bind(self._sock.getsockname())
                break
            except OSError:
                # the UDP port's TCP twin is taken: try another port
                self._sock.close()
                self._listener.close()
                if bind_port or attempt == 7:
                    raise
        self._listener.listen()
        for sock in (self._sock, self._listener):
            sock.settimeout(0.1)
        self._running = False
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def start(self) -> "UDPServer":
        self._running = True
        self._threads = [
            threading.Thread(target=serve, daemon=True) for serve in (self._serve, self._serve_tcp)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def _serve(self) -> None:
        while self._running:
            try:
                data, client = self._sock.recvfrom(_RECV_SIZE)
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                query = Message.from_wire(data)
            except WireError:
                continue
            response = self.handler(query, client)
            if response is not None:
                try:
                    self._sock.sendto(response.to_wire(max_size=1232), client)
                except OSError:
                    return

    def _serve_tcp(self) -> None:
        """Answer each connection's queries in full, one connection at a
        time, until the client closes it."""
        while self._running:
            try:
                stream, client = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with stream:
                stream.settimeout(2.0)
                try:
                    while (data := _recv_framed(stream)) is not None:
                        response = self.handler(Message.from_wire(data), client)
                        if response is None:
                            break
                        _send_framed(stream, response.to_wire())
                except (OSError, WireError):
                    continue

    def stop(self) -> None:
        self._running = False
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._sock.close()
        self._listener.close()

    def __enter__(self) -> "UDPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

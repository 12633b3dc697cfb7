"""Tests for the simulated network fabric and socket/port accounting."""

import pytest

from repro.dnslib import (
    CODEC_STATS,
    Message,
    Name,
    Rcode,
    ResourceRecord,
    RRType,
    WireError,
    add_edns,
)
from repro.dnslib.rdata.address import A
from repro.net import (
    LatencyModel,
    LossModel,
    PortExhaustedError,
    ServerReply,
    SimNetwork,
    SimUDPSocket,
    Simulator,
    SourceIPPool,
)


class EchoServer:
    """Answers every query with one A record; records what it saw."""

    def __init__(self, delay=0.0, drop=False, answer_count=1):
        self.delay = delay
        self.drop = drop
        self.answer_count = answer_count
        self.queries = []

    def handle_query(self, query, client_ip, now, protocol):
        self.queries.append((query.question.name.to_text(), client_ip, now, protocol))
        if self.drop:
            return None
        response = query.make_response(authoritative=True)
        for i in range(self.answer_count):
            response.answers.append(
                ResourceRecord(query.question.name, RRType.A, 1, 300, A(f"192.0.2.{(i % 254) + 1}"))
            )
        return ServerReply(response, delay=self.delay)


def build(seed=0, wire_mode="always", latency=None, loss=None, server=None):
    sim = Simulator()
    network = SimNetwork(sim, seed=seed, wire_mode=wire_mode)
    server = server or EchoServer()
    network.register_server(
        "10.0.0.1", server, latency=latency or LatencyModel(median=0.02), loss=loss
    )
    return sim, network, server


def run_query(sim, network, name="example.com", timeout=3.0, src="198.18.0.0"):
    message = Message.make_query(name, RRType.A, txid=99)

    def routine():
        return (yield network.query_udp(src, "10.0.0.1", message, timeout))

    future = sim.spawn(routine())
    sim.run()
    return future.result()


class TestSourceIPPool:
    def test_slash32_has_one_ip(self):
        pool = SourceIPPool(prefix_length=32, ports_per_ip=3)
        assert pool.ip_count == 1
        assert pool.capacity == 3

    def test_slash28_has_sixteen_ips(self):
        assert SourceIPPool(prefix_length=28).ip_count == 16

    def test_exhaustion(self):
        pool = SourceIPPool(prefix_length=32, ports_per_ip=2)
        pool.acquire()
        pool.acquire()
        with pytest.raises(PortExhaustedError):
            pool.acquire()

    def test_release_and_reacquire(self):
        pool = SourceIPPool(prefix_length=32, ports_per_ip=1)
        binding = pool.acquire()
        pool.release(binding)
        assert pool.acquire() == binding

    def test_distinct_bindings(self):
        pool = SourceIPPool(prefix_length=29, ports_per_ip=10)
        bindings = {pool.acquire() for _ in range(80)}
        assert len(bindings) == 80

    def test_in_use_accounting(self):
        pool = SourceIPPool(prefix_length=32, ports_per_ip=5)
        a = pool.acquire()
        pool.acquire()
        assert pool.in_use == 2
        pool.release(a)
        assert pool.in_use == 1

    def test_invalid_prefix(self):
        with pytest.raises(ValueError):
            SourceIPPool(prefix_length=40)


class TestQueryPath:
    def test_response_arrives_with_answer(self):
        sim, network, server = build()
        response = run_query(sim, network)
        assert response is not None
        assert response.id == 99
        assert response.answers[0].rdata == A("192.0.2.1")
        assert server.queries[0][3] == "udp"

    def test_latency_is_charged(self):
        sim, network, _ = build(latency=LatencyModel(median=0.05, sigma=0.0))
        run_query(sim, network)
        # full event drain includes the 3s timeout race timer
        assert sim.now >= 0.05

    def test_unrouted_destination_times_out(self):
        sim = Simulator()
        network = SimNetwork(sim)
        message = Message.make_query("x.com", RRType.A)

        def routine():
            return (yield network.query_udp("198.18.0.0", "10.9.9.9", message, 1.5))

        future = sim.spawn(routine())
        sim.run()
        assert future.result() is None
        assert sim.now == pytest.approx(1.5)

    def test_server_drop_times_out(self):
        sim, network, _ = build(server=EchoServer(drop=True))
        assert run_query(sim, network) is None
        assert network.stats.server_drops == 1

    def test_total_loss_times_out(self):
        sim, network, _ = build(loss=LossModel(1.0))
        assert run_query(sim, network) is None
        assert network.stats.lost_outbound == 1

    def test_server_delay_defers_delivery(self):
        sim, network, _ = build(server=EchoServer(delay=0.5), latency=LatencyModel(median=0.02, sigma=0.0))
        message = Message.make_query("a.com", RRType.A)
        arrival = []

        def routine():
            response = yield network.query_udp("198.18.0.0", "10.0.0.1", message, 3.0)
            arrival.append(sim.now)
            return response

        future = sim.spawn(routine())
        sim.run()
        assert future.result() is not None
        assert arrival[0] == pytest.approx(0.52, abs=0.01)

    def test_stats_count_queries(self):
        sim, network, _ = build()
        run_query(sim, network)
        assert network.stats.udp_queries == 1


class TestExchangeCost:
    """What one ``_query`` costs the scheduler (events, exact) and the
    collector (nothing: every object of a finished exchange dies by
    reference count)."""

    def test_answered_exchange_is_three_events_and_the_spawn(self):
        sim, network, _ = build()
        assert run_query(sim, network) is not None
        # spawn, at_server, deliver, wake
        assert sim.events_executed == 4
        assert (sim.timers_scheduled, sim.timers_cancelled) == (3, 1)

    def test_timed_out_exchange_is_three_events_and_the_spawn(self):
        sim, network, _ = build(server=EchoServer(drop=True))
        assert run_query(sim, network) is None
        # spawn, at_server, deadline, wake
        assert sim.events_executed == 4
        assert (sim.timers_scheduled, sim.timers_cancelled) == (2, 0)

    def test_reply_after_the_deadline_is_one_more_event_and_no_decode(self):
        sim, network, _ = build(latency=LatencyModel(median=1.0, sigma=0.0))
        before = CODEC_STATS["decode_calls"]
        assert run_query(sim, network, timeout=0.25) is None
        # spawn, at_server, deadline, wake, deliver
        assert sim.events_executed == 5
        # the server read the query; nobody read the reply
        assert CODEC_STATS["decode_calls"] == before + 1

    def test_unrouted_exchange_nobody_awaits_is_the_deadline_alone(self):
        sim = Simulator()
        network = SimNetwork(sim)
        message = Message.make_query("x.com", RRType.A)
        future = network.query_udp("198.18.0.0", "10.9.9.9", message, 1.5)
        sim.run()
        assert future.result() is None and future.abandoned
        assert sim.events_executed == 1

    @pytest.mark.parametrize("drop", [False, True], ids=["answered", "timed-out"])
    def test_finished_exchange_leaves_no_garbage(self, drop, no_garbage):
        sim, network, _ = build(server=EchoServer(drop=drop))
        with no_garbage():
            response = run_query(sim, network)
            assert (response is None) == drop
            del response


class TestTruncation:
    def test_large_response_truncated_without_edns(self):
        # 40 answers won't fit in 512 bytes
        sim, network, _ = build(server=EchoServer(answer_count=40))
        response = run_query(sim, network)
        assert response.flags.truncated
        assert not response.answers
        assert network.stats.truncated_replies == 1

    def test_edns_payload_avoids_truncation(self):
        sim, network, _ = build(server=EchoServer(answer_count=40))
        message = Message.make_query("example.com", RRType.A)
        add_edns(message, payload_size=4096)

        def routine():
            return (yield network.query_udp("198.18.0.0", "10.0.0.1", message, 3.0))

        future = sim.spawn(routine())
        sim.run()
        assert not future.result().flags.truncated
        assert len(future.result().answers) == 40

    def test_reply_above_advertised_payload_truncated(self):
        # ~650 bytes of reply against an OPT that allows 600
        sim, network, _ = build(server=EchoServer(answer_count=40))
        message = Message.make_query("example.com", RRType.A)
        add_edns(message, payload_size=600)

        def routine():
            return (yield network.query_udp("198.18.0.0", "10.0.0.1", message, 3.0))

        future = sim.spawn(routine())
        sim.run()
        assert future.result().flags.truncated
        assert network.stats.truncated_replies == 1

    @pytest.mark.parametrize("payload_size", [None, 100, 4096])
    def test_small_reply_never_consults_the_query_opt(self, monkeypatch, payload_size):
        """No client can advertise less than 512 bytes (RFC 6891), so a
        reply that fits in 512 is sent whole whatever the OPT says —
        without parsing it."""
        import repro.net.sockets as sockets

        def unexpected(query):
            raise AssertionError("max_payload consulted for a reply of <= 512 bytes")

        monkeypatch.setattr(sockets, "max_payload", unexpected)
        sim, network, _ = build(server=EchoServer(answer_count=3))
        message = Message.make_query("example.com", RRType.A)
        if payload_size is not None:
            add_edns(message, payload_size=payload_size)

        def routine():
            return (yield network.query_udp("198.18.0.0", "10.0.0.1", message, 3.0))

        future = sim.spawn(routine())
        sim.run()
        assert not future.result().flags.truncated
        assert len(future.result().answers) == 3
        assert network.stats.truncated_replies == 0

    def test_tcp_never_truncates(self):
        sim, network, _ = build(server=EchoServer(answer_count=40))
        message = Message.make_query("example.com", RRType.A)

        def routine():
            return (yield network.query_tcp("198.18.0.0", "10.0.0.1", message, 3.0))

        future = sim.spawn(routine())
        sim.run()
        assert not future.result().flags.truncated
        assert len(future.result().answers) == 40
        assert network.stats.tcp_queries == 1

    def test_tcp_costs_an_extra_round_trip(self):
        sim, network, _ = build(latency=LatencyModel(median=0.05, sigma=0.0))
        message = Message.make_query("example.com", RRType.A)
        finished = []

        def routine(fn):
            yield fn("198.18.0.0", "10.0.0.1", message, 3.0)
            finished.append(sim.now)

        sim.spawn(routine(network.query_udp))
        sim.run()
        udp_done = finished.pop()
        sim2, network2, _ = build(latency=LatencyModel(median=0.05, sigma=0.0))

        def routine2():
            yield network2.query_tcp("198.18.0.0", "10.0.0.1", message, 3.0)
            finished.append(sim2.now)

        sim2.spawn(routine2())
        sim2.run()
        assert finished[0] > udp_done


class TestWireModes:
    def test_always_validates_every_packet(self):
        sim, network, _ = build(wire_mode="always")
        run_query(sim, network)
        assert network.stats.wire_validations == 2  # query + reply
        assert network.stats.wire_errors == 0

    def test_decode_failure_is_counted_and_tolerated(self, monkeypatch):
        """A packet that fails to decode is delivered as the original
        object, as a scanner tolerates it, but never silently: a codec
        regression shows in ``wire_errors``."""

        def broken(wire):
            raise WireError("planted")

        sim, network, _ = build(wire_mode="always")
        monkeypatch.setattr(Message, "from_wire", staticmethod(broken))
        response = run_query(sim, network)
        assert response is not None and response.answers
        assert network.stats.wire_errors == 2  # query + reply

    def test_never_validates_nothing(self):
        sim, network, _ = build(wire_mode="never")
        response = run_query(sim, network)
        assert response is not None
        assert network.stats.wire_validations == 0

    def test_sampled_validates_some(self):
        sim = Simulator()
        network = SimNetwork(sim, wire_mode="sampled", wire_sample=4)
        network.register_server("10.0.0.1", EchoServer(), latency=LatencyModel(median=0.01))

        def routine(i):
            message = Message.make_query(f"n{i}.com", RRType.A, txid=i)
            return (yield network.query_udp("198.18.0.0", "10.0.0.1", message, 3.0))

        results = sim.run_all(routine(i) for i in range(20))
        assert all(r is not None for r in results)
        assert 0 < network.stats.wire_validations < 40

    def test_invalid_wire_mode_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork(Simulator(), wire_mode="bogus")


class TestSimUDPSocket:
    def test_socket_binds_from_pool(self):
        sim, network, _ = build()
        pool = SourceIPPool(prefix_length=32, ports_per_ip=10)
        sock = SimUDPSocket(network, pool)
        assert pool.in_use == 1
        message = Message.make_query("example.com", RRType.A)

        def routine():
            return (yield sock.query("10.0.0.1", message, 3.0))

        future = sim.spawn(routine())
        sim.run()
        assert future.result() is not None
        sock.close()
        assert pool.in_use == 0

    def test_closed_socket_rejects_queries(self):
        sim, network, _ = build()
        pool = SourceIPPool()
        sock = SimUDPSocket(network, pool)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.query("10.0.0.1", Message.make_query("a.b", RRType.A), 1.0)

    def test_double_close_is_safe(self):
        _, network, _ = build()
        pool = SourceIPPool()
        sock = SimUDPSocket(network, pool)
        sock.close()
        sock.close()
        assert pool.in_use == 0

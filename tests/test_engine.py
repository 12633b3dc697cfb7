"""Tests for the drivers that execute resolution machines."""

import pytest

from repro.core import ClientCostModel, ResolverConfig, SelectiveCache, SimDriver, Status
from repro.core.machine import ExternalMachine, IterativeMachine, SendQuery
from repro.dnslib import Message, Name, RRType, get_edns
from repro.ecosystem import EcosystemParams, build_internet
from repro.net import CPUModel, GCModel, SimUDPSocket, SourceIPPool, Simulator


@pytest.fixture()
def internet():
    return build_internet(params=EcosystemParams(seed=55), wire_mode="never")


def existing_name(internet):
    synth = internet.synth
    for i in range(20_000):
        name = Name.from_text(f"engine-{i}.com")
        profile = synth.profile(name)
        if profile.exists and not profile.truncates and all(
            ns.drop_prob == 0 and not ns.lame for ns in profile.nameservers
        ):
            return name
    raise AssertionError("no clean domain found")


def run_lookup(internet, driver, machine_gen):
    socket = SimUDPSocket(internet.network, SourceIPPool())
    future = internet.sim.spawn(driver.execute(machine_gen, socket))
    internet.sim.run()
    return future.result()


class TestSimDriver:
    def test_lookup_without_cpu_model(self, internet):
        driver = SimDriver(internet.network)
        machine = ExternalMachine([internet.google_ip])
        result = run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert result.status == Status.NOERROR

    def test_cpu_charged_per_packet(self, internet):
        cpu = CPUModel(internet.sim, cores=4)
        driver = SimDriver(internet.network, cpu=cpu, costs=ClientCostModel())
        machine = ExternalMachine([internet.google_ip])
        run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert cpu.operations >= 2  # send + receive
        assert cpu.busy_seconds > 0

    def test_per_lookup_cost_charged_once(self, internet):
        cpu = CPUModel(internet.sim, cores=4)
        costs = ClientCostModel(per_send=0.0, per_receive=0.0, per_lookup=0.001)
        driver = SimDriver(internet.network, cpu=cpu, costs=costs)
        machine = ExternalMachine([internet.google_ip])
        run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert cpu.busy_seconds == pytest.approx(0.001)

    def test_socket_setup_cost_when_reuse_disabled(self, internet):
        cpu = CPUModel(internet.sim, cores=4)
        costs = ClientCostModel(per_send=0.0, per_receive=0.0, per_socket_setup=0.01)
        driver = SimDriver(internet.network, cpu=cpu, costs=costs, reuse_sockets=False)
        machine = ExternalMachine([internet.google_ip])
        result = run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert result.status == Status.NOERROR
        assert cpu.busy_seconds >= 0.01

    def test_edns_payload_attached(self, internet):
        captured = []

        class Spy:
            def handle_query(self, query, client_ip, now, protocol):
                captured.append(query)
                from repro.net import ServerReply

                return ServerReply(query.make_response())

        internet.network.register_server("10.99.0.1", Spy())
        driver = SimDriver(internet.network, edns_payload=1232)
        machine = ExternalMachine(["10.99.0.1"], ResolverConfig(retries=0))
        run_lookup(internet, driver, machine.resolve("x.com", RRType.A))
        info = get_edns(captured[0])
        assert info is not None and info.payload_size == 1232

    def test_edns_disabled(self, internet):
        captured = []

        class Spy:
            def handle_query(self, query, client_ip, now, protocol):
                captured.append(query)
                from repro.net import ServerReply

                return ServerReply(query.make_response())

        internet.network.register_server("10.99.0.2", Spy())
        driver = SimDriver(internet.network, edns_payload=None)
        machine = ExternalMachine(["10.99.0.2"], ResolverConfig(retries=0))
        run_lookup(internet, driver, machine.resolve("x.com", RRType.A))
        assert get_edns(captured[0]) is None

    def test_late_processing_counts_as_timeout(self, internet):
        """A response processed after its deadline (e.g. behind a long
        GC stall) must be treated as a timeout (Section 3.4)."""
        sim = internet.sim
        # pathological GC: every sliver of CPU work crosses a collection
        # boundary and eats a 5s stop-the-world pause
        cpu = CPUModel(sim, cores=1, gc=GCModel(period=0.0001, pause=5.0))
        driver = SimDriver(internet.network, cpu=cpu, costs=ClientCostModel())
        machine = ExternalMachine([internet.google_ip], ResolverConfig(retries=0))
        result = run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert result.status == Status.TIMEOUT

    def test_iterative_machine_through_driver(self, internet):
        driver = SimDriver(internet.network)
        machine = IterativeMachine(
            SelectiveCache(capacity=1000), internet.root_ips, ResolverConfig()
        )
        result = run_lookup(internet, driver, machine.resolve(existing_name(internet), RRType.A))
        assert result.status == Status.NOERROR
        assert result.queries_sent >= 3


class TestTimeoutBoundaryInstant:
    """Regression: what happens *exactly* at ``sent_at + timeout``.

    Two layers can observe the deadline.  At the socket layer, the
    response future's deadline timer is scheduled at send time, so when a
    delivery lands at the exact deadline instant the timer (earlier
    sequence number) fires first and the exchange resolves to ``None``.
    The engine's late-reply check — a reply that arrived in time but
    whose processing (CPU receive cost, GC stalls) finished late — must
    agree with that tie-break: the deadline instant itself counts as a
    timeout, for UDP and TCP alike.  These tests pin both layers at the
    exact instant with FP-exact binary fractions.
    """

    def _socket_level(self, protocol, median, timeout=3.0):
        from repro.net import LatencyModel, ServerReply, SimNetwork

        sim = Simulator()
        network = SimNetwork(sim, seed=0, wire_mode="never")

        class Echo:
            def handle_query(self, query, client_ip, now, proto):
                return ServerReply(query.make_response(authoritative=True))

        # sigma=0 makes the log-normal degenerate: rtt == median exactly
        network.register_server(
            "10.0.0.1", Echo(), latency=LatencyModel(median=median, sigma=0.0)
        )
        message = Message.make_query("boundary.test", RRType.A, txid=7)
        if protocol == "tcp":
            future = network.query_tcp("198.18.0.0", "10.0.0.1", message, timeout)
        else:
            future = network.query_udp("198.18.0.0", "10.0.0.1", message, timeout)
        sim.run()
        return future.result()

    def test_udp_delivery_at_exact_deadline_times_out(self):
        # rtt == timeout: the reply lands at sent_at + timeout exactly,
        # the same instant the timer fires; the timer wins the tie.
        assert self._socket_level("udp", median=3.0) is None

    def test_udp_delivery_just_inside_deadline_wins(self):
        assert self._socket_level("udp", median=2.5) is not None

    def test_tcp_delivery_at_exact_deadline_times_out(self):
        # TCP doubles the rtt (one handshake round trip), so a median of
        # timeout/2 lands the reply exactly on the deadline.
        assert self._socket_level("tcp", median=1.5) is None

    def test_tcp_delivery_just_inside_deadline_wins(self):
        assert self._socket_level("tcp", median=1.25) is not None

    def _engine_level(self, protocol, median, per_receive, timeout=1.0):
        from repro.net import LatencyModel, ServerReply, SimNetwork

        sim = Simulator()
        network = SimNetwork(sim, seed=0, wire_mode="never")

        class Echo:
            def handle_query(self, query, client_ip, now, proto):
                return ServerReply(query.make_response(authoritative=True))

        network.register_server(
            "10.0.0.1", Echo(), latency=LatencyModel(median=median, sigma=0.0)
        )
        cpu = CPUModel(sim, cores=1)
        costs = ClientCostModel(per_send=0.0, per_receive=per_receive, per_lookup=0.0)
        driver = SimDriver(network, cpu=cpu, costs=costs)

        def machine():
            response = yield SendQuery(
                server_ip="10.0.0.1",
                name=Name.from_text("boundary.test"),
                qtype=RRType.A,
                timeout=timeout,
                protocol=protocol,
            )
            return response

        socket = SimUDPSocket(network, SourceIPPool())
        future = sim.spawn(driver.execute(machine(), socket))
        sim.run()
        return future.result()

    def test_udp_processing_at_exact_deadline_is_dropped(self):
        # Reply delivered at 0.75, receive cost pushes processing to
        # exactly sent_at + 1.0: the engine must agree with the socket
        # race and report a timeout.  All values are exact binary
        # fractions, so there is no FP wiggle to hide behind.
        assert self._engine_level("udp", median=0.75, per_receive=0.25) is None

    def test_udp_processing_just_inside_deadline_kept(self):
        assert self._engine_level("udp", median=0.75, per_receive=0.125) is not None

    def test_tcp_processing_at_exact_deadline_is_dropped(self):
        # TCP rtt doubles: median 0.375 delivers at 0.75, as above.
        assert self._engine_level("tcp", median=0.375, per_receive=0.25) is None

    def test_tcp_processing_just_inside_deadline_kept(self):
        assert self._engine_level("tcp", median=0.375, per_receive=0.125) is not None


class TestEventBudget:
    """The scheduler events one lookup costs, as exact counts: one for
    the spawn, then per upstream exchange the send charge, the arrival
    at the server, the delivery, the wake and the receive charge.  A
    number here that has to go up is a closure or a future that came
    back (a second event per CPU charge, a second per wake)."""

    SPAWN = 1
    ANSWERED = 5  # send charge, at_server, deliver, wake, receive charge
    TIMED_OUT = 4  # send charge, at_server, deadline, wake (nothing to receive)

    def _run(self, machine, truncate_udp=False, drop=False):
        from dataclasses import replace

        from repro.net import LatencyModel, ServerReply, SimNetwork

        sim = Simulator()
        network = SimNetwork(sim, seed=0, wire_mode="always")

        class Server:
            def handle_query(self, query, client_ip, now, proto):
                if drop:
                    return None
                response = query.make_response(authoritative=True)
                if truncate_udp and proto == "udp":
                    response.flags = replace(response.flags, truncated=True)
                return ServerReply(response)

        network.register_server("10.0.0.1", Server(), latency=LatencyModel(median=0.02))
        driver = SimDriver(network, cpu=CPUModel(sim, cores=1), costs=ClientCostModel())
        socket = SimUDPSocket(network, SourceIPPool())
        future = sim.spawn(driver.execute(machine(), socket))
        sim.run()
        return sim, future.result()

    @staticmethod
    def _query(protocol="udp"):
        return SendQuery(
            server_ip="10.0.0.1",
            name=Name.from_text("budget.test"),
            qtype=RRType.A,
            timeout=1.0,
            protocol=protocol,
        )

    def test_one_uncontended_udp_exchange(self):
        def machine():
            return (yield self._query())

        sim, response = self._run(machine)
        assert response is not None
        assert sim.events_executed == self.SPAWN + self.ANSWERED == 6
        assert sim.timers_cancelled == 1  # the deadline, by the reply

    def test_one_timed_out_exchange(self):
        def machine():
            return (yield self._query())

        sim, response = self._run(machine, drop=True)
        assert response is None
        assert sim.events_executed == self.SPAWN + self.TIMED_OUT == 5
        assert sim.timers_cancelled == 0

    def test_one_tcp_retry(self):
        def machine():
            response = yield self._query()
            assert response.flags.truncated
            return (yield self._query("tcp"))

        sim, response = self._run(machine, truncate_udp=True)
        assert response is not None and not response.flags.truncated
        assert sim.events_executed == self.SPAWN + 2 * self.ANSWERED == 11
        assert sim.timers_cancelled == 2

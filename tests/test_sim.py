"""Tests for the discrete-event simulator core."""

import gc
from functools import partial

import pytest

from repro.net import HangError, SimFuture, SimulationError, Simulator
from repro.net.sim import LOOP_GC_NURSERY


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.call_later(2.0, lambda: seen.append("b"))
        sim.call_later(1.0, lambda: seen.append("a"))
        sim.call_later(3.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_events_run_fifo(self):
        sim = Simulator()
        seen = []
        for tag in "abc":
            sim.call_later(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: sim.call_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_stops_clock(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, lambda: seen.append(1))
        sim.call_later(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run()
        assert seen == [1, 5]

    def test_run_until_with_empty_heap_advances_clock(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestFutures:
    def test_result_roundtrip(self):
        future = SimFuture()
        future.set_result(42)
        assert future.done
        assert future.result() == 42

    def test_unresolved_result_raises(self):
        with pytest.raises(SimulationError):
            SimFuture().result()

    def test_double_resolve_rejected(self):
        future = SimFuture()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_exception_propagates(self):
        future = SimFuture()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            future.result()

    def test_callback_after_done_fires_immediately(self):
        future = SimFuture()
        future.set_result(1)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [1]


class TestRoutines:
    def test_sleep_advances_clock(self):
        sim = Simulator()

        def routine():
            yield 1.5
            return sim.now

        future = sim.spawn(routine())
        sim.run()
        assert future.result() == 1.5

    def test_routine_waits_on_future(self):
        sim = Simulator()
        gate = SimFuture()

        def opener():
            yield 2.0
            gate.set_result("opened")

        def waiter():
            value = yield gate
            return (sim.now, value)

        sim.spawn(opener())
        result = sim.spawn(waiter())
        sim.run()
        assert result.result() == (2.0, "opened")

    def test_exception_in_awaited_future_is_thrown_in(self):
        sim = Simulator()
        gate = SimFuture()

        def routine():
            try:
                yield gate
            except ValueError:
                return "caught"

        future = sim.spawn(routine())
        sim.call_later(1.0, lambda: gate.set_exception(ValueError()))
        sim.run()
        assert future.result() == "caught"

    def test_crashing_routine_sets_exception(self):
        sim = Simulator()

        def routine():
            yield 0.1
            raise RuntimeError("dead")

        future = sim.spawn(routine())
        sim.run()
        with pytest.raises(RuntimeError):
            future.result()

    def test_bad_yield_type_is_error(self):
        sim = Simulator()

        def routine():
            yield "nonsense"

        future = sim.spawn(routine())
        sim.run()
        with pytest.raises(SimulationError):
            future.result()

    def test_run_all_collects_results(self):
        sim = Simulator()

        def worker(n):
            yield float(n)
            return n * 10

        results = sim.run_all(worker(n) for n in range(5))
        assert results == [0, 10, 20, 30, 40]

    def test_many_concurrent_routines(self):
        sim = Simulator()

        def worker(n):
            yield float(n % 7) / 10
            return 1

        results = sim.run_all(worker(n) for n in range(5000))
        assert sum(results) == 5000


class TestReadyQueueOrdering:
    def test_call_soon_and_due_timers_interleave_fifo(self):
        """Events due at the same timestamp run in scheduling order even
        though they live in different structures (ready deque vs heap)."""
        sim = Simulator()
        seen = []

        def at_one():
            seen.append("timer-a")  # scheduled first at t=1.0
            sim.call_soon(lambda: seen.append("soon-1"))  # third
            sim.call_at(1.0, lambda: seen.append("at-now"))  # fourth
            sim.call_soon(lambda: seen.append("soon-2"))  # fifth

        sim.call_later(1.0, at_one)
        sim.call_later(1.0, lambda: seen.append("timer-b"))  # second
        sim.run()
        assert seen == ["timer-a", "timer-b", "soon-1", "at-now", "soon-2"]

    def test_routine_resumption_is_fifo_with_timers(self):
        sim = Simulator()
        seen = []
        gate = SimFuture()

        def waiter():
            yield gate
            seen.append("resumed")

        sim.spawn(waiter())

        def fire():
            gate.set_result(None)  # queues the resumption...
            sim.call_soon(lambda: seen.append("after"))  # ...then this

        sim.call_later(1.0, fire)
        sim.run()
        assert seen == ["resumed", "after"]

    def test_call_soon_runs_before_later_timers(self):
        sim = Simulator()
        seen = []
        sim.call_soon(lambda: seen.append("soon"))
        sim.call_later(0.5, lambda: seen.append("timer"))
        sim.run()
        assert seen == ["soon", "timer"]


class TestTimerCancellation:
    def test_cancelled_timer_never_executes(self):
        sim = Simulator()
        seen = []
        handle = sim.call_later(1.0, lambda: seen.append("boom"))
        assert handle.cancel() is True
        sim.call_later(2.0, lambda: seen.append("ok"))
        sim.run()
        assert seen == ["ok"]
        assert sim.timers_cancelled == 1

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        seen = []
        handle = sim.call_later(1.0, lambda: seen.append("ran"))
        sim.run()
        assert seen == ["ran"]
        assert handle.cancel() is False
        assert sim.timers_cancelled == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.call_later(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        assert sim.timers_cancelled == 1

    def test_cancelled_ready_entry_is_skipped(self):
        sim = Simulator()
        seen = []
        handle = sim.call_soon(lambda: seen.append("no"))
        sim.call_soon(lambda: seen.append("yes"))
        handle.cancel()
        sim.run()
        assert seen == ["yes"]

    def test_cancellation_keeps_heap_o_live(self):
        """Mass cancellation compacts the heap: pending events track the
        live population, not the total ever scheduled."""
        sim = Simulator()
        handles = [sim.call_later(100.0 + i, lambda: None) for i in range(5000)]
        survivors = handles[::100]
        for handle in handles:
            if handle not in survivors:
                handle.cancel()
        assert sim.pending_events == len(survivors)
        assert sim.heap_compactions >= 1
        # the underlying heap itself stays O(live), not O(scheduled)
        assert len(sim._heap) <= 2 * len(survivors) + 64
        sim.run()
        assert sim.events_executed == len(survivors)

    def test_counters_shape(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        handle = sim.call_later(2.0, lambda: None)
        handle.cancel()
        sim.run()
        counters = sim.counters()
        assert counters["timers_scheduled"] == 2
        assert counters["timers_cancelled"] == 1
        assert counters["events_executed"] == 1
        assert counters["peak_heap_size"] == 2
        assert set(counters) >= {
            "timers_scheduled",
            "timers_cancelled",
            "events_executed",
            "peak_heap_size",
            "peak_ready_depth",
            "heap_compactions",
        }


class TestTimeoutRace:
    """Reply against timeout is one future: ``future_with_deadline``."""

    def test_future_wins(self):
        sim = Simulator()
        reply = sim.future_with_deadline(timeout=5.0)
        sim.call_later(1.0, lambda: reply.set_result("data"))

        def routine():
            return (yield reply)

        future = sim.spawn(routine())
        sim.run()
        assert future.result() == "data" and not reply.abandoned
        # the loser's timer is cancelled, so the clock never visits 5.0
        assert sim.now == 1.0
        assert sim.timers_cancelled == 1

    def test_replies_beating_deadlines_at_scale(self):
        """200 routines x 100 queries, every reply 50 ms ahead of its
        5 s deadline: each reply wins, each deadline is cancelled, and the
        scheduler's counters come out exactly the same every run."""
        sim = Simulator()

        def querier(n):
            for i in range(n):
                response = sim.future_with_deadline(5.0)
                sim.call_later(0.05, partial(response.set_result, i))
                assert (yield response) == i and not response.abandoned
            return n

        sim.run_all(querier(100) for _ in range(200))
        assert sim.counters() == {
            "timers_scheduled": 40_000,
            "timers_cancelled": 20_000,
            "events_executed": 40_200,
            "peak_heap_size": 400,
            "peak_ready_depth": 200,
            "heap_compactions": 200,
        }

    def test_timeout_wins(self):
        sim = Simulator()
        reply = sim.future_with_deadline(timeout=2.0)

        def routine():
            return (yield reply)

        future = sim.spawn(routine())
        sim.run()
        assert future.result() is None and reply.abandoned
        assert sim.now == 2.0
        assert sim.timers_cancelled == 0

    def test_late_result_after_timeout_is_ignored(self):
        """A producer arriving after the deadline finds the future done
        (and flagged), which is how it knows to do no work for nobody;
        resolving it anyway is the double-resolve error."""
        sim = Simulator()
        reply = sim.future_with_deadline(timeout=1.0)
        found = []

        def late_producer():
            found.append((reply.done, reply.abandoned))
            with pytest.raises(SimulationError):
                reply.set_result("late")

        sim.call_later(3.0, late_producer)

        def routine():
            return (yield reply)

        future = sim.spawn(routine())
        sim.run()
        assert future.result() is None
        assert found == [(True, True)]

    def test_timed_out_race_whose_reply_never_arrives_leaves_no_cycle(self, no_garbage):
        """A fired timer drops its callback just as a cancelled one does;
        keeping it held future -> timer -> future's bound method alive
        until a cyclic pass, for every timed-out query."""
        sim = Simulator()
        with no_garbage():
            reply = sim.future_with_deadline(timeout=1.0)
            sim.run()
            assert reply.result() is None and reply.abandoned
            del reply

    def test_answered_future_and_finished_task_leave_no_cycle(self, no_garbage):
        """The other two ends of a wait: a future resolved before its
        deadline (cancelled timer), and the task object of a routine
        that slept, awaited and returned."""
        sim = Simulator()
        with no_garbage():
            reply = sim.future_with_deadline(timeout=5.0)
            sim.call_later(1.0, lambda: reply.set_result("data"))

            def routine(awaited):
                yield 0.5
                return (yield awaited)

            outcome = sim.spawn(routine(reply))
            sim.run()
            assert outcome.result() == "data"
            del reply, outcome


class TestRoutineContract:
    """What a routine may yield, how many may wait, where resumption
    runs — the module docstring of ``net/sim.py``, executed."""

    def test_two_routines_awaiting_one_future_both_resume_in_wait_order(self):
        sim = Simulator()
        gate = SimFuture()
        seen = []

        def waiter(tag, delay):
            yield delay
            seen.append((tag, (yield gate)))

        # "late" is spawned first but begins waiting second
        sim.spawn(waiter("late", 0.5))
        sim.spawn(waiter("early", 0.25))
        sim.call_later(1.0, lambda: gate.set_result("open"))
        sim.run()
        assert seen == [("early", "open"), ("late", "open")]

    def test_already_resolved_future_resumes_from_the_ready_queue(self):
        sim = Simulator()
        gate = SimFuture()
        gate.set_result("ready")
        seen = []

        def routine():
            sim.call_soon(lambda: seen.append("queued before the yield"))
            seen.append((yield gate))

        sim.spawn(routine())
        sim.run()
        # inline resumption would have put "ready" first
        assert seen == ["queued before the yield", "ready"]

    def test_set_result_never_runs_the_waiter_inline(self):
        sim = Simulator()
        gate = SimFuture()
        seen = []

        def routine():
            seen.append((yield gate))

        sim.spawn(routine())

        def producer():
            gate.set_result("value")
            seen.append("producer returned")

        sim.call_later(1.0, producer)
        sim.run()
        assert seen == ["producer returned", "value"]

    def test_timer_and_delivery_at_one_instant_wake_in_schedule_order(self):
        """Binary-exact delays put a deadline, a sleep and a delivery on
        the same instant; their routines resume in the order the three
        events were scheduled, whichever structure held them."""
        sim = Simulator()
        seen = []

        def waits_on(tag, future):
            seen.append((tag, (yield future), sim.now))

        def sleeps(tag, delay):
            yield delay
            seen.append((tag, None, sim.now))

        timed_out = sim.future_with_deadline(timeout=0.75)  # scheduled first
        sim.spawn(waits_on("deadline", timed_out))
        sim.spawn(sleeps("sleep", 0.75))  # its timer is scheduled when it first runs
        delivered = SimFuture()
        sim.call_later(0.25, lambda: sim.call_later(0.5, lambda: delivered.set_result("reply")))
        sim.spawn(waits_on("delivery", delivered))
        sim.run()
        # the sleeper runs inside its own timer event; the two waiters
        # are queued by theirs and run after every event already due
        assert seen == [
            ("sleep", None, 0.75),
            ("deadline", None, 0.75),
            ("delivery", "reply", 0.75),
        ]

    def test_zero_sleep_yields_to_work_already_due(self):
        sim = Simulator()
        seen = []

        def routine():
            sim.call_soon(lambda: seen.append("other"))
            yield 0
            seen.append("routine")

        sim.spawn(routine())
        sim.run()
        assert seen == ["other", "routine"]

    def test_event_budget_of_a_routine(self):
        """One event per spawn, per sleep and per future wake; the event
        that resolves a future is the producer's, not the waiter's."""
        sim = Simulator()
        gate = SimFuture()

        def routine():
            yield 0.5  # 1: the spawn runs up to here; 2: the sleep ends
            yield gate  # 4: the wake (3 is the producer's timer)
            yield sim.future_with_deadline(1.0)  # 5: the deadline; 6: the wake

        sim.spawn(routine())
        sim.call_later(1.0, lambda: gate.set_result(None))
        sim.run()
        assert sim.events_executed == 6


class TestCollectorPolicy:
    """``run`` raises the collector's young generation for the loop and
    leaves the host's settings as it found them on every way out."""

    @staticmethod
    def _crash():
        raise RuntimeError("callback crashed")

    @staticmethod
    def _crashing_routine():
        yield 0.1
        raise RuntimeError("routine crashed")

    def _exits(self):
        def drain(sim):
            sim.call_later(1.0, lambda: None)
            sim.run()

        def until(sim):
            sim.call_later(5.0, lambda: None)
            sim.run(until=1.0)

        def hang(sim):
            def again():
                sim.call_later(1.0, again)

            again()
            with pytest.raises(HangError):
                sim.run(max_events=10)

        def crashing_callback(sim):
            sim.call_later(1.0, self._crash)
            with pytest.raises(RuntimeError):
                sim.run()

        def crashing_routine(sim):
            outcome = sim.spawn(self._crashing_routine())
            sim.run()
            with pytest.raises(RuntimeError):
                outcome.result()

        def nested(sim):
            inner = Simulator()
            inner.call_later(1.0, lambda: None)
            sim.call_later(1.0, inner.run)
            sim.call_later(2.0, lambda: seen.append(gc.get_threshold()[0]))
            seen = []
            sim.run()
            assert seen == [LOOP_GC_NURSERY]  # the inner exit left the outer loop's policy on

        return [drain, until, hang, crashing_callback, crashing_routine, nested]

    def test_settings_are_restored_on_every_exit_path(self):
        before = (gc.get_threshold(), gc.isenabled(), gc.get_freeze_count())
        for leave in self._exits():
            sim = Simulator()
            inside = []
            sim.call_soon(lambda: inside.append((gc.get_threshold()[0], gc.isenabled())))
            leave(sim)
            assert inside == [(LOOP_GC_NURSERY, before[1])], leave.__name__
            assert (gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()) == before, leave.__name__

    def test_caller_choices_are_left_alone(self):
        """A disabled collector stays disabled, a caller's own frozen
        set stays frozen, and a larger (or switched-off) nursery is not
        shrunk."""
        thresholds = gc.get_threshold()
        enabled = gc.isenabled()
        gc.disable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            for nursery in (0, 4 * LOOP_GC_NURSERY):
                gc.set_threshold(nursery, *thresholds[1:])
                sim = Simulator()
                inside = []
                sim.call_soon(lambda: inside.append((gc.get_threshold()[0], gc.isenabled())))
                sim.run()
                assert inside == [(nursery, False)]
                assert gc.get_threshold() == (nursery, *thresholds[1:])
                assert not gc.isenabled()
                assert 0 < gc.get_freeze_count() <= frozen  # neither thawed nor refrozen
        finally:
            gc.unfreeze()
            gc.set_threshold(*thresholds)
            if enabled:
                gc.enable()

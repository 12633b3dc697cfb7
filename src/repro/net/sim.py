"""Discrete-event simulator: virtual clock, event loop, and lightweight
routines.

The paper's throughput phenomena (thread scaling, socket limits, rate
limiting) are resource-contention effects, not wall-clock effects, so we
reproduce them in *virtual time*: tens of thousands of concurrent "Go
routines" become generator coroutines scheduled by :class:`Simulator`.

The routine contract.  A routine is a generator; ``spawn`` wraps it in
one task object, which *is* what the queues hold and what an awaited
future calls back — no closure per spawn, sleep, wait or resume.  A
routine may yield

* a ``float``/``int`` — sleep that many virtual seconds (``0`` yields to
  work already due).  One event.  A CPU charge is such a sleep:
  ``yield cpu.occupy(cost)``.
* a :class:`SimFuture` — resume with its result (an exception is thrown
  in).  One event, after the one that resolved the future.  Any number
  of routines may await one future; they resume in wait order.  A wait
  that can time out is one future too: ``future_with_deadline``.

Anything else fails the routine's outcome with :class:`SimulationError`.
Resumption always runs from the ready queue, never inside ``set_result``
— also when the yielded future was already resolved — so same-instant
work keeps schedule order and the stack stays flat.

Scheduling is split across two structures, asyncio-style:

* a *ready queue* (deque) holds work due **now** — ``call_soon``,
  routine spawns, and future resumptions never touch the heap;
* a binary heap holds future timers.  ``call_at``/``call_later`` return
  a cancellable :class:`TimerHandle`; cancelled entries are dropped
  lazily on pop, and the heap is compacted wholesale once cancelled
  entries dominate, so a scan of N queries keeps O(live) — not O(N) —
  events resident.

Both structures share one monotonically increasing sequence number, so
the execution order of same-timestamp events is *identical* to a single
FIFO priority queue: determinism is a hard requirement (every simulated
result must be bit-identical for a given seed) and the split is purely
a constant-factor optimisation.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable

Routine = Generator[Any, Any, Any]


def derive_seed(base: int, *streams: int | str) -> int:
    """Derive an independent RNG seed from ``base`` and stream labels.

    The multi-process shard executor gives every shard its own
    simulation (network RNG, driver txids, cache eviction RNG, chaos
    RNG).  Seeding those ``base + shard`` apart would correlate the
    streams — Mersenne Twister states seeded with nearby integers start
    out similar — so instead the base seed and the labels are hashed
    into a fresh 63-bit seed.  Deterministic across processes and
    platforms (pure SHA-256, no ``PYTHONHASHSEED`` dependence), so a
    sharded run replays byte-identically.

    >>> derive_seed(2022, "net", 0) == derive_seed(2022, "net", 0)
    True
    >>> derive_seed(2022, "net", 0) != derive_seed(2022, "net", 1)
    True
    """
    text = ":".join(str(part) for part in (base, *streams))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1

#: Young-generation threshold of the host's cyclic collector while an
#: event loop runs.  A scan's in-flight window (1000 lookups: routines,
#: futures, timers, messages) is tens of thousands of tracked objects
#: that live for a round trip and die by reference count; CPython's
#: 700-object nursery promotes nearly all of them, and every
#: older-generation pass re-walks the lazily synthesised universe they
#: joined — 353 passes that freed nothing in a 3000-name scan, 14 % of
#: its wall (38 % at 40,000 names).  EXPERIMENTS.md "Ledger entry 2" has
#: the sweep, and why ``gc.freeze()`` is not here.  The collector stays
#: enabled: the loop does make the odd cycle.
LOOP_GC_NURSERY = 50_000

#: Compact the timer heap when at least this many cancelled entries are
#: pending *and* they outnumber the live ones (asyncio uses the same
#: strategy); below the floor, lazy pop-time dropping is cheaper.
_COMPACTION_FLOOR = 64


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. waiting on a yielded non-future)."""


class HangError(SimulationError):
    """The event budget of a bounded run was exhausted (see
    ``Simulator.run(max_events=...)``): the schedule kept producing work
    past the point the caller considered a hang."""


class SimFuture:
    """A single-assignment result container for routine synchronisation."""

    __slots__ = ("_done", "_result", "_exception", "_callbacks", "_deadline", "abandoned")

    def __init__(self):
        self._done = False
        self._result = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] | None = []
        #: The pending timer of ``Simulator.future_with_deadline``.
        self._deadline: TimerHandle | None = None
        #: True once that timer resolved this future to ``None``: the
        #: waiter gave up, whatever a producer brings later is unread.
        self.abandoned = False

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("future not resolved")
        if self._exception is not None:
            raise self._exception
        return self._result

    def set_result(self, value: Any) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._result = value
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        self._fire()

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is not None:
            # an answered query's timer must not rot in the heap until due:
            # that is an O(total-queries) heap instead of an O(live) one
            self._deadline = None
            deadline.cancel()  # a no-op when it is the deadline that fired
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks:
            callback(self)

    def _expire(self) -> None:
        self.abandoned = True
        self.set_result(None)


class TimerHandle:
    """A scheduled callback that can be cancelled before it fires.

    Cancellation is O(1): the entry is flagged and skipped when popped
    (or swept out by a heap compaction).  Cancelling an already-fired
    or already-cancelled handle is a no-op.
    """

    __slots__ = ("fn", "cancelled", "finished", "_sim")

    def __init__(self, fn: Callable[[], None], sim: "Simulator"):
        self.fn = fn
        self.cancelled = False
        self.finished = False
        self._sim = sim

    def cancel(self) -> bool:
        """Cancel the callback; returns True if this call cancelled it."""
        if self.cancelled or self.finished:
            return False
        self.cancelled = True
        self.fn = None  # break closure cycles early
        self._sim._timer_cancelled()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimerHandle({'cancelled' if self.cancelled else 'fired' if self.finished else 'pending'})"


class _Task:
    """A spawned routine as the one object the ready queue and the timer
    heap hold and an awaited future calls back: called with the resolved
    future it queues itself, called bare (by the loop) it steps the
    routine with whatever woke it.  It keeps no bound method of its own
    — that would be a reference cycle per routine."""

    __slots__ = ("sim", "routine", "outcome", "woken_by")

    def __init__(self, sim: "Simulator", routine: Routine):
        self.sim = sim
        self.routine = routine
        self.outcome = SimFuture()
        self.woken_by: SimFuture | None = None  # None after a sleep

    def __call__(self, resolved: SimFuture | None = None) -> None:
        sim = self.sim
        if resolved is not None:
            self.woken_by = resolved
            sim._soon(self)
            return
        woken_by = self.woken_by
        try:
            if woken_by is None:
                yielded = self.routine.send(None)
            else:
                self.woken_by = None
                if woken_by._exception is not None:
                    yielded = self.routine.throw(woken_by._exception)
                else:
                    yielded = self.routine.send(woken_by._result)
        except StopIteration as stop:
            sim._live_routines -= 1
            self.outcome.set_result(stop.value)
            return
        except BaseException as error:  # routine crashed
            sim._live_routines -= 1
            self.outcome.set_exception(error)
            return
        if isinstance(yielded, SimFuture):
            yielded.add_done_callback(self)
        elif isinstance(yielded, (int, float)):
            sim._at(sim.now + yielded, self)
        else:
            sim._live_routines -= 1
            self.outcome.set_exception(
                SimulationError(f"routine yielded unsupported {type(yielded).__name__}")
            )


class Simulator:
    """A ready-queue + timer-heap event loop over a virtual clock."""

    def __init__(self):
        self.now: float = 0.0
        #: (when, seq, callable) triples — tuple heads keep heap sifting
        #: on the C fast path; (when, seq) is unique so the callable (a
        #: TimerHandle, a routine's task, a bare function) is never compared
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._ready: deque[tuple[int, Callable[[], None]]] = deque()
        self._sequence = 0
        self._live_routines = 0
        self._cancelled_pending = 0  # cancelled entries still in the heap
        # observability counters (surfaced in scan reports via
        # framework.stats) — future perf PRs read scheduler pressure here
        self.timers_scheduled = 0
        self.timers_cancelled = 0
        self.events_executed = 0
        self.peak_heap_size = 0
        self.peak_ready_depth = 0
        self.heap_compactions = 0

    # -- raw event scheduling -------------------------------------------------

    def call_soon(self, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn`` at the current timestamp, FIFO with other due work."""
        handle = TimerHandle(fn, self)
        self._soon(handle)
        return handle

    def call_at(self, when: float, fn: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(fn, self)
        self._at(when, handle)
        return handle

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        return self.call_at(self.now + delay, fn)

    # The queues hold any callable.  Routine tasks and packet deliveries
    # are never cancelled, so they go in bare — no TimerHandle per event —
    # through the two functions every entry above ends in.

    def _soon(self, fn: Callable[[], None]) -> None:
        self._sequence += 1
        ready = self._ready
        ready.append((self._sequence, fn))
        if len(ready) > self.peak_ready_depth:
            self.peak_ready_depth = len(ready)

    def _at(self, when: float, fn: Callable[[], None]) -> None:
        if when <= self.now:
            if when < self.now:
                raise SimulationError(f"cannot schedule in the past ({when} < {self.now})")
            self._soon(fn)
            return
        self._sequence += 1
        heap = self._heap
        heapq.heappush(heap, (when, self._sequence, fn))
        self.timers_scheduled += 1
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)

    def _timer_cancelled(self) -> None:
        self.timers_cancelled += 1
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > _COMPACTION_FLOOR
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            # in place: run() holds an alias to this list
            heap = self._heap
            heap[:] = [
                entry
                for entry in heap
                if type(entry[2]) is not TimerHandle or not entry[2].cancelled
            ]
            heapq.heapify(heap)
            self._cancelled_pending = 0
            self.heap_compactions += 1

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self._heap) + len(self._ready) - self._cancelled_pending

    def counters(self) -> dict:
        """Scheduler pressure counters (raw dict view)."""
        return {
            "timers_scheduled": self.timers_scheduled,
            "timers_cancelled": self.timers_cancelled,
            "events_executed": self.events_executed,
            "peak_heap_size": self.peak_heap_size,
            "peak_ready_depth": self.peak_ready_depth,
            "heap_compactions": self.heap_compactions,
        }

    def publish_metrics(self, scope) -> None:
        """Publish the pressure counters as registry gauges.

        ``scope`` is a :class:`repro.obs.metrics.Scope` (typically
        ``registry.scope("scheduler")``).  The loop itself keeps plain
        ints — incrementing registry instruments per event would tax
        the hottest path in the tree — and this one-shot publish is how
        they reach scan reports, the metrics dump, and the metadata
        file.
        """
        for name, value in self.counters().items():
            scope.gauge(name).set(value)
        scope.gauge("pending_events").set(self.pending_events)
        scope.gauge("live_routines").set(self._live_routines)

    # -- routines -------------------------------------------------------------

    def spawn(self, routine: Routine) -> SimFuture:
        """Start a routine now; returns a future for its return value."""
        task = _Task(self, routine)
        self._live_routines += 1
        self._soon(task)
        return task.outcome

    def future_with_deadline(self, timeout: float) -> SimFuture:
        """A future that resolves itself to ``None`` (and is flagged
        ``abandoned``) unless somebody resolves it within ``timeout``
        virtual seconds — one simulated query's reply-or-timeout.  The
        timer is scheduled here, so at the deadline instant itself it
        beats any delivery scheduled after the send."""
        future = SimFuture()
        future._deadline = self.call_later(timeout, future._expire)
        return future

    # -- running --------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until both queues drain or the clock passes
        ``until``.  Ready-queue work and due timers interleave in global
        schedule order (the shared sequence number), exactly as the old
        single-heap loop did.

        ``max_events`` bounds the number of callbacks executed and
        raises :class:`HangError` past it — the chaos-soak harness's
        hang detector.

        The host's cyclic collector runs with a :data:`LOOP_GC_NURSERY`
        young generation for the duration of the loop; the caller's
        thresholds are put back on every exit path."""
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < LOOP_GC_NURSERY:  # 0 is the caller's "never"
            gc.set_threshold(LOOP_GC_NURSERY, *thresholds[1:])
        try:
            self._loop(until, math.inf if max_events is None else max_events)
        finally:
            gc.set_threshold(*thresholds)

    def _loop(self, until: float | None, max_events: float) -> None:
        budget = max_events
        heap = self._heap
        ready = self._ready
        pop_heap = heapq.heappop
        handle_type = TimerHandle
        while True:
            # drop cancelled timers surfacing at the top of the heap
            while heap:
                top = heap[0][2]
                if type(top) is handle_type and top.cancelled:
                    pop_heap(heap)
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                else:
                    break
            if ready:
                seq, fn = ready[0]
                # a timer already due *now* with an older sequence number
                # must run first to preserve FIFO order across structures
                if heap and heap[0][0] <= self.now and heap[0][1] < seq:
                    fn = pop_heap(heap)[2]
                else:
                    ready.popleft()
            elif heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return
                fn = pop_heap(heap)[2]
                self.now = when
            else:
                break
            if type(fn) is handle_type:
                if fn.cancelled:  # cancelled while queued
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    continue
                handle, fn = fn, fn.fn
                handle.finished = True
                # as in cancel(): a timeout that won its race is otherwise
                # held in a cycle through the future it resolved
                handle.fn = None
            if budget <= 0:
                raise HangError(
                    f"simulation still busy after {max_events} events "
                    f"(t={self.now:.3f}s, {self.pending_events} pending, "
                    f"{self._live_routines} live routines)"
                )
            budget -= 1
            self.events_executed += 1
            fn()
        if until is not None:
            self.now = max(self.now, until)

    def run_all(self, routines: Iterable[Routine]) -> list[Any]:
        """Spawn every routine, run to completion, and return their results."""
        futures = [self.spawn(routine) for routine in routines]
        self.run()
        return [future.result() for future in futures]

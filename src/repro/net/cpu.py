"""Multi-core CPU queueing model and garbage-collection pause injection.

The paper runs on 24 virtual cores and observes (a) one core saturating
at roughly 2K ZDNS threads, (b) total throughput plateauing near 50K
threads, and (c) *more frequent* garbage collection improving throughput
(section 3.4).  Both effects are queueing effects: per-query CPU work
serialises on a finite core pool, and long GC pauses push in-flight
queries past their timeouts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .sim import Simulator


@dataclass
class GCModel:
    """Stop-the-world garbage collection as periodic full-pool pauses.

    A collection starts at every multiple of ``period`` and stalls *all*
    cores for ``pause`` seconds: work scheduled inside a stall window
    waits for it to end, and work interrupted by a collection finishes
    ``pause`` later.  Quadrupling GC frequency in the paper = period/4
    with pause/4 here: same total overhead, but short pauses slot
    between requests instead of blowing through socket timeouts.
    """

    period: float
    pause: float

    def apply(self, start: float, cost: float) -> tuple[float, float]:
        """(start, finish) of ``cost`` seconds of work beginning no
        earlier than ``start``, with stop-the-world stalls applied."""
        if self.period <= 0 or self.pause <= 0:
            return start, start + cost
        cycle = int(start // self.period)
        if cycle >= 1 and start < cycle * self.period + self.pause:
            start = cycle * self.period + self.pause
        finish = start + cost
        next_collection = (int(start // self.period) + 1) * self.period
        if finish > next_collection:
            finish += self.pause
        return start, finish


class CPUModel:
    """A pool of identical cores with FIFO queueing per core.

    A routine charges CPU work with ``yield cpu.occupy(cost)``: it
    sleeps until ``cost`` seconds have been served on the earliest-free
    core.  Callers accumulate queueing delay once offered load exceeds
    ``cores / mean_cost`` operations per second — this is what produces
    the paper's throughput plateaus.
    """

    def __init__(self, sim: Simulator, cores: int = 24, gc: GCModel | None = None):
        if cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.cores = cores
        self.gc = gc
        self._free_at = [0.0] * cores
        heapq.heapify(self._free_at)
        self.busy_seconds = 0.0
        self.operations = 0

    def occupy(self, cost: float) -> float:
        """Claim ``cost`` seconds on the earliest-free core; returns the
        delay from now until the work completes (0 when uncontended)."""
        start = max(self.sim.now, self._free_at[0])
        if self.gc is not None:
            start, finish = self.gc.apply(start, cost)
        else:
            finish = start + cost
        heapq.heapreplace(self._free_at, finish)
        self.busy_seconds += cost
        self.operations += 1
        return finish - self.sim.now

    def utilisation(self, elapsed: float) -> float:
        """Fraction of total core-seconds spent busy over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * self.cores))

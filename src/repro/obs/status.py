"""Live scan status: one progress line per interval, like real ZDNS.

ZDNS prints a short status line to stderr while a scan runs, which is
what makes a 10K-thread scan operable — the operator sees throughput,
success rate, and backpressure without waiting for the summary.  The
emitter here does the same on the *virtual* clock: it schedules itself
on the simulator with a cancellable timer, emits a line per interval,
and is cancelled when the last lookup routine finishes (a pending
repeating timer would otherwise keep the event loop alive forever).
"""

from __future__ import annotations

import math
import sys
from typing import Callable, TextIO

__all__ = ["StatusEmitter", "estimate_eta", "format_status_line", "status_line"]

def estimate_eta(total: int, target: int | None, average_rate: float) -> float | None:
    """Seconds until ``target`` completions at ``average_rate``.

    ``None`` when there is no target or no rate to extrapolate from;
    0.0 once the target is reached (the scan is draining, not behind).

    Defensive about degenerate rate math: a zero, negative, NaN, or
    infinite ``average_rate`` — an empty window, a stalled fleet, a
    poisoned upstream division — yields None rather than a negative,
    ``inf``, or NaN ETA.  NaN in particular fails every ``<=``
    comparison, so without the explicit finiteness guard it would sail
    through into ``/status.json``, where ``json.dumps`` emits a bare
    ``NaN`` token that breaks strict JSON consumers.
    """
    if target is None or target <= 0:
        return None
    remaining = target - total
    if remaining <= 0:
        return 0.0
    if not math.isfinite(average_rate) or average_rate <= 0:
        return None
    eta = remaining / average_rate
    if not math.isfinite(eta) or eta < 0:
        return None
    return eta


def format_status_line(
    elapsed: float,
    total: int,
    interval_rate: float,
    average_rate: float,
    success_rate: float,
    in_flight: int,
    timeouts: int,
    retries: int,
    cache_hit_rate: float | None,
    target: int | None = None,
    eta: float | None = None,
) -> str:
    """The one-line scan status, ZDNS-style semicolon-separated.

    ``target`` turns the progress segment into ``12000/50000 done`` and
    ``eta`` (seconds) appends ``eta 41s`` right after it, so an operator
    reads *how far along* and *how much longer* in one glance.
    """
    done = f"{total}/{target} done" if target is not None else f"{total} done"
    parts = [f"t={elapsed:.1f}s", done]
    if eta is not None and math.isfinite(eta) and eta >= 0:
        # a non-finite ETA must never render ("eta infs"/"eta nans");
        # omitting the segment is the honest display for "unknown"
        parts.append(f"eta {eta:.0f}s")
    parts += [
        f"{interval_rate:.1f}/s now",
        f"{average_rate:.1f}/s avg",
        f"{success_rate * 100:.1f}% ok",
        f"{in_flight} in-flight",
        f"{timeouts} timeouts",
        f"{retries} retries",
    ]
    if cache_hit_rate is not None:
        parts.append(f"cache {cache_hit_rate * 100:.1f}%")
    return "; ".join(parts)


def status_line(
    elapsed: float, interval: float, previous: int, counters: dict,
    target: int | None = None, cache_hit_rate: float | None = None,
) -> str:
    """The status line of a scan ``elapsed`` seconds in, from its
    ``counters`` as a telemetry delta names them (``in_flight`` when
    known), ``previous`` lookups done one ``interval`` ago.  The
    simulated, the sharded and the live scan all print it."""
    done = counters["done"]
    average_rate = done / elapsed if elapsed > 0 else 0.0
    return format_status_line(
        elapsed=elapsed,
        total=done,
        interval_rate=(done - previous) / interval,
        average_rate=average_rate,
        success_rate=counters["successes"] / done if done else 0.0,
        in_flight=counters.get("in_flight", 0),
        timeouts=counters["timeouts"],
        retries=counters["retries"],
        cache_hit_rate=cache_hit_rate,
        target=target,
        eta=estimate_eta(done, target, average_rate),
    )


class StatusEmitter:
    """Emits a status line every ``interval`` virtual seconds.

    Reads everything through live references — the scan's
    :class:`~repro.framework.stats.ScanStats`, the ``engine.inflight``
    gauge, and the delegation cache's stats — so each tick is a handful
    of attribute reads plus one write to ``stream``.
    """

    def __init__(
        self,
        sim,
        interval: float,
        stats,
        inflight=None,
        cache=None,
        stream: TextIO | None = None,
        write: Callable[[str], None] | None = None,
        target: int | None = None,
    ):
        if interval <= 0:
            raise ValueError("status interval must be positive")
        self.sim = sim
        self.interval = interval
        self.stats = stats
        self.inflight = inflight
        self.cache = cache
        #: Total lookups the scan will perform, when known — adds the
        #: ``done/target`` and ``eta`` segments to every line.
        self.target = target
        if write is None:
            stream = stream if stream is not None else sys.stderr
            write = lambda line: print(line, file=stream)  # noqa: E731
        self.write = write
        self._timer = None
        self._started_at = 0.0
        self._last_total = 0
        self._stopped = False

    def start(self) -> "StatusEmitter":
        """Begin ticking at ``now + interval`` on the simulator."""
        self._started_at = self.sim.now
        self._last_total = self.stats.total
        self._timer = self.sim.call_later(self.interval, self._tick)
        return self

    def stop(self) -> None:
        """Cancel the pending tick (lets the event loop drain) and emit
        one last line so the stream always ends at 100% of the scan."""
        if self._stopped:
            return
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.stats.total != self._last_total:
            self.emit()

    def _tick(self) -> None:
        if self._stopped:
            return
        self.emit()
        self._timer = self.sim.call_later(self.interval, self._tick)

    def emit(self) -> None:
        """Format and write one status line from current state."""
        counters = self.stats.counters()
        if self.inflight is not None:
            counters["in_flight"] = int(self.inflight.value)
        self.write(
            status_line(
                self.sim.now - self._started_at,
                self.interval,
                self._last_total,
                counters,
                target=self.target,
                cache_hit_rate=self.cache.stats.hit_rate if self.cache is not None else None,
            )
        )
        self._last_total = counters["done"]

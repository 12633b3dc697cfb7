"""Live scan status: one progress line per interval, like real ZDNS.

ZDNS prints a short status line to stderr while a scan runs, which is
what makes a 10K-thread scan operable — the operator sees throughput,
success rate, and backpressure without waiting for the summary.
:class:`StatusLine` prints it on the wall clock for every scan shape:
the loop that already drives the scan polls it (the runner as each
lookup finishes, the shard executor's receive loop, the live loop).  It
only reads the scan and schedules nothing on the simulator, so a
watched scan executes exactly the events of an unwatched one.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, TextIO

__all__ = ["StatusLine", "estimate_eta", "format_status_line"]

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


class StatusLine:
    """Prints a scan's status line to ``stream`` (default stderr)
    whenever :meth:`poll` finds that ``interval`` seconds of ``clock``
    (wall seconds by default) have passed since the last one, and a last
    line from :meth:`finish`.

    ``read`` returns the scan's counters as a telemetry delta names them
    (``done``, ``successes``, ``timeouts``, ``retries``; ``in_flight``
    and ``cache_hit_rate`` when known).  ``target``, the lookups the
    scan will perform when known, adds the ``done/target`` and ``eta``
    segments.
    """

    def __init__(
        self,
        interval: float,
        read: Callable[[], dict],
        stream: TextIO | None = None,
        target: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not interval > 0:
            raise ValueError("status interval must be positive")
        self.interval = interval
        self.read = read
        self.stream = stream if stream is not None else sys.stderr
        self.target = target
        self.clock = clock
        self._started = self._last_at = clock()
        self._last_done = 0

    def poll(self) -> None:
        """Print a line if one is due."""
        now = self.clock()
        if now - self._last_at >= self.interval:
            self._emit(now, self.read())

    def finish(self) -> None:
        """Print a last line, so the stream ends at the scan's final
        count (unless the last line already showed it)."""
        counters = self.read()
        if counters["done"] != self._last_done:
            self._emit(self.clock(), counters)

    def _emit(self, now: float, counters: dict) -> None:
        done = counters["done"]
        elapsed = now - self._started
        since = now - self._last_at
        average_rate = done / elapsed if elapsed > 0 else 0.0
        print(
            format_status_line(
                elapsed=elapsed,
                total=done,
                interval_rate=(done - self._last_done) / since if since > 0 else 0.0,
                average_rate=average_rate,
                success_rate=counters["successes"] / done if done else 0.0,
                in_flight=counters.get("in_flight", 0),
                timeouts=counters["timeouts"],
                retries=counters["retries"],
                cache_hit_rate=counters.get("cache_hit_rate"),
                target=self.target,
                eta=estimate_eta(done, self.target, average_rate),
            ),
            file=self.stream,
        )
        self._last_done, self._last_at = done, now

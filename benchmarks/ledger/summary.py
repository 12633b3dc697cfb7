"""The ledger's arithmetic: order statistics and the host-speed spin.

No ``repro`` import.  ``selfcheck.py`` exercises every function here on
hand-made data.
"""

from __future__ import annotations

import statistics
import time


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the driver applies to its ten runs.  A single
    value is its own three quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values: list[float], unit: str, better: str) -> dict:
    """One metric's row in the ledger.  ``best`` is the metric's value
    (host noise only ever makes a sample worse); median, quartiles and
    count say how far to trust it."""
    q1, median, q3 = quartiles(values)
    best = max(values) if better == "higher" else min(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "best": best, "n": len(values), "values": list(values)}


_SPIN_ITERS = 50_000


def spin_rate() -> float:
    """Iterations/s of a fixed allocation-heavy loop: a host-speed
    sample taken around every run.  Recorded for diagnosis only —
    metrics are reported raw, never normalised by it."""
    start = time.perf_counter()
    x = 0
    bucket: dict = {}
    for i in range(_SPIN_ITERS):
        x += i ^ (x >> 3)
        bucket[i & 255] = (x, i)
    return _SPIN_ITERS / (time.perf_counter() - start)

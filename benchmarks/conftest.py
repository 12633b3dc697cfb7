"""Shared helpers for the evaluation benchmarks.

Every benchmark regenerates one table or figure from the paper at a
scaled-down workload size (the substrate is a simulator; absolute wall
time is not the target, the *shape* is).  Results are printed and saved
to ``benchmarks/results/<experiment>.json`` so EXPERIMENTS.md can be
checked against fresh runs.

Environment knobs:

* ``REPRO_SCALE`` — multiply workload sizes (default 1.0).
* ``REPRO_FULL=1`` — run the full sweep grids instead of the reduced
  defaults.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.workloads import dense_ptr_targets  # noqa: F401  (the benchmarks import it from here)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))
FULL = os.environ.get("REPRO_FULL", "") == "1"

#: Seed shared by all benchmarks for reproducibility.
BENCH_SEED = 2022


def scaled(count: int, floor: int = 1000) -> int:
    """Apply the global workload scale factor."""
    return max(floor, int(count * SCALE))


def save_results(name: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def emit(name: str, lines: list[str], payload: dict) -> None:
    """Print a result block and persist it."""
    banner = f"== {name} " + "=" * max(0, 66 - len(name))
    print()
    print(banner)
    for line in lines:
        print(line)
    save_results(name, payload)


@pytest.fixture
def run_once(benchmark):
    """Run the (expensive, deterministic) experiment exactly once under
    pytest-benchmark's timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner

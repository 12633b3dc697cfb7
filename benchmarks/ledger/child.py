"""One sample in a fresh process: ``python child.py SPEC.json``.

The harness starts this file once per timed run, because repeats inside
one process drift (heap growth, warm memos) while fresh processes do
not.  It prints one JSON object — the sample — as its last line.
"""

from __future__ import annotations

import json
import sys
import time

from summary import spin_rate


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    spin_before = spin_rate()
    started = time.perf_counter()  # the set-up clock: nothing of repro is imported yet
    import adapter

    sample = adapter.run_sample(spec, started)
    sample["host_spin_per_s"] = [spin_before, spin_rate()]
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

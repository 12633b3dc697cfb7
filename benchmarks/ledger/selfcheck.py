"""``run.py --selfcheck``: the ledger's own arithmetic on hand-made data.

Runs in well under a second and touches nothing of ``repro``: order
statistics, self-time subtraction, the live tracer's bookkeeping, and
the verdicts of ``--compare``.
"""

from __future__ import annotations

import math

import compare
import tracing
from catalogue import E2E_BY_NAME
from summary import quartiles, summarise


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_order_statistics() -> None:
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    # statistics.quantiles, exclusive method: positions 1.5, 3, 4.5 of 5
    assert quartiles([50.0, 10.0, 40.0, 20.0, 30.0]) == (15.0, 30.0, 45.0)
    row = summarise([2.0, 1.0, 3.0], "s", "lower")
    assert (row["median"], row["best"], row["n"], row["unit"]) == (2.0, 1.0, 3, "s")
    assert summarise([2.0, 1.0, 3.0], "1/s", "higher")["best"] == 3.0


def check_self_times() -> None:
    # a root with overlapping children, one of them running past the
    # root's end, and a grandchild
    spans = [
        (0, "net.sim/run", 0.0, 10.0, None, None),
        (1, "a/x", 1.0, 4.0, 0, 1),
        (2, "b/x", 3.0, 6.0, 0, 1),  # overlaps a/x for 1 s
        (3, "c/x", 8.0, 12.0, 0, 2),  # 2 s inside the root
        (4, "d/x", 1.5, 2.5, 1, 1),
    ]
    own = tracing.self_times(spans)
    assert _close(own[0], 10.0 - (5.0 + 2.0)), own
    assert _close(own[1], 2.0) and _close(own[2], 3.0) and _close(own[3], 4.0) and _close(own[4], 1.0)
    assert _close(tracing.root_cover(spans), 10.0)

    # generator resumptions of two lookups interleaved under one root:
    # each resumption is its own span, so the books still close
    spans = [(0, "net.sim/run", 0.0, 9.0, None, None)]
    for index, (lookup, start) in enumerate([(1, 1.0), (2, 2.0), (1, 3.0), (2, 4.0), (1, 5.0)]):
        spans.append((2 * index + 1, "core.machine/resume", start, start + 0.8, 0, lookup))
        spans.append((2 * index + 2, "core.cache/read.get_answer", start + 0.2, start + 0.5, 2 * index + 1, lookup))
    names = tracing.by_name(spans)
    assert names["core.machine/resume"]["calls"] == 5
    assert _close(names["core.machine/resume"]["self_s"], 5 * 0.5)
    assert _close(names["core.cache/read.get_answer"]["self_s"], 5 * 0.3)
    assert _close(names["net.sim/run"]["self_s"], 9.0 - 5 * 0.8)
    assert _close(sum(row["self_s"] for row in names.values()), tracing.root_cover(spans))
    assert tracing.by_prefix(names, "core.cache/read.")["calls"] == 5


def check_live_tracer() -> None:
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    leaf = tracer.wrap(leaf, "core.cache/read.leaf", size_of=lambda args, result: result)

    def machine(n):
        total = 0
        for _ in range(n):
            total += leaf((yield total))
        return total

    def loop():
        # two lookups, resumed alternately, as the simulator would
        first = tracer.resumptions(machine(2), "core.machine/resume", lookup=1)
        second = tracer.resumptions(machine(2), "core.machine/resume", lookup=2)
        next(first), next(second)
        first.send(10), second.send(20)
        results = []
        for generator in (first, second):
            try:
                generator.send(1)
            except StopIteration as stop:
                results.append(stop.value)
        return results

    assert tracer.wrap(loop, "net.sim/run")() == [13, 23]
    spans = sorted(tracer.spans)
    root = [s for s in spans if s[4] is None]
    assert len(root) == 1 and root[0][1] == "net.sim/run"
    resumes = [s for s in spans if s[1] == "core.machine/resume"]
    assert len(resumes) == 6 and {s[5] for s in resumes} == {1, 2}
    assert all(s[4] == root[0][0] for s in resumes)
    by_id = {s[0]: s for s in spans}
    leaves = [s for s in spans if s[1] == "core.cache/read.leaf"]
    # a leaf inherits the lookup of the resumption that called it
    assert len(leaves) == 4 and all(by_id[s[4]][5] == s[5] for s in leaves)
    assert tracer.sizes["core.cache/read.leaf"] == 11 + 21 + 2 + 2
    assert tracer.lookup is None and not tracer.stack
    names = tracing.by_name(spans)
    assert _close(sum(row["self_s"] for row in names.values()), tracing.root_cover(spans))


def _ledger(workload: str, metric: str, values: list[float]) -> dict:
    entry = E2E_BY_NAME[metric]
    row = summarise(values, entry.unit, entry.better)
    return {"seed": 1, "workloads": {workload: {"digest": "d", "e2e": {metric: row}}}}


def _verdict(metric: str, base: list[float], new: list[float]) -> str:
    rows = compare.compare(_ledger("scan_wire", metric, base), _ledger("scan_wire", metric, new))
    return rows[0]["verdict"]


def check_compare() -> None:
    # the values compared are the best samples; the bound is 25 %
    steady = [1000.0, 1004.0, 996.0, 1002.0, 998.0]
    assert _verdict("lookups_per_s", steady, [v * 0.70 for v in steady]) == "regressed"
    assert _verdict("lookups_per_s", steady, [v * 0.85 for v in steady]) == "ok"
    assert _verdict("lookups_per_s", steady, [v * 1.30 for v in steady]) == "ok"  # faster is fine
    assert _verdict("lookups_per_s", steady, [1004.0, 1000.0, 600.0, 610.0, 620.0]) == "unresolved"  # half the samples disturbed
    assert _verdict("lookups_per_s", steady, [1004.0, 900.0, 910.0, 920.0, 930.0]) == "ok"  # one clean sample
    noisy = [600.0, 1400.0, 1000.0, 650.0, 1350.0]
    assert _verdict("lookups_per_s", steady, noisy) == "unresolved"
    assert _verdict("lookups_per_s", noisy, [v * 0.60 for v in steady]) == "unresolved"  # too noisy to call
    assert _verdict("cpu_s_per_klookup", [2.0] * 5, [2.6] * 5) == "regressed"  # lower is better
    # a planted 15 % worsening against a 10 % bound, and a 3 % one
    memory = [58.0, 58.4, 58.1, 58.9, 58.2]
    assert _verdict("peak_rss_mb", memory, [v * 1.15 for v in memory]) == "regressed"
    assert _verdict("peak_rss_mb", memory, [v * 1.03 for v in memory]) == "ok"
    assert _verdict("upstream_queries_per_lookup", [1.9] * 5, [1.95] * 5) == "regressed"  # exact: 1 %
    # failed_share: +0.001 absolute, whatever the base
    assert _verdict("failed_share", [0.0240] * 3, [0.0245] * 3) == "ok"
    assert _verdict("failed_share", [0.0240] * 3, [0.0260] * 3) == "regressed"
    assert _verdict("failed_share", [0.0] * 3, [0.0] * 3) == "ok"
    assert _verdict("setup_s", [0.20] * 3, [0.24] * 3) == "ok"
    assert _verdict("setup_s", [0.20] * 3, [0.26] * 3) == "regressed"
    rows = compare.compare(_ledger("scan_wire", "lookups_per_s", steady), _ledger("scan_wire", "lookups_per_s", steady))
    assert rows[0]["identical"] and rows[-1] == {"workload": "scan_wire", "metric": "output digest", "identical": True}
    assert not compare.regressed(rows)
    compare.render(rows)


def main() -> int:
    checks = (check_order_statistics, check_self_times, check_live_tracer, check_compare)
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
    print(f"selfcheck: {len(checks)} groups passed")
    return 0

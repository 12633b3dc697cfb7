"""The wall-time ledger — the repository's one benchmark.

    python3 benchmarks/ledger/run.py [--seed S] [--repeats R]
        every workload, interleaved rounds of fresh-process samples
        (R of each; by default as many as a driver run takes) plus one
        traced round; prints every metric and the checks, and writes
        the ledger entry to out/ledger-seed<S>.json.
    python3 benchmarks/ledger/run.py --quick
        a tenth of the work, one round, no tracing: schema, metric
        names against BENCHMARK.json, correctness invariants.
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selfcheck
    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1
        one run as the benchmark driver makes it; the last line of
        output is the driver's result object.

See README.md beside this file for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import compare as comparing
import harness
from catalogue import (
    DEFAULT_SEED,
    E2E_BY_NAME,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    benchmark_json,
    sample_count,
)

ROOT = harness.LEDGER_DIR.parents[1]


def run_ledger(seed: int, repeats: int | None, quick: bool) -> dict:
    """All five workloads.  Rounds interleave the workloads so that host
    drift hits them alike; the traced round comes last.  Without
    ``repeats`` each workload is sampled as often as in a driver run, so
    that the ledger's best-of-N is the driver's."""
    bench = harness.Bench(seed, quick=quick)
    counts = {name: repeats or sample_count(name, RUN_SECONDS) for name in WORKLOADS}
    plain: dict[str, list] = {name: [] for name in WORKLOADS}
    for round_index in range(max(counts.values())):
        for name in WORKLOADS:
            if round_index < counts[name]:
                _progress(f"round {round_index + 1}/{counts[name]}  {name}")
                plain[name].append(bench.sample(name))
    spans: dict[str, list] = {name: [] for name in WORKLOADS}
    companions: dict[str, dict | None] = {name: None for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        if not quick and harness.has_spans(name):
            _progress(f"traced round  {name}")
            spans[name].append(bench.sample(name, "traced"))
        if workload.companion:
            other, variant = workload.companion
            # an untraced sample of the companion workload is already in hand
            companions[name] = plain[other][0] if variant == "plain" else bench.sample(other, variant)
    return {
        "schema": 1,
        "seed": seed,
        "profile": "quick (numbers not comparable)" if quick else "full",
        "workloads": {
            name: harness.build_result(name, plain[name], spans[name], companions[name], quick)
            for name in WORKLOADS
        },
    }


def _progress(text: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {text}", file=sys.stderr, flush=True)


def render(ledger: dict) -> str:
    lines = [f"wall-time ledger  seed={ledger['seed']}  profile={ledger['profile']}  (a metric's value is its best sample)"]
    for name, entry in ledger["workloads"].items():
        lines.append("")
        lines.append(f"== {name}  ({entry['info']['ops']} operations per sample, digest {entry['digest'][:16]})")
        lines.append(
            f"  {'end-to-end metric':<34}{'unit':<7}{'clock':<6}{'best':>13}{'median':>13}{'q1':>13}{'q3':>13}{'n':>4}"
        )
        for metric, row in entry["e2e"].items():
            clock = E2E_BY_NAME[metric].clock
            lines.append(
                f"  {metric:<34}{row['unit']:<7}{clock:<6}{row['best']:>13.6g}{row['median']:>13.6g}"
                f"{row['q1']:>13.6g}{row['q3']:>13.6g}{row['n']:>4}"
            )
        measured = [m for m in PER_LAYER if entry["layers"][m.name] is not None]
        if measured:
            lines.append(f"  {'per-layer metric (those measured here)':<47}{'unit':<7}{'value':>14}")
            for metric in measured:
                lines.append(f"  {metric.name:<47}{metric.unit:<7}{entry['layers'][metric.name]:>14.6g}")
        for item in entry["checks"]:
            mark = "ok  " if item["ok"] else "FAIL"
            detail = "" if item["ok"] or not item["detail"] else f"  ({item['detail']})"
            lines.append(f"  [{mark}] {item['name']}{detail}")
    return "\n".join(lines)


def ledger_correct(ledger: dict) -> bool:
    return all(harness.correct(entry) for entry in ledger["workloads"].values())


def schema_problems(ledger: dict) -> list[str]:
    """``--quick``: does the catalogue match BENCHMARK.json, and does a
    run emit what both promise?"""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if declared != benchmark_json():
        problems.append("BENCHMARK.json differs from catalogue.benchmark_json()")
    for name, entry in ledger["workloads"].items():
        line = harness.contract_line(entry, traced=False)
        for metric in declared["end_to_end"]:
            value = line["metrics"].get(metric["name"], {}).get("value")
            if not value:
                problems.append(f"{name}: end-to-end metric {metric['name']} is missing or zero")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, help="samples of every workload (default: as in a driver run)")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.compare:
        base, new = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        rows = comparing.compare(base, new)
        print(comparing.render(rows))
        return 1 if comparing.regressed(rows) else 0
    if args.workload:
        bench = harness.Bench(args.seed)
        result = harness.measure(bench, args.workload, args.seconds, traced=bool(args.trace))
        for item in result["checks"]:
            if not item["ok"]:
                print(f"check failed: {item['name']} ({item['detail']})", file=sys.stderr)
        print(json.dumps(harness.contract_line(result, traced=bool(args.trace))))
        return 0 if harness.correct(result) else 1

    ledger = run_ledger(args.seed, 1 if args.quick else args.repeats, args.quick)
    print(render(ledger))
    path = harness.OUT_DIR / f"ledger-seed{args.seed}{'-quick' if args.quick else ''}.json"
    path.write_text(json.dumps(ledger, indent=1), encoding="utf-8")
    print(f"\nledger entry written to {path}")
    problems = schema_problems(ledger) if args.quick else []
    for problem in problems:
        print(f"schema: {problem}")
    return 0 if ledger_correct(ledger) and not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Parent side of the ledger: inputs, fresh-process samples, results.

One driver process generates the inputs, then starts ``child.py`` once
per timed run and reads the sample it prints.  ``build_result`` turns a
workload's samples into its ledger entry — each metric's best sample
with median and quartiles, the per-layer table, and the correctness
checks — for both ways of running
(the driver's one-workload runs and the full five-workload ledger).
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

from catalogue import (
    END_TO_END,
    END_TO_END_PARTIAL,
    PER_LAYER,
    SCAN_NAMES,
    WORKLOADS,
    sample_count,
    sized,
)
from summary import summarise

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = LEDGER_DIR / "out"
#: A sample that takes this long is hung, not slow (full-size samples
#: take 3-8 s); the driver allows a whole run 180 s.
SAMPLE_TIMEOUT_S = 120
#: Self times plus the unattributed remainder must give the traced
#: wall to within this share, or the accounting is wrong.
BALANCE_TOLERANCE = 0.02


class BenchError(RuntimeError):
    """A sample could not be taken (child crashed, hung, or printed junk)."""


class Bench:
    """One benchmark session: a seed, a size, and the inputs on disk."""

    def __init__(self, seed: int, quick: bool = False):
        """Materialise the inputs before any clock starts.  The seed
        picks the corpus slice here and, through each sample's spec, the
        simulated Internet and every RNG stream of the run."""
        import adapter

        self.seed = seed
        self.quick = quick
        OUT_DIR.mkdir(exist_ok=True)
        self._names_path = OUT_DIR / f"names-seed{seed}.txt"
        count = sized(WORKLOADS["scan_wire"], quick)["names"]
        # slices are two scans apart, so that the indices skipped as
        # repeats never carry one seed's names into the next seed's
        names = adapter.corpus_names(count, offset=(seed % 4096) * 2 * SCAN_NAMES)
        if len(set(names)) != count:
            raise BenchError(f"inputs: {len(set(names))} distinct names, {count} wanted")
        self._names_path.write_text("\n".join(names) + "\n", encoding="utf-8")

    def sample(self, workload: str, variant: str = "plain") -> dict:
        """Run one sample of ``workload`` in a fresh process."""
        entry = WORKLOADS[workload]
        tag = f"{workload}-{variant}"
        spec = {
            "kind": entry.kind,
            "variant": variant,
            "seed": self.seed,
            "params": sized(entry, self.quick),
            "names_path": str(self._names_path),
            "rows_path": str(OUT_DIR / f"rows-{tag}.jsonl"),
            "trace_path": str(OUT_DIR / f"trace-{workload}.jsonl"),
        }
        spec_path = OUT_DIR / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        stdout = _run_child([sys.executable, str(LEDGER_DIR / "child.py"), str(spec_path)], tag)
        try:
            sample = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise BenchError(f"{tag}: child printed no sample") from exc
        sample["variant"] = variant
        for warning in sample.get("warnings", ()):
            print(f"warning: {tag}: {warning}", file=sys.stderr)
        return sample


def _run_child(command: list[str], tag: str) -> str:
    """Run to completion in its own process group, so that a hung
    sample's forked workers can be stopped with it."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{tag}: no result after {SAMPLE_TIMEOUT_S} s") from exc
    if process.returncode != 0:
        raise BenchError(f"{tag}: child exited with code {process.returncode}")
    return stdout


# -- taking samples --------------------------------------------------------


def has_spans(workload: str) -> bool:
    """Whether the workload runs in the sampled process, where probes
    can see it (the shard executor's work happens in forked workers)."""
    return WORKLOADS[workload].kind != "shards"


def measure(bench: Bench, workload: str, seconds: float, traced: bool) -> dict:
    """The driver's run: the catalogued number of fresh-process samples
    of one workload.  A traced run takes a third as many, each beside a
    traced sample (which costs about half as much again), then runs the
    workload's companion once."""
    plain, spans = [], []
    count = sample_count(workload, seconds)
    for _ in range(max(1, count // 3) if traced else count):
        plain.append(bench.sample(workload))
        if traced and has_spans(workload):
            spans.append(bench.sample(workload, "traced"))
    companion = None
    if traced and WORKLOADS[workload].companion:
        companion = bench.sample(*WORKLOADS[workload].companion)
    return build_result(workload, plain, spans, companion, bench.quick)


# -- from samples to a ledger entry ----------------------------------------


def e2e_values(sample: dict) -> dict:
    """Every end-to-end metric of one untraced sample (None = the
    metric does not exist on this workload)."""
    ops = sample["ops"]
    wall = sample["run_wall_s"]
    events = sample["events"]
    virtual = sample["virtual_s"]
    return {
        "lookups_per_s": ops / wall,
        "cpu_s_per_klookup": 1000.0 * (sample["cpu_self_s"] + sample["cpu_children_s"]) / ops,
        "setup_s": sample["setup_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "upstream_queries_per_lookup": sample["upstream_queries"] / ops,
        "sim_events_per_s": events / wall if events is not None else None,
        "failed_share": sample["status_failed"] / ops,
        "virtual_lookups_per_s": ops / virtual if virtual else None,
        "service_latency_virtual_mean_ms": sample.get("latency_mean_ms"),
        "service_latency_virtual_p99_ms": sample.get("latency_p99_ms"),
    }


def _median_of(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def build_result(
    workload: str, plain: list[dict], spans: list[dict], companion: dict | None, quick: bool = False
) -> dict:
    """One workload's ledger entry from its samples."""
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    first = plain[0]
    everything = plain + spans
    rows = [e2e_values(sample) for sample in plain]
    e2e = {
        metric.name: summarise([row[metric.name] for row in rows], metric.unit, metric.better)
        for metric in END_TO_END + END_TO_END_PARTIAL
        if metric.applies(workload)
    }

    expected = sized(WORKLOADS[workload], quick).get("names")
    check(
        "total == N",
        expected is None or all(sample["ops"] == expected for sample in everything),
        f"{first['ops']} lookups for {expected} names",
    )
    malformed = sum(sample["tool_failed"] for sample in everything)
    check("every operation produced a well-formed result", malformed == 0, f"{malformed} did not")
    digests = {sample["digest"] for sample in everything}
    check(
        "every repeat (traced ones too) gives the same output digest",
        len(digests) == 1,
        ", ".join(sorted(d[:12] for d in digests)),
    )

    layers: dict = {metric.name: None for metric in PER_LAYER}
    if spans:
        for name in layers:
            values = [s["layers"][name] for s in spans if s["layers"].get(name) is not None]
            if values:
                layers[name] = statistics.median(values)
        layers["trace.overhead_ratio"] = _median_of(spans, "run_wall_s") / _median_of(plain, "run_wall_s")
        worst = max(abs(sample["layers"]["_trace.balance_share"]) for sample in spans)
        check(
            "traced books close (self times + unattributed = wall)",
            worst <= BALANCE_TOLERANCE,
            f"off by {worst:.2%}",
        )
    if "parallel" in first:
        for name in first["parallel"]:
            layers[name] = statistics.median(sample["parallel"][name] for sample in plain)
    if companion is not None:
        _apply_companion(workload, plain, companion, layers, check)

    return {
        "samples": len(plain),
        "digest": first["digest"],
        # failures by status (TIMEOUT, SERVFAIL ...; refused service
        # queries): the same share on every sample of a seed, so a change
        # that gets faster by failing more lookups shows in the driver's line
        "attempted": sum(sample["ops"] for sample in everything),
        "failed": sum(sample["status_failed"] for sample in everything),
        "e2e": e2e,
        "layers": layers,
        "checks": checks,
        "info": {
            "ops": first["ops"],
            "run_wall_s": [sample["run_wall_s"] for sample in plain],
            "host_spin_per_s": [sample["host_spin_per_s"] for sample in everything],
            "spans": [sample["layers"]["_spans"] for sample in spans],
        },
    }


def _apply_companion(workload: str, plain: list[dict], companion: dict, layers: dict, check) -> None:
    """What a workload's companion run proves and measures."""
    own = plain[0]
    claim = WORKLOADS[workload].companion_claim
    if claim:
        check(claim, own["digest"] == companion["digest"], f"{own['digest'][:12]} vs {companion['digest'][:12]}")
    if workload == "scan_wire":
        layers["obs.metrics_on_overhead_ratio"] = companion["run_wall_s"] / _median_of(plain, "run_wall_s")
    elif workload == "scan_dnssec":
        # the same scan without validation: the difference is what validation asked for
        layers["core.dnssec.extra_queries_per_lookup"] = (
            own["upstream_queries"] - companion["upstream_queries"]
        ) / own["ops"]


def correct(result: dict) -> bool:
    return all(entry["ok"] for entry in result["checks"])


def contract_line(result: dict, traced: bool) -> dict:
    """The driver's result object.  The contract wants a number for
    every listed metric on every workload, so a per-layer metric that
    does not exist here (or whose probe is gone) reads 0."""

    def value(metric) -> float:
        row = result["e2e"].get(metric.name)
        return row["best"] if row else 0.0

    if traced:
        metrics = {m.name: {"value": value(m), "unit": m.unit} for m in END_TO_END_PARTIAL}
        for m in PER_LAYER:
            metrics[m.name] = {"value": result["layers"][m.name] or 0.0, "unit": m.unit}
    else:
        metrics = {m.name: {"value": value(m), "unit": m.unit} for m in END_TO_END}
    return {
        "correct": correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

"""``run.py --compare A.json B.json``: is ledger B worse than ledger A?

One row per (end-to-end metric, workload).  A metric's value is the
best of its samples (``catalogue.END_TO_END`` says why).  B's value may
be worse than A's by the metric's bound (a share of A's value, or the
metric's absolute floor if that is larger) before the row reads
``regressed``.  When either side's own run-to-run spread — the distance
between its samples' quartiles — is wider than that allowance the row
reads ``unresolved`` whatever the values say: the host was too noisy
for the ledger to tell such a pair apart.
"""

from __future__ import annotations

from catalogue import END_TO_END, END_TO_END_PARTIAL, Metric


def judge(metric: Metric, base: dict, new: dict) -> dict:
    """Compare one metric's two ledger rows (``summarise`` dicts)."""
    allowed = max(metric.bound * abs(base["best"]), metric.floor)
    worse_by = new["best"] - base["best"]
    if metric.better == "higher":
        worse_by = -worse_by
    widest = max(base["q3"] - base["q1"], new["q3"] - new["q1"])
    if widest > allowed:
        verdict = "unresolved"
    elif worse_by > allowed:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "verdict": verdict,
        "base": base["best"],
        "new": new["best"],
        "change": (new["best"] - base["best"]) / abs(base["best"]) if base["best"] else 0.0,
        "spread": widest / abs(base["median"]) if base["median"] else 0.0,
        "identical": set(base["values"]) == set(new["values"]),
    }


def compare(base: dict, new: dict) -> list[dict]:
    """Every (metric, workload) row both ledgers have."""
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric in END_TO_END + END_TO_END_PARTIAL:
            if metric.name in entry["e2e"] and metric.name in other["e2e"]:
                row = judge(metric, entry["e2e"][metric.name], other["e2e"][metric.name])
                rows.append({"workload": workload, "metric": metric.name, "clock": metric.clock, **row})
        # digests are not judged: they differ between seeds and between
        # commits that change behaviour; same seed + speed-only change
        # must read "identical"
        rows.append({"workload": workload, "metric": "output digest", "identical": entry["digest"] == other["digest"]})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<14}{'metric':<34}{'base':>14}{'new':>14}{'change':>9}{'spread':>8}  verdict"]
    for row in rows:
        if "verdict" not in row:
            note = "identical" if row["identical"] else "differs"
            lines.append(f"{row['workload']:<14}{row['metric']:<34}{'':>45}  {note}")
            continue
        verdict = row["verdict"]
        if row["clock"] == "sim":
            verdict += " (identical)" if row["identical"] else " (differs)"
        lines.append(
            f"{row['workload']:<14}{row['metric']:<34}{row['base']:>14.6g}{row['new']:>14.6g}"
            f"{row['change']:>+9.1%}{row['spread']:>8.1%}  {verdict}"
        )
    counts = {v: sum(1 for r in rows if r.get("verdict") == v) for v in ("ok", "unresolved", "regressed")}
    lines.append(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['regressed']} regressed")
    return "\n".join(lines)


def regressed(rows: list[dict]) -> bool:
    return any(row.get("verdict") == "regressed" for row in rows)

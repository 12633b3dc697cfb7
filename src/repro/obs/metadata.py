"""Run metadata: the ``--metadata-file`` JSON summary of one scan.

Real ZDNS writes a metadata file alongside scan output — the exact
invocation, wall-clock duration, and per-status counts — so a result
set stays interpretable months later.  This builder produces the same:
the scan summary at the top level (per-status counts, rates), plus the
``args`` the run was invoked with, wall/virtual ``durations``, and the
full telemetry ``metrics`` snapshot.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["build_run_metadata", "write_metadata"]


def build_run_metadata(
    summary: dict,
    args: dict | None = None,
    wall_seconds: float | None = None,
    virtual_seconds: float | None = None,
    metrics: dict | None = None,
    tool: str = "pyzdns-repro",
) -> dict:
    """Assemble the metadata document for one finished run.

    ``summary`` (typically ``ScanStats.to_json()`` plus cache/CPU
    extras) is merged at the top level so existing consumers keep
    reading ``total`` / ``statuses`` where they always were; the
    observability extras nest under their own keys.
    """
    from .. import __version__

    metadata: dict[str, Any] = dict(summary)
    metadata["tool"] = {"name": tool, "version": __version__}
    if args is not None:
        metadata["args"] = {k: v for k, v in sorted(args.items()) if not k.startswith("_")}
    durations: dict[str, float] = {}
    if wall_seconds is not None:
        durations["wall_s"] = round(wall_seconds, 3)
    if virtual_seconds is not None:
        durations["virtual_s"] = round(virtual_seconds, 6)
    if durations:
        metadata["durations"] = durations
    if metrics:
        metadata["metrics"] = metrics
    return metadata


def write_metadata(path: str, metadata: dict) -> dict:
    """Serialise ``metadata`` as indented JSON; returns it unchanged.

    The document must round-trip (``json.load`` equals the input), so
    everything in it has to be JSON-native before it gets here.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metadata, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return metadata

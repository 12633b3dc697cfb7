"""Input decoding and output encoding for scans (Section 3.2)."""

from __future__ import annotations

import hashlib
import json
import sys
from datetime import datetime, timezone
from itertools import islice
from typing import Iterable, Iterator, TextIO

#: Default logical shard count of the shard executor
#: (:func:`repro.framework.run_parallel_scan`).  Fixed — deliberately
#: *not* derived from the process count — so ``--processes 1`` and
#: ``--processes 4`` run the identical shard decomposition and merge to
#: identical bytes.  Also
#: the load-balancing granularity: 8 shards over 4 workers lets a fast
#: worker pick up a second shard while a slow one finishes its first.
DEFAULT_LOGICAL_SHARDS = 8


def read_names(source: TextIO | str | None = None) -> Iterator[str]:
    """Yield input names/IPs, one per non-empty line.

    ``source`` may be a path, an open file, or None for stdin.
    """
    if source is None:
        yield from _lines(sys.stdin)
    elif isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from _lines(handle)
    else:
        yield from _lines(source)


def _lines(handle: TextIO) -> Iterator[str]:
    for line in handle:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def shard(items: Iterable[str], shards: int, index: int) -> Iterator[str]:
    """ZMap-style sharding: the ``index``-th of ``shards`` partitions.

    Lets multiple scanner instances split one input deterministically:
    item ``i`` belongs to shard ``i % shards``.  The partition is exact:
    over all indices the shards are pairwise disjoint and their union
    (in position order) is the input.

    Argument validation happens eagerly, at the call — not at the first
    ``next()`` — so callers holding a bad shard spec fail at setup time
    instead of deep inside a scan.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1 (got {shards})")
    if not 0 <= index < shards:
        raise ValueError(f"shard index {index} outside 0..{shards - 1}")
    return islice(items, index, None, shards)


def names_digest(names: Iterable[str]) -> str:
    """SHA-256 over the input names, order-sensitive.

    The checkpoint layer (:mod:`repro.framework.checkpoint`) folds this
    into the scan config fingerprint: resuming a journal against a
    different input list would replay the wrong rows, so the digest must
    change when any name — or the order of names — changes.
    """
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def clean_row(row: dict) -> dict:
    """Strip framework-internal keys (leading underscore) from a row."""
    return {key: value for key, value in row.items() if not key.startswith("_")}


def write_rows(rows: Iterable[dict], destination: TextIO | str | None = None) -> int:
    """Write result rows as JSON lines; returns the row count."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return _write(rows, handle)
    return _write(rows, destination or sys.stdout)


def _write(rows: Iterable[dict], handle: TextIO) -> int:
    count = 0
    for row in rows:
        handle.write(json.dumps(clean_row(row), sort_keys=True))
        handle.write("\n")
        count += 1
    return count


def encode_row(row: dict, add_timestamp: bool = False) -> str:
    """One output row as its canonical JSON line (newline included).

    The single source of truth for the output byte format: the
    in-process :class:`JsonLineSink` and the multi-process shard workers
    (:mod:`repro.framework.parallel`) both emit through here, so a
    merged multi-core run is byte-compatible with a single-process one.
    ``add_timestamp=True`` stamps the row with the wall-clock write
    time, matching ZDNS's output (Appendix C).
    """
    row = clean_row(row)
    if add_timestamp:
        # datetime/timezone are module-level imports: this runs once per
        # output row, and re-executing the import machinery on the hot
        # output path cost a dict probe per row for nothing.
        row["timestamp"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return json.dumps(row, sort_keys=True) + "\n"


class JsonLineSink:
    """A sink for ScanRunner that streams rows to a file handle.

    ``add_timestamp=True`` stamps each row with the wall-clock time it
    was written, matching ZDNS's output (Appendix C).
    """

    def __init__(self, handle: TextIO, add_timestamp: bool = False):
        self.handle = handle
        self.add_timestamp = add_timestamp
        self.count = 0

    def __call__(self, row: dict) -> None:
        self.handle.write(encode_row(row, self.add_timestamp))
        self.count += 1

"""repro.framework — scan orchestration: configuration, routine
spawning, input/output encoding, statistics, the multi-process shard
executor with checkpoint/resume and work stealing, and the CLI."""

from .checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    CheckpointJournal,
    CheckpointWriter,
    config_fingerprint,
)
from .io import (
    JsonLineSink,
    clean_row,
    encode_row,
    names_digest,
    read_names,
    shard,
    write_rows,
)
from .parallel import DEFAULT_LOGICAL_SHARDS, ParallelReport, run_parallel_scan
from .runner import ScanConfig, ScanReport, ScanRunner, run_scan
from .stats import ScanStats
from .telemetry import DELTA_VERSION, FleetView, TelemetryDelta

__all__ = [
    "DEFAULT_LOGICAL_SHARDS",
    "DELTA_VERSION",
    "JOURNAL_VERSION",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointWriter",
    "FleetView",
    "JsonLineSink",
    "ParallelReport",
    "ScanConfig",
    "ScanReport",
    "ScanRunner",
    "ScanStats",
    "TelemetryDelta",
    "clean_row",
    "config_fingerprint",
    "encode_row",
    "names_digest",
    "read_names",
    "run_parallel_scan",
    "run_scan",
    "shard",
    "write_rows",
]

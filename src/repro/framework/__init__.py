"""repro.framework — scan orchestration: configuration, routine
spawning, input/output encoding, statistics, the multi-process shard
executor with checkpoint/resume and work stealing, and the CLI."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".checkpoint": (
            "JOURNAL_VERSION",
            "CheckpointError",
            "CheckpointJournal",
            "CheckpointWriter",
            "config_fingerprint",
        ),
        ".io": (
            "DEFAULT_LOGICAL_SHARDS",
            "JsonLineSink",
            "clean_row",
            "encode_row",
            "names_digest",
            "read_names",
            "shard",
            "write_rows",
        ),
        ".parallel": ("ParallelReport", "run_parallel_scan"),
        ".runner": ("ScanConfig", "ScanReport", "ScanRunner", "run_scan"),
        ".stats": ("ScanStats",),
        ".telemetry": ("DELTA_VERSION", "FleetView", "TelemetryDelta"),
    },
)

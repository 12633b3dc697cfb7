"""repro.obs — the telemetry subsystem (observability layer).

What real ZDNS ships to stay operable at 10K-routine scale, unified in
one package:

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  log-bucketed histograms with dotted scopes (``engine``, ``cache``,
  ``scheduler``, ``codec``); a scan that keeps no metrics builds none.
* per-lookup spans are one rendering of a lookup's recorded steps
  (:mod:`repro.core.trace`): parent/child intervals on the virtual clock
  for every delegation walk, cache probe, query attempt, retry, and
  timeout, exported as JSON lines.
* :mod:`repro.obs.status` — the periodic one-line scan status stream.
* :mod:`repro.obs.metadata` — the ``--metadata-file`` run summary.
* :mod:`repro.obs.server` — the live HTTP control plane (``/metrics``,
  ``/status.json``, and the ``/`` dashboard) behind ``--http-port``.

``tests/test_obs.py`` and ``tests/test_control_plane.py`` exercise the
whole layer against small simulated scans.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metadata": ("build_run_metadata", "write_metadata"),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "Scope",
            "parse_prometheus",
        ),
        ".server": ("TelemetryServer",),
        ".status": ("StatusLine", "estimate_eta", "format_status_line"),
    },
)

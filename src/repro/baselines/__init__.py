"""repro.baselines — behavioural models of the tools the paper compares
against (Section 4.2): dig, Unbound, and MassDNS."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".dig_model": (
            "DEFAULT_FORK_PROCESSES",
            "DIG_BATCH_OVERHEAD",
            "DIG_PROCESS_CPU",
            "DigBaseline",
            "DigReport",
        ),
        ".massdns_model": (
            "MASSDNS_CONCURRENCY",
            "MASSDNS_RETRIES",
            "MASSDNS_TIMEOUT",
            "massdns_config",
            "run_massdns",
        ),
        ".unbound_model": (
            "UNBOUND_CPU_PER_QUERY",
            "UNBOUND_IP",
            "UnboundResolver",
            "install_unbound",
        ),
    },
)

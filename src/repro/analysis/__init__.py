"""repro.analysis — the paper's case studies as reusable analyses."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".caastudy": ("CAAFindings", "run_caa_study"),
        ".dnssecstudy": ("DNSSECFindings", "expected_outcome", "run_dnssec_study"),
        ".nsconsistency": ("NSConsistencyFindings", "run_ns_consistency_study"),
    },
)

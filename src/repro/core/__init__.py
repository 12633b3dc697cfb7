"""repro.core — the ZDNS library: iterative caching resolution with
exposed lookup chains, external-resolver stub mode, and the drivers
that execute lookups on simulated or real networks."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cache": ("CacheStats", "Delegation", "SelectiveCache"),
        ".config": ("ClientCostModel", "ResolverConfig"),
        ".engine": ("LiveDriver", "Resolver", "SimDriver"),
        ".health": ("ServerHealthTracker",),
        ".machine": ("Backoff", "ExternalMachine", "IterativeMachine", "LookupResult", "SendQuery"),
        ".status": ("Status", "status_from_rcode"),
        ".trace": ("SpanTracer", "Trace", "TraceStep", "message_to_json"),
        ".validation": (
            "ValidationReport",
            "in_bailiwick",
            "sanitize_response",
            "validate_answer_chain",
            "validate_response_shape",
        ),
        ".dnssec": (
            "BOGUS",
            "CHAIN_COUNTS",
            "INDETERMINATE",
            "INSECURE",
            "SECURE",
            "SECURITY_STATES",
            "Validator",
            "trust_anchor_for",
        ),
    },
)

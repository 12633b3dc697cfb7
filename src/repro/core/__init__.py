"""repro.core — the ZDNS library: iterative caching resolution with
exposed lookup chains, external-resolver stub mode, and the drivers
that execute lookups on simulated or real networks."""

from .cache import CacheStats, Delegation, SelectiveCache
from .config import ClientCostModel, ResolverConfig
from .engine import LiveDriver, Resolver, SimDriver
from .health import ServerHealthTracker
from .machine import (
    Backoff,
    ExternalMachine,
    IterativeMachine,
    LookupResult,
    SendQuery,
)
from .status import Status, status_from_rcode
from .trace import Trace, TraceStep, message_to_json

__all__ = [
    "Backoff",
    "CacheStats",
    "ClientCostModel",
    "Delegation",
    "ExternalMachine",
    "IterativeMachine",
    "ServerHealthTracker",
    "LiveDriver",
    "LookupResult",
    "Resolver",
    "ResolverConfig",
    "SelectiveCache",
    "SendQuery",
    "SimDriver",
    "Status",
    "Trace",
    "TraceStep",
    "message_to_json",
    "status_from_rcode",
]

from .validation import (  # noqa: E402
    ValidationReport,
    in_bailiwick,
    sanitize_response,
    validate_answer_chain,
    validate_response_shape,
)

__all__ += [
    "ValidationReport",
    "in_bailiwick",
    "sanitize_response",
    "validate_answer_chain",
    "validate_response_shape",
]

from .dnssec import (  # noqa: E402
    BOGUS,
    CHAIN_COUNTS,
    INDETERMINATE,
    INSECURE,
    SECURE,
    SECURITY_STATES,
    Validator,
    trust_anchor_for,
)

__all__ += [
    "BOGUS",
    "CHAIN_COUNTS",
    "INDETERMINATE",
    "INSECURE",
    "SECURE",
    "SECURITY_STATES",
    "Validator",
    "trust_anchor_for",
]

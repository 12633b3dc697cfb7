"""repro.net — the network substrate.

A discrete-event simulator (virtual clock, routines, simulated sockets,
latency/loss/rate-limit/CPU models) that stands in for the live Internet
the paper measured, plus a real UDP transport for loopback/production
use.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cpu": ("CPUModel", "GCModel"),
        ".encrypted": ("EncryptedTransportParams", "SimEncryptedSocket"),
        ".links": (
            "CapacityQueue",
            "GilbertElliottLoss",
            "LatencyModel",
            "LossModel",
            "TokenBucket",
        ),
        ".live": ("UDPServer", "UDPTransport"),
        ".sim": (
            "HangError",
            "Routine",
            "SimFuture",
            "SimulationError",
            "Simulator",
            "TimerHandle",
            "derive_seed",
        ),
        ".sockets": (
            "DEFAULT_PORTS_PER_IP",
            "NetworkStats",
            "PortExhaustedError",
            "ServerReply",
            "SimNetwork",
            "SimServer",
            "SimUDPSocket",
            "SourceIPPool",
        ),
    },
)

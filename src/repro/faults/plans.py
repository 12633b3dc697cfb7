"""Bundled fault plans: the escalating-severity ladder the chaos soak
harness climbs.

Severity 0 is the empty plan (must be byte-identical to faults-off);
each later rung injects strictly more adversity against the simulated
topology (providers live at ``192.7.*``, TLD servers at ``192.6.*``,
infra glue at ``192.8.*`` — see ``repro.ecosystem.zonegen``).  The soak
test asserts success rate degrades monotonically-ish down this ladder
while every lookup still terminates with a classified status.
"""

from __future__ import annotations

from .plan import (
    Blackout,
    Brownout,
    BurstLoss,
    FaultPlan,
    Flap,
    Garbage,
    LatencySpike,
    Loss,
    RcodeStorm,
    Truncate,
)

__all__ = ["escalation_ladder", "plan_by_name", "resolve_plan"]


def _mild() -> FaultPlan:
    """Background adversity a healthy Internet always shows: a little
    extra loss and one latency spike window."""
    return FaultPlan(
        name="mild",
        directives=[
            Loss(servers=("192.7.",), probability=0.02),
            LatencySpike(servers=("192.6.",), extra=0.05, start=2.0, end=8.0),
            Truncate(servers=("192.7.0.",), probability=0.05),
        ],
    )


def _moderate() -> FaultPlan:
    """Bursty loss on the provider fleet, an rcode storm on one
    provider, and forced truncation — the 0.4 %-truncation world of the
    paper turned up an order of magnitude."""
    return FaultPlan(
        name="moderate",
        directives=[
            BurstLoss(servers=("192.7.",), p_enter=0.01, p_exit=0.25, loss_bad=0.9),
            RcodeStorm(servers=("192.7.1.",), rcode="SERVFAIL", probability=0.5),
            Truncate(servers=("192.7.",), probability=0.1),
            Garbage(servers=("192.7.2.",), probability=0.15),
            Brownout(servers=("192.6.",), probability=0.05, latency_factor=2.0),
        ],
    )


def _severe() -> FaultPlan:
    """Correlated outages: one provider blacked out, another flapping,
    storms and garbage spread across the fleet."""
    return FaultPlan(
        name="severe",
        directives=[
            Blackout(servers=("192.7.0.",), start=1.0, end=30.0),
            Flap(servers=("192.7.1.",), period=10.0, up_fraction=0.5),
            RcodeStorm(servers=("192.7.",), rcode="SERVFAIL", probability=0.35),
            RcodeStorm(servers=("192.7.3.",), rcode="REFUSED", probability=0.5),
            Garbage(servers=("192.7.",), probability=0.15),
            Truncate(servers=("192.7.",), probability=0.2),
            BurstLoss(servers=("*",), p_enter=0.005, p_exit=0.2, loss_bad=0.8),
        ],
    )


def _extreme() -> FaultPlan:
    """The Internet on fire: wide blackouts, heavy storms, malformed
    replies everywhere, TLD brownouts.  Lookups are expected to fail in
    droves — but to fail *classified*, with no hangs and no crashes."""
    return FaultPlan(
        name="extreme",
        directives=[
            Blackout(servers=("192.7.0.", "192.7.2."), start=0.0, end=60.0),
            Flap(servers=("192.7.",), period=8.0, up_fraction=0.4),
            RcodeStorm(servers=("192.7.",), rcode="SERVFAIL", probability=0.6),
            RcodeStorm(servers=("192.6.",), rcode="REFUSED", probability=0.2),
            Garbage(servers=("192.7.", "192.6."), probability=0.3),
            Truncate(servers=("192.7.",), probability=0.35),
            Brownout(servers=("192.6.",), probability=0.25, latency_factor=3.0),
            BurstLoss(servers=("*",), p_enter=0.02, p_exit=0.15, loss_bad=0.95),
            LatencySpike(servers=("192.8.",), extra=0.25),
        ],
    )


def escalation_ladder() -> list[FaultPlan]:
    """The bundled plans in increasing severity, rung 0 empty."""
    return [FaultPlan.empty("baseline"), _mild(), _moderate(), _severe(), _extreme()]


def plan_by_name(name: str) -> FaultPlan:
    """Fetch one bundled plan (``baseline``/``mild``/``moderate``/
    ``severe``/``extreme``) — also usable as ``--fault-plan NAME``."""
    for plan in escalation_ladder():
        if plan.name == name:
            return plan
    raise KeyError(f"no bundled fault plan named {name!r}")


def resolve_plan(spec: str | FaultPlan | None) -> FaultPlan | None:
    """The plan ``spec`` names: a :class:`FaultPlan` or None is returned
    as is; a string is a JSON file path, else a bundled plan name.

    :func:`repro.ecosystem.build_internet` reads every plan through
    here; the multi-process shard workers re-load the plan from its
    spec instead of pickling plan objects across the process boundary.
    Raises :class:`KeyError` when the spec is neither a readable file
    nor a bundled plan name, and :class:`PlanError` when the file does
    not hold a valid plan.
    """
    import os

    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if os.path.exists(spec):
        return FaultPlan.load(spec)
    try:
        return plan_by_name(spec)
    except KeyError:
        raise KeyError(
            f"--fault-plan {spec!r} is neither a file nor a bundled plan "
            "name (mild, moderate, severe, extreme)"
        ) from None

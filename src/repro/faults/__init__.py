"""repro.faults — deterministic fault injection for the simulated
Internet (chaos engineering for the resolver).

The paper's evaluation leans on failure handling — truncation, lame
delegations, timeouts, retry storms.  This package turns those from
accidents of the zone generator into *scriptable adversity*:

* :mod:`repro.faults.plan` — the :class:`FaultPlan` schema: typed
  directives (loss, burst loss, blackout, brownout, rcode storm,
  truncation, garbage, latency spike, flap) over virtual-time windows,
  loadable from JSON (``--fault-plan``).
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that hooks
  into :class:`repro.net.SimNetwork` and executes a plan from its own
  seeded RNG (``--chaos-seed``), so runs replay bit-identically and an
  empty plan is indistinguishable from no injector.  It is attached in
  one place, :func:`repro.ecosystem.build_internet` (``faults=``).
* :mod:`repro.faults.plans` — the bundled escalating-severity ladder
  the chaos soak harness (``tests/soak/``) climbs.

``tests/test_faults.py`` is the tier-1 slice of the subsystem's checks;
``pytest -m soak tests/soak`` runs the 10k-name chaos soak.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".injector": ("FaultInjector", "SendVerdict"),
        ".plan": (
            "Blackout",
            "Brownout",
            "BurstLoss",
            "Directive",
            "FaultPlan",
            "Flap",
            "Garbage",
            "LatencySpike",
            "Loss",
            "PlanError",
            "RcodeStorm",
            "RolloverDesync",
            "StripRrsig",
            "Truncate",
            "directive_from_json",
        ),
        ".plans": ("escalation_ladder", "plan_by_name", "resolve_plan"),
    },
)

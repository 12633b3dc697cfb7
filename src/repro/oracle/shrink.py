"""Shrink a divergence to a minimal ``(name, seed, plan)`` triple.

A sweep divergence arrives buried in context: thousands of names, a
cache warmed by every earlier lookup, a fault plan with many
directives.  Debugging wants the opposite — the single name, the seed,
and the *smallest* fault plan that still reproduce the disagreement in
isolation.  :func:`shrink_divergence` re-verifies the divergence with
just that one name (cold + warm), then greedily drops fault-plan
directives (ddmin-style single passes to a fixpoint), preferring the
empty plan when the faults turn out to be irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnslib import RRType
from .harness import (
    ComboReport,
    DifferentialConfig,
    Divergence,
    _plan_label,
    _resolve_spec,
    _run_combo,
)
from .reference import ReferenceResolver


@dataclass(frozen=True)
class MinimalCase:
    """The shrunk reproducer."""

    name: str
    seed: int
    #: None (faults irrelevant) or a minimal :class:`FaultPlan`.
    plan: object | None
    policy: str
    eviction: str
    capacity: int
    reason: str
    #: False when the original divergence would not reproduce from a
    #: single-name cold start (it needed the sweep's cache pressure) —
    #: the un-shrunk inputs are then the best available reproducer.
    reproduced: bool = True

    def to_json(self) -> dict:
        plan = self.plan
        return {
            "name": self.name,
            "seed": self.seed,
            "plan": getattr(plan, "name", None) if plan is not None else None,
            "plan_directives": len(plan) if plan is not None else 0,
            "policy": self.policy,
            "eviction": self.eviction,
            "capacity": self.capacity,
            "reason": self.reason,
            "reproduced": self.reproduced,
        }


def check_one(
    name: str,
    seed: int = 2022,
    qtype: int = int(RRType.A),
    policy: str = "selective",
    eviction: str = "random",
    plan=None,
    capacity: int = 512,
    cache_factory=None,
    reference: ReferenceResolver | None = None,
    dnssec: bool = False,
    retries: int = 2,
) -> Divergence | None:
    """One name through a fresh production universe, cold then warm,
    against the oracle: the sweep's own combo path, for one name."""
    if reference is None:
        reference = ReferenceResolver(seed=seed, dnssec=dnssec)
    config = DifferentialConfig(
        seed=seed, qtype=int(qtype), cache_capacity=capacity, retries=retries, dnssec=dnssec
    )
    combo = ComboReport(policy, eviction, _plan_label(plan))
    _run_combo(
        combo, [name], config, lambda qname: reference.resolve(qname, qtype), cache_factory, plan
    )
    return combo.divergences[0] if combo.divergences else None


def shrink_divergence(
    divergence: Divergence,
    cache_factory=None,
    reference: ReferenceResolver | None = None,
    max_probes: int = 64,
    plan="__from_combo__",
) -> MinimalCase:
    """Reduce ``divergence`` to a minimal reproducer.

    ``cache_factory`` must match whatever produced the divergence (the
    planted-bug tests pass their deliberately broken cache through
    here, so the shrunk case still exhibits the bug).  ``plan``
    overrides the fault plan recorded in the divergence's combo (pass
    the actual :class:`FaultPlan` when the sweep used a custom one whose
    name is not a bundled spec).
    """
    from ..faults import FaultPlan

    combo = divergence.combo or {}
    policy = combo.get("policy", "selective")
    eviction = combo.get("eviction", "random")
    capacity = int(combo.get("capacity", 512))
    dnssec = bool(combo.get("dnssec", False))
    retries = int(combo.get("retries", 2))
    if plan == "__from_combo__":
        label = combo.get("plan")
        try:
            plan = _resolve_spec(label if label != "none" else None)
        except KeyError:
            plan = None  # a custom plan we cannot reconstruct by name
    seed = divergence.seed
    if reference is None:
        reference = ReferenceResolver(seed=seed, dnssec=dnssec)

    def probe(candidate_plan) -> Divergence | None:
        return check_one(
            divergence.name,
            seed=seed,
            qtype=divergence.qtype,
            policy=policy,
            eviction=eviction,
            plan=candidate_plan,
            capacity=capacity,
            cache_factory=cache_factory,
            reference=reference,
            dnssec=dnssec,
            retries=retries,
        )

    probes = 0
    repro = probe(plan)
    if repro is None:
        return MinimalCase(
            name=divergence.name,
            seed=seed,
            plan=plan,
            policy=policy,
            eviction=eviction,
            capacity=capacity,
            reason=divergence.reason,
            reproduced=False,
        )

    # First try the biggest cut: no faults at all.
    if plan is not None and len(plan):
        candidate = probe(None)
        probes += 1
        if candidate is not None:
            plan, repro = None, candidate
    # Then drop directives one at a time until no single removal
    # preserves the divergence (a fixpoint of single-step ddmin).
    while plan is not None and len(plan) > 0 and probes < max_probes:
        for index in range(len(plan.directives)):
            reduced = FaultPlan(
                directives=[
                    d for i, d in enumerate(plan.directives) if i != index
                ],
                name=f"{plan.name or 'plan'}-min",
            )
            candidate = probe(reduced if len(reduced) else None)
            probes += 1
            if candidate is not None:
                plan = reduced if len(reduced) else None
                repro = candidate
                break
            if probes >= max_probes:
                break
        else:
            break
    return MinimalCase(
        name=divergence.name,
        seed=seed,
        plan=plan,
        policy=policy,
        eviction=eviction,
        capacity=capacity,
        reason=repro.reason,
        reproduced=True,
    )

"""Differential conformance harness: production resolver vs oracle.

Agreement is asserted on the triple **(status, final CNAME target,
sorted terminal rdata set)**, with two refinements:

* The simulated fabric drops packets everywhere (that is the point of
  the substrate), so a production *failure* status (TIMEOUT, SERVFAIL,
  …) against a semantic oracle answer is **inconclusive**, not a
  divergence — the packets may simply have died.  A production
  *semantic* answer, however, must match the oracle exactly; and a
  production semantic answer for a name the oracle proves unresolvable
  is always a divergence (the resolver invented an answer).
* Domains with deliberately inconsistent nameservers legitimately
  return different rdata per server, so the production answer set must
  be a member of the oracle's *acceptable* set family, not equal to a
  single canonical set.

The sweep harness (:func:`run_differential`) resolves every name
**twice** through the production machine — cold then warm — under each
cache policy × eviction × fault-plan combination, checks both against
the oracle, and additionally pins the cold-vs-warm invariant: two
semantic resolutions of the same name must agree with each other
(whenever the oracle says there is only one acceptable answer set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core import Resolver, ResolverConfig, SelectiveCache
from ..dnslib import Name, RRType
from ..ecosystem import EcosystemParams, build_internet
from ..workloads import CorpusConfig, DomainCorpus
from .reference import SEMANTIC_STATUSES, OracleResult, ReferenceResolver

_CNAME = int(RRType.CNAME)
_ANY = int(RRType.ANY)


@dataclass(frozen=True)
class ProductionView:
    """The comparison-relevant projection of a production LookupResult."""

    status: str
    final_key: str
    final_name: str
    terminal: tuple[str, ...]
    #: The validator's verdict, when the lookup ran with DNSSEC on.
    security: str | None = None

    @property
    def is_semantic(self) -> bool:
        return self.status in SEMANTIC_STATUSES

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "final_name": self.final_name,
            "answers": list(self.terminal),
        }
        if self.security is not None:
            out["security"] = self.security
        return out


def production_view(result, qname: Name, qtype) -> ProductionView:
    """Project a :class:`repro.core.LookupResult` for comparison: chase
    the CNAME chain within its answer section to the final owner, then
    collect that owner's final-type rdata, sorted."""
    qt = int(qtype)
    answers = result.answers or []
    cnames: dict[str, Name] = {}
    final_typed: set[str] = set()
    for record in answers:
        rt = int(record.rrtype)
        key = record.name.canonical_key()
        if rt == qt or qt == _ANY:
            final_typed.add(key)
        if rt == _CNAME and key not in cnames:
            cnames[key] = record.rdata.target
    current = qname
    if qt not in (_CNAME, _ANY):
        seen: set[str] = set()
        while True:
            key = current.canonical_key()
            if key in seen or key in final_typed:
                break
            seen.add(key)
            target = cnames.get(key)
            if target is None:
                break
            current = target
    terminal = tuple(
        sorted(
            record.rdata.to_text()
            for record in answers
            if record.name == current and (int(record.rrtype) == qt or qt == _ANY)
        )
    )
    return ProductionView(
        status=str(result.status),
        final_key=current.canonical_key(),
        final_name=current.to_text(omit_final_dot=True),
        terminal=terminal,
        security=getattr(result, "security", None),
    )


@dataclass(frozen=True)
class Divergence:
    """One disagreement, with everything needed to reproduce it."""

    name: str
    qtype: int
    seed: int
    reason: str
    production: dict
    oracle: dict
    #: Where it happened: policy/eviction/plan/phase, when known.
    combo: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        row = {
            "oracle_divergence": True,
            "name": self.name,
            "qtype": self.qtype,
            "seed": self.seed,
            "reason": self.reason,
            "production": dict(self.production),
            "oracle": dict(self.oracle),
        }
        if self.combo:
            row["combo"] = dict(self.combo)
        return row


def compare_views(view: ProductionView, oracle: OracleResult) -> tuple[str, str | None]:
    """``("agree" | "inconclusive" | "diverge", reason)``."""
    if not view.is_semantic:
        # Production failed.  If the oracle also calls the name
        # unresolvable the two agree; otherwise the packets may have
        # died on the lossy fabric — no verdict either way.
        return ("agree", None) if not oracle.is_semantic else ("inconclusive", None)
    if not oracle.is_semantic:
        return (
            "diverge",
            f"production answered {view.status} but the oracle finds the "
            f"name unresolvable ({oracle.status})",
        )
    if view.status != oracle.status:
        return ("diverge", f"status {view.status} != oracle {oracle.status}")
    if (
        view.security is not None
        and view.security != "indeterminate"  # chain fetches may have died
        and oracle.security is not None
        and view.security != oracle.security
    ):
        return (
            "diverge",
            f"validation {view.security} != expected {oracle.security}",
        )
    if view.status == "NXDOMAIN":
        return ("agree", None)
    if view.final_key != oracle.final_key:
        return (
            "diverge",
            f"final CNAME target {view.final_name!r} != oracle {oracle.final_name!r}",
        )
    if view.terminal not in oracle.acceptable:
        return (
            "diverge",
            f"answer set {list(view.terminal)} not among "
            f"{[list(s) for s in oracle.acceptable]}",
        )
    return ("agree", None)


class DifferentialOracle:
    """The one verdict path: owns a reference resolver, memoises its
    verdicts per (name, qtype), samples the lookups handed to
    :meth:`observe` — positions 1, K+1, 2K+1, … for ``every`` = K — and
    counts the verdicts (the scan, the shard executor's tasks and the
    daemon sample; the sweep and the shrinker check all, ``every=1``)."""

    def __init__(
        self, seed: int = 2022, memo_limit: int = 65_536, dnssec: bool = False, every: int = 1
    ):
        if every < 1:
            raise ValueError(f"oracle sampling interval must be >= 1 (got {every})")
        self.seed = seed
        self.dnssec = dnssec
        self.every = every
        self.reference = ReferenceResolver(seed=seed, dnssec=dnssec)
        self.seen = 0
        self.checked = 0
        self.agreed = 0
        self.inconclusive = 0
        self.divergences = 0
        self._memo: dict[tuple, OracleResult] = {}
        self._memo_limit = memo_limit

    def oracle_result(self, qname: Name, qtype) -> OracleResult:
        key = (qname.canonical_key(), int(qtype))
        cached = self._memo.get(key)
        if cached is None:
            if len(self._memo) >= self._memo_limit:
                self._memo.clear()
            cached = self._memo[key] = self.reference.resolve(qname, qtype)
        return cached

    def note_zone_change(self, base: Name | str) -> int:
        """Mirror a zone delta into the reference universe.

        The service publishes deltas into the *production* universe; the
        oracle's private universe must see the identical mutation or
        every post-delta shadow check under the mutated zone would
        read as a divergence.  Both universes are built from the same
        seed, so bumping the same base's generation keeps them in
        lockstep.  Memoised verdicts at or below ``base`` are evicted
        (suffix match on the canonical label tuple — label-boundary
        exact, so ``oo.example`` does not match a delta to
        ``o.example``); verdicts for unrelated names stay cached.
        Returns the reference universe's new generation for ``base``.
        """
        from ..ecosystem import publish_zone_delta

        if isinstance(base, str):
            base = Name.from_text(base)
        generation = publish_zone_delta(self.reference.internet, base)
        # Evict below the *registrable* domain — the unit that actually
        # mutated — even when handed a deeper name inside the zone.
        registrable = self.reference.internet.synth.base_domain_of(base)
        suffix = (registrable or base).canonical_key()
        n = len(suffix)
        if n:
            stale = [key for key in self._memo if key[0][-n:] == suffix]
            for key in stale:
                del self._memo[key]
        else:
            self._memo.clear()
        return generation

    def observe(self, qname: Name, qtype, result, combo: dict | None = None) -> Divergence | None:
        """Count one finished production lookup and, on the sample,
        compare it against the oracle.  Returns the :class:`Divergence`
        (and counts it), or None; a failed lookup never diverges."""
        self.seen += 1
        if (self.seen - 1) % self.every:
            return None
        oracle = self.oracle_result(qname, qtype)
        view = production_view(result, qname, qtype)
        verdict, reason = compare_views(view, oracle)
        self.checked += 1
        if verdict == "agree":
            self.agreed += 1
            return None
        if verdict == "inconclusive":
            self.inconclusive += 1
            return None
        self.divergences += 1
        return Divergence(
            name=qname.to_text(omit_final_dot=True),
            qtype=int(qtype),
            seed=self.seed,
            reason=reason or "disagreement",
            production=view.to_json(),
            oracle=oracle.to_json(),
            combo=dict(combo or {}),
        )

    def stats(self) -> dict:
        return {
            "checked": self.checked,
            "agreed": self.agreed,
            "inconclusive": self.inconclusive,
            "divergences": self.divergences,
        }

    def publish_metrics(self, scope) -> None:
        """Mirror the counters into a registry scope (``oracle.*``)."""
        scope.counter("checked").inc(self.checked)
        scope.counter("agreed").inc(self.agreed)
        scope.counter("inconclusive").inc(self.inconclusive)
        scope.counter("divergence").inc(self.divergences)


# -- sweep harness ---------------------------------------------------------


@dataclass
class DifferentialConfig:
    """One differential sweep: names × (policy × eviction × plan)."""

    seed: int = 2022
    #: Names resolved per combination.
    names: int = 100
    #: Corpus offset of the first name; each combination uses its own
    #: disjoint slice so a sweep covers ``combos * names`` distinct
    #: generated names.
    start: int = 0
    qtype: int = int(RRType.A)
    policies: tuple = ("selective", "all", "none")
    evictions: tuple = ("random", "lru")
    #: Fault-plan specs: None (no faults), a bundled plan name, or a
    #: :class:`repro.faults.FaultPlan` instance.
    fault_plans: tuple = (None, "moderate")
    #: Small on purpose: a sweep should exercise eviction, not avoid it.
    cache_capacity: int = 512
    retries: int = 2
    #: Validate every production lookup and assert its verdict against
    #: the oracle's white-box expectation.
    dnssec: bool = False


@dataclass
class ComboReport:
    policy: str
    eviction: str
    plan: str
    checks: int = 0
    agreed: int = 0
    inconclusive: int = 0
    divergences: list = field(default_factory=list)

    def label(self) -> str:
        return f"{self.policy}/{self.eviction}/{self.plan}"


@dataclass
class DifferentialReport:
    seed: int
    combos: list = field(default_factory=list)
    names_checked: int = 0

    @property
    def checks(self) -> int:
        return sum(c.checks for c in self.combos)

    @property
    def agreed(self) -> int:
        return sum(c.agreed for c in self.combos)

    @property
    def inconclusive(self) -> int:
        return sum(c.inconclusive for c in self.combos)

    @property
    def divergences(self) -> list:
        return [d for c in self.combos for d in c.divergences]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "names_checked": self.names_checked,
            "checks": self.checks,
            "agreed": self.agreed,
            "inconclusive": self.inconclusive,
            "divergences": [d.to_row() for d in self.divergences],
            "combos": [
                {
                    "combo": c.label(),
                    "checks": c.checks,
                    "agreed": c.agreed,
                    "inconclusive": c.inconclusive,
                    "divergences": len(c.divergences),
                }
                for c in self.combos
            ],
        }


def _plan_label(spec) -> str:
    if spec is None:
        return "none"
    if isinstance(spec, str):
        return spec
    return getattr(spec, "name", "") or "custom"


def run_differential(
    config: DifferentialConfig | None = None,
    cache_factory: Callable[..., SelectiveCache] | None = None,
    names: Iterable[str] | None = None,
    log: Callable[[str], None] | None = None,
) -> DifferentialReport:
    """The full sweep.  ``cache_factory(policy, eviction, capacity,
    internet)`` overrides cache construction (used to plant deliberate
    bugs in tests); ``names`` overrides the generated corpus slice (the
    same names are then used for every combination)."""
    config = config or DifferentialConfig()
    oracle = DifferentialOracle(seed=config.seed, dnssec=config.dnssec)
    report = DifferentialReport(seed=config.seed)
    fixed_names = list(names) if names is not None else None
    offset = config.start
    for policy in config.policies:
        for eviction in config.evictions:
            for plan_spec in config.fault_plans:
                combo = ComboReport(policy, eviction, _plan_label(plan_spec))
                if fixed_names is not None:
                    combo_names = fixed_names
                else:
                    corpus = DomainCorpus(CorpusConfig(seed=config.seed))
                    combo_names = list(corpus.fqdns(config.names, offset))
                    offset += config.names
                _run_combo(combo, combo_names, config, oracle, cache_factory, plan_spec)
                report.combos.append(combo)
                report.names_checked += len(combo_names)
                if log is not None:
                    log(
                        f"oracle: {combo.label()}: {combo.checks} checks, "
                        f"{combo.agreed} agreed, {combo.inconclusive} "
                        f"inconclusive, {len(combo.divergences)} divergences"
                    )
    return report


def _run_combo(combo, combo_names, config, oracle, cache_factory, plan_spec):
    """Resolve each name cold then warm on a fresh universe under one
    combination through ``oracle`` (``every=1``), plus the cold-vs-warm
    invariant, recording every divergence on ``combo``; its tallies are
    the oracle's counts across the call plus the invariant's.  The sweep
    and the shrinker (:func:`repro.oracle.shrink.check_one`) both run
    through here."""
    internet = build_internet(
        params=EcosystemParams(seed=config.seed), faults=plan_spec, chaos_seed=config.seed
    )
    resolver = Resolver(
        internet,
        ResolverConfig(
            retries=config.retries,
            dnssec=config.dnssec,
            seed=config.seed,
            cache_size=config.cache_capacity,
            cache_policy=combo.policy,
            cache_eviction=combo.eviction,
        ),
        cache=(
            cache_factory(combo.policy, combo.eviction, config.cache_capacity, internet)
            if cache_factory is not None
            else None
        ),
    )
    combo_info = {
        "policy": combo.policy,
        "eviction": combo.eviction,
        "plan": _plan_label(plan_spec),
        "capacity": config.cache_capacity,
        "dnssec": config.dnssec,
        "retries": config.retries,
    }
    before = oracle.stats()
    for text in combo_names:
        qname = Name.from_text(text)
        views = []
        for phase in ("cold", "warm"):
            result = resolver.lookup(qname, RRType(config.qtype))
            divergence = oracle.observe(qname, config.qtype, result, dict(combo_info, phase=phase))
            if divergence is not None:
                combo.divergences.append(divergence)
            views.append(production_view(result, qname, config.qtype))
        cold, warm = views
        if cold.is_semantic and warm.is_semantic:
            # cold-vs-warm invariant: a cached (or re-walked) second
            # resolution must tell the same story as the first.
            expected = oracle.oracle_result(qname, config.qtype)
            mismatch = None
            if cold.status != warm.status or cold.final_key != warm.final_key:
                mismatch = (
                    f"cold ({cold.status}, {cold.final_name!r}) vs "
                    f"warm ({warm.status}, {warm.final_name!r})"
                )
            elif len(expected.acceptable) <= 1 and cold.terminal != warm.terminal:
                # with several acceptable per-NS answer sets, cold and
                # warm may legitimately land on different nameservers
                mismatch = (
                    f"cold answers {list(cold.terminal)} vs "
                    f"warm {list(warm.terminal)}"
                )
            combo.checks += 1
            if mismatch is None:
                combo.agreed += 1
            else:
                combo.divergences.append(
                    Divergence(
                        name=text,
                        qtype=config.qtype,
                        seed=config.seed,
                        reason=f"cold-vs-warm disagreement: {mismatch}",
                        production={"cold": cold.to_json(), "warm": warm.to_json()},
                        oracle=expected.to_json(),
                        combo=dict(combo_info, phase="cold-vs-warm"),
                    )
                )
    after = oracle.stats()
    combo.checks += after["checked"] - before["checked"]
    combo.agreed += after["agreed"] - before["agreed"]
    combo.inconclusive += after["inconclusive"] - before["inconclusive"]

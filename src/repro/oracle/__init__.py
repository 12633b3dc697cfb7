"""Differential resolution oracle (the correctness backstop).

The production resolver is fast because of caching, memoisation and
fast-path codecs — each a place correctness can quietly rot.  This
package holds the independent ground truth and the machinery that
compares the two:

* :class:`ReferenceResolver` — a deliberately naive recursive-descent
  resolver over its own private copy of the simulated Internet (zone
  content is a pure function of the seed): no cache, no memos, no
  fast-path codec, no randomness.
* :func:`compare_views` / :class:`DifferentialOracle` — the agreement
  relation on (status, final CNAME target, sorted terminal rdata set),
  with production failures on the lossy fabric classified as
  inconclusive rather than divergent, and per-nameserver-inconsistent
  domains matched against a *set* of acceptable answers.  The oracle is
  the one verdict path: it checks lookups 1, K+1, 2K+1, … of those its
  caller hands :meth:`~DifferentialOracle.observe`.
* :func:`run_differential` — the sweep harness: every name resolved
  cold *and* warm under each cache policy × eviction × fault-plan
  combination, all checked against the oracle plus the cold-vs-warm
  self-agreement invariant.
* :func:`shrink_divergence` / :func:`check_one` — reduce any divergence
  to a minimal (name, seed, plan) triple that reproduces in isolation.

Scan integration: ``pyzdns <module> --oracle-check K`` (per task under
``--processes``) and the daemon's ``--oracle-check K`` sample that way
(divergences become structured output rows; counters land in the
``oracle.*`` metric scope); the sweep and the shrinker use K = 1.
``tests/test_oracle.py`` holds the gate: a policy × eviction ×
fault-plan sweep with zero divergences, and a planted lying cache that
must be caught and shrunk to a fault-free case.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".harness": (
            "ComboReport",
            "DifferentialConfig",
            "DifferentialOracle",
            "DifferentialReport",
            "Divergence",
            "ProductionView",
            "compare_views",
            "production_view",
            "run_differential",
        ),
        ".reference": ("SEMANTIC_STATUSES", "OracleResult", "ReferenceResolver"),
        ".shrink": ("MinimalCase", "check_one", "shrink_divergence"),
    },
)

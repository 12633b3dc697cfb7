"""repro.service — the long-lived resolver daemon on the simulated
substrate.

Batch scanning (``repro.framework``) resolves a list and exits; this
package runs a *service*: a pool of caching resolver workers serving a
procedurally generated stub-client population with a Zipf query mix and
a diurnal load curve, entirely in virtual time and byte-deterministic
per seed.  It exists to measure the cache-lifetime behaviours a batch
scan never exercises — RFC 8767 serve-stale under upstream blackouts,
prefetch of hot about-to-expire entries, and incremental (Janus-style)
vs full-flush revalidation when the universe publishes zone deltas.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("ServiceConfig",),
        ".daemon": ("ResolverService", "ServiceReport", "run_service"),
    },
)

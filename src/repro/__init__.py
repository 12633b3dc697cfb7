"""repro — a Python reproduction of "ZDNS: A Fast DNS Toolkit for
Internet Measurement" (IMC 2022).

Public API surface:

* :mod:`repro.dnslib` — the DNS wire-protocol library (names, messages,
  65+ record types, EDNS0).
* :mod:`repro.core` — the ZDNS library: iterative caching resolver with
  exposed lookup chains, external-resolver mode, drivers.
* :mod:`repro.framework` — scan orchestration and the ``pyzdns`` CLI.
* :mod:`repro.modules` — composable scan modules (raw records, alookup,
  mxlookup, spf, dmarc, bind.version, CAA, all-nameservers).
* :mod:`repro.net` — the simulated network substrate plus a real UDP
  transport.
* :mod:`repro.ecosystem` — the simulated global DNS the experiments run
  against.
* :mod:`repro.workloads` — deterministic corpus / IPv4 generators.
* :mod:`repro.baselines` — dig / Unbound / MassDNS comparison models.
* :mod:`repro.analysis` — the Section 5 and 6 case studies.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": (
            "IterativeMachine",
            "LookupResult",
            "Resolver",
            "ResolverConfig",
            "SelectiveCache",
            "Status",
        ),
        ".ecosystem": ("EcosystemParams", "build_internet"),
        ".framework": ("ScanConfig", "ScanRunner", "run_scan"),
        ".modules": ("available_modules", "get_module"),
    },
)
__all__ += ["__version__"]

"""The module interface (Section 3.2).

A module supplies the DNS-query-specific logic of a scan: which
machine(s) to run for one input line and how to shape the output row.
The framework owns everything else — concurrency, sockets, stats,
encoding — exactly as in ZDNS, so most modules are a few lines.

A module's :meth:`lookup` is a generator in the same effect protocol as
the core machines (yield :class:`~repro.core.machine.SendQuery`,
receive responses), built by composing the core machines with
``yield from``.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Callable

from ..core import (
    ExternalMachine,
    IterativeMachine,
    LookupResult,
    ResolverConfig,
    SelectiveCache,
)
from ..dnslib import Name, RRType


@dataclass
class ModuleContext:
    """Per-scan state the framework hands to modules (a scan's
    :class:`~repro.core.Resolver` builds it as ``resolver.context``)."""

    mode: str  # "iterative" | "external"
    root_ips: list[str] = field(default_factory=list)
    resolver_ips: list[str] = field(default_factory=list)
    #: Required in iterative mode: the resolver's cache, on its clock.
    cache: SelectiveCache | None = None
    config: ResolverConfig = field(default_factory=ResolverConfig)
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: False when nothing consumes output rows (stats-only scans):
    #: modules may skip expensive row formatting.
    build_rows: bool = True
    #: The external resolvers' port (a live scan's ``HOST:PORT``).
    port: int = 53

    def __post_init__(self):
        if self.mode != "iterative":
            self._machine = ExternalMachine(self.resolver_ips, self.config, self.rng, self.port)
        elif self.cache is None:
            raise ValueError("an iterative ModuleContext needs a cache")
        else:
            self._machine = IterativeMachine(self.cache, self.root_ips, self.config, self.rng)

    def machine(self):
        """The machine appropriate for the scan mode: one for every
        lookup of the scan, as it keeps no state between lookups."""
        return self._machine


class ScanModule:
    """Base class for scan modules."""

    #: Module name as used on the command line (e.g. "A", "MXLOOKUP").
    name: str = ""
    #: Record type for raw modules; None for composite modules.
    qtype: RRType | None = None

    def parse_input(self, line: str) -> Name:
        """Turn one input line into the name to query."""
        return Name.from_text(line.strip())

    def lookup(self, raw_input: str, context: ModuleContext):
        """Generator performing the lookup(s) for one input line.

        Returns a result row ``dict``; the default implementation runs
        one query of :attr:`qtype` and formats the raw answers.
        """
        name = self.parse_input(raw_input)
        result = yield from context.machine().resolve(name, self.qtype)
        if not context.build_rows:
            return {"name": raw_input, "status": str(result.status), "_result": result}
        return self.process(raw_input, result)

    def process(self, raw_input: str, result: LookupResult) -> dict:
        """Shape the module's output row (override for custom fields)."""
        row = result.to_json()
        row["name"] = raw_input.strip().rstrip(".")
        # Underscore keys are for the framework (stats) and are stripped
        # before output encoding.
        row["_result"] = result
        return row


_REGISTRY: dict[str, Callable[[], ScanModule]] = {}

#: The files whose modules register themselves when imported, besides
#: ``raw`` (every record type, loaded with the package).  A scan uses
#: one module, so these load the first time a name is not yet known.
_MORE_MODULES = ("allnameservers", "axfr", "lookups", "misc", "openresolver")


def register_module(cls: type[ScanModule]) -> type[ScanModule]:
    """Class decorator adding a module to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no module name")
    _REGISTRY[cls.name.upper()] = cls
    return cls


def _register_all() -> None:
    for name in _MORE_MODULES:
        importlib.import_module(f"{__package__}.{name}")


def get_module(name: str) -> ScanModule:
    """Instantiate a registered module by (case-insensitive) name."""
    key = name.upper()
    if key not in _REGISTRY:
        _register_all()
    try:
        return _REGISTRY[key]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown module {name!r}; available: {known}") from None


def available_modules() -> list[str]:
    """Names of every registered module, sorted."""
    _register_all()
    return sorted(_REGISTRY)

"""Lazy package exports (PEP 562).

A package lists the public names each of its submodules defines; a
submodule is imported the first time one of its names is read from the
package, and the value is then bound on the package so later reads are
plain attribute lookups.  A run therefore compiles and executes only the
submodules it touches: a scan never loads the zone-file parser, the HTTP
control plane or the fault injector, yet ``from repro.dnslib import
parse_zone`` and ``repro.faults.FaultPlan`` work as before.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 hooks for ``package``.

    ``exports`` maps a submodule (relative, e.g. ``".zonefile"``) to the
    names it exports.  Returns ``(__all__, __getattr__, __dir__)`` for
    the package to bind at module level.
    """
    where = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str):
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__ rather than importlib.import_module: the import
        # goes through the interpreter's own path, so that
        # ``python -X importtime`` reports it
        value = getattr(__import__(package + submodule, fromlist=(name,)), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | where.keys())

    return list(where), __getattr__, __dir__

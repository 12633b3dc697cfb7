#!/usr/bin/env python3
"""Appendix C, reproduced: the exposed lookup chain.

dig +trace prints a wall of text; ZDNS emits the same chain as
programmatically interpretable JSON.  This example resolves one name
iteratively and prints each step of the chain, then the full JSON.

Run:  python examples/exposed_lookup_chain.py [name]
"""

import json
import sys

from repro import build_internet
from repro.core import Resolver, ResolverConfig
from repro.dnslib import RRType


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "www.d8830635-24.com"
    internet = build_internet()
    resolver = Resolver(internet, ResolverConfig(record_trace=True))
    result = resolver.lookup(name, RRType.A)

    print(f"status: {result.status}  queries sent: {result.queries_sent}\n")
    print("lookup chain:")
    for step in result.trace:
        marker = "cache" if step.cached else step.name_server
        print(
            f"  depth {step.depth}  layer {step.layer!r:<22} "
            f"try {step.try_count}  via {marker}  -> {step.status}"
        )

    print("\nfull JSON (the ZDNS +trace format of Appendix C):")
    print(json.dumps(result.to_json(), indent=1))


if __name__ == "__main__":
    main()

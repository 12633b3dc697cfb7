#!/usr/bin/env python3
"""Quickstart: single lookups against the simulated Internet.

Builds the simulated DNS universe, then performs a few lookups with the
library's simple Resolver facade — iteratively (ZDNS's own recursion)
and through the simulated public resolvers.

Run:  python examples/quickstart.py
"""

import json

from repro import build_internet
from repro.core import Resolver, ResolverConfig
from repro.dnslib import RRType, name_from_ipv4_ptr


def main() -> None:
    internet = build_internet()

    # -- iterative resolution with the full lookup chain exposed --------
    resolver = Resolver(internet, ResolverConfig(record_trace=True))
    result = resolver.lookup("www.d4215845-1.xyz", RRType.A)
    print(f"A     {result.name}: {result.status}")
    for record in result.answers:
        print(f"      {record.to_text()}")
    print(f"      ({result.queries_sent} queries, {len(result.trace)} trace steps)")

    # -- the same name through the Google-like public resolver ----------
    google = Resolver(internet, ResolverConfig(mode="google"))
    result = google.lookup("www.d4215845-1.xyz", RRType.A)
    print(f"A     via {result.resolver}: {result.status}, {len(result.answers)} answers")

    # -- MX with the friendlier mxlookup-style access --------------------
    result = resolver.lookup("d1048473-0.net", RRType.MX)
    print(f"MX    {result.name}: {result.status}")
    for record in result.answers:
        print(f"      {record.to_text()}")

    # -- reverse DNS ------------------------------------------------------
    ptr_name = name_from_ipv4_ptr("23.5.77.19")
    result = resolver.lookup(ptr_name, RRType.PTR)
    print(f"PTR   23.5.77.19: {result.status}")
    for record in result.answers:
        print(f"      {record.to_text()}")

    # -- ZDNS-style JSON output row --------------------------------------
    result = resolver.lookup("d6013855-1.com", RRType.A)
    print("\nJSON output row:")
    print(json.dumps(result.to_json(), indent=2)[:600], "...")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Survey servers for open recursion (a classic ZDNS-style study).

Probes a mix of simulated hosts — public resolvers, authoritative
nameservers, and dark space — with recursion-desired queries and
classifies each (open / closed / non-recursive / unresponsive).

Run:  python examples/open_resolver_survey.py
"""

import random
from collections import Counter

from repro import build_internet
from repro.core import ResolverConfig, SelectiveCache, SimDriver
from repro.ecosystem.zonegen import provider_ns_ip
from repro.modules import ModuleContext, get_module
from repro.net import SimUDPSocket, SourceIPPool


def main() -> None:
    internet = build_internet(wire_mode="sampled")
    synth = internet.synth

    targets = [internet.google_ip, internet.cloudflare_ip]
    targets += [provider_ns_ip(i, 0) for i in range(6)]
    targets += [synth.tld_ns_ip("com", 0), synth.tld_ns_ip("de", 0)]
    targets += ["203.0.113.77", "203.0.113.78"]  # dark space

    module = get_module("OPENRESOLVER")
    module.probe_name = "www.d5553806-2.net"
    context = ModuleContext(
        mode="external",
        resolver_ips=[internet.google_ip],
        cache=SelectiveCache(),
        config=ResolverConfig(retries=1, external_timeout=1.5),
        rng=random.Random(1),
    )
    driver = SimDriver(internet.network)
    socket = SimUDPSocket(internet.network, SourceIPPool())

    tally = Counter()
    print(f"probing {len(targets)} servers with RD=1 for {module.probe_name!r}:\n")
    for target in targets:
        future = internet.sim.spawn(driver.execute(module.lookup(target, context), socket))
        internet.sim.run()
        row = future.result()
        cls = row["data"]["classification"]
        tally[cls] += 1
        print(f"  {target:<16} {cls:<14} rcode={row['data']['rcode']}")

    print("\nsummary:", dict(tally))


if __name__ == "__main__":
    main()

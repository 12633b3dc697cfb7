"""Wall-clock hot-path benchmarks: scheduler, wire codec, delegation
cache, and an end-to-end fig1-style smoke scan.

Unlike the fig/table benchmarks (which measure *virtual-time* shapes),
this file measures real wall-clock throughput of the three Python hot
paths the simulator spends its life in, so perf PRs have a trajectory
to be judged against.  ``scripts/bench_compare.py`` runs the same suite
as a one-command regression gate versus the baseline stored in
``BENCH_hotpath.json`` at the repo root.

The helpers are import-safe (no pytest required) so the compare script
can reuse them; the pytest entry points are marked ``bench``/``tier2``.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from conftest import BENCH_SEED, emit

# --------------------------------------------------------------------------
# profiles: the smoke gate ("check") vs a steadier, longer run ("full")

PROFILES = {
    "check": {
        "sched_timers": 60_000,
        "sched_routines": 4_000,
        "sched_races": 20_000,
        "codec_iters": 4_000,
        "cache_lookups": 150_000,
        "e2e_threads": 2_000,
        "e2e_lookups": 6_000,
    },
    "full": {
        "sched_timers": 200_000,
        "sched_routines": 10_000,
        "sched_races": 60_000,
        "codec_iters": 12_000,
        "cache_lookups": 500_000,
        "e2e_threads": 4_000,
        "e2e_lookups": 15_000,
    },
}


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _best_wall(fn, repeats: int = 3) -> float:
    """Min wall time across repeats.

    The micro-benchmarks run for a few hundred ms each — short enough
    that a single burst of CPU steal on a shared host can double one
    sample.  The fastest of three runs is the least-disturbed one.
    """
    return min(_timed(fn)[0] for _ in range(repeats))


# --------------------------------------------------------------------------
# host-speed calibration
#
# On shared/virtualised hosts, CPU steal can inflate wall-clock samples
# by 2x or more for minutes at a time.  Every bench here is
# single-threaded pure Python, so steal slows a fixed spin loop by the
# same factor it slows the benchmarks; sampling the loop throughout the
# suite gives a host-speed figure the compare gate can normalise by.

_SPIN_ITERS = 50_000


def _spin_rate() -> float:
    """Iterations/s of a fixed calibration loop — tracks available CPU.

    The loop must churn objects, not just registers: co-tenant memory
    contention slows allocation-heavy interpreter code long before it
    shows up in pure-arithmetic timing, and the benchmarks here are all
    allocation-heavy.  Each iteration does the interpreter's bread and
    butter — a tuple allocation and a dict store — plus a little
    arithmetic.
    """
    start = time.perf_counter()
    x = 0
    bucket: dict = {}
    for i in range(_SPIN_ITERS):
        x += i ^ (x >> 3)
        bucket[i & 255] = (x, i)
    return _SPIN_ITERS / (time.perf_counter() - start)


class _HostSpeed:
    """Collects spin-loop samples interleaved with the benchmarks."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(_spin_rate())

    def median(self) -> float:
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2


# --------------------------------------------------------------------------
# scheduler


def bench_scheduler(timers: int, routines: int, races: int) -> dict:
    """Raw event-loop throughput: timer churn, routine ping-pong, and
    the reply-or-deadline wait every simulated query goes through."""
    from repro.net import Simulator

    # 1) pure timer heap churn
    counter = [0]

    def tick():
        counter[0] += 1

    def timer_run():
        sim = Simulator()
        for i in range(timers):
            sim.call_later(((i * 7919) % 1000) / 1000.0, tick)
        sim.run()

    timer_wall = _best_wall(timer_run)

    # 2) routines sleeping in lockstep (spawn/step/resume machinery)
    def sleeper(n):
        for _ in range(n):
            yield 0.01
        return n

    def routine_run():
        sim = Simulator()
        sim.run_all(sleeper(20) for _ in range(routines))

    routine_wall = _best_wall(routine_run)

    # 3) the hot query pattern: a reply that beats its future's deadline
    # (with cancellable timers the losing deadline leaves the heap)
    def querier(sim, n):
        for i in range(n):
            response = sim.future_with_deadline(5.0)
            sim.call_later(0.05, partial(response.set_result, i))
            value = yield response
            assert value == i and not response.abandoned
        return n

    race_count = max(1, races // 100)
    race_sims = []

    def race_run():
        sim = Simulator()
        race_sims[:] = [sim]
        sim.run_all(querier(sim, 100) for _ in range(race_count))

    race_wall = _best_wall(race_run)

    counters = getattr(race_sims[0], "counters", None)
    scheduler_counters = counters() if callable(counters) else {}
    return {
        "sched_timer_ops_per_s": round(timers / timer_wall),
        "sched_routine_steps_per_s": round(routines * 20 / routine_wall),
        "sched_race_queries_per_s": round(race_count * 100 / race_wall),
        "_race_counters": scheduler_counters,
    }


# --------------------------------------------------------------------------
# wire codec


def _sample_messages():
    """A referral and an answer shaped like the simulated servers emit."""
    from repro.dnslib import DNSClass, Message, Name, ResourceRecord, RRType, add_edns
    from repro.dnslib.rdata.address import A
    from repro.dnslib.rdata.names import CNAME, NS

    def rr(name, rrtype, ttl, rdata):
        return ResourceRecord(Name.from_text(name), rrtype, DNSClass.IN, ttl, rdata)

    query = Message.make_query("www.domain-12345.com", RRType.A, txid=0x1234)
    add_edns(query, payload_size=1232)

    referral = query.make_response()
    for k in (1, 2):
        referral.authorities.append(
            rr("domain-12345.com", RRType.NS, 172_800, NS(Name.from_text(f"ns{k}.host7.example")))
        )
        referral.additionals.append(
            rr(f"ns{k}.host7.example", RRType.A, 172_800, A(f"10.7.0.{k}"))
        )

    answer = query.make_response(authoritative=True)
    answer.answers.append(
        rr("www.domain-12345.com", RRType.CNAME, 300, CNAME(Name.from_text("domain-12345.com")))
    )
    for k in (1, 2):
        answer.answers.append(rr("domain-12345.com", RRType.A, 300, A(f"93.7.12.{k}")))
    return [query, referral, answer]


def bench_codec(iterations: int) -> dict:
    from repro.dnslib import Message

    messages = _sample_messages()
    wires = [message.to_wire() for message in messages]

    def encode_all():
        for _ in range(iterations):
            for message in messages:
                message.to_wire()

    def decode_all():
        for _ in range(iterations):
            for wire in wires:
                Message.from_wire(wire)

    encode_wall = _best_wall(encode_all)
    decode_wall = _best_wall(decode_all)
    count = iterations * len(messages)
    return {
        "codec_encode_per_s": round(count / encode_wall),
        "codec_decode_per_s": round(count / decode_wall),
    }


# --------------------------------------------------------------------------
# delegation cache


def bench_cache(lookups: int) -> dict:
    from repro.core import Delegation, SelectiveCache
    from repro.dnslib import Name

    cache = SelectiveCache(capacity=600_000, seed=BENCH_SEED)
    zones = []
    for i in range(512):
        zone = Name.from_text(f"domain-{i}.com")
        zones.append(zone)
        cache.put_delegation(
            Delegation(
                zone=zone,
                ns_names=(Name.from_text(f"ns1.host{i % 40}.example"),),
                glue=((Name.from_text(f"ns1.host{i % 40}.example"), f"10.{i % 40}.0.1"),),
            )
        )
    cache.put_delegation(
        Delegation(zone=Name.from_text("com"), ns_names=(), glue=())
    )
    qnames = [Name.from_text(f"www.deep.domain-{i % 512}.com") for i in range(2048)]
    misses = [Name.from_text(f"www.domain-{i}.org") for i in range(256)]

    def lookup_all():
        n = len(qnames)
        m = len(misses)
        for i in range(lookups):
            cache.best_delegation(qnames[i % n])
            if i % 8 == 0:
                cache.best_delegation(misses[i % m])

    wall = _best_wall(lookup_all)
    total = lookups + lookups // 8
    return {"cache_lookups_per_s": round(total / wall)}


# --------------------------------------------------------------------------
# end-to-end fig1-style smoke scan


def bench_e2e(threads: int, lookups: int, wire_mode: str, observe: bool = False) -> dict:
    """Fig1-style smoke scan.  ``observe=True`` runs it with the
    telemetry registry and a status emitter enabled (spans stay off, as
    in a typical monitored scan) so the metrics-on overhead can be
    measured against the default metrics-off run."""
    import io

    from repro.ecosystem import EcosystemParams, build_internet
    from repro.framework import ScanConfig, ScanRunner
    from repro.workloads import DomainCorpus

    internet = build_internet(params=EcosystemParams(seed=BENCH_SEED), wire_mode=wire_mode)
    config = ScanConfig(
        module="A",
        mode="iterative",
        threads=threads,
        source_prefix=28,
        cache_size=600_000,
        seed=BENCH_SEED,
        metrics=observe,
        status_interval=1.0 if observe else None,
    )
    names = list(DomainCorpus().fqdns(lookups, start=0))
    runner = ScanRunner(internet, config, status_stream=io.StringIO() if observe else None)
    wall, report = _timed(lambda: runner.run(names))
    stats = report.stats
    suffix = "never" if wire_mode == "never" else "wire"
    if observe:
        suffix += "_obs"
    return {
        f"e2e_{suffix}_wall_s": round(wall, 3),
        f"e2e_{suffix}_lookups_per_s": round(stats.total / wall),
        # virtual-time fingerprint: must not move when wall time does
        f"_e2e_{suffix}_fingerprint": {
            "total": stats.total,
            "successes": stats.successes,
            "statuses": dict(sorted(stats.by_status.items())),
            "queries_sent": stats.queries_sent,
            "duration_virtual_s": round(stats.duration, 6),
        },
    }


# --------------------------------------------------------------------------
# suite driver (shared with scripts/bench_compare.py)


def run_suite(profile: str = "check") -> dict:
    sizes = PROFILES[profile]
    host = _HostSpeed()
    results: dict = {"profile": profile}
    host.sample()
    results.update(
        bench_scheduler(sizes["sched_timers"], sizes["sched_routines"], sizes["sched_races"])
    )
    host.sample()
    results.update(bench_codec(sizes["codec_iters"]))
    host.sample()
    results.update(bench_cache(sizes["cache_lookups"]))
    host.sample()
    results.update(bench_e2e(sizes["e2e_threads"], sizes["e2e_lookups"], "never"))
    host.sample()
    results.update(bench_e2e(sizes["e2e_threads"], sizes["e2e_lookups"], "always"))
    host.sample()
    results["_host_spin_per_s"] = round(host.median())
    return results


def metric_lines(results: dict) -> list[str]:
    lines = []
    for key, value in results.items():
        if key.startswith("_") or key == "profile":
            continue
        if key.endswith("_wall_s"):
            lines.append(f"  {key:<32} {value:>12.3f} s")
        else:
            lines.append(f"  {key:<32} {value:>12,.0f} /s")
    return lines


@pytest.mark.bench
@pytest.mark.tier2
def test_hotpath_wallclock():
    results = run_suite("check")
    emit("hotpath_wallclock", metric_lines(results), results)
    # sanity only — the wall-clock gate lives in scripts/bench_compare.py
    fingerprint = results["_e2e_never_fingerprint"]
    assert fingerprint["total"] == PROFILES["check"]["e2e_lookups"]
    assert fingerprint["successes"] > 0.8 * fingerprint["total"]
    assert results["codec_encode_per_s"] > 0
    assert results["cache_lookups_per_s"] > 0

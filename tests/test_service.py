"""Tests for the resolver service daemon, zone-delta publication, and
the serve-stale x prefetch x revalidation interactions."""

import json

import pytest

from repro.dnslib import DNSClass, Message, Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A
from repro.ecosystem import EcosystemParams, build_internet, publish_zone_delta
from repro.oracle import DifferentialOracle
from repro.service import ResolverService, ServiceConfig, run_service
from repro.service.__main__ import build_parser, config_from_args

N = Name.from_text


def small_config(**overrides):
    base = dict(
        seed=7,
        duration=300.0,
        catalog_size=40,
        base_qps=3.0,
        workers=4,
        status_interval=100.0,
        prefetch_interval=30.0,
    )
    base.update(overrides)
    return ServiceConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(duration=0)
        with pytest.raises(ValueError):
            ServiceConfig(diurnal_depth=1.0)
        with pytest.raises(ValueError):
            ServiceConfig(revalidation="sometimes")
        with pytest.raises(ValueError):
            ServiceConfig(blackouts=((100.0, 100.0),))

    def test_delta_times_spread_evenly(self):
        cfg = ServiceConfig(duration=400.0, deltas=3)
        assert cfg.resolved_delta_times() == (100.0, 200.0, 300.0)
        pinned = ServiceConfig(duration=400.0, delta_times=(250.0, 50.0))
        assert pinned.resolved_delta_times() == (50.0, 250.0)

    def test_cli_round_trip(self):
        args = build_parser().parse_args(
            [
                "--seed", "3", "--duration", "120", "--catalog-size", "10",
                "--blackout", "30:60", "--deltas", "2",
                "--revalidation", "flush", "--stale-ttl", "0",
            ]
        )
        cfg = config_from_args(args)
        assert cfg.seed == 3
        assert cfg.blackouts == ((30.0, 60.0),)
        assert cfg.revalidation == "flush"
        assert cfg.stale_ttl is None  # 0 disables serve-stale

    def test_bad_blackout_spec_rejected(self, capsys):
        """A window that does not parse is a usage error: exit 2 with
        the usage line, like any value ``ServiceConfig`` rejects."""
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--blackout", "oops", "--quiet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro.service")
        assert err.splitlines()[-1] == (
            "python -m repro.service: error: bad --blackout window 'oops' (want START:END)"
        )

    @pytest.mark.parametrize("every", [-1, -2])
    def test_negative_oracle_interval_rejected(self, every):
        with pytest.raises(ValueError, match="oracle_check_every"):
            ServiceConfig(oracle_check_every=every)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--duration", "0"], "duration must be positive"),
            (["--workers", "0"], "need at least one worker"),
            (["--oracle-check", "-2"], "oracle_check_every must be >= 0 (got -2)"),
            # both once ended in a traceback: ``capacity must be positive``
            # from the cache, and ``OverflowError`` from the socket bind
            (["--cache-capacity", "0"], "cache_capacity must be >= 1 (got 0)"),
            (["--http-port", "70000"], "argument --http-port: invalid port value: '70000'"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, argv, message, capsys):
        """A value ``ServiceConfig`` rejects exits 2 with one error line,
        as ``pyzdns`` does — not a traceback, not a silent default."""
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--quiet"])
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"python -m repro.service: error: {message}"]


# ---------------------------------------------------------------------------
# zone-delta publication
# ---------------------------------------------------------------------------


class TestZoneDeltas:
    def test_generations_advance_and_change_the_zone(self):
        internet = build_internet(params=EcosystemParams(seed=11), wire_mode="never")
        synth = internet.synth
        base = synth.base_domain_of(N("www.d1-0.com"))
        before = synth.profile(base)
        assert publish_zone_delta(internet, base) == 1
        assert publish_zone_delta(internet, base) == 2
        assert synth.generation_of(base) == 2
        # over a handful of generations the delegation/content must
        # actually move (every draw is salted by the generation)
        changed = False
        for generation in range(3, 8):
            publish_zone_delta(internet, base)
            after = synth.profile(base)
            if (
                after.provider != before.provider
                or after.nameservers != before.nameservers
            ):
                changed = True
                break
        assert changed

    def test_registration_survives_a_delta(self):
        """A delta models a zone update, not a takedown: existence is
        drawn from the unsalted key, so it is generation-invariant."""
        internet = build_internet(params=EcosystemParams(seed=11), wire_mode="never")
        synth = internet.synth
        base = synth.base_domain_of(N("www.d1-0.com"))
        exists_before = synth.profile(base).exists
        for _ in range(4):
            publish_zone_delta(internet, base)
        assert synth.profile(base).exists == exists_before

    def test_delta_is_served_by_the_next_query(self):
        """No server keeps a response, so a delta needs no flush: the
        same TLD and provider server objects, asked before and after
        with nothing cleared in between, answer from generation 0 and
        then from generation 1."""
        internet = build_internet(params=EcosystemParams(seed=11), wire_mode="never")
        synth, network = internet.synth, internet.network

        def serving(profile):
            return {
                ns.ip for ns in profile.nameservers if not ns.lame and ns.drop_prob == 0
            }

        # a zone that changes hands while one nameserver keeps serving it
        for i in range(2000):
            base = N(f"d{i}-0.com")
            before, after = synth._profile(base, 0), synth._profile(base, 1)
            kept = serving(before) & serving(after)
            if (
                before.exists and kept and before.nameservers != after.nameservers
                and not (before.truncates or after.truncates)
            ):
                break
        tld = network.server_for(synth.tld_ns_ip("com", 0))
        provider = network.server_for(min(kept))

        def ask(server):
            query = Message.make_query(base, RRType.A, txid=1, recursion_desired=False)
            return server.handle_query(query, "198.18.0.1", 0.0, "udp").message

        def glue(response):
            return {record.rdata.address for record in response.additionals}

        def addresses(response):
            return {record.rdata.address for record in response.answers}

        assert glue(ask(tld)) == {ns.ip for ns in before.nameservers}
        old_addresses = addresses(ask(provider))
        assert old_addresses == {record.address for record in synth.host_addresses(base)}
        assert publish_zone_delta(internet, base) == 1
        assert glue(ask(tld)) == {ns.ip for ns in after.nameservers}
        assert addresses(ask(provider)) == {record.address for record in synth.host_addresses(base)} != old_addresses

    def test_unknown_tld_rejected(self):
        internet = build_internet(params=EcosystemParams(seed=11), wire_mode="never")
        with pytest.raises(ValueError):
            publish_zone_delta(internet, N("host.invalid-tld-zz"))

    def test_oracle_note_zone_change_mirrors_and_evicts(self):
        oracle = DifferentialOracle(seed=11)
        synth = oracle.reference.internet.synth
        base = synth.base_domain_of(N("www.d1-0.com"))
        inside = N("www.d1-0.com")
        outside = N("www.d2-0.com")
        oracle.oracle_result(inside, RRType.A)
        oracle.oracle_result(outside, RRType.A)
        assert len(oracle._memo) == 2
        generation = oracle.note_zone_change(base)
        assert generation == 1
        assert synth.generation_of(base) == 1
        keys = {key[0] for key in oracle._memo}
        assert inside.canonical_key() not in keys  # evicted: under base
        assert outside.canonical_key() in keys  # untouched


# ---------------------------------------------------------------------------
# the daemon: determinism, serve-stale, revalidation
# ---------------------------------------------------------------------------


class TestServiceRun:
    def test_byte_identical_replay(self):
        """The acceptance bar: two runs of the same config produce
        identical event logs, counters, and metrics dumps."""
        cfg = dict(deltas=2, blackouts=((120.0, 200.0),), oracle_check_every=7)
        a = run_service(small_config(**cfg))
        b = run_service(small_config(**cfg))
        assert a.determinism_digest() == b.determinism_digest()
        assert json.dumps(a.events) == json.dumps(b.events)

        # counter consistency: every client query is accounted for
        # exactly once; warm, revalidate and successful prefetch jobs
        # share the per-path breakdown, so it covers every served query
        # and exceeds ``served`` by at most their count; prefetch
        # outcomes never exceed what was scheduled
        counters = a.counters
        assert counters["served"] + counters["failed"] == counters["queries"]
        breakdown = (
            counters["fresh_hits"] + counters["negative_hits"]
            + counters["resolved"] + counters["resolved_negative"]
            + counters["stale_answers_served"] + counters["stale_negatives_served"]
        )
        background = (
            counters["warm_jobs"] + counters["revalidate_jobs"]
            + counters["prefetch_refreshed"]
        )
        assert counters["served"] <= breakdown <= counters["served"] + background
        assert (
            counters["prefetch_refreshed"] + counters["prefetch_failed"]
            <= counters["prefetch_scheduled"]
        )
        assert counters["deltas_published"] == 2
        # every client query has a latency; only those that missed at
        # arrival queued, and each of them waited exactly once
        assert a.metrics["service.latency"]["count"] == counters["queries"]
        assert 0 < counters["arrival_hits"] < counters["queries"]
        assert (
            a.metrics["service.queue_wait"]["count"]
            == counters["queries"] - counters["arrival_hits"]
        )

    def test_different_seed_diverges(self):
        a = run_service(small_config(duration=120.0))
        b = run_service(small_config(duration=120.0, seed=8))
        assert a.determinism_digest() != b.determinism_digest()

    def test_serve_stale_keeps_eligible_availability_during_blackout(self):
        """An upstream blackout longer than the answer TTL: every name
        the service ever served stays answerable (fresh, negative, or
        stale), so eligible availability holds at >= 99%."""
        report = run_service(
            small_config(duration=900.0, blackouts=((300.0, 720.0),))
        )
        availability = report.availability
        assert availability["eligible"] > 50
        assert availability["eligible_availability"] >= 0.99
        counters = report.counters
        assert counters["stale_answers_served"] > 0
        # stale serving happened through the cache's bounded window
        assert report.cache["stale_hits"] == (
            counters["stale_answers_served"] + counters["stale_negatives_served"]
        )

    def test_without_serve_stale_blackout_availability_collapses(self):
        """The control: same blackout, stale_ttl disabled — queries that
        would have been served stale now fail."""
        with_stale = run_service(
            small_config(duration=900.0, blackouts=((300.0, 720.0),))
        )
        without = run_service(
            small_config(duration=900.0, blackouts=((300.0, 720.0),), stale_ttl=None)
        )
        assert without.counters["stale_answers_served"] == 0
        assert without.counters["failed"] > with_stale.counters["failed"]
        assert (
            without.availability["eligible_availability"]
            < with_stale.availability["eligible_availability"]
        )

    def test_incremental_revalidation_is_cheaper_than_flush(self):
        base = dict(duration=600.0, deltas=3, catalog_size=60)
        incremental = run_service(small_config(revalidation="incremental", **base))
        flush = run_service(small_config(revalidation="flush", **base))
        # the flush baseline throws the whole cache away per delta...
        assert flush.cache["invalidated"] > incremental.cache["invalidated"]
        # ...and pays for it upstream: strictly more re-resolution traffic
        queries = lambda r: r.network["udp_queries"] + r.network["tcp_queries"]  # noqa: E731
        assert queries(incremental) < queries(flush)
        # both revalidated the same affected names
        assert [d["revalidate_names"] for d in incremental.deltas] == [
            d["revalidate_names"] for d in flush.deltas
        ]

    @pytest.mark.parametrize(
        "config, resolutions, checked",
        [
            (dict(deltas=2, blackouts=((120.0, 200.0),), oracle_check_every=7), 74, 11),
            (dict(duration=600.0, deltas=3, oracle_check_every=4), 116, 29),
        ],
    )
    def test_oracle_checks_resolutions_one_k_plus_one_and_so_on(
        self, config, resolutions, checked
    ):
        """Every upstream resolution, failed or not, goes to the oracle,
        which checks resolutions 1, K+1, 2K+1, … — the scan runner's
        rule.  ``oracle_checked`` is the oracle's own count."""
        service = ResolverService(small_config(**config))
        positions = []
        lookup = service.oracle.oracle_result

        def recorded(qname, qtype):
            positions.append(service.counters["upstream_resolutions"])
            return lookup(qname, qtype)

        service.oracle.oracle_result = recorded
        report = service.run()
        every = config["oracle_check_every"]
        assert report.counters["upstream_resolutions"] == resolutions
        assert positions == list(range(1, resolutions + 1, every))
        assert report.counters["oracle_checked"] == report.oracle["checked"] == checked
        assert report.oracle["divergences"] == 0

    def test_oracle_off_keeps_the_checked_counter(self):
        report = run_service(small_config(duration=120.0))
        assert list(report.counters)[-1] == "oracle_checked"
        assert report.counters["oracle_checked"] == 0
        assert report.metrics["service.oracle_checked"] == 0

    def test_shadow_oracle_agrees_across_deltas(self):
        """Zone deltas are mirrored into the oracle's universe, so the
        sampled shadow checks stay divergence-free as zones mutate."""
        report = run_service(
            small_config(duration=600.0, deltas=3, oracle_check_every=4)
        )
        assert report.counters["deltas_published"] == 3
        assert report.oracle["checked"] > 10
        assert report.oracle["divergences"] == 0
        assert report.divergences == []

    @pytest.mark.parametrize("min_hits", [0, 2])
    def test_prefetch_sweep_equals_a_catalogue_walk(self, min_hits, monkeypatch):
        """The sweep follows the cache's hot entries; the reference
        asks about every catalogue name in index order, as the sweep
        used to.  Same jobs in the same order, so the same run — also
        at ``prefetch_min_hits=0``, where never-hit entries qualify,
        and with corpus names that repeat in the catalogue."""
        from repro.service.daemon import _Job

        config = dict(duration=900.0, base_qps=6.0, prefetch_min_hits=min_hits)
        swept = run_service(small_config(**config))

        def catalogue_walk(self):
            cfg = self.config
            while True:
                yield cfg.prefetch_interval
                if self._stopping:
                    return
                for index, qname in enumerate(self._catalog):
                    heat = self.cache.answer_heat(qname, RRType.A)
                    if index in self._prefetch_pending or heat is None:
                        continue
                    remaining, hits = heat
                    if 0.0 < remaining <= cfg.prefetch_threshold and hits >= min_hits:
                        self._prefetch_pending.add(index)
                        self.counters["prefetch_scheduled"] += 1
                        self._submit(_Job("prefetch", index, self.sim.now))

        monkeypatch.setattr(ResolverService, "_prefetch_sweep", catalogue_walk)
        walked = run_service(small_config(**config))
        assert swept.counters["prefetch_scheduled"] > 0
        assert len(set(ResolverService(small_config())._catalog_text)) < 40  # names do repeat
        assert swept.determinism_digest() == walked.determinism_digest()
        assert swept.counters == walked.counters

    def test_prefetch_refreshes_hot_entries(self):
        report = run_service(
            small_config(duration=900.0, base_qps=6.0, prefetch_min_hits=2)
        )
        assert report.counters["prefetch_scheduled"] > 0
        assert report.counters["prefetch_refreshed"] > 0

    def test_status_snapshot_is_json_safe(self):
        service = ResolverService(small_config(duration=60.0))
        service.run()
        snapshot = service.status_snapshot()
        assert snapshot["service"]["counters"]["queries"] > 0
        text = json.dumps(snapshot)
        assert "NaN" not in text

    def test_service_metrics_published_under_service_scope(self):
        service = ResolverService(small_config(duration=120.0))
        report = service.run()
        assert report.metrics["service.queries"] == report.counters["queries"]
        assert report.metrics["service.cache.stale_hits"] == report.cache["stale_hits"]
        assert report.metrics["service.latency"]["count"] > 0
        rendered = service.registry.render_prometheus()
        assert "pyzdns_service_queries" in rendered


# ---------------------------------------------------------------------------
# serve-stale x prefetch x revalidation (the interaction suite)
# ---------------------------------------------------------------------------


def _answer(name, ttl, ip="192.0.2.55"):
    return ResourceRecord(N(name), RRType.A, DNSClass.IN, ttl, A(ip))


class TestStalePrefetchInteraction:
    def _seeded_service(self, **overrides):
        """A one-name service under a full-run blackout, with a hot,
        short-TTL answer seeded before start: the entry goes stale at
        t=10 and nothing upstream can ever refresh it."""
        cfg = small_config(
            catalog_size=1,
            duration=240.0,
            base_qps=2.0,
            warm_catalog=False,
            blackouts=((0.0, 1e9),),  # outlasts the post-duration drain
            prefetch_interval=30.0,
            prefetch_min_hits=1,
            prefetch_threshold=60.0,
            **overrides,
        )
        service = ResolverService(cfg)
        qname = service._catalog[0]
        service.cache.put_answer(qname, RRType.A, [_answer(str(qname), 10)])
        for _ in range(3):  # make it hot enough to qualify for prefetch
            service.cache.get_answer(qname, RRType.A)
        return service, qname

    def test_stale_entry_is_never_prefetched_younger(self):
        """The core satellite invariant: a served-stale entry must
        never be prefetch-refreshed into a *younger* stale entry.  The
        sweep skips non-live entries, failed refreshes store nothing,
        and the recorded expiry never moves."""
        service, qname = self._seeded_service()
        key = ("ans", qname.canonical_key(), int(RRType.A))
        expires_before = service.cache._entries[key][1]
        report = service.run()
        # the entry was served stale repeatedly during the blackout...
        assert report.counters["stale_answers_served"] > 0
        # ...the sweep never scheduled it (remaining <= 0 gate) and no
        # other name exists to prefetch
        assert report.counters["prefetch_scheduled"] == 0
        # ...and its lifetime never moved: same expiry, ageing honestly
        assert service.cache._entries[key][1] == expires_before == 10.0

    def test_revalidation_during_blackout_does_not_resurrect(self):
        """A zone delta mid-blackout invalidates the stale copy; with
        upstream dark, the re-resolution fails and the name goes
        honestly unanswered — the stale cap is never bypassed."""
        service, qname = self._seeded_service(
            deltas=1, delta_times=(120.0,), revalidation="incremental"
        )
        key = ("ans", qname.canonical_key(), int(RRType.A))
        report = service.run()
        # before the delta: stale serving worked
        assert report.counters["stale_answers_served"] > 0
        # the delta dropped the (stale) subtree...
        assert report.cache["invalidated"] >= 1
        assert key not in service.cache._entries
        # ...and afterwards the name failed rather than resurrecting
        assert report.counters["failed"] > 0
        assert service.cache.get_stale_answer(qname, RRType.A) is None

    def test_stale_cap_ends_service_during_long_blackout(self):
        """Past ``expires_at + stale_ttl`` the entry is finalised: a
        blackout outliving the stale window turns serves into failures."""
        service, qname = self._seeded_service(stale_ttl=50.0)
        report = service.run()
        assert report.counters["stale_answers_served"] > 0  # inside the window
        assert report.counters["failed"] > 0  # after the cap (t >= 60)
        assert service.cache.get_stale_answer(qname, RRType.A) is None
        assert report.cache["expired"] >= 1


# ---------------------------------------------------------------------------
# the hit path: cache hits are answered at arrival
# ---------------------------------------------------------------------------


class TestHitsAtArrival:
    #: Events that are not client queries: 4 worker spawns and their 4
    #: wakes (to ``None``) at the drain; the arrival process's spawn and
    #: its last sleep, which ends past ``duration``; the controller's
    #: spawn and its one sleep.  A number here that has to go up is a
    #: hit that took a queue hop again.
    OVERHEAD = 4 + 4 + 2 + 2

    def test_a_cached_catalogue_costs_one_event_per_query(self):
        """With every name cached (two in three positive, the rest
        negative), no background work and no deltas, each client query
        is the one event of its arrival: nothing queues, no worker ever
        wakes to serve, nothing goes upstream, and every answer lands at
        the latency floor."""
        service = ResolverService(
            small_config(warm_catalog=False, prefetch_interval=0, status_interval=0)
        )
        for index, qname in enumerate(service._catalog):
            if index % 3:
                service.cache.put_answer(qname, RRType.A, [_answer(str(qname), 10**6)])
            else:
                service.cache.put_negative(qname, RRType.A, "NXDOMAIN", 10**6)
        report = service.run()
        counters = report.counters
        assert counters["queries"] == counters["arrival_hits"] == counters["served"] == 557
        assert counters["fresh_hits"] + counters["negative_hits"] == 557
        assert counters["negative_hits"] > 0
        assert counters["upstream_resolutions"] == 0
        assert service.sim.events_executed == counters["queries"] + self.OVERHEAD
        assert report.metrics["service.queue_wait"]["count"] == 0
        assert report.metrics["service.latency"]["count"] == 557
        assert report.metrics["service.latency"]["max"] == 1e-9

    def test_eligibility_is_judged_at_arrival(self):
        """One name, one worker, an upstream blackout from t=0.001 to
        past the end.  The warm job is in flight when the blackout
        starts; it fails upstream and serves the name from a stale
        entry (seeded expired) at about t=6, while the clients that
        arrived meanwhile wait behind it.  Those clients asked for a
        name the service had never served: not eligible, although the
        name has been served by the time they are dequeued.  Clients
        arriving after t=6 are eligible."""
        service = ResolverService(
            small_config(
                catalog_size=1, duration=12.0, base_qps=4.0, workers=1,
                prefetch_interval=0, status_interval=0, blackouts=((0.001, 1e9),),
            )
        )
        qname = service._catalog[0]
        service.cache.put_answer(qname, RRType.A, [_answer(str(qname), 0)])
        report = service.run()
        counters, blackout = report.counters, report.availability
        assert counters["warm_jobs"] == 1
        assert counters["arrival_hits"] == 0  # nothing fresh: every client queued
        assert counters["stale_answers_served"] == counters["queries"] + 1  # + the warm job
        assert blackout["queries"] == blackout["served"] == counters["queries"]
        assert 0 < blackout["eligible"] < blackout["queries"]
        assert blackout["eligible_served"] == blackout["eligible"]

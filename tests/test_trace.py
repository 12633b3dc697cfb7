"""Tests for lookup-chain (trace) capture and its Appendix C format."""

import json

from repro.core import (
    Resolver,
    ResolverConfig,
    SelectiveCache,
    SpanTracer,
    Status,
    Trace,
    TraceStep,
    message_to_json,
)
from repro.dnslib import Message, Name, ResourceRecord, RRType
from repro.dnslib.rdata.address import A
from repro.ecosystem import EcosystemParams, build_internet


class TestTraceStructures:
    def test_step_json_fields(self):
        step = TraceStep(
            name="google.com",
            layer="com",
            depth=2,
            name_server="192.5.6.30:53",
            cached=False,
            try_count=1,
            qtype=1,
        )
        data = step.to_json()
        assert data["name"] == "google.com"
        assert data["layer"] == "com"
        assert data["depth"] == 2
        assert data["name_server"] == "192.5.6.30:53"
        assert data["cached"] is False
        assert data["try"] == 1
        assert data["type"] == 1
        assert "results" not in data

    def test_step_with_results(self):
        message = Message.make_query("a.com", RRType.A).make_response()
        message.answers.append(
            ResourceRecord(Name.from_text("a.com"), RRType.A, 1, 60, A("9.9.9.9"))
        )
        results = message_to_json(message, "1.2.3.4:53")
        step = TraceStep(
            name="a.com", layer=".", depth=1, name_server="1.2.3.4:53",
            cached=False, try_count=1, qtype=1, results=results,
        )
        data = step.to_json()
        assert data["results"]["resolver"] == "1.2.3.4:53"
        assert data["results"]["answers"][0]["answer"] == "9.9.9.9"
        assert data["results"]["flags"]["response"] is True

    def test_rows_render_from_steps(self):
        trace = Trace(SpanTracer())
        trace.open("lookup", name="a.com", type=1)
        trace.open("step", name="a.com", depth=0, type=1)
        trace.open("cache_probe")
        trace.close("hit", row={"depth": 1}, layer="com")
        query = dict(
            name="a.com", layer="com", depth=2, name_server="1.1.1.1:53", try_count=1, type=1
        )
        trace.open("query", **query)
        trace.close("TIMEOUT")
        trace.open("query", **{**query, "try_count": 2})
        trace.close("TRUNCATED")
        trace.open("query", **{**query, "try_count": 2}, protocol="tcp")
        trace.close("NOERROR", row={"results": {"resolver": "1.1.1.1:53"}})
        trace.close("NOERROR")
        trace.close("NOERROR", queries=3, retries=1)
        rows = trace.to_json()
        assert rows[0] == {
            "name": "a.com", "layer": "com", "depth": 1, "name_server": "cache",
            "cached": True, "try": 0, "type": 1, "class": 1, "status": "NOERROR",
        }
        # the truncated UDP leg folds into the row of its TCP retry
        assert [(row["try"], row["status"]) for row in rows[1:]] == [(1, "TIMEOUT"), (2, "NOERROR")]
        assert rows[2]["results"] == {"resolver": "1.1.1.1:53"}
        assert len(trace) == 3 and len(list(iter(trace))) == 3
        assert [step.kind for step in trace.steps] == [
            "lookup", "step", "cache_probe", "query", "query", "query",
        ]

    def test_message_to_json_sections(self):
        message = Message.make_query("b.com", RRType.A).make_response()
        data = message_to_json(message, "x")
        assert set(data) >= {"answers", "authorities", "additionals", "flags", "protocol", "resolver"}


class TestEndToEndTrace:
    def test_full_chain_is_json_serialisable(self):
        internet = build_internet(params=EcosystemParams(seed=66))
        resolver = Resolver(internet, ResolverConfig(record_trace=True))
        synth = internet.synth
        name = next(
            Name.from_text(f"tr-{i}.com")
            for i in range(20_000)
            if synth.profile(Name.from_text(f"tr-{i}.com")).exists
        )
        result = resolver.lookup(name, RRType.A)
        assert result.status == Status.NOERROR
        payload = json.dumps(result.to_json())
        decoded = json.loads(payload)
        assert decoded["status"] == "NOERROR"
        steps = decoded["trace"]
        assert steps[0]["layer"] == "."
        # every non-cached step carries the full response block
        for step in steps:
            if not step["cached"] and step["status"] == "NOERROR":
                assert "results" in step
                assert "flags" in step["results"]

    def test_depth_increases_down_the_chain(self):
        internet = build_internet(params=EcosystemParams(seed=66))
        resolver = Resolver(
            internet,
            ResolverConfig(record_trace=True),
            cache=SelectiveCache(capacity=2),
        )
        synth = internet.synth
        name = next(
            Name.from_text(f"tr2-{i}.net")
            for i in range(20_000)
            if synth.profile(Name.from_text(f"tr2-{i}.net")).exists
        )
        result = resolver.lookup(name, RRType.A)
        depths = [step.depth for step in result.trace if not step.cached]
        assert depths == sorted(depths)

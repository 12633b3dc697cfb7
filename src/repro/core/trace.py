"""One record of a lookup: the steps the machine took, and two renderings.

Every lookup keeps one :class:`Trace`: the ordered list of its steps
(``lookup``, ``step`` — one delegation walk for one owner name —,
``cache_probe``, ``query`` and ``glueless``), each an interval on the
run's clock with a kind, attributes, a status and a parent.  Two views
render from that one list:

* the Appendix C lookup chain (:meth:`Trace.__iter__` /
  :meth:`Trace.to_json`): one row per server contacted or cache layer
  used, so researchers can inspect the internal DNS operations that
  recursive resolvers normally hide;
* span rows (:meth:`Step.to_span`), streamed one JSON line per step as
  each closes — where a lookup's time went.

The trace parents each step on its own stack of open steps.  Tens of
thousands of lookups interleave on one simulator thread, so one ambient
"current step" per run would cross-wire them; one stack per lookup
cannot.  What is shared by a run — the clock, the span-id counter and
the span sink — is the :class:`SpanTracer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..dnslib import Message


def message_to_json(message: Message, resolver: str, protocol: str = "udp") -> dict:
    """The Appendix C ``results`` block for one exchanged response."""
    return {
        "answers": [record.to_json() for record in message.answers],
        "authorities": [record.to_json() for record in message.authorities],
        "additionals": [record.to_json() for record in message.additionals],
        "flags": message.flags.to_json(),
        "opcode": int(message.flags.opcode),
        "protocol": protocol,
        "resolver": resolver,
    }


@dataclass(slots=True)
class TraceStep:
    """One row of the Appendix C lookup chain."""

    name: str
    layer: str
    depth: int
    name_server: str
    cached: bool
    try_count: int
    qtype: int
    qclass: int = 1
    results: dict | None = None
    status: str = "NOERROR"

    def to_json(self) -> dict:
        entry = {
            "name": self.name,
            "layer": self.layer,
            "depth": self.depth,
            "name_server": self.name_server,
            "cached": self.cached,
            "try": self.try_count,
            "type": self.qtype,
            "class": self.qclass,
            "status": self.status,
        }
        if self.results is not None:
            entry["results"] = self.results
        return entry


class SpanTracer:
    """What a run's lookups share: the clock every step is timed on
    (``lambda: sim.now`` for virtual time), the run-wide span-id counter
    (a step takes its id when it opens), the sink each closed step's
    span row streams to, and one tuple of attribute names per sequence
    a step was opened or closed with (the machine's handful of call
    shapes), which every step of that shape refers to.  Without a sink,
    steps are kept on their lookup's trace only; without a clock, they
    are not timed (every start and end reads 0.0)."""

    __slots__ = ("clock", "sink", "started", "fields")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sink: Callable[[dict], Any] | None = None,
    ):
        self.clock = clock
        self.sink = sink
        self.started = 0
        self.fields: dict[tuple[str, ...], tuple[str, ...]] = {}


class Step:
    """One recorded step of a lookup: an interval with a parent.

    Its attributes are ``values`` against ``fields``, the tuple of
    their names its tracer shares among steps of one shape: no dict
    per step.  A walk's ``query`` step opens with ``name, layer, depth,
    name_server, try_count, type`` in that order (its TCP retry adds
    ``protocol``), and its Appendix C row reads them by position."""

    __slots__ = ("kind", "id", "parent", "start", "end", "status", "fields", "values", "row")

    def __init__(
        self, kind: str, step_id: int, parent: Step | None, start: float, fields: tuple, values: tuple
    ):
        self.kind = kind
        self.id = step_id
        self.parent = parent
        self.start = start
        self.end: float | None = None
        self.status: str | None = None
        self.fields = fields
        self.values = values
        #: What only the Appendix C row carries: a query's ``results``
        #: block, a cache hit's layer ``depth``.
        self.row = None

    def to_span(self) -> dict:
        """The span row: identity, interval, status, then attributes."""
        row = {
            "span": self.kind,
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "start": round(self.start, 9),
            "end": round(self.end, 9),
            "duration": round(self.end - self.start, 9),
            "status": self.status,
        }
        row.update(zip(self.fields, self.values))
        return row


class Trace:
    """The steps of one lookup, in the order they opened.

    With no tracer nothing is recorded: ``open`` and ``close`` return
    at once."""

    __slots__ = ("tracer", "steps", "_top")

    def __init__(self, tracer: SpanTracer | None = None):
        self.tracer = tracer
        self.steps: list[Step] = []
        #: The innermost open step; the open steps are its parent chain.
        self._top: Step | None = None

    def open(self, kind: str, **attrs) -> Step | None:
        """Open a step under the innermost open one."""
        tracer = self.tracer
        if tracer is None:
            return None
        tracer.started += 1
        fields = tuple(attrs)
        fields = tracer.fields.setdefault(fields, fields)
        start = tracer.clock() if tracer.clock else 0.0
        step = self._top = Step(
            kind, tracer.started, self._top, start, fields, tuple(attrs.values())
        )
        self.steps.append(step)
        return step

    def close(self, status: str, row: dict | None = None, **attrs) -> None:
        """Close the innermost open step; its span row streams out.
        ``row`` is a one-entry dict, ``{"results": ...}`` or
        ``{"depth": ...}``: what only the Appendix C row carries."""
        tracer = self.tracer
        if tracer is None:
            return
        step = self._top
        self._top = step.parent
        step.status = status
        if row is not None:
            (step.row,) = row.values()
        if attrs:
            fields = step.fields + tuple(attrs)
            step.fields = tracer.fields.setdefault(fields, fields)
            step.values += tuple(attrs.values())
        step.end = tracer.clock() if tracer.clock else 0.0
        if tracer.sink is not None:
            tracer.sink(step.to_span())

    def reopen(self, **attrs) -> Step | None:
        """Open the step just closed again, with ``attrs`` added (a
        query's TCP retry of its truncated UDP leg)."""
        if self.tracer is None:
            return None
        last = self.steps[-1]
        return self.open(last.kind, **dict(zip(last.fields, last.values)), **attrs)

    def unwind(self, status: str) -> None:
        """Close every open step but the outermost (the lookup), innermost
        first: an abort ends each walk it passes through."""
        while self._top is not None and self._top.parent is not None:
            self.close(status)

    def __iter__(self):
        """The Appendix C rows: one per query sent inside a walk (a
        truncated UDP leg and its TCP retry fold into one row) and one
        per cache layer a walk started from."""
        rows: list[TraceStep] = []
        for step in self.steps:
            kind = step.kind
            if kind == "query":
                walk = step.parent
                if walk is None or walk.kind != "step":
                    continue  # a stub lookup's queries: no chain to expose
                values = step.values
                status = step.status
                if len(values) > 6 and values[6] == "tcp":
                    rows.pop()  # the truncated UDP leg this retried
                    if status == "TIMEOUT":
                        status = "TRUNCATED"  # what the UDP leg ended as
                name, layer, depth, server, tries, qtype = values[:6]
                rows.append(
                    TraceStep(name, layer, depth, server, False, tries, qtype, 1, step.row, status)
                )
            elif kind == "cache_probe" and step.status in ("hit", "answer_hit"):
                walk = step.parent.values  # name, depth, type
                # a delegation hit closes with its layer, an answer hit bare
                layer = (step.values[0] if step.values else None) or walk[0] or "."
                rows.append(TraceStep(walk[0], layer, step.row, "cache", True, 0, walk[2]))
        return iter(rows)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def to_json(self) -> list[dict]:
        return [row.to_json() for row in self]

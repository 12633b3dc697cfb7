"""Span recording for the traced round, and the self-time arithmetic.

No ``repro`` import: ``adapter.py`` decides *what* to wrap, this module
only records and accounts.  A span is the tuple

    (id, name, start, end, parent, lookup)

``name`` is ``"<layer>/<operation>"`` (``core.cache/read.get_answer``),
``parent`` the id of the span that was open when this one started (None
for a root) and ``lookup`` the identifier all spans of one lookup share
(None where no lookup is known).  Spans stay in memory until the run
ends; ``write_trace`` then puts them in a ``.jsonl`` file.

Everything traced runs in one OS thread, so a stack is enough to know
the parent.  A suspended generator holds no span: each *resumption* of
a wrapped generator is its own span, which is what lets a thousand
interleaved lookups share one stack.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable

Span = tuple  # (id, name, start, end, parent, lookup)


class Tracer:
    """In-memory span store with the current-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        #: Lookup the code now running belongs to (set by the wrappers
        #: that can tell, inherited by everything they call).
        self.lookup: int | None = None
        #: Byte/size totals the wrappers add up, by span name.
        self.sizes: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def wrap(
        self,
        fn: Callable,
        name: str,
        lookup_from: Callable[[tuple], int | None] | None = None,
        size_of: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``lookup_from(args)`` names the lookup this call serves when the
        caller's context cannot (events the simulator runs between
        lookups); ``size_of(args, result)`` is added to ``sizes[name]``.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            outer = self.lookup
            if lookup_from is not None:
                self.lookup = lookup_from(args)
            lookup = self.lookup
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.lookup = outer
                spans.append((span_id, name, start, end, parent, lookup))
            if size_of is not None:
                self.sizes[name] += size_of(args, result)
            return result

        return traced

    def resumptions(self, generator, name: str, lookup: int | None = None):
        """``generator`` with a span around every resumption."""
        return _TracedGenerator(self, generator, name, lookup)


class _TracedGenerator:
    """Generator proxy usable with ``next``, ``send`` and ``yield from``."""

    __slots__ = ("_next", "_send", "_throw", "_close")

    def __init__(self, tracer: Tracer, generator, name: str, lookup: int | None):
        pin = None if lookup is None else (lambda _args: lookup)
        self._next = tracer.wrap(generator.__next__, name, pin)
        self._send = tracer.wrap(generator.send, name, pin)
        self._throw = tracer.wrap(generator.throw, name, pin)
        self._close = generator.close

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()

    def send(self, value):
        return self._send(value)

    def throw(self, *exc_info):
        return self._throw(*exc_info)

    def close(self):
        return self._close()


# -- accounting ------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent and overlapping children are
    counted once, so the self times of a tree always sum to the time its
    roots cover — whatever shape the tree has.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent, _lookup in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for span_id, _name, start, end, _parent, _lookup in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[span_id] = (end - start) - covered
    return result


def by_name(spans: list[Span]) -> dict[str, dict]:
    """``{span name: {calls, self_s, total_s}}``."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span_id, name, start, end, _parent, _lookup in spans:
        row = table.get(name)
        if row is None:
            row = table[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        row["calls"] += 1
        row["self_s"] += own[span_id]
        row["total_s"] += end - start
    return table


def by_prefix(names: dict[str, dict], prefix: str) -> dict:
    """Sum of the ``by_name`` rows whose name starts with ``prefix``."""
    total = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    for name, row in names.items():
        if name.startswith(prefix):
            for key in total:
                total[key] += row[key]
    return total


def root_cover(spans: list[Span]) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _id, _name, start, end, parent, _lookup in spans if parent is None)


def write_trace(path, spans: list[Span], origin: float) -> None:
    """One JSON object per span, times in seconds since ``origin``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, lookup in spans:
            handle.write(
                f'{{"id": {span_id}, "name": "{name}", "start": {start - origin:.9f}, '
                f'"end": {end - origin:.9f}, '
                f'"parent": {"null" if parent is None else parent}, '
                f'"lookup": {"null" if lookup is None else lookup}}}\n'
            )

"""Metrics registry: counters, gauges, and log-bucketed histograms.

ZDNS is operable at 10K-routine scale because operators can watch it
(periodic status lines, a run-metadata file, per-lookup traces).  This
module is the storage layer for that telemetry: a flat registry of
named instruments, addressed through dotted *scopes* so engine, cache,
codec, and scheduler metrics nest cleanly (``engine.lookups``,
``cache.hit_rate``, ``scheduler.peak_heap_size``).

Design constraints, in order:

1. **Near-zero overhead when disabled.**  A disabled registry hands out
   one shared :class:`NullInstrument` whose mutators are no-ops, so
   instrumented code holds a reference once and pays a single no-op
   method call per update — no dict lookups, no branching on a flag at
   every site.
2. **Determinism.**  Instruments store plain Python numbers; snapshots
   iterate in insertion order.  Nothing here reads wall clocks.
3. **Cheap quantiles.**  Histograms bucket observations at half-octave
   (base-2) boundaries, so p50/p90/p99 estimates cost O(buckets), not
   O(observations) — the simdzone lesson that perf work stalls without
   always-on counters cheap enough to leave enabled.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullInstrument",
    "Scope",
    "parse_prometheus",
]


class Counter:
    """A monotonically increasing count (events, lookups, retries)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A value that moves both ways (in-flight lookups, heap depth)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def snapshot(self):
        return self.value


def bucket_index(value: float) -> int:
    """Half-octave bucket index for a positive observation.

    ``frexp`` writes ``value = m * 2**e`` with ``m in [0.5, 1)``; each
    octave ``[2**(e-1), 2**e)`` is split at its 1.5x point, giving
    buckets ``[0.5*2**e, 0.75*2**e)`` and ``[0.75*2**e, 2**e)``.
    Non-positive observations share the sentinel underflow bucket.
    """
    if value <= 0:
        return _UNDERFLOW
    mantissa, exponent = math.frexp(value)
    return 2 * exponent + (1 if mantissa >= 0.75 else 0)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``[low, high)`` boundaries of a bucket index (inverse of
    :func:`bucket_index`)."""
    if index == _UNDERFLOW:
        return (float("-inf"), 0.0)
    exponent, upper_half = divmod(index, 2)
    scale = math.ldexp(1.0, exponent)  # 2**exponent, exact
    if upper_half:
        return (0.75 * scale, scale)
    return (0.5 * scale, 0.75 * scale)


_UNDERFLOW = -(2**30)


class Histogram:
    """Log-bucketed histogram with O(buckets) quantile estimates.

    Buckets are half-octaves (see :func:`bucket_index`), so relative
    quantile error is bounded by the 1.5x bucket width; observed min and
    max clamp the estimates exactly at the distribution's edges.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                low, high = bucket_bounds(index)
                if index == _UNDERFLOW:
                    return max(self.min, low)
                # geometric midpoint of the bucket, clamped to what was
                # actually observed so single-valued histograms are exact
                estimate = math.sqrt(low * high)
                return min(max(estimate, self.min), self.max)
        return self.max

    def state(self) -> dict:
        """Full internal state — mergeable, unlike :meth:`snapshot`'s
        quantile summary (quantiles of sub-scans cannot be combined;
        buckets can)."""
        return {
            "buckets": dict(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one
        (bucket-wise addition; min/max widen)."""
        for index, count in state["buckets"].items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] < self.min:
            self.min = state["min"]
        if state["max"] > self.max:
            self.max = state["max"]

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "p50": round(self.quantile(0.50), 6),
            "p90": round(self.quantile(0.90), 6),
            "p99": round(self.quantile(0.99), 6),
        }


class NullInstrument:
    """Shared no-op stand-in for every instrument of a disabled registry.

    Mutators do nothing; reads return zeros.  One instance serves every
    metric name, so disabled instrumentation costs one no-op call.
    """

    __slots__ = ()
    kind = "null"
    name = ""
    value = 0
    count = 0

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def snapshot(self):
        return 0


_NULL = NullInstrument()


class Scope:
    """A dotted namespace within a registry (``engine``, ``cache``).

    Scopes are views — all storage lives in the registry — so nested
    scopes (``scope("status")`` under ``engine``) are free to create.
    """

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter | NullInstrument:
        return self._registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge | NullInstrument:
        return self._registry.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram | NullInstrument:
        return self._registry.histogram(self._qualify(name))

    def scope(self, name: str) -> "Scope":
        return Scope(self._registry, self._qualify(name))


class MetricsRegistry:
    """Flat, insertion-ordered store of named instruments.

    ``enabled=False`` turns every instrument factory into a source of
    the shared :class:`NullInstrument`: call sites keep working, record
    nothing, and cost almost nothing — the tool's hot paths must not
    slow down when nobody is watching.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _instrument(self, kind: str, name: str):
        if not self.enabled:
            return _NULL
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, not {kind}"
                )
            return existing
        instrument = self._KINDS[kind](name)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter | NullInstrument:
        return self._instrument("counter", name)

    def gauge(self, name: str) -> Gauge | NullInstrument:
        return self._instrument("gauge", name)

    def histogram(self, name: str) -> Histogram | NullInstrument:
        return self._instrument("histogram", name)

    def scope(self, name: str) -> Scope:
        return Scope(self, name)

    def __iter__(self) -> Iterator:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Flat ``{dotted-name: value}`` view (histograms become summary
        dicts).  Deterministic: insertion-ordered, virtual-time only."""
        return {name: m.snapshot() for name, m in self._metrics.items()}

    def dump(self) -> list[tuple[str, str, object]]:
        """Mergeable export: ``(name, kind, state)`` per instrument.

        Counters and gauges export their raw value; histograms export
        full bucket state (:meth:`Histogram.state`).  This is the wire
        format the multi-process executor ships from shard workers to
        the parent, where :meth:`merge_dump` folds the fleet together —
        ``snapshot()`` is *not* mergeable because histogram quantiles of
        sub-scans cannot be combined.
        """
        out: list[tuple[str, str, object]] = []
        for name, metric in self._metrics.items():
            state = metric.state() if metric.kind == "histogram" else metric.value
            out.append((name, metric.kind, state))
        return out

    def merge_dump(
        self,
        dump: list[tuple[str, str, object]],
        rename: "Callable[[str], str] | None" = None,
    ) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters and gauges add (fleet totals are sums — a merged gauge
        like ``inflight`` reads as the across-shard total); histograms
        merge bucket-wise.  ``rename`` maps each incoming metric name to
        its name here — the executor uses it to keep per-shard scopes
        (``faults.* -> faults.shard3.*``) distinguishable while summing
        everything else.  No-op on a disabled registry.
        """
        if not self.enabled:
            return
        for name, kind, state in dump:
            target = self._instrument(kind, rename(name) if rename else name)
            if kind == "histogram":
                target.merge_state(state)
            else:
                target.inc(state)

    def tree(self) -> dict:
        """Snapshot nested by scope: ``{"engine": {"lookups": ...}}``."""
        root: dict = {}
        for name, metric in self._metrics.items():
            parts = name.split(".")
            node = root
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = metric.snapshot()
        return root

    def render_prometheus(self, namespace: str = "pyzdns") -> str:
        """Prometheus text-exposition dump of every instrument.

        Conforms to the text exposition format a real scraper parses:
        every metric family gets ``# HELP`` and ``# TYPE`` lines (the
        HELP text carries the original dotted registry name), names are
        sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*``, and histograms emit
        *cumulative* ``_bucket{le="..."}`` series — each bucket counts
        every observation at or below its upper bound, closing with the
        mandatory ``le="+Inf"`` bucket that equals ``_count`` — plus
        ``_sum`` and ``_count`` samples.  :func:`parse_prometheus` is
        the verifying inverse.
        """
        lines: list[str] = []
        for name, metric in self._metrics.items():
            flat = _sanitize(f"{namespace}_{name}" if namespace else name)
            lines.append(f"# HELP {flat} registry metric {name}")
            if metric.kind == "histogram":
                lines.append(f"# TYPE {flat} histogram")
                cumulative = 0
                for index in sorted(metric.buckets):
                    cumulative += metric.buckets[index]
                    _, high = bucket_bounds(index)
                    lines.append(f'{flat}_bucket{{le="{_fmt(high)}"}} {cumulative}')
                lines.append(f'{flat}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{flat}_sum {_fmt(metric.total)}")
                lines.append(f"{flat}_count {metric.count}")
            else:
                lines.append(f"# TYPE {flat} {metric.kind}")
                lines.append(f"{flat} {_fmt(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _sanitize(name: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z0-9_:]`` only, and may not
    start with a digit."""
    flat = "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


#: ``metric_name`` / ``label_name`` grammar from the exposition format.
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One sample line: ``name{labels} value`` with optional label block.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')


def parse_prometheus(text: str) -> dict:
    """Parse (and validate) Prometheus text-exposition output.

    The strict inverse of :meth:`MetricsRegistry.render_prometheus`,
    used by the round-trip tests and the live control-plane soak: every
    sample must belong to an announced ``# TYPE`` family, names must
    match the exposition grammar, values must parse as floats, and
    histogram families must form a *cumulative* bucket series —
    monotonically non-decreasing in ``le`` order, closed by ``+Inf``,
    with ``+Inf == _count``.  Violations raise :class:`ValueError`.

    Returns ``{family: {"type": kind, "help": str, "samples":
    [(name, labels, value), ...]}}``.
    """
    families: dict[str, dict] = {}

    def family_of(name: str) -> dict:
        if name in families:
            return families[name]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = families.get(name[: -len(suffix)])
                if base is not None and base["type"] == "histogram":
                    return base
        raise ValueError(f"sample {name!r} precedes its # TYPE line")

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad HELP metric name {name!r}")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            name, kind = parts[2], parts[3]
            if not _METRIC_NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad TYPE metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            family = families.setdefault(name, {"type": None, "help": None, "samples": []})
            if family["samples"]:
                raise ValueError(f"line {lineno}: TYPE for {name!r} after its samples")
            family["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in raw_labels.split(","):
                label = _LABEL_RE.match(pair.strip())
                if label is None:
                    raise ValueError(f"line {lineno}: bad label pair {pair!r}")
                labels[label.group(1)] = label.group(2)
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {match.group('value')!r}"
            ) from None
        family_of(name)["samples"].append((name, labels, value))

    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has samples but no # TYPE line")
        if family["type"] != "histogram":
            continue
        buckets = [
            (labels["le"], value)
            for sample_name, labels, value in family["samples"]
            if sample_name == f"{name}_bucket"
        ]
        counts = {
            sample_name: value
            for sample_name, _, value in family["samples"]
            if sample_name in (f"{name}_count", f"{name}_sum")
        }
        if f"{name}_count" not in counts or f"{name}_sum" not in counts:
            raise ValueError(f"histogram {name!r} missing _sum/_count")
        if not buckets or buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {name!r} does not end in le=\"+Inf\"")
        previous = None
        for le, value in buckets:
            bound = math.inf if le == "+Inf" else float(le)
            if previous is not None:
                last_bound, last_value = previous
                if bound <= last_bound:
                    raise ValueError(f"histogram {name!r} buckets out of le order")
                if value < last_value:
                    raise ValueError(f"histogram {name!r} buckets not cumulative")
            previous = (bound, value)
        if buckets[-1][1] != counts[f"{name}_count"]:
            raise ValueError(f"histogram {name!r}: +Inf bucket != _count")
    return families


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


#: Process-wide disabled registry: the default wiring target, so code
#: can instrument unconditionally and pay nothing until a real registry
#: is supplied.
NULL_REGISTRY = MetricsRegistry(enabled=False)

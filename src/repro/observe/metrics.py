"""Process-wide runtime metrics: counters, gauges and streaming histograms.

Where :mod:`repro.observe.core` records one *scoped* view (spans and
counters for the dynamic extent of a ``with observing()`` block), this
module is the *always-on* telemetry layer: a thread-safe
:class:`MetricsRegistry` that any subsystem can write to at any time and
any consumer can snapshot — the engine cache, ``CompiledPipeline.run``,
the batch executor and the ctypes bridge are instrumented permanently.
One event costs a dict lookup plus a few float operations, so the
instrumentation stays in the hot paths.

Three instrument kinds:

* :class:`Counter` — a monotonically increasing total (cache hits,
  executed kernels, artifact bytes written);
* :class:`Gauge` — a last-written value (memory-cache entries, last
  batch throughput);
* :class:`Histogram` — a streaming latency distribution with exact
  ``count``/``sum``/``min``/``max`` and reservoir-sampled p50/p90/p99
  quantiles.

Instruments are identified by a dotted name plus optional labels::

    from repro.observe.metrics import inc, observe_value, registry

    inc("engine.cache.hit", tier="memory")
    observe_value("engine.run.latency_ms", 1.84, backend="c")
    print(registry().to_json())

The exporter is :meth:`MetricsRegistry.snapshot` (a JSON-ready dict,
embedded in run reports).
"""

from __future__ import annotations

import json
import random
import threading
import zlib
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_registry",
    "inc",
    "set_gauge",
    "observe_value",
]

#: Default reservoir capacity of a :class:`Histogram` (samples kept for
#: quantile estimation; count/sum/min/max stay exact beyond it).
DEFAULT_RESERVOIR = 1024

#: The quantiles reported by snapshots.
QUANTILES = (0.5, 0.9, 0.99)


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable identity of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A thread-safe monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the total."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        """JSON-ready representation."""
        return {"value": self.value}


class Gauge:
    """A thread-safe instantaneous value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta`` (gauges may decrease)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """The last recorded value."""
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        """JSON-ready representation."""
        return {"value": self.value}


class Histogram:
    """A streaming distribution: exact count/sum/min/max plus quantiles
    estimated over a bounded reservoir (Vitter's algorithm R).

    The reservoir keeps every observation until ``reservoir`` samples,
    then replaces entries with decreasing probability, so quantiles stay
    representative of the whole stream at O(1) memory.  The replacement
    RNG is seeded from the metric name: identical runs produce identical
    snapshots.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        reservoir: int = DEFAULT_RESERVOIR,
    ):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._cap = max(1, int(reservoir))
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._samples: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < self._cap:
                self._samples.append(value)
            else:
                j = self._rng.randrange(self.count)
                if j < self._cap:
                    self._samples[j] = value

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of the sampled distribution, by
        linear interpolation; ``nan`` when empty."""
        with self._lock:
            samples = sorted(self._samples)
        if not samples:
            return float("nan")
        if len(samples) == 1:
            return samples[0]
        pos = q * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    def snapshot(self) -> dict:
        """JSON-ready summary: count, sum, min/max, mean and quantiles."""
        with self._lock:
            count, total = self.count, self.sum
            lo, hi = self.min, self.max
        if count == 0:
            return {"count": 0, "sum": 0.0}
        out = {
            "count": count,
            "sum": round(total, 6),
            "min": round(lo, 6),
            "max": round(hi, 6),
            "mean": round(total / count, 6),
        }
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = round(self.quantile(q), 6)
        return out


class MetricsRegistry:
    """A process-wide, thread-safe table of named instruments.

    Instruments are created on first use and identified by
    ``(name, labels)``; asking for an existing name with a different
    instrument kind raises.  The registry itself only locks around
    creation and iteration — each instrument carries its own lock, so
    concurrent writers on different metrics never contend.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    # -- instrument access ----------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, object], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, dict(_label_key(labels)), **kwargs)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}, "
                    f"not {cls.kind}"
                )
            return inst

    def counter(self, name: str, **labels) -> Counter:
        """The named counter, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The named gauge, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, reservoir: int = DEFAULT_RESERVOIR, **labels
    ) -> Histogram:
        """The named histogram, created on first use."""
        return self._get(Histogram, name, labels, reservoir=reservoir)

    def __iter__(self) -> Iterator:
        """All registered instruments, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return iter(inst for _, inst in items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh bench runs)."""
        with self._lock:
            self._instruments.clear()

    # -- exporters -------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as one JSON-ready document, grouped by kind.

        Keys are ``name`` or ``name{k=v,...}`` when the instrument has
        labels; the document round-trips through ``json``.
        """
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for inst in self:
            label = _format_labels(inst.labels)
            key = f"{inst.name}{label}"
            snap = inst.snapshot()
            if isinstance(inst, Counter):
                out["counters"][key] = snap["value"]
            elif isinstance(inst, Gauge):
                out["gauges"][key] = snap["value"]
            else:
                out["histograms"][key] = snap
        return out

    def to_json(self, indent: int = 2) -> str:
        """The snapshot serialized as JSON text."""
        return json.dumps(self.snapshot(), indent=indent)


def _format_labels(labels: Mapping[str, str]) -> str:
    """Snapshot key suffix: ``{k=v,...}`` sorted, or empty."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# The process-wide default registry + write helpers
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry (always on, never replaced)."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the process-wide registry (tests, fresh bench runs)."""
    _REGISTRY.reset()


def inc(name: str, n: float = 1.0, **labels) -> None:
    """Increment a counter on the default registry."""
    _REGISTRY.counter(name, **labels).inc(n)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the default registry."""
    _REGISTRY.gauge(name, **labels).set(value)


def observe_value(name: str, value: float, **labels) -> None:
    """Record one histogram observation on the default registry."""
    _REGISTRY.histogram(name, **labels).observe(value)

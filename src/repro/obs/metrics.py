"""A labelled metrics registry: counters, gauges, histograms.

The :class:`MetricsRegistry` is the numeric half of :mod:`repro.obs` — the
trace says *what happened in which order*, the registry says *how many and
how much*. Instruments are identified by a name plus a frozen label set
(``counter("web.calls", substrate="engine", component="surface")``),
mirroring how deployed metric systems key time series; the invariant
checker then aggregates over label dimensions to cross-check the trace,
the cache statistics, the degradation report and the stopwatch against
each other.

Everything is deterministic and JSON-exportable: instruments export sorted
by ``(name, labels)``, so two identical runs produce byte-identical
payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HISTOGRAM_SAMPLE_CAP",
    "MetricsRegistry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


@dataclass
class Gauge:
    """A last-write-wins numeric value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Raw samples a :class:`Histogram` retains before decimating. Below the
#: cap percentiles are exact; above it they are nearest-rank over a
#: deterministic 1-in-``stride`` subsample (see :meth:`Histogram.observe`).
HISTOGRAM_SAMPLE_CAP = 4096


@dataclass
class Histogram:
    """Summary of an observed distribution.

    Retains raw samples — bounded by :data:`HISTOGRAM_SAMPLE_CAP` — so
    :meth:`percentile` can answer; the JSON export stays summary-only
    (count/total/min/max) so payload size never grows with sample count.

    Retention is a *deterministic capped reservoir*: observation ``i``
    (0-based) is kept iff ``i % stride == 0``. Whenever the retained list
    would exceed the cap, every second retained sample is dropped
    (``samples[::2]``) and ``stride`` doubles — the kept indices remain
    exactly the multiples of the new stride, so which samples survive
    depends only on the observation sequence, never on randomness.
    Below the cap ``stride == 1`` and percentiles are exact; above it
    they are nearest-rank over the strided subsample (documented,
    deterministic approximation). ``count``/``total``/``min``/``max``
    are always exact regardless of decimation.
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    samples: List[float] = field(default_factory=list)
    #: 1 while under the cap; doubles on every decimation.
    stride: int = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > HISTOGRAM_SAMPLE_CAP:
                self.samples = self.samples[::2]
                self.stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """True while every observation is still retained."""
        return self.stride == 1

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile of the retained samples.

        ``q`` is in ``[0, 100]``. Returns ``None`` when nothing has been
        observed; a single sample is every percentile of itself. Exact
        below :data:`HISTOGRAM_SAMPLE_CAP` observations; above it,
        nearest-rank over the deterministic strided subsample.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q!r}")
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]


class MetricsRegistry:
    """Creates-on-first-use registry of labelled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ---------------------------------------------------------- instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        if key not in self._histograms:
            self._histograms[key] = Histogram()
        return self._histograms[key]

    # -------------------------------------------------------------- queries
    def counter_value(self, name: str, **labels: Any) -> int:
        """Exact-label counter read; 0 when never incremented."""
        counter = self._counters.get((name, _label_key(labels)))
        return counter.value if counter is not None else 0

    def sum_counters(self, name: str, **label_filter: Any) -> int:
        """Sum a counter over every label set matching ``label_filter``
        (filter keys must match exactly; unfiltered dimensions aggregate)."""
        wanted = {k: str(v) for k, v in label_filter.items()}
        total = 0
        for (counter_name, labels), counter in self._counters.items():
            if counter_name != name:
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in wanted.items()):
                total += counter.value
        return total

    def counter_labels(self, name: str) -> Iterator[Dict[str, str]]:
        """The label sets under which ``name`` has been incremented."""
        for (counter_name, labels) in self._counters:
            if counter_name == name:
                yield dict(labels)

    # --------------------------------------------------------------- export
    def export(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot, sorted for byte-stable output."""
        def rows(table, render) -> List[Dict[str, Any]]:
            return [
                {"name": name, "labels": dict(labels), **render(instrument)}
                for (name, labels), instrument in sorted(
                    table.items(), key=lambda item: item[0]
                )
            ]

        return {
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(
                self._histograms,
                lambda h: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                },
            ),
        }

    def summary(self) -> str:
        """One CLI-ready line, mirroring the other layers' summaries."""
        n_counters = len(self._counters)
        total = sum(c.value for c in self._counters.values())
        return (
            f"metrics: {n_counters} counters (sum {total}), "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms"
        )

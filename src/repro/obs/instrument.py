"""Observability plumbing: the per-run bundle and the observed wrappers.

:class:`Observability` carries one run's :class:`~repro.obs.trace.Tracer`
plus the *component scope* (which pipeline phase is currently executing),
so instrumentation anywhere in the stack can attribute what it sees
without threading extra arguments through every call. Each call is
recorded once, as a trace event; :func:`counter_rows` derives the run's
labelled counters from those events.

:class:`ObservedSearchEngine` and :class:`ObservedDeepWebSource` are
transparent pass-through layers, one per substrate, directly above the
resilient proxies::

    ValidationCache                  # the run's memo answers repeats
      ObservedSearchEngine           # every memo miss, heading for the Web
        ResilientSearchEngine        # injects faults and retries them
          SearchEngine

Each wrapper reports the calls that head for the (possibly faulty) Web and,
by differencing the substrate's ``query_count``/``probe_count`` around
each call, how many *real round trips* the call cost (retries included).
Those events give the :class:`~repro.obs.invariants.InvariantChecker`
its conservation laws: observed engine calls must equal memo misses, and
observed round trips must equal the stopwatch's per-account query counts
and the resilience budgets' spend.

The wrappers are strictly read-only observers: they consume no randomness
and swallow no exceptions, so resilient behaviour is bit-identical with or
without them. Each exposes only what the layers above it read: the calls
and the substrate's round-trip counter.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.provenance import (
    DEFAULT_PROVENANCE_CAPACITY,
    ProvenanceRecorder,
)
from repro.obs.trace import Tracer
from repro.surfaceweb.engine import DEFAULT_PROXIMITY_WINDOW
from repro.util.counters import WorkCounters

__all__ = [
    "ObsConfig",
    "Observability",
    "ObservedSearchEngine",
    "ObservedDeepWebSource",
    "counter_rows",
]

#: Component label outside any phase scope.
DEFAULT_COMPONENT = "web"

#: Retry-loop event name -> counter suffix (``resilience.<suffix>``).
_PLURALS = {
    "retry": "retries",
    "fault": "faults",
    "giveup": "giveups",
    "breaker_trip": "breaker_trips",
    "breaker_reject": "breaker_rejections",
    "budget_exhausted": "budgets_exhausted",
}


def counter_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """The run's labelled counters, derived from its trace events.

    Each ``web_call`` event counts one ``web.calls`` and its
    ``round_trips`` into ``web.round_trips``, labelled by substrate and
    component; each retry-loop event counts one ``resilience.<plural>``,
    labelled by component. A label set that saw only zero-round-trip
    calls still gets its ``web.round_trips`` row. Rows come sorted by
    ``(name, labels)``, so equal traces give byte-identical exports.
    """
    totals: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}

    def add(name: str, value: int, **labels: Any) -> None:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        totals[key] = totals.get(key, 0) + value

    for event in tracer.iter_events():
        attrs = event.attrs
        if event.name == "web_call":
            labels = {"substrate": attrs["substrate"],
                      "component": attrs["component"]}
            add("web.calls", 1, **labels)
            add("web.round_trips", attrs["round_trips"], **labels)
        elif event.name in _PLURALS:
            add(f"resilience.{_PLURALS[event.name]}", 1,
                component=attrs["component"])
    return [
        {"name": name, "labels": dict(labels), "value": value}
        for (name, labels), value in sorted(totals.items())
    ]


@dataclass(frozen=True)
class ObsConfig:
    """Pipeline-facing observability knobs (attach to ``WebIQConfig.obs``).

    Phase spans and per-call trace events are always recorded; the
    exported counters are derived from those events (:func:`counter_rows`).
    ``provenance`` turns the decision-provenance recorder on (default) or
    off; ``provenance_capacity`` bounds each of its ring buffers so an
    arbitrarily large run cannot exhaust memory. ``profile`` additionally
    collects hot-path work counters (:mod:`repro.util.counters`) for the
    span profiler (:mod:`repro.obs.profile`); it is strictly read-only —
    run exports are bit-identical with it on or off.
    """

    provenance: bool = True
    provenance_capacity: int = DEFAULT_PROVENANCE_CAPACITY
    profile: bool = False


class Observability:
    """One run's tracer + provenance + component scope.

    The tracer is the run's only record of its Web calls and retry-loop
    decisions; counters are a view of it (:func:`counter_rows`).
    """

    def __init__(
        self,
        config: ObsConfig = ObsConfig(),
        clock_seconds=None,
    ) -> None:
        self.config = config
        self.tracer = Tracer(clock_seconds)
        self.provenance: Optional[ProvenanceRecorder] = (
            ProvenanceRecorder(config.provenance_capacity)
            if config.provenance else None
        )
        #: Hot-path work counters, collected only when profiling: the
        #: pipeline installs these via ``repro.util.counters.collecting``
        #: around the profiled region.
        self.counters: Optional[WorkCounters] = (
            WorkCounters() if config.profile else None
        )
        self._components: List[str] = []

    # ------------------------------------------------------------- scoping
    @contextmanager
    def component(self, name: str) -> Iterator[None]:
        """Attribute observed calls inside the block to component ``name``."""
        self._components.append(name)
        try:
            yield
        finally:
            self._components.pop()

    @property
    def active_component(self) -> str:
        return self._components[-1] if self._components else DEFAULT_COMPONENT

    @contextmanager
    def phase(self, name: str, **attrs: Any) -> Iterator[None]:
        """A pipeline phase: a trace span plus a component scope."""
        with self.tracer.span(name, kind="phase", **attrs):
            with self.component(name):
                yield

    # ------------------------------------------------------------ recording
    def record_call(
        self,
        substrate: str,
        method: str,
        round_trips: int,
        **attrs: Any,
    ) -> None:
        """One observed Web-stack call: a trace event attributed to the
        active component."""
        self.tracer.event(
            "web_call",
            substrate=substrate,
            method=method,
            component=self.active_component,
            round_trips=round_trips,
            **attrs,
        )

    def summary(self) -> str:
        """One CLI-ready line for the run's trace + counter volume."""
        rows = counter_rows(self.tracer)
        line = (
            f"observability: {self.tracer.n_spans} spans, "
            f"{self.tracer.n_events} events; metrics: {len(rows)} counters "
            f"(sum {sum(row['value'] for row in rows)}), "
            f"0 gauges, 0 histograms"
        )
        if self.provenance is not None:
            line += f"; {self.provenance.summary()}"
        return line


class ObservedSearchEngine:
    """Engine-shaped pass-through that reports every call to ``obs``.

    Round trips are measured by differencing the underlying
    ``query_count`` around the call, so a retried call reports every
    attempt.
    """

    def __init__(self, inner, obs: Observability) -> None:
        self.inner = inner
        self.obs = obs

    # ------------------------------------------------------- engine facade
    @property
    def query_count(self) -> int:
        return self.inner.query_count

    def search(self, query: str, max_results: int = 10):
        return self._observe(
            "search", lambda: self.inner.search(query, max_results)
        )

    def num_hits(self, query: str) -> int:
        return self._observe("num_hits", lambda: self.inner.num_hits(query))

    def num_hits_proximity(self, phrase_a: str, phrase_b: str,
                           window: int = DEFAULT_PROXIMITY_WINDOW) -> int:
        return self._observe(
            "num_hits_proximity",
            lambda: self.inner.num_hits_proximity(phrase_a, phrase_b, window),
        )

    # ----------------------------------------------------------- internals
    def _observe(self, method: str, fn):
        before = self.inner.query_count
        result = fn()
        self.obs.record_call(
            substrate="engine",
            method=method,
            round_trips=self.inner.query_count - before,
        )
        return result


class ObservedDeepWebSource:
    """Source-shaped pass-through reporting every probe to ``obs``."""

    def __init__(self, inner, obs: Observability) -> None:
        self.inner = inner
        self.obs = obs

    # ------------------------------------------------------- source facade
    @property
    def interface_id(self) -> str:
        return self.inner.interface.interface_id

    @property
    def probe_count(self) -> int:
        return self.inner.probe_count

    def submit(self, values: Mapping[str, str]):
        before = self.inner.probe_count
        result = self.inner.submit(values)
        self.obs.record_call(
            substrate="source",
            method="submit",
            round_trips=self.inner.probe_count - before,
            source=self.interface_id,
        )
        return result

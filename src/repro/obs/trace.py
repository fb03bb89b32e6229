"""Structured run tracing: hierarchical spans and typed events.

A :class:`Tracer` records what one pipeline run *did* — which phases ran,
which Web calls each phase issued, what the resilience layer decided — as
a tree of :class:`Span` objects carrying :class:`TraceEvent` leaves. Two
properties make the trace a test oracle rather than a debugging aid:

- **Determinism.** Timestamps come from the run's
  :class:`~repro.util.clock.SimulatedClock` (simulated seconds) plus a
  monotonically increasing sequence number — never from the host's wall
  clock. Two runs with the same seed and configuration export
  byte-identical traces; any divergence is a real behavioural change.
- **Closure discipline.** Spans are context managers; the exporter and the
  :mod:`~repro.obs.invariants` checker treat an unclosed span as a defect.

The export format is plain JSON-serialisable dicts (``version``, ``spans``,
``events``), written with sorted keys by :mod:`repro.io` so byte equality
is meaningful across processes.

The tracer is **not** thread-safe and does not need to be: a run emits
every span and event from the one thread that executes it, and each run
gets its own tracer. That discipline, not locking, is what keeps ``seq``
gap-free and traces byte-identical from run to run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "Span", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One instantaneous typed occurrence inside a span."""

    name: str
    #: position in the run's total event/span order (0-based, gap-free
    #: across spans and events together)
    seq: int
    #: simulated seconds charged to the run's clock when the event fired
    t: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seq": self.seq,
            "t": self.t,
            "attrs": dict(self.attrs),
        }


@dataclass
class Span:
    """One timed region of the run (the whole run, a phase, ...)."""

    name: str
    seq_start: int
    t_start: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)
    seq_end: Optional[int] = None
    t_end: Optional[float] = None
    #: host wall-clock bounds (``time.perf_counter``), captured for the
    #: profiler's advisory section only. Deliberately **excluded** from
    #: :meth:`to_dict`: wall time varies run to run, and the trace export
    #: must stay byte-identical for equal seeds/configs.
    wall_start: float = 0.0
    wall_end: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.seq_end is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seq_start": self.seq_start,
            "t_start": self.t_start,
            "seq_end": self.seq_end,
            "t_end": self.t_end,
            "attrs": dict(self.attrs),
            "events": [event.to_dict() for event in self.events],
            "children": [child.to_dict() for child in self.children],
        }


class Tracer:
    """Collects spans and events for one pipeline run.

    ``clock_seconds`` is a zero-argument callable returning the current
    simulated time (pass the run's
    :meth:`SimulatedClock.now_seconds <repro.util.clock.SimulatedClock>`
    accessor); ``None`` stamps every record at ``t=0.0``, which keeps
    standalone unit use trivial.
    """

    def __init__(self, clock_seconds=None) -> None:
        self._clock_seconds = clock_seconds
        self._seq = 0
        self.roots: List[Span] = []
        #: events emitted outside any span (discouraged, but never lost)
        self.orphan_events: List[TraceEvent] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------ recording
    def _now(self) -> float:
        return float(self._clock_seconds()) if self._clock_seconds else 0.0

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span; it closes (even on exception) when the block exits."""
        span = Span(
            name=name,
            seq_start=self._next_seq(),
            t_start=self._now(),
            attrs=attrs,
            wall_start=time.perf_counter(),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.seq_end = self._next_seq()
            span.t_end = self._now()
            span.wall_end = time.perf_counter()

    def event(self, name: str, **attrs: Any) -> TraceEvent:
        """Record a typed event on the innermost open span."""
        event = TraceEvent(
            name=name, seq=self._next_seq(), t=self._now(), attrs=attrs
        )
        if self._stack:
            self._stack[-1].events.append(event)
        else:
            self.orphan_events.append(event)
        return event

    # -------------------------------------------------------------- queries
    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def iter_spans(self, name: Optional[str] = None) -> Iterator[Span]:
        """All spans, depth-first; optionally filtered by name."""
        def walk(span: Span) -> Iterator[Span]:
            yield span
            for child in span.children:
                yield from walk(child)

        for root in self.roots:
            for span in walk(root):
                if name is None or span.name == name:
                    yield span

    def iter_events(self, name: Optional[str] = None, **attr_filter: Any
                    ) -> Iterator[TraceEvent]:
        """All events (span-attached and orphans), in seq order per span,
        optionally filtered by name and exact attribute values."""
        def matches(event: TraceEvent) -> bool:
            if name is not None and event.name != name:
                return False
            return all(
                event.attrs.get(key) == value
                for key, value in attr_filter.items()
            )

        for span in self.iter_spans():
            for event in span.events:
                if matches(event):
                    yield event
        for event in self.orphan_events:
            if matches(event):
                yield event

    def count_events(self, name: Optional[str] = None, **attr_filter: Any) -> int:
        return sum(1 for _ in self.iter_events(name, **attr_filter))

    def sum_event_attr(self, attr: str, name: Optional[str] = None,
                       **attr_filter: Any):
        """Sum a numeric attribute over matching events (missing → 0)."""
        return sum(
            event.attrs.get(attr, 0)
            for event in self.iter_events(name, **attr_filter)
        )

    @property
    def n_spans(self) -> int:
        return sum(1 for _ in self.iter_spans())

    @property
    def n_events(self) -> int:
        return self.count_events()

    @property
    def all_closed(self) -> bool:
        return not self._stack and all(
            span.closed for span in self.iter_spans()
        )

    # --------------------------------------------------------------- export
    def export(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of the whole trace."""
        return {
            "version": 1,
            "n_spans": self.n_spans,
            "n_events": self.n_events,
            "spans": [root.to_dict() for root in self.roots],
            "events": [event.to_dict() for event in self.orphan_events],
        }

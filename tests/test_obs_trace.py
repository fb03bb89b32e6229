"""Tests for repro.obs tracing and metrics: structure and determinism.

The trace is a test oracle, so the properties under test are the ones the
invariant checker leans on: spans close even on exceptions, sequence
numbers are gap-free, and — the headline — two pipeline runs with the
same seed and configuration export byte-identical trace JSON, while
different seeds diverge.
"""

import json

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import observability_to_dict
from repro.obs import MetricsRegistry, ObsConfig, Tracer
from repro.resilience import BreakerPolicy, FaultProfile, ResilienceConfig


class TestTracer:
    def test_spans_nest_and_close(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("surface"):
                pass
        assert tracer.all_closed
        (root,) = tracer.roots
        assert root.name == "run"
        assert [child.name for child in root.children] == ["surface"]

    def test_events_attach_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("run"):
            tracer.event("outer")
            with tracer.span("phase"):
                tracer.event("inner", component="surface")
        (root,) = tracer.roots
        assert [event.name for event in root.events] == ["outer"]
        assert [event.name for event in root.children[0].events] == ["inner"]
        assert not tracer.orphan_events

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                raise RuntimeError("boom")
        assert tracer.all_closed

    def test_nested_spans_close_when_inner_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("run"):
                with tracer.span("surface"):
                    with tracer.span("query"):
                        raise RuntimeError("boom")
        assert tracer.all_closed
        (root,) = tracer.roots
        assert [child.name for child in root.children] == ["surface"]
        assert [g.name for g in root.children[0].children] == ["query"]

    def test_sibling_span_opens_cleanly_after_exception(self):
        tracer = Tracer()
        with tracer.span("run"):
            with pytest.raises(RuntimeError):
                with tracer.span("first"):
                    raise RuntimeError("boom")
            with tracer.span("second"):
                tracer.event("tick")
        assert tracer.all_closed
        (root,) = tracer.roots
        assert [child.name for child in root.children] == ["first", "second"]
        assert [e.name for e in root.children[1].events] == ["tick"]

    def test_event_outside_span_is_orphan(self):
        tracer = Tracer()
        tracer.event("stray")
        assert [event.name for event in tracer.orphan_events] == ["stray"]

    def test_sequence_numbers_gap_free(self):
        tracer = Tracer()
        with tracer.span("run"):
            tracer.event("a")
            with tracer.span("phase"):
                tracer.event("b")
        seqs = []
        for span in tracer.iter_spans():
            seqs.extend([span.seq_start, span.seq_end])
            seqs.extend(event.seq for event in span.events)
        assert sorted(seqs) == list(range(len(seqs)))

    def test_timestamps_come_from_clock_callable(self):
        now = [0.0]
        tracer = Tracer(clock_seconds=lambda: now[0])
        with tracer.span("run"):
            now[0] = 2.5
            tracer.event("tick")
        (root,) = tracer.roots
        assert root.t_start == 0.0
        assert root.events[0].t == 2.5
        assert root.t_end == 2.5

    def test_event_queries(self):
        tracer = Tracer()
        with tracer.span("run"):
            tracer.event("web_call", substrate="engine", round_trips=2)
            tracer.event("web_call", substrate="source", round_trips=3)
            tracer.event("retry")
        assert tracer.count_events("web_call") == 2
        assert tracer.count_events("web_call", substrate="engine") == 1
        assert tracer.sum_event_attr("round_trips", "web_call") == 5
        assert tracer.n_events == 3
        assert tracer.n_spans == 1

    def test_export_shape(self):
        tracer = Tracer()
        with tracer.span("run", domain="book"):
            tracer.event("tick")
        payload = tracer.export()
        json.dumps(payload)  # must not raise
        assert payload["version"] == 1
        assert payload["n_spans"] == 1
        assert payload["n_events"] == 1
        assert payload["spans"][0]["attrs"] == {"domain": "book"}


class TestMetricsRegistry:
    def test_counter_create_on_use_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("web.calls", substrate="engine").inc()
        registry.counter("web.calls", substrate="engine").inc(2)
        registry.counter("web.calls", substrate="source").inc()
        assert registry.counter_value("web.calls", substrate="engine") == 3
        assert registry.counter_value("web.calls", substrate="source") == 1
        assert registry.counter_value("web.calls", substrate="nowhere") == 0

    def test_sum_counters_aggregates_unfiltered_dimensions(self):
        registry = MetricsRegistry()
        registry.counter("web.calls", substrate="engine",
                         component="surface").inc(2)
        registry.counter("web.calls", substrate="engine",
                         component="attr_deep").inc(3)
        registry.counter("web.calls", substrate="source",
                         component="surface").inc(5)
        assert registry.sum_counters("web.calls") == 10
        assert registry.sum_counters("web.calls", substrate="engine") == 5
        assert registry.sum_counters("web.calls", component="surface") == 7

    def test_counters_reject_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3.0)
        registry.gauge("depth").set(1.5)
        assert registry.gauge("depth").value == 1.5

    def test_histogram_summary_statistics(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.histogram("backoff").observe(value)
        histogram = registry.histogram("backoff")
        assert histogram.count == 3
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_export_is_sorted_and_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("b", z="1").inc()
        registry.counter("a", z="1").inc()
        payload = registry.export()
        json.dumps(payload)
        assert [row["name"] for row in payload["counters"]] == ["a", "b"]


def traced_run(dataset_seed: int):
    """One fully instrumented run (faults + obs) over a tiny domain."""
    config = WebIQConfig(
        resilience=ResilienceConfig(
            profile=FaultProfile(fault_rate=0.15, seed=5),
            breaker=BreakerPolicy(failure_threshold=10_000),
        ),
        obs=ObsConfig(),
    )
    dataset = build_domain_dataset("book", n_interfaces=4, seed=dataset_seed)
    return WebIQMatcher(config).run(dataset)


def exported_bytes(result) -> bytes:
    return json.dumps(
        observability_to_dict(result.obs), indent=2, sort_keys=True
    ).encode()


class TestTraceDeterminism:
    def test_same_seed_exports_byte_identical_trace(self):
        first = exported_bytes(traced_run(dataset_seed=2))
        second = exported_bytes(traced_run(dataset_seed=2))
        assert first == second

    def test_different_seeds_export_different_traces(self):
        first = exported_bytes(traced_run(dataset_seed=2))
        other = exported_bytes(traced_run(dataset_seed=3))
        assert first != other

    def test_trace_carries_phase_spans_and_calls(self):
        result = traced_run(dataset_seed=2)
        tracer = result.obs.tracer
        assert tracer.all_closed
        assert [root.name for root in tracer.roots] == ["run"]
        for phase in ("surface", "attr_deep", "attr_surface", "matching"):
            assert sum(1 for _ in tracer.iter_spans(phase)) == 1
        assert tracer.count_events("web_call") > 0

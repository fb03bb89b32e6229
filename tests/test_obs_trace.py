"""Tests for repro.obs tracing and its counters: structure and determinism.

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
from repro.obs import ObsConfig, Observability, Tracer, counter_rows
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

    def test_sum_event_attr_aggregates_unfiltered_dimensions(self):
        tracer = Tracer()
        with tracer.span("run"):
            for substrate, component, round_trips in (
                ("engine", "surface", 2),
                ("engine", "attr_deep", 3),
                ("source", "surface", 5),
            ):
                tracer.event("web_call", substrate=substrate,
                             component=component, round_trips=round_trips)
        assert tracer.sum_event_attr("round_trips", "web_call") == 10
        assert tracer.sum_event_attr(
            "round_trips", "web_call", substrate="engine") == 5
        assert tracer.sum_event_attr(
            "round_trips", "web_call", component="surface") == 7

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


class TestCounterRows:
    """The exported counters are a view of the trace's events."""

    def test_rows_are_keyed_by_name_and_labels(self):
        obs = Observability()
        obs.record_call("engine", "num_hits", round_trips=1)
        with obs.component("surface"):
            obs.record_call("engine", "search", round_trips=2)
            obs.record_call("engine", "num_hits", round_trips=1)
            obs.tracer.event("retry", component="surface", attempt=0)
        rows = {
            (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
            for row in counter_rows(obs.tracer)
        }
        surface = (("component", "surface"), ("substrate", "engine"))
        web = (("component", "web"), ("substrate", "engine"))
        assert rows == {
            ("web.calls", surface): 2,
            ("web.calls", web): 1,
            ("web.round_trips", surface): 3,
            ("web.round_trips", web): 1,
            ("resilience.retries", (("component", "surface"),)): 1,
        }

    def test_rows_are_sorted_and_serialisable(self):
        tracer = Tracer()
        with tracer.span("run"):
            tracer.event("web_call", substrate="source", component="b",
                         method="submit", round_trips=1)
            tracer.event("fault", component="a", kind="TransientError")
            tracer.event("web_call", substrate="engine", component="b",
                         method="search", round_trips=1)
        rows = counter_rows(tracer)
        json.dumps(rows)
        assert [(row["name"], row["labels"]) for row in rows] == [
            ("resilience.faults", {"component": "a"}),
            ("web.calls", {"component": "b", "substrate": "engine"}),
            ("web.calls", {"component": "b", "substrate": "source"}),
            ("web.round_trips", {"component": "b", "substrate": "engine"}),
            ("web.round_trips", {"component": "b", "substrate": "source"}),
        ]


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


class TestCountedOnce:
    """The observability line and the exported counter rows, pinned.

    The ``metrics`` section is a view of the trace; these pins hold the
    view to the rows the run has always exported.
    """

    def test_observed_book_summary_is_pinned(self):
        dataset = build_domain_dataset("book", n_interfaces=20, seed=1)
        result = WebIQMatcher(WebIQConfig(obs=ObsConfig())).run(dataset)
        assert result.obs.summary() == (
            "observability: 5 spans, 1228 events; "
            "metrics: 6 counters (sum 2456), 0 gauges, 0 histograms; "
            "provenance: 547 lineage, 339 prunes, 5460 explanations, "
            "95 merges"
        )

    def test_zero_round_trip_call_still_exports_its_row(self):
        obs = Observability()
        obs.record_call("engine", "num_hits", round_trips=0)
        assert observability_to_dict(obs)["metrics"] == {
            "counters": [
                {"name": "web.calls",
                 "labels": {"component": "web", "substrate": "engine"},
                 "value": 1},
                {"name": "web.round_trips",
                 "labels": {"component": "web", "substrate": "engine"},
                 "value": 0},
            ],
            "gauges": [],
            "histograms": [],
        }

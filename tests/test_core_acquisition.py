"""Tests for the §5 acquisition policy."""

import gc
import weakref

import pytest

from repro.core import surface
from repro.core.acquisition import AcquisitionConfig, InstanceAcquirer
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.core.surface import SnippetExtractor, SurfaceMemo
from repro.datasets import build_domain_dataset
from repro.deepweb.models import AttributeKind
from repro.util.errors import InjectedCrashError


@pytest.fixture()
def airfare():
    ds = build_domain_dataset("airfare", n_interfaces=8, seed=7)
    ds.clear_acquired()
    ds.reset_counters()
    return ds


def acquire(ds, **flags):
    acquirer = InstanceAcquirer(ds.engine, ds.sources)
    return acquirer.acquire(
        ds.interfaces,
        domain_keywords=ds.spec.keyword_terms(),
        object_name=ds.spec.object_name,
        **flags,
    )


class TestPolicy:
    def test_records_cover_all_attributes(self, airfare):
        report = acquire(airfare)
        total = sum(len(i.attributes) for i in airfare.interfaces)
        assert len(report.records) == total

    def test_predefined_attributes_never_surface(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if record.had_instances:
                assert not record.surface_attempted
                assert not record.borrow_deep_attempted

    def test_no_instance_attributes_surface_first(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if not record.had_instances:
                assert record.surface_attempted

    def test_surface_success_skips_borrowing(self, airfare):
        report = acquire(airfare)
        for record in report.records:
            if not record.had_instances and record.surface_success(report.k):
                assert not record.borrow_deep_attempted

    def test_surface_failure_triggers_deep_borrowing(self, airfare):
        report = acquire(airfare)
        attempted = [
            r for r in report.records
            if not r.had_instances and not r.surface_success(report.k)
        ]
        assert attempted
        assert all(r.borrow_deep_attempted for r in attempted)

    def test_predefined_attributes_borrow_via_surface(self, airfare):
        report = acquire(airfare)
        assert any(
            r.borrow_surface_attempted for r in report.records
            if r.had_instances
        )

    def test_borrowing_rescues_prepositional_labels(self, airfare):
        report = acquire(airfare)
        rescued = [
            r for r in report.records
            if r.label in ("From", "To")
            and r.n_after_surface == 0 and r.n_after_borrow > 0
        ]
        assert rescued

    def test_select_values_never_mutated(self, airfare):
        before = {
            (i.interface_id, a.name): a.instances
            for i in airfare.interfaces for a in i.attributes
        }
        acquire(airfare)
        for interface in airfare.interfaces:
            for attr in interface.attributes:
                assert attr.instances == before[(interface.interface_id, attr.name)]

    def test_acquired_instances_attached(self, airfare):
        acquire(airfare)
        enriched = [
            a for i in airfare.interfaces for a in i.attributes
            if a.kind is AttributeKind.TEXT and a.acquired
        ]
        assert enriched

    def test_success_rates_bounded(self, airfare):
        report = acquire(airfare)
        assert 0 <= report.surface_success_rate <= 100
        assert report.surface_success_rate <= report.final_success_rate <= 100

    def test_query_accounting_split(self, airfare):
        report = acquire(airfare)
        assert report.surface_queries > 0
        assert report.attr_deep_probes > 0
        assert airfare.engine.query_count == \
            report.surface_queries + report.attr_surface_queries


class TestComponentFlags:
    def test_surface_disabled(self, airfare):
        report = acquire(airfare, enable_surface=False)
        assert report.surface_queries == 0
        assert all(not r.surface_attempted for r in report.records)

    def test_deep_disabled(self, airfare):
        report = acquire(airfare, enable_attr_deep=False)
        assert report.attr_deep_probes == 0
        assert report.final_success_rate == report.surface_success_rate

    def test_attr_surface_disabled(self, airfare):
        report = acquire(airfare, enable_attr_surface=False)
        assert report.attr_surface_queries == 0

    def test_deep_only_still_borrows(self, airfare):
        report = acquire(airfare, enable_surface=False,
                         enable_attr_surface=False)
        # donors are pre-defined selects; prepositional-label attrs whose
        # labels match a select (e.g. date selects) can still be rescued
        assert report.attr_deep_probes > 0


class TestReport:
    def test_record_lookup(self, airfare):
        report = acquire(airfare)
        interface = airfare.interfaces[0]
        record = report.record_for(interface.interface_id,
                                   interface.attributes[0].name)
        assert record.label == interface.attributes[0].label

    def test_record_lookup_missing(self, airfare):
        report = acquire(airfare)
        with pytest.raises(KeyError):
            report.record_for("nope", "nope")

    def test_empty_dataset_rates(self):
        from repro.core.acquisition import AcquisitionReport
        report = AcquisitionReport()
        assert report.surface_success_rate == 0.0
        assert report.final_success_rate == 0.0


class TestLifecycle:
    def test_run_frees_its_acquirer_without_the_cycle_collector(
            self, monkeypatch):
        # A reference cycle through the acquirer would keep each run's
        # engine, corpus and indexes alive until the cyclic GC ran.
        from repro.core import pipeline

        acquirers = []
        case2_calls = []

        class Recorded(InstanceAcquirer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                acquirers.append(weakref.ref(self))

            def _case2_donors(self, interface, attribute):
                case2_calls.append(attribute.name)
                return super()._case2_donors(interface, attribute)

        monkeypatch.setattr(pipeline, "InstanceAcquirer", Recorded)
        dataset = build_domain_dataset("airfare", n_interfaces=4, seed=1)
        gc.disable()
        try:
            result = pipeline.WebIQMatcher(pipeline.WebIQConfig()).run(dataset)
            del result
            assert acquirers and case2_calls
            assert all(ref() is None for ref in acquirers)
        finally:
            gc.enable()

    def test_donor_index_holds_no_reference_to_its_acquirer(self, airfare):
        acquirer = InstanceAcquirer(airfare.engine, airfare.sources)
        acquirer._interfaces = airfare.interfaces
        interface = airfare.interfaces[0]
        acquirer._case2_donors(interface, interface.attributes[0])
        assert acquirer._donor_forms is not None
        ref = weakref.ref(acquirer)
        gc.disable()
        try:
            del acquirer
            assert ref() is None
        finally:
            gc.enable()


@pytest.fixture()
def recorded_memos(monkeypatch):
    """Every Surface memo an acquisition run creates, kept alive after
    the acquirer drops it."""
    created = []

    class Recorded(SurfaceMemo):
        def __init__(self, extractor):
            super().__init__(extractor)
            created.append(self)

    monkeypatch.setattr(surface, "SurfaceMemo", Recorded)
    return created


class TestSurfaceMemo:
    def test_memo_is_dropped_when_acquire_returns(self, airfare,
                                                  recorded_memos):
        acquirer = InstanceAcquirer(airfare.engine, airfare.sources)
        acquirer.acquire(airfare.interfaces, airfare.spec.keyword_terms(),
                         airfare.spec.object_name)
        assert acquirer._surface_memo is None
        assert len(recorded_memos) == 1
        assert recorded_memos[0]._extractions and recorded_memos[0]._labels

    def test_memo_is_dropped_when_a_unit_raises(self, airfare, monkeypatch):
        acquirer = InstanceAcquirer(airfare.engine, airfare.sources)
        held = []

        def crash(*args, **kwargs):
            held.append(len(acquirer._surface_memo._extractions))
            raise InjectedCrashError("injected")

        # the first Attr-Deep unit crashes after Surface filled the memo
        monkeypatch.setattr(acquirer._attr_deep, "validate", crash)
        with pytest.raises(InjectedCrashError):
            acquirer.acquire(airfare.interfaces,
                             airfare.spec.keyword_terms(),
                             airfare.spec.object_name)
        assert held and held[0] > 0
        assert acquirer._surface_memo is None

    def test_each_run_starts_with_an_empty_memo(self, recorded_memos):
        def run(domain):
            dataset = build_domain_dataset(domain, n_interfaces=4, seed=1)
            WebIQMatcher(WebIQConfig()).run(dataset)

        run("book")
        run("airfare")
        assert len(recorded_memos) == 2
        alone = recorded_memos[1]
        run("airfare")
        # the airfare memo after a book run holds exactly what an airfare
        # run alone collects: nothing carried over
        assert alone._extractions == recorded_memos[2]._extractions
        assert alone._labels == recorded_memos[2]._labels
        assert not (recorded_memos[0]._extractions.keys()
                    & alone._extractions.keys())

    def test_returned_lists_are_fresh(self, airfare):
        discoverer = surface.SurfaceDiscoverer(airfare.engine)
        memo = discoverer.new_memo()
        query = next(
            q for q in discoverer._builder.build(
                memo.analysis("Departure city"))
            if q.pattern == "s1")
        snippet = "Fly from departure cities such as Boston, Chicago and LAX."
        first = memo.extract(snippet, query)
        assert first == ["Boston", "Chicago", "LAX"]
        first.append("Paris")
        first[0] = "Rome"
        assert memo.extract(snippet, query) \
            == ["Boston", "Chicago", "LAX"]

    def test_memoized_extractions_equal_fresh_ones(self, recorded_memos):
        dataset = build_domain_dataset("book", n_interfaces=8, seed=1)
        WebIQMatcher(WebIQConfig()).run(dataset)
        (memo,) = recorded_memos
        assert memo._extractions
        fresh = SnippetExtractor()
        for (snippet, query), found in memo._extractions.items():
            assert list(found) == fresh.extract(snippet, query)

"""Tests for the §5 acquisition policy."""

import gc
import json
import weakref
from collections import Counter

import pytest

from repro.core import surface
from repro.core.acquisition import AcquisitionConfig, InstanceAcquirer
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.core.surface import SnippetExtractor, SurfaceMemo
from repro.datasets import DOMAINS, build_domain_dataset
from repro.io import run_result_to_dict
from repro.perf.cache import ValidationCache, normalize_query
from repro.surfaceweb.engine import SearchEngine
from repro.deepweb.models import AttributeKind


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


class TestSharedValidationCache:
    """Every Surface question of a run (extraction searches, and the hit
    counts of Surface and Attr-Surface validation) shares one memo per
    run; the only other memo a run builds is its frozen copy, the
    returned ``cache_content``."""

    def test_an_uncached_run_asks_each_hit_count_once(self, monkeypatch):
        built, asked = [], Counter()
        init = ValidationCache.__init__
        search = SearchEngine.search
        num_hits = SearchEngine.num_hits
        proximity = SearchEngine.num_hits_proximity

        def recorded_init(cache):
            init(cache)
            built.append(cache)

        def counted_search(engine, query, *args, **kwargs):
            asked["search", normalize_query(query), args,
                  tuple(kwargs.items())] += 1
            return search(engine, query, *args, **kwargs)

        def counted_num_hits(engine, query):
            asked["num_hits", normalize_query(query)] += 1
            return num_hits(engine, query)

        def counted_proximity(engine, phrase_a, phrase_b, *args, **kwargs):
            asked["proximity", normalize_query(phrase_a),
                  normalize_query(phrase_b), args, tuple(kwargs.items())] += 1
            return proximity(engine, phrase_a, phrase_b, *args, **kwargs)

        monkeypatch.setattr(ValidationCache, "__init__", recorded_init)
        monkeypatch.setattr(SearchEngine, "search", counted_search)
        monkeypatch.setattr(SearchEngine, "num_hits", counted_num_hits)
        monkeypatch.setattr(SearchEngine, "num_hits_proximity",
                            counted_proximity)
        # job's 20 interfaces repeat the most labels, and a validation
        # phrase there ("education") is also a candidate's text
        for domain, n_interfaces in [(d, 6) for d in DOMAINS] + [("job", 20)]:
            built.clear()
            asked.clear()
            dataset = build_domain_dataset(domain, n_interfaces, seed=1)
            result = WebIQMatcher(WebIQConfig()).run(dataset)
            assert result.acquisition.attr_surface_queries > 0, domain
            cache, captured = built
            assert result.cache_content.validation is captured
            assert result.cache is cache.stats
            assert cache.searches and cache.marginal_hits, domain
            kinds = {key[0] for key in asked}
            assert kinds == {"search", "num_hits", "proximity"}, domain
            repeated = {key: n for key, n in asked.items() if n > 1}
            assert not repeated, (domain, n_interfaces, repeated)
            assert sum(asked.values()) == dataset.engine.query_count


class TestSurfaceMemo:
    def test_returned_lists_are_fresh(self, airfare):
        discoverer = surface.SurfaceDiscoverer(airfare.engine)
        memo = SurfaceMemo()
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

    def test_runs_over_one_dataset_share_its_memo(self):
        dataset = build_domain_dataset("book", n_interfaces=6, seed=1)
        first = WebIQMatcher(WebIQConfig()).run(dataset)
        memo = dataset.world.memo
        held = (dict(memo._extractions), dict(memo._labels))
        second = WebIQMatcher(WebIQConfig()).run(dataset)
        fresh = WebIQMatcher(WebIQConfig()).run(
            build_domain_dataset("book", n_interfaces=6, seed=1))
        assert dataset.world.memo is memo
        assert (memo._extractions, memo._labels) == held
        export = json.dumps(run_result_to_dict(second), sort_keys=True)
        assert export == json.dumps(run_result_to_dict(fresh),
                                    sort_keys=True)
        assert export == json.dumps(run_result_to_dict(first),
                                    sort_keys=True)

    def test_memoized_extractions_equal_fresh_ones(self):
        dataset = build_domain_dataset("book", n_interfaces=8, seed=1)
        WebIQMatcher(WebIQConfig()).run(dataset)
        memo = dataset.world.memo
        assert memo._extractions
        fresh = SnippetExtractor()
        for (snippet, query), found in memo._extractions.items():
            assert list(found) == fresh.extract(snippet, query)

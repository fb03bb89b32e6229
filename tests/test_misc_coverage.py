"""Edge-case tests collected across modules."""

import pytest

from repro.core.pipeline import (
    MATCHING_SECONDS_PER_EVALUATION,
    WebIQConfig,
    WebIQMatcher,
)
from repro.datasets import build_domain_dataset
from repro.experiments import ExperimentSuite
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.clock import SimulatedClock


class TestClockMeasure:
    def test_nested_accounts(self):
        clock = SimulatedClock()
        with clock.measure("outer"):
            with clock.measure("inner"):
                pass
        report = clock.report()
        assert report.seconds("outer") >= report.seconds("inner") >= 0.0

    def test_measure_charges_even_on_exception(self):
        clock = SimulatedClock()
        with pytest.raises(RuntimeError):
            with clock.measure("work"):
                raise RuntimeError("boom")
        assert clock.report().seconds("work") > 0.0


class TestExperimentSuiteErrors:
    def test_unknown_config_name(self):
        suite = ExperimentSuite(seed=1, n_interfaces=4, domains=("book",))
        with pytest.raises(KeyError):
            suite.run("book", "nonsense-config")

    def test_unknown_domain_propagates(self):
        suite = ExperimentSuite(seed=1, n_interfaces=4, domains=("pets",))
        from repro.util.errors import UnknownDomainError
        with pytest.raises(UnknownDomainError):
            suite.dataset("pets")


class TestPipelineConfigEdges:
    def test_matching_cost_per_evaluation(self):
        dataset = build_domain_dataset("book", n_interfaces=4, seed=8)
        config = WebIQConfig(enable_surface=False, enable_attr_deep=False,
                             enable_attr_surface=False)
        result = WebIQMatcher(config).run(dataset)
        assert result.stopwatch.seconds("matching") \
            == result.match_result.similarity_evaluations \
            * MATCHING_SECONDS_PER_EVALUATION

    def test_negative_threshold_merges_at_least_as_much(self):
        dataset = build_domain_dataset("book", n_interfaces=4, seed=8)
        zero = WebIQMatcher(WebIQConfig(enable_surface=False,
                                        enable_attr_deep=False,
                                        enable_attr_surface=False,
                                        threshold=0.0)).run(dataset)
        negative = WebIQMatcher(WebIQConfig(enable_surface=False,
                                            enable_attr_deep=False,
                                            enable_attr_surface=False,
                                            threshold=-1.0)).run(dataset)
        # a negative threshold additionally admits zero-similarity merges
        # (merging requires sim strictly above tau), so it can only merge
        # more, never less
        assert negative.metrics.n_predicted >= zero.metrics.n_predicted


class TestEngineEdges:
    def test_search_empty_engine(self):
        engine = SearchEngine([])
        assert engine.search("anything") == []
        assert engine.num_hits("anything") == 0

    def test_document_with_only_punctuation(self):
        engine = SearchEngine([Document(0, "u", "t", "!!! ... ???")])
        assert engine.num_hits("anything") == 0

    def test_snippet_for_term_only_query(self):
        engine = SearchEngine([
            Document(0, "u", "t", "alpha beta gamma delta")])
        results = engine.search("gamma")
        assert "gamma" in results[0].snippet


class TestCliNoComponentFlags:
    def test_disable_single_component(self, capsys):
        from repro.cli import main
        assert main(["run", "--domain", "book", "--interfaces", "4",
                     "--seed", "8", "--no-attr-deep"]) == 0
        out = capsys.readouterr().out
        assert "F1=" in out and "surface%" in out

"""Tests for WebValidator: PMI-based validation (paper §2.2)."""

import pytest

from repro.core.surface import WebValidator
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine


@pytest.fixture()
def engine():
    docs = [
        Document(1, "u1", "t",
                 "We sell a variety of makes such as Honda, Mitsubishi."),
        Document(2, "u2", "t", "Make: Honda, Model: Accord."),
        Document(3, "u3", "t", "This car's make is Honda."),
        Document(4, "u4", "t", "Honda builds reliable cars."),
        Document(5, "u5", "t", "Economy class is cheap to fly."),
        Document(6, "u6", "t", "Economy news and business reports."),
        Document(7, "u7", "t", "More about the economy and markets."),
    ]
    return SearchEngine(docs)


class TestValidationPhrases:
    def test_label_plus_cue_phrases(self, engine):
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        assert phrases[0] == "make"
        assert "makes such as" in phrases
        assert "such makes as" in phrases

    def test_no_np_label_only_proximity(self, engine):
        validator = WebValidator(engine)
        assert validator.validation_phrases("From") == ["from"]

    def test_label_cleaned(self, engine):
        validator = WebValidator(engine)
        assert validator.validation_phrases("Make:*")[0] == "make"


class TestScoring:
    def test_instance_scores_positive(self, engine):
        # paper: "make" found in the context of "Honda" in varied ways
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        assert validator.confidence(phrases, "Honda") > 0.0

    def test_non_instance_scores_zero(self, engine):
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        assert validator.confidence(phrases, "Economy") == 0.0

    def test_popularity_normalisation(self, engine):
        # "Economy" is frequent on the Web but unrelated to "make"; its
        # popularity must not produce a score.
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        assert validator.marginal_hits("Economy") >= 3
        assert validator.confidence(phrases, "Economy") == 0.0

    def test_score_vector_dimension(self, engine):
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        assert len(validator.score_vector(phrases, "Honda")) == len(phrases)

    def test_proximity_pattern_is_adjacency(self, engine):
        validator = WebValidator(engine)
        # "Make: Honda" -> adjacency after punctuation skipping
        vector = validator.score_vector(["make"], "Honda")
        assert vector[0] > 0.0


class TestCaching:
    def test_everything_cached_on_repeat(self, engine):
        validator = WebValidator(engine)
        phrases = validator.validation_phrases("make")
        validator.confidence(phrases, "Honda")
        count_after_first = engine.query_count
        validator.confidence(phrases, "Honda")
        # Marginals AND joints are cached: a repeated validation is free.
        assert engine.query_count == count_after_first

    def test_candidate_cache_shared_across_attributes(self, engine):
        validator = WebValidator(engine)
        validator.marginal_hits("Honda")
        baseline = engine.query_count
        validator.marginal_hits("honda")  # case-insensitive cache key
        assert engine.query_count == baseline

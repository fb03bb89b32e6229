"""Tests for the snippet extractor (paper §2.1, extraction rules)."""

import pytest

from repro.core.surface import ExtractionQueryBuilder, SnippetExtractor
from repro.text.labels import analyze_label


@pytest.fixture(scope="module")
def extractor():
    return SnippetExtractor()


def query_named(label, pattern, object_name="flight"):
    builder = ExtractionQueryBuilder()
    for q in builder.build(analyze_label(label), (), object_name):
        if q.pattern == pattern:
            return q
    raise AssertionError(f"no pattern {pattern}")


class TestSetPatterns:
    def test_paper_figure_2_snippet(self, extractor):
        # "identify the cue phrase 'departure cities such as' ... extract
        # Boston, Chicago, and LAX"
        q = query_named("Departure city", "s1")
        snippet = ("Compare fares from all departure cities such as Boston, "
                   "Chicago, and LAX for your trip.")
        assert extractor.extract(snippet, q) == ["Boston", "Chicago", "LAX"]

    def test_s2_such_as(self, extractor):
        q = query_named("make", "s2", object_name="car")
        snippet = "We carry such makes as Honda, Toyota and Ford here."
        assert extractor.extract(snippet, q) == ["Honda", "Toyota", "Ford"]

    def test_s3_including(self, extractor):
        q = query_named("publisher", "s3", object_name="book")
        snippet = "Browse publishers including Penguin Books, Knopf right here."
        assert extractor.extract(snippet, q) == ["Penguin Books", "Knopf"]

    def test_s4_and_other(self, extractor):
        q = query_named("city", "s4")
        snippet = "Boston, and other cities can be found on this page."
        assert extractor.extract(snippet, q) == ["Boston"]

    def test_list_stops_at_verbs(self, extractor):
        q = query_named("author", "s1", object_name="book")
        snippet = "Authors such as Mark Twain wrote many books."
        assert extractor.extract(snippet, q) == ["Mark Twain"]

    def test_list_stops_at_stopwords(self, extractor):
        q = query_named("city", "s1")
        snippet = "Cities such as Boston, Chicago and other places."
        assert extractor.extract(snippet, q) == ["Boston", "Chicago"]

    def test_numeric_completions(self, extractor):
        q = query_named("price", "s1", object_name="car")
        snippet = "Prices such as $5,000, $10,000, and $15,000 are common."
        assert extractor.extract(snippet, q) == ["$5,000", "$10,000", "$15,000"]

    def test_year_list_not_merged(self, extractor):
        q = query_named("year", "s1", object_name="car")
        snippet = "Years such as 1994, 1995, and 1996 are covered."
        assert extractor.extract(snippet, q) == ["1994", "1995", "1996"]

    def test_no_cue_no_candidates(self, extractor):
        q = query_named("city", "s1")
        assert extractor.extract("Totally unrelated text.", q) == []

    def test_a_list_is_read_up_to_eight_items(self, extractor):
        q = query_named("city", "s1")
        cities = ["Boston", "Chicago", "Denver", "Miami", "Dallas",
                  "Seattle", "Atlanta", "Phoenix", "Houston", "Tampa"]
        snippet = ("Cities such as " + ", ".join(cities[:-1])
                   + " and " + cities[-1] + ".")
        assert extractor.extract(snippet, q) == cities[:8]

    def test_multiple_cue_occurrences(self, extractor):
        q = query_named("city", "s1")
        snippet = ("Cities such as Boston are great. Cities such as Miami "
                   "are warm.")
        assert extractor.extract(snippet, q) == ["Boston", "Miami"]


class TestSingletonPatterns:
    def test_g1_object_anchored(self, extractor):
        q = query_named("author", "g1", object_name="book")
        snippet = "The author of the book is Mark Twain."
        assert extractor.extract(snippet, q) == ["Mark Twain"]

    def test_g2_plain(self, extractor):
        q = query_named("make", "g2", object_name="car")
        snippet = "In this listing the make is Honda."
        assert extractor.extract(snippet, q) == ["Honda"]

    def test_g4_reversed(self, extractor):
        q = query_named("author", "g4", object_name="book")
        snippet = "Mark Twain is the author."
        assert extractor.extract(snippet, q) == ["Mark Twain"]

    def test_g3_reversed_with_object(self, extractor):
        q = query_named("author", "g3", object_name="book")
        snippet = "Jane Austen is the author of the book."
        assert extractor.extract(snippet, q) == ["Jane Austen"]

    def test_g2_cue_inside_g1_sentence_not_double_counted(self, extractor):
        # "the make is" would also match inside "the make of the car is";
        # each rule extracts what its own cue sees.
        q = query_named("make", "g2", object_name="car")
        snippet = "The make of the car is Honda."
        assert extractor.extract(snippet, q) == []

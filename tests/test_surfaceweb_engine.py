"""Tests for repro.surfaceweb.engine: the simulated search engine."""

import pytest

from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import QuerySyntaxError


@pytest.fixture()
def engine():
    return SearchEngine([
        Document(1, "http://a", "Travel",
                 "Departure cities such as Boston, Chicago, and LAX are "
                 "popular. Book a flight today."),
        Document(2, "http://b", "Cars",
                 "We sell makes such as Honda, Toyota, and Ford. "
                 "Make: Honda, Model: Accord."),
        Document(3, "http://c", "Books",
                 "Authors such as Mark Twain and Jane Austen wrote books. "
                 "The title and isbn of each book is listed."),
        Document(4, "http://d", "Noise", "Nothing relevant here at all."),
    ])


class TestSearch:
    def test_phrase_search(self, engine):
        results = engine.search('"departure cities such as"')
        assert [r.doc_id for r in results] == [1]

    def test_snippet_contains_completion(self, engine):
        snippet = engine.search('"departure cities such as"')[0].snippet
        assert "Boston" in snippet and "Chicago" in snippet

    def test_required_keywords_filter(self, engine):
        assert engine.search('"authors such as" +book') != []
        assert engine.search('"authors such as" +flight') == []

    def test_plain_terms_are_conjunctive(self, engine):
        assert [r.doc_id for r in engine.search("honda toyota")] == [2]
        assert engine.search("honda nothing") == []

    def test_max_results(self, engine):
        results = engine.search("book", max_results=1)
        assert len(results) == 1

    def test_no_results(self, engine):
        assert engine.search('"such gizmos as"') == []

    def test_result_metadata(self, engine):
        result = engine.search('"makes such as"')[0]
        assert result.url == "http://b"
        assert result.title == "Cars"

    def test_snippet_term_fallback_snippets(self, engine):
        # No phrase in the query: the snippet centres on the first matched
        # plain term instead.
        snippet = engine.search("honda toyota")[0].snippet
        assert "Honda" in snippet

    def test_snippet_fallback_avoids_postings_materialisation(self, engine):
        # Regression: the term fallback used to build the full
        # documents_with_term set per (term, result) pair just to test one
        # membership; it must use the O(1) term_in_document lookup.
        # (Search itself narrows candidates via documents_with_term, so
        # the assertion targets the snippet step alone.)
        parsed = engine._parser.parse("honda toyota")
        doc = engine.index.document(2)
        calls = []
        original = engine.index.documents_with_term
        engine.index.documents_with_term = lambda term: (
            calls.append(term) or original(term))
        try:
            snippet = engine._snippet(doc, parsed)
        finally:
            engine.index.documents_with_term = original
        assert "Honda" in snippet  # the fallback path actually ran
        assert calls == []


class TestNumHits:
    def test_counts_documents_not_occurrences(self, engine):
        # "book" occurs twice in doc 3, once in doc 1: still 2 hits.
        assert engine.num_hits("book") == 2

    def test_phrase_hits(self, engine):
        assert engine.num_hits('"makes such as honda"') == 1
        assert engine.num_hits('"makes such as ford"') == 0

    def test_zero_hits(self, engine):
        assert engine.num_hits("zeppelin") == 0

    def test_one_quoted_word_is_its_page_count(self, engine):
        assert engine.num_hits('"Book"') == engine.num_hits("book") == 2
        assert engine.num_hits('"zeppelin"') == 0

    @pytest.mark.parametrize("query", [
        '"such as"', '"Such  As"', '"departure cities, such as"',
        '"such as" +honda', ' "such as"', '"such" "as"', '"such as" ford',
    ])
    def test_quoted_phrase_count_equals_parsed_count(self, engine, query):
        parsed = engine._matching_docs(engine._parser.parse(query))
        assert engine.num_hits(query) == len(parsed)

    @pytest.mark.parametrize("query", ['""', '" , "', '"', '"a" "',
                                       '" "'])
    def test_quoted_query_without_words_raises(self, engine, query):
        with pytest.raises(QuerySyntaxError):
            engine.num_hits(query)


class TestProximity:
    def test_listing_page_adjacency(self, engine):
        # "Make: Honda" — colon skipped, label and value adjacent.
        assert engine.num_hits_proximity("make", "honda", window=0) == 1

    def test_within_window(self, engine):
        assert engine.num_hits_proximity(
            "makes such as", "ford", window=5) == 1

    def test_outside_window(self, engine):
        assert engine.num_hits_proximity("model", "toyota", window=1) == 0

    def test_empty_phrase(self, engine):
        assert engine.num_hits_proximity("", "honda") == 0


class TestQueryAccounting:
    def test_every_call_counts(self, engine):
        engine.reset_query_count()
        engine.search("book")
        engine.num_hits("book")
        engine.num_hits_proximity("make", "honda")
        assert engine.query_count == 3

    def test_reset(self, engine):
        engine.search("book")
        engine.reset_query_count()
        assert engine.query_count == 0

"""Tests for repro.surfaceweb.index: the positional inverted index."""

import pytest
from hypothesis import given, strategies as st

from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.surfaceweb.index import InvertedIndex, _bin_popcount, _popcount
from repro.util import counters as work


def build_index(*texts):
    index = InvertedIndex()
    for i, text in enumerate(texts):
        index.add(Document(i, f"http://x/{i}", "t", text))
    return index


class TestBuild:
    def test_counts(self):
        index = build_index("one two", "two three")
        assert index.n_documents == 2
        assert index.vocabulary_size == 3

    def test_duplicate_doc_id_rejected(self):
        index = InvertedIndex()
        doc = Document(1, "u", "t", "x")
        index.add(doc)
        with pytest.raises(ValueError):
            index.add(Document(1, "u2", "t", "y"))

    def test_doc_ids_wider_than_the_first_ones(self):
        # page lists start in the narrowest typecode and widen on demand
        index = InvertedIndex()
        for doc_id in (3, 300, 70_000):
            index.add(Document(doc_id, "u", "t", "cheap flights"))
        assert index.documents_with_term("cheap") == {3, 300, 70_000}
        assert index.documents_with_phrase(["cheap", "flights"]) \
            == {3, 300, 70_000}
        assert index.term_in_document("flights", 70_000)

    def test_negative_doc_id_rejected(self):
        with pytest.raises(ValueError):
            InvertedIndex().add(Document(-1, "u", "t", "x"))

    def test_document_lookup(self):
        index = build_index("hello world")
        assert index.document(0).tokens == ["hello", "world"]


class TestTermQueries:
    def test_documents_with_term(self):
        index = build_index("boston chicago", "chicago miami", "denver")
        assert index.documents_with_term("chicago") == {0, 1}
        assert index.documents_with_term("denver") == {2}
        assert index.documents_with_term("tokyo") == set()

    def test_case_insensitive(self):
        index = build_index("Boston rocks")
        assert index.documents_with_term("BOSTON") == {0}

    def test_term_frequency(self):
        index = build_index("a b a", "a c")
        assert index.term_frequency("a") == 3

    def test_term_in_document(self):
        index = build_index("boston chicago", "chicago miami")
        assert index.term_in_document("boston", 0)
        assert not index.term_in_document("boston", 1)
        assert index.term_in_document("CHICAGO", 1)  # case-insensitive
        assert not index.term_in_document("tokyo", 0)
        assert not index.term_in_document("boston", 99)  # unknown doc


class TestPhraseQueries:
    def test_phrase_positions(self):
        index = build_index("cities such as boston such as chicago")
        assert index.phrase_positions(["such", "as"], 0) == [1, 4]

    def test_phrase_across_punctuation_matches(self):
        # punctuation is not part of the word stream
        index = build_index("Make: Honda, Model: Accord")
        assert index.documents_with_phrase(["make", "honda"]) == {0}

    def test_phrase_not_matching_reordered(self):
        index = build_index("honda make")
        assert index.documents_with_phrase(["make", "honda"]) == set()

    def test_single_word_phrase(self):
        index = build_index("alpha beta")
        assert index.documents_with_phrase(["beta"]) == {0}

    def test_empty_phrase(self):
        index = build_index("alpha")
        assert index.documents_with_phrase([]) == set()

    def test_phrase_missing_word(self):
        index = build_index("alpha beta")
        assert index.documents_with_phrase(["alpha", "gamma"]) == set()


class TestCooccurrence:
    def test_adjacent(self):
        index = build_index("make honda is great")
        assert index.cooccurrence_count(["make"], ["honda"], window=0) == 1

    def test_within_window(self):
        index = build_index("make of the car honda")
        assert index.cooccurrence_count(["make"], ["honda"], window=3) == 1
        assert index.cooccurrence_count(["make"], ["honda"], window=2) == 0

    def test_order_insensitive(self):
        index = build_index("honda is a make")
        assert index.cooccurrence_count(["make"], ["honda"], window=2) == 1

    def test_multiword_phrases(self):
        index = build_index("departure cities such as boston and chicago")
        hits = index.cooccurrence_count(
            ["departure", "cities", "such", "as"], ["chicago"], window=3
        )
        assert hits == 1

    def test_requires_both(self):
        index = build_index("only make here", "only honda here")
        assert index.cooccurrence_count(["make"], ["honda"], window=9) == 0

    def test_overlapping_spans_do_not_cooccur(self):
        # Regression: "city" inside "new york city" is the same text span,
        # not two phrases near each other. The old gap arithmetic went
        # negative for overlaps and sailed under any window.
        index = build_index("visit new york city today")
        assert index.cooccurrence_count(
            ["city"], ["new", "york", "city"], window=5) == 0
        assert index.cooccurrence_count(
            ["new", "york", "city"], ["city"], window=5) == 0

    def test_self_cooccurrence_needs_two_occurrences(self):
        # One occurrence can never co-occur with itself...
        single = build_index("the boston office")
        assert single.cooccurrence_count(["boston"], ["boston"],
                                         window=9) == 0
        # ...two genuinely distinct occurrences still count.
        double = build_index("boston loves boston")
        assert double.cooccurrence_count(["boston"], ["boston"],
                                         window=1) == 1

    def test_adjacency_still_counts_after_overlap_fix(self):
        # gap == 0 (phrases touching) is the §3.2 adjacency pattern and
        # must keep matching at window=0.
        index = build_index("departure city boston")
        assert index.cooccurrence_count(
            ["departure", "city"], ["boston"], window=0) == 1

    def test_counts_every_qualifying_page_once(self):
        index = build_index("make honda make honda", "honda make",
                            "make the big honda", "honda")
        assert index.cooccurrence_count(["make"], ["honda"], window=0) == 2
        assert index.cooccurrence_count(["make"], ["honda"], window=2) == 3


class TestCounts:
    """Count paths equal ``len()`` of the set paths they replace."""

    def test_phrase_count(self):
        index = build_index("new york city", "york new york", "new jersey",
                            "New York")
        assert index.phrase_count(["new", "york"]) == 3
        assert index.phrase_count(["York"]) == 3
        assert index.phrase_count(["jersey"]) == 1
        assert index.phrase_count(["york", "city"]) == 1
        assert index.phrase_count(["boston"]) == 0
        assert index.phrase_count(["new", "boston"]) == 0
        assert index.phrase_count([]) == 0

    def test_popcount(self):
        for bits in (0, 1, 0b1011, 1 << 200, (1 << 300) - 1):
            assert _popcount(bits) == _bin_popcount(bits) \
                == sum(bits >> i & 1 for i in range(bits.bit_length()))


# --------------------------------------------------- brute-force references
def scan_positions(words, phrase):
    """Every start where ``words`` holds ``phrase`` (lower-cased) verbatim."""
    phrase = [w.lower() for w in phrase]
    n = len(phrase)
    if not n:
        return []
    return [p for p in range(len(words) - n + 1)
            if all(words[p + k] == phrase[k] for k in range(n))]


def scan_docs(docs, phrase):
    return {d.doc_id for d in docs if scan_positions(d.words, phrase)}


def scan_cooccurs(doc, phrase_a, phrase_b, window):
    """Two disjoint spans with at most ``window`` words strictly between."""
    len_a, len_b = len(phrase_a), len(phrase_b)
    for a in scan_positions(doc.words, phrase_a):
        for b in scan_positions(doc.words, phrase_b):
            if a + len_a <= b:
                between = b - (a + len_a)
            elif b + len_b <= a:
                between = a - (b + len_b)
            else:
                continue
            if between <= window:
                return True
    return False


def reference_intersections(docs, phrase):
    """One bump per word after the first, until the running intersection
    of the words' document sets is empty; none for a one-word phrase."""
    phrase = [w.lower() for w in phrase]
    if len(phrase) < 2:
        return 0

    def containing(word):
        return {d.doc_id for d in docs if word in d.words}

    running, bumps = containing(phrase[0]), 0
    for word in phrase[1:]:
        if not running:
            break
        bumps += 1
        running &= containing(word)
    return bumps


#: pages and phrases over a 3-5 letter alphabet, so repeated words,
#: self-overlapping phrases ("a a a") and absent words are all common
@st.composite
def corpus_and_phrases(draw):
    alphabet = "abcde"[:draw(st.integers(3, 5))]
    word = st.sampled_from(alphabet)
    mixed = st.builds(lambda w, up: w.upper() if up else w, word, st.booleans())
    pages = draw(st.lists(st.lists(mixed, min_size=1, max_size=12),
                          min_size=1, max_size=6))
    # "z" never occurs in a page: the absent-word paths get drawn too
    phrase = st.lists(st.one_of(mixed, st.just("z")), min_size=1, max_size=4)
    phrases = draw(st.lists(phrase, min_size=1, max_size=4))
    docs = [Document(i, f"u{i}", "t", " ".join(words))
            for i, words in enumerate(pages)]
    return docs, phrases


class TestProperties:
    @given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
                    min_size=1, max_size=8))
    def test_phrase_docs_subset_of_term_docs(self, docs):
        index = InvertedIndex()
        for i, words in enumerate(docs):
            index.add(Document(i, f"u{i}", "t", " ".join(words)))
        for phrase in (["a", "b"], ["c"], ["a", "a"]):
            phrase_docs = index.documents_with_phrase(phrase)
            for word in phrase:
                assert phrase_docs <= index.documents_with_term(word)

    @given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
                    min_size=1, max_size=8),
           st.integers(0, 4))
    def test_cooccurrence_window_monotone(self, docs, window):
        index = InvertedIndex()
        for i, words in enumerate(docs):
            index.add(Document(i, f"u{i}", "t", " ".join(words)))
        narrow = index.cooccurrence_count(["a"], ["b"], window)
        wide = index.cooccurrence_count(["a"], ["b"], window + 1)
        assert narrow <= wide

    # exactness: every phrase read equals a brute-force scan of each page's
    # word list and bumps ``index.intersections`` by the reference rule
    @given(corpus_and_phrases())
    def test_phrase_positions_match_scan(self, drawn):
        docs, phrases = drawn
        index = InvertedIndex()
        index.add_all(docs)
        for phrase in phrases:
            for doc in docs:
                assert index.phrase_positions(phrase, doc.doc_id) == \
                    scan_positions(doc.words, phrase)

    @given(corpus_and_phrases())
    def test_documents_with_phrase_match_scan(self, drawn):
        docs, phrases = drawn
        index = InvertedIndex()
        index.add_all(docs)
        for phrase in phrases:
            with work.collecting(work.WorkCounters()) as counts:
                found = index.documents_with_phrase(phrase)
            assert found == scan_docs(docs, phrase)
            assert counts.get("index.intersections") == \
                reference_intersections(docs, phrase)

    @given(corpus_and_phrases(), st.integers(0, 3))
    def test_cooccurrence_count_match_scan(self, drawn, window):
        docs, phrases = drawn
        index = InvertedIndex()
        index.add_all(docs)
        for phrase_a, phrase_b in zip(phrases, phrases[1:] + phrases[:1]):
            with work.collecting(work.WorkCounters()) as counts:
                found = index.cooccurrence_count(phrase_a, phrase_b, window)
            assert found == sum(scan_cooccurs(d, phrase_a, phrase_b, window)
                                for d in docs)
            assert counts.get("index.intersections") == (
                reference_intersections(docs, phrase_a)
                + reference_intersections(docs, phrase_b) + 1)
            assert counts.get("index.window_checks") == len(
                scan_docs(docs, phrase_a) & scan_docs(docs, phrase_b))

    @given(corpus_and_phrases())
    def test_phrase_count_matches_documents_with_phrase(self, drawn):
        docs, phrases = drawn
        index = InvertedIndex()
        index.add_all(docs)
        for phrase in phrases:
            with work.collecting(work.WorkCounters()) as set_counts:
                found = index.documents_with_phrase(phrase)
            with work.collecting(work.WorkCounters()) as counts:
                count = index.phrase_count(phrase)
            assert count == len(found)
            assert counts.as_dict() == set_counts.as_dict()

    @given(corpus_and_phrases())
    def test_quoted_num_hits_match_scan(self, drawn):
        docs, phrases = drawn
        engine = SearchEngine(docs)
        for phrase in phrases:
            query = '"' + " ".join(phrase) + '"'
            with work.collecting(work.WorkCounters()) as counts:
                hits = engine.num_hits(query)
            assert hits == len(scan_docs(docs, phrase))
            assert counts.get("index.intersections") == \
                reference_intersections(docs, phrase)
            # the parsed path: same count, same work
            with work.collecting(work.WorkCounters()) as parsed_counts:
                parsed = engine._parser.parse(query)
                assert len(engine._matching_docs(parsed)) == hits
            assert counts.get("tokenizer.calls") == \
                parsed_counts.get("tokenizer.calls") == 1

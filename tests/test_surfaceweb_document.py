"""Tests for repro.surfaceweb.document."""

import pytest

from repro.surfaceweb.document import Document


def make_doc(text, doc_id=1):
    return Document(doc_id, f"http://x/{doc_id}", "title", text)


class TestDocument:
    def test_tokens_include_punctuation(self):
        doc = make_doc("Cities such as Boston, Chicago.")
        assert "," in doc.tokens
        assert "." in doc.tokens

    def test_words_are_lowercased(self):
        doc = make_doc("Boston and Chicago")
        assert doc.words == ["boston", "and", "chicago"]

    def test_word_token_index_maps_back(self):
        doc = make_doc("Make: Honda, Model: Accord")
        for pos, idx in enumerate(doc.word_token_index):
            assert doc.tokens[idx].lower() == doc.words[pos]

    def test_word_token_index_is_a_compact_array(self):
        short = make_doc("Make: Honda")
        assert short.word_token_index.typecode == "B"
        long = make_doc(", ".join(["Alpha", "beta"] * 100) + ", Gamma")
        assert long.word_token_index.typecode == "H"
        assert long.tokens[long.word_token_index[-1]] == "Gamma"

    def test_text_is_not_kept(self):
        doc = make_doc("Boston and Chicago")
        assert not hasattr(doc, "text")
        assert "text" not in repr(doc)

    def test_equal_words_share_one_object(self):
        a, b = make_doc("Boston rocks", 1), make_doc("BOSTON rules", 2)
        assert a.words[0] is b.words[0]
        assert a.tokens[0] is make_doc("Boston", 3).tokens[0]

    def test_punctuation_skipped_in_words(self):
        doc = make_doc("Make: Honda")
        assert doc.words == ["make", "honda"]

    def test_monetary_kept_as_word(self):
        doc = make_doc("Price: $5,000")
        assert "$5,000" in doc.words

    def test_empty_text(self):
        doc = make_doc("")
        assert doc.tokens == [] and doc.words == []


class TestSnippetAround:
    def test_window_contains_center(self):
        doc = make_doc("a b c d e f g h i j k l m n o p")
        snippet = doc.snippet_around(8, width=2)
        assert "i" in snippet

    def test_window_clipped_at_start(self):
        doc = make_doc("alpha beta gamma")
        snippet = doc.snippet_around(0, width=5)
        assert snippet.startswith("alpha")

    def test_punctuation_attached_to_previous_word(self):
        doc = make_doc("cities such as Boston, Chicago, and LAX are popular")
        snippet = doc.snippet_around(3, width=6)
        assert "Boston," in snippet

    def test_out_of_range_raises(self):
        doc = make_doc("one two")
        with pytest.raises(IndexError):
            doc.snippet_around(10)

    def test_preserves_original_case(self):
        doc = make_doc("Airlines such as Delta")
        assert "Delta" in doc.snippet_around(0, width=10)

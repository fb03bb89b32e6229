"""Tests for repro.text.tokenizer."""

import pytest
from hypothesis import given, strategies as st

from repro.text.tokenizer import normalize, sentences, tokenize, words


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Makes such as Honda, Toyota.") == [
            "Makes", "such", "as", "Honda", ",", "Toyota", ".",
        ]

    def test_monetary_value_is_one_token(self):
        assert tokenize("price is $15,200") == ["price", "is", "$15,200"]

    def test_grouped_number_without_dollar(self):
        assert tokenize("about 1,200 items") == ["about", "1,200", "items"]

    def test_number_does_not_swallow_trailing_comma(self):
        # A completion list of plain numbers must stay separable.
        assert tokenize("1994, 1995, 1996") == [
            "1994", ",", "1995", ",", "1996",
        ]

    def test_decimal_number(self):
        assert tokenize("0.5 acres") == ["0.5", "acres"]

    def test_dotted_abbreviation(self):
        assert tokenize("J.K. Rowling wrote it") == ["J.K.", "Rowling", "wrote", "it"]

    def test_abbreviation_before_capital(self):
        assert tokenize("St. Louis is a city")[:2] == ["St.", "Louis"]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (DESIGN.md §9): the short-abbreviation rule also "
        "fires on a 2-3 letter word ending a sentence, so 'day.' is one "
        "token and phrase hit counts miss the page; a fix re-seals every "
        "golden"))
    def test_sentence_final_short_word_splits_off_its_period(self):
        assert tokenize("Open every day. Welcome") == [
            "Open", "every", "day", ".", "Welcome",
        ]

    def test_hyphenated_word(self):
        assert "one-way" in tokenize("a one-way ticket")

    def test_apostrophe_word(self):
        assert "O'Reilly" in tokenize("O'Reilly Media")

    def test_empty_string(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("!?.") == ["!", "?", "."]

    @given(st.text(max_size=200))
    def test_never_raises(self, text):
        tokenize(text)

    @given(st.text(alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"),
        min_size=1, max_size=20))
    def test_single_word_roundtrip(self, word):
        # The tokenizer targets the ASCII text of the synthetic Web.
        assert tokenize(word) == [word]


class TestWords:
    def test_drops_punctuation(self):
        assert words("From: city, please!") == ["From", "city", "please"]

    def test_keeps_numbers_and_money(self):
        assert words("$5,000 for 2 cars") == ["$5,000", "for", "2", "cars"]

    @given(st.text(max_size=200))
    def test_words_subset_of_tokens(self, text):
        toks = tokenize(text)
        for w in words(text):
            assert w in toks


class TestSentences:
    def test_splits_on_terminal_punctuation(self):
        parts = sentences("Fly cheap. Airlines such as Delta serve Boston.")
        assert parts == ["Fly cheap.", "Airlines such as Delta serve Boston."]

    def test_does_not_split_before_lowercase(self):
        # guards against splitting abbreviations mid-sentence
        parts = sentences("approx. five results")
        assert len(parts) == 1

    def test_single_sentence(self):
        assert sentences("One sentence only") == ["One sentence only"]

    def test_empty(self):
        assert sentences("   ") == []


class TestNormalize:
    def test_lowercases_and_collapses(self):
        assert normalize("  Departure   CITY ") == "departure city"

    def test_idempotent(self):
        text = "some mixed Case   text"
        assert normalize(normalize(text)) == normalize(text)

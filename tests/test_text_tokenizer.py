"""Tests for repro.text.tokenizer."""

import re
import string

import pytest
from hypothesis import given, strategies as st

from repro.datasets import corpus
from repro.datasets.concepts import DOMAINS
from repro.text.tokenizer import (
    _TOKEN_RE,
    normalize,
    sentences,
    tokenize,
    words,
)

#: the flat alternation the first-character groups of ``_TOKEN_RE``
#: replaced, verbatim: the oracle of which rule matches first
FLAT_TOKEN_RE = re.compile(
    r"""
    \$?\d{1,3}(?:,\d{3})+(?:\.\d+)?   # grouped numbers: $15,200 / 1,200.50
  | \$\d+(?:\.\d+)?           # plain monetary values: $9.99
  | \d+(?:st|nd|rd|th)\b      # ordinals: 1st, 2nd, 15th
  | \d+(?:\.\d+)?             # plain numbers: 1994 or 3.5
  | (?:[A-Za-z]\.){2,}        # dotted abbreviations: J.K., U.S.
  | [A-Za-z]{2,3}\.(?=\s+[A-Z0-9])  # short abbreviations: "St." before a capital
  | [A-Za-z](?:[A-Za-z'\-]*[A-Za-z])?   # words, incl. hyphenated/apostrophes
  | [^\sA-Za-z0-9]            # any single punctuation mark
    """,
    re.VERBOSE,
)

#: letters, digits, the punctuation the rules name, non-ASCII letters and
#: digits ("\u0663" is a decimal digit to ``\d``, "\u00b2" is not) and
#: whitespace, including a no-break space
ALPHABET = (string.ascii_letters + string.digits + "$.,'-:;!?\""
            + "\u00e9\u00df\u0663\u00b2\u20ac" + " \t\n\u00a0")
#: fragments that reach deep into the number and abbreviation rules
FRAGMENTS = ("St.", " Louis", "J.K.", "U.S.", "1,200", ",500", ".50",
             "$", "$9", "3rd", "1st", "th", "one-way", "O'Reilly", " ",
             "day. ", "\u0663,\u0663\u0663\u0663", "x-", "'")


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


class TestGroupedPattern:
    """``_TOKEN_RE`` splits every text as the flat alternation did."""

    @given(st.text(alphabet=st.sampled_from(ALPHABET), max_size=80))
    def test_matches_flat_pattern_on_characters(self, text):
        assert _TOKEN_RE.findall(text) == FLAT_TOKEN_RE.findall(text)

    @given(st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                              st.sampled_from(ALPHABET)), max_size=30))
    def test_matches_flat_pattern_on_fragments(self, parts):
        text = "".join(parts)
        assert _TOKEN_RE.findall(text) == FLAT_TOKEN_RE.findall(text)

    def test_matches_flat_pattern_on_every_page(self, monkeypatch):
        texts = []
        document = corpus.Document

        def recording(doc_id, url, title, text):
            texts.append(text)
            return document(doc_id, url, title, text)

        monkeypatch.setattr(corpus, "Document", recording)
        for seed in (1, 2, 3):
            for domain in DOMAINS:
                corpus.build_corpus(domain, seed)
        assert len(texts) == 6156
        for text in texts:
            assert _TOKEN_RE.findall(text) == FLAT_TOKEN_RE.findall(text)


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

"""Tests for repro.text.postag: the Brill-style tagger."""

import pytest
from hypothesis import given, strategies as st

from repro.text.postag import (
    BrillTagger,
    ContextRule,
    TaggedToken,
    default_tagger,
)


@pytest.fixture(scope="module")
def tagger():
    return default_tagger()


def tags_of(tagger, text):
    return [t.tag for t in tagger.tag(text)]


class TestInitialState:
    def test_common_noun(self, tagger):
        assert tags_of(tagger, "city") == ["NN"]

    def test_preposition(self, tagger):
        assert tags_of(tagger, "from city") == ["IN", "NN"]

    def test_determiner_noun(self, tagger):
        assert tags_of(tagger, "the author") == ["DT", "NN"]

    def test_number(self, tagger):
        assert tags_of(tagger, "1994") == ["CD"]

    def test_monetary(self, tagger):
        assert tags_of(tagger, "$5,000") == ["CD"]

    def test_ordinal(self, tagger):
        assert tags_of(tagger, "2nd") == ["JJ"]

    def test_punctuation(self, tagger):
        assert tags_of(tagger, "city, state") == ["NN", "PUNCT", "NN"]

    def test_capitalised_mid_sentence_is_proper(self, tagger):
        tags = tags_of(tagger, "flights to Boston")
        assert tags[-1] == "NNP"

    def test_unknown_suffix_tion(self, tagger):
        assert tags_of(tagger, "the cancellation")[-1] == "NN"

    def test_unknown_suffix_ing(self, tagger):
        assert tags_of(tagger, "booking")[0] in ("VBG", "NN")

    def test_plural_guess(self, tagger):
        assert tags_of(tagger, "the gizmos")[-1] == "NNS"


class TestContextRules:
    def test_to_plus_noun_keeps_noun(self, tagger):
        # "To city" is a prepositional label, not an infinitive.
        assert tags_of(tagger, "To city") == ["TO", "NN"]

    def test_to_verb_before_determiner(self, tagger):
        # "to book a flight": "book" acts as a verb here.
        tags = tags_of(tagger, "to book a flight")
        assert tags[1] == "VB"

    def test_verb_after_determiner_becomes_noun(self, tagger):
        # "the search" — lexicon says VB, context demands NN.
        assert tags_of(tagger, "the search") == ["DT", "NN"]

    def test_participle_before_noun_is_adjectival(self, tagger):
        tags = tags_of(tagger, "used car")
        assert tags[0] == "JJ"

    def test_gerund_before_noun_is_modifier(self, tagger):
        tags = tags_of(tagger, "booking fee")
        assert tags[0] == "JJ"


class TestInterfaceLabels:
    """The tagger's actual job: 1-6 word interface labels."""

    @pytest.mark.parametrize("label,expected", [
        ("Departure city", ["NN", "NN"]),
        ("From", ["IN"]),
        ("Airline", ["NN"]),
        ("Class of service", ["NN", "IN", "NN"]),
        ("Number of passengers", ["NN", "IN", "NNS"]),
        ("Depart from", ["VB", "IN"]),
        ("Zip code", ["NN", "NN"]),
        ("Square feet", ["JJ", "NNS"]),
    ])
    def test_label_tagging(self, tagger, label, expected):
        assert tags_of(tagger, label) == expected


class TestCustomisation:
    def test_add_lexicon_entries(self):
        custom = BrillTagger()
        custom.add_lexicon_entries({"foobar": "JJ"})
        assert [t.tag for t in custom.tag("foobar")] == ["JJ"]

    def test_pretokenised_input(self, tagger):
        tagged = tagger.tag(["from", "city"])
        assert [t.tag for t in tagged] == ["IN", "NN"]

    def test_tagged_token_unpacking(self, tagger):
        word, tag = tagger.tag("city")[0]
        assert (word, tag) == ("city", "NN")

    def test_empty_input(self, tagger):
        assert tagger.tag("") == []


#: lexicon words that trigger every default rule ("to", determiners,
#: participles, gerunds, nouns, verbs), capitalised unknown words,
#: numbers and punctuation
RULE_TOKENS = (
    "to", "the", "a", "my", "search", "book", "city", "cities", "enter",
    "used", "published", "departing", "flying", "is", "have",
    "Boston", "Zyxo", "Delta", "Air", "42", "$5", "3rd", ",", ".", ":",
)


def unskipped_tags(tagger, tokens):
    """The contextual pass without the rule skip: every rule scans every
    position, starting from the tagger's own initial state."""
    tags = [t.tag for t in BrillTagger(tagger.lexicon, rules=()).tag(tokens)]
    for rule in tagger.rules:
        for i, tag in enumerate(tags):
            if tag == rule.from_tag and rule.condition(tags, tokens, i):
                tags[i] = rule.to_tag
    return tags


class TestRuleSkip:
    """Skipping a rule whose ``from_tag`` is absent changes no tag."""

    @given(st.lists(st.sampled_from(RULE_TOKENS), max_size=10))
    def test_matches_unskipped_rule_loop(self, tokens):
        tagger = default_tagger()
        assert [t.tag for t in tagger.tag(tokens)] == \
            unskipped_tags(tagger, tokens)

    def test_tag_created_by_earlier_rule_is_rewritten(self):
        # "B" is absent from the initial tags: only a per-rule check lets
        # the second rule see what the first one created
        always = lambda tags, words, i: True
        tagger = BrillTagger(
            lexicon={"x": "A"},
            rules=(ContextRule("A", "B", always, "A->B"),
                   ContextRule("B", "C", always, "B->C")),
        )
        assert [t.tag for t in tagger.tag(["x", "x"])] == ["C", "C"]

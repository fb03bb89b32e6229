"""Tests for repro.matching.similarity: LabelSim / DomSim / Sim."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.matching.clustering import views_from_interfaces
from repro.matching.similarity import (
    AttributeView,
    SimilarityConfig,
    attribute_similarity,
    domain_similarity,
    label_cosine,
    label_similarity,
    label_vector,
    normalize_label_words,
    similarity_components,
    value_similarity,
    values_similar,
)
from repro.matching.types import DomainType
from repro.util import counters as work


class TestNormalizeLabelWords:
    def test_lowercase_and_singularize(self):
        assert normalize_label_words("Departure Cities") == ["departure", "city"]

    def test_prepositions_kept(self):
        # "from" and "to" carry the meaning of airfare labels
        assert normalize_label_words("From") == ["from"]
        assert "of" in normalize_label_words("Class of service")

    def test_pure_function_words_dropped(self):
        assert normalize_label_words("Please enter the city") == ["city"]


class TestLabelSimilarity:
    def test_identical(self):
        assert label_similarity("Airline", "airline") == pytest.approx(1.0)

    def test_disjoint(self):
        # the paper's hard case: no common word at all
        assert label_similarity("Airline", "Carrier") == 0.0

    def test_partial_overlap(self):
        # cos( {from, city}, {departure, city} ) = 1/2
        assert label_similarity("From city", "Departure city") == pytest.approx(0.5)

    def test_plural_matches_singular(self):
        assert label_similarity("Keyword", "Keywords") == pytest.approx(1.0)

    def test_empty_label(self):
        assert label_similarity("", "city") == 0.0

    @given(st.sampled_from(["From", "Departure city", "Airline", "Make",
                            "Price range", "Number of passengers"]),
           st.sampled_from(["To", "Carrier", "Model", "Zip code",
                            "Departure date", "Class of service"]))
    def test_symmetric_and_bounded(self, a, b):
        assert label_similarity(a, b) == pytest.approx(label_similarity(b, a))
        assert 0.0 <= label_similarity(a, b) <= 1.0


class TestValuesSimilar:
    def test_case_insensitive_equality(self):
        assert values_similar("Air Canada", "air canada")

    def test_word_jaccard(self):
        assert values_similar("United Airlines", "United")
        assert not values_similar("Delta Air Lines", "Aer Lingus")

    def test_empty(self):
        assert not values_similar("", "x")


class TestValueSimilarity:
    def test_containment(self):
        a = ["Honda", "Toyota", "Ford"]
        b = ["honda", "toyota", "BMW", "Audi", "Kia", "Volvo"]
        assert value_similarity(a, b) == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert value_similarity(["a"], ["b"]) == 0.0

    def test_empty_sets(self):
        assert value_similarity([], ["a"]) == 0.0
        assert value_similarity(["a"], []) == 0.0

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
           st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6))
    def test_bounded_and_symmetric(self, a, b):
        s = value_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(value_similarity(b, a))


class TestDomainSimilarity:
    def test_no_instances_means_zero(self):
        # the root cause of the paper's problem
        assert domain_similarity([], ["Honda"]) == 0.0
        assert domain_similarity(["Honda"], []) == 0.0

    def test_same_string_type_overlap(self):
        a = ["Honda", "Toyota"]
        b = ["Honda", "Toyota", "Ford"]
        assert domain_similarity(a, b) == pytest.approx(1.0)

    def test_string_vs_numeric_is_zero(self):
        assert domain_similarity(["Honda", "Ford"], ["1994", "1995"]) == 0.0

    def test_numeric_range_overlap(self):
        a = ["1", "10"]
        b = ["5", "15"]
        # overlap [5,10] = 5 over union span [1,15] = 14
        assert domain_similarity(a, b) == pytest.approx(5 / 14)

    def test_numeric_family_discount(self):
        config = SimilarityConfig(numeric_family_factor=0.5)
        prices = ["$5", "$10"]
        numbers = ["5", "10"]
        full = domain_similarity(numbers, numbers, config)
        cross = domain_similarity(prices, numbers, config)
        assert cross == pytest.approx(full * 0.5)

    def test_identical_point_ranges(self):
        assert domain_similarity(["5"], ["5"]) == pytest.approx(1.0)

    def test_disjoint_ranges(self):
        assert domain_similarity(["1", "2"], ["100", "200"]) == 0.0


class TestAttributeSimilarity:
    def make(self, label, instances, iid="i1", name="a"):
        return AttributeView(iid, name, label, tuple(instances))

    def test_weighted_combination(self):
        a = self.make("Airline", ["Air Canada"])
        b = self.make("Airline", ["Air Canada"], iid="i2")
        assert attribute_similarity(a, b) == pytest.approx(0.6 + 0.4)

    def test_label_only_when_no_instances(self):
        a = self.make("From city", [])
        b = self.make("Departure city", [], iid="i2")
        assert attribute_similarity(a, b) == pytest.approx(0.6 * 0.5)

    def test_paper_motivating_failure(self):
        """Without instances, 'Departure city' is as close to 'From city'
        (match) as to 'Departure date' (non-match) — the ambiguity WebIQ
        resolves."""
        b1 = self.make("Departure city", [], iid="i2")
        a1 = self.make("From city", [])
        a2 = self.make("Departure date", [], name="b")
        assert attribute_similarity(b1, a1) == pytest.approx(
            attribute_similarity(b1, a2))

    def test_instances_break_the_tie(self):
        b1 = self.make("Departure city", ["Boston", "Chicago"], iid="i2")
        a1 = self.make("From city", ["Boston", "Chicago"])
        a2 = self.make("Departure date", ["Jan 15", "Feb 1"], name="b")
        assert attribute_similarity(b1, a1) > attribute_similarity(b1, a2)

    def test_custom_weights(self):
        config = SimilarityConfig(alpha=1.0, beta=0.0)
        a = self.make("X", ["v"])
        b = self.make("Y", ["v"], iid="i2")
        assert attribute_similarity(a, b, config) == 0.0


def reference_components(a, b, config=SimilarityConfig()):
    """``similarity_components`` recomputed from the reference functions."""
    label_sim = label_similarity(a.label, b.label)
    dom_sim = domain_similarity(a.instances, b.instances, config)
    return label_sim, dom_sim, config.alpha * label_sim + config.beta * dom_sim


#: views at the edges of every feature: empty and stopword-only labels,
#: no instances, whitespace-only instances, integer vs monetary, and a
#: numeric type none of whose values parse
EDGE_VIEWS = (
    AttributeView("edge", "empty-label", "", ("Boston", "Chicago")),
    AttributeView("edge", "stopwords", "Please enter the", ("Boston",)),
    AttributeView("edge", "no-instances", "Departure city", ()),
    AttributeView("edge", "blank", "  ", ("  ", "")),
    AttributeView("edge", "integer", "Price", ("100", "200", "350")),
    AttributeView("edge", "monetary", "Price", ("$100", "$2,500")),
    AttributeView("edge", "real", "Acres", ("1.5", "2.25", "10")),
    AttributeView("edge", "unparsed", "Mileage", ("1,2", "12,34", "3,4,5")),
    AttributeView("edge", "date", "Departure date", ("Jan 15", "Feb 1")),
    AttributeView("edge", "mixed-case", "Airline", (" Air Canada", "air canada",
                                                    "UNITED")),
)


@pytest.fixture(scope="module")
def book_views():
    """Post-acquisition views of one Figure-6 domain, plus the edge views."""
    dataset = build_domain_dataset("book", n_interfaces=20, seed=1)
    WebIQMatcher(WebIQConfig()).run(dataset)
    return views_from_interfaces(dataset.interfaces) + list(EDGE_VIEWS)


class TestViewFeatures:
    def test_edge_views_exercise_every_branch(self):
        types = {view.name: view.features.domain_type for view in EDGE_VIEWS}
        assert types["no-instances"] is None
        assert types["integer"] is DomainType.INTEGER
        assert types["monetary"] is DomainType.MONETARY
        assert types["unparsed"] is DomainType.INTEGER
        unparsed = next(v for v in EDGE_VIEWS if v.name == "unparsed")
        assert unparsed.features.numeric_range is None
        stop = next(v for v in EDGE_VIEWS if v.name == "stopwords")
        assert stop.features.label_vector == {}

    def test_components_equal_reference_on_a_figure6_domain(self, book_views):
        for a, b in itertools.combinations(book_views, 2):
            assert similarity_components(a, b) == reference_components(a, b)

    def test_components_equal_reference_under_custom_weights(self):
        config = SimilarityConfig(alpha=0.3, beta=0.7,
                                  numeric_family_factor=0.25)
        for a, b in itertools.combinations(EDGE_VIEWS, 2):
            assert (similarity_components(a, b, config)
                    == reference_components(a, b, config))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from(["From", "city", "Cities", "the",
                                  "Departure", "please", "Price", "on",
                                  "to", ""]), max_size=4).map(" ".join),
        st.lists(st.sampled_from(["Boston", " boston", "BOSTON ", "New York",
                                  "York", "", "  ", "100", "1,500", "$20",
                                  "$2,500.50", "3.5", "12,34", "Jan 15",
                                  "5/12/2006"]), max_size=5).map(tuple),
    ), min_size=2, max_size=4))
    def test_components_equal_reference_on_generated_views(self, specs):
        views = [AttributeView("i", f"a{n}", label, instances)
                 for n, (label, instances) in enumerate(specs)]
        for a, b in itertools.permutations(views, 2):
            assert similarity_components(a, b) == reference_components(a, b)

    def test_label_cosine_equals_label_similarity(self, book_views):
        labels = sorted({view.label for view in book_views})
        for a, b in itertools.product(labels, repeat=2):
            assert (label_cosine(*label_vector(a), *label_vector(b))
                    == label_similarity(a, b))

    def test_features_built_once_per_view(self):
        views = [dataclasses.replace(view) for view in EDGE_VIEWS]
        counters = work.WorkCounters()
        with work.collecting(counters):
            for a, b in itertools.combinations(views, 2):
                similarity_components(a, b)
        assert counters.get("similarity.feature_builds") == len(views)

    def test_replace_gets_fresh_features(self):
        view = AttributeView("i", "a", "Price", ("100", "200"))
        assert view.features.domain_type is DomainType.INTEGER
        changed = dataclasses.replace(view, instances=("Boston",))
        assert changed.features.domain_type is DomainType.STRING
        assert changed.features.values == frozenset({"boston"})
        assert view.features.numeric_range == (100.0, 200.0)

    def test_equality_and_hash_ignore_the_cache(self):
        warm = AttributeView("i", "a", "Price", ("100", "200"))
        warm.features
        cold = AttributeView("i", "a", "Price", ("100", "200"))
        assert "features" in vars(warm)
        assert "features" not in vars(cold)
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert {warm: 1}[cold] == 1
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

"""Cross-module property-based tests (hypothesis).

These check invariants that hold across whole subsystems, on generated
inputs: search-engine monotonicity, dataset well-formedness under arbitrary
seeds, label-analysis totality over every label the generators can emit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import build_domain_dataset
from repro.datasets.concepts import DOMAINS, domain_concepts
from repro.datasets.corpus import zipf_sample
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.text.labels import analyze_label
from repro.util.rng import derive_rng

# small word alphabet keeps generated corpora overlapping enough to be
# interesting
_WORDS = st.sampled_from(
    ["make", "honda", "city", "boston", "such", "as", "price", "cheap"])
_DOC_TEXT = st.lists(_WORDS, min_size=1, max_size=12).map(" ".join)


def build_engine(texts):
    return SearchEngine(
        Document(i, f"u{i}", "t", text) for i, text in enumerate(texts)
    )


class TestEngineProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.lists(_DOC_TEXT, min_size=1, max_size=8), _WORDS)
    def test_search_count_matches_num_hits(self, texts, term):
        engine = build_engine(texts)
        hits = engine.num_hits(term)
        results = engine.search(term, max_results=100)
        assert len(results) == hits

    @settings(deadline=None, max_examples=30)
    @given(st.lists(_DOC_TEXT, min_size=1, max_size=8), _WORDS,
           st.integers(1, 5))
    def test_max_results_respected(self, texts, term, cap):
        engine = build_engine(texts)
        assert len(engine.search(term, max_results=cap)) <= cap

    @settings(deadline=None, max_examples=30)
    @given(st.lists(_DOC_TEXT, min_size=1, max_size=6), _DOC_TEXT, _WORDS)
    def test_adding_documents_is_monotone(self, texts, extra, term):
        before = build_engine(texts).num_hits(term)
        after = build_engine(texts + [extra]).num_hits(term)
        assert after >= before

    @settings(deadline=None, max_examples=30)
    @given(st.lists(_DOC_TEXT, min_size=1, max_size=8), _WORDS, _WORDS)
    def test_phrase_hits_bounded_by_term_hits(self, texts, a, b):
        engine = build_engine(texts)
        phrase = engine.num_hits(f'"{a} {b}"')
        assert phrase <= engine.num_hits(a)
        assert phrase <= engine.num_hits(b)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(_DOC_TEXT, min_size=1, max_size=8), _WORDS, _WORDS)
    def test_adjacency_implies_proximity(self, texts, a, b):
        engine = build_engine(texts)
        adjacent = engine.num_hits(f'"{a} {b}"')
        near = engine.num_hits_proximity(a, b, window=3)
        assert adjacent <= near


class TestZipfProperties:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 1000), st.integers(1, 30), st.integers(1, 40))
    def test_sample_is_distinct_subset(self, seed, k, n):
        values = [f"v{i}" for i in range(n)]
        sample = zipf_sample(derive_rng(seed, "t"), values, k)
        assert len(sample) == min(k, n)
        assert len(set(sample)) == len(sample)
        assert set(sample) <= set(values)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 100))
    def test_full_sample_is_permutation(self, seed):
        values = [f"v{i}" for i in range(12)]
        sample = zipf_sample(derive_rng(seed, "t"), values, 12)
        assert sorted(sample) == sorted(values)


class TestLabelAnalysisTotality:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_every_generator_label_analyzable(self, domain):
        for concept in domain_concepts(domain):
            for variant in concept.label_variants:
                analysis = analyze_label(variant.label)
                for np in analysis.noun_phrases:
                    assert np.text.strip()
                    assert np.plural.strip()
                    assert 0 <= np.head_index < len(np.text.split())

    @settings(deadline=None, max_examples=50)
    @given(st.text(
        alphabet=st.sampled_from(
            "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ:*?()"),
        max_size=40))
    def test_analyze_label_never_raises(self, label):
        analysis = analyze_label(label)
        assert analysis.form is not None


class TestDatasetWellFormedness:
    @settings(deadline=None, max_examples=6)
    @given(st.integers(0, 10_000), st.sampled_from(DOMAINS))
    def test_generated_datasets_are_consistent(self, seed, domain):
        dataset = build_domain_dataset(domain, n_interfaces=4, seed=seed)
        # every attribute key unique, every select attr recognised by its
        # own source, ground truth covers exactly the generated attributes
        keys = set()
        for interface in dataset.interfaces:
            source = dataset.sources[interface.interface_id]
            for attr in interface.attributes:
                key = (interface.interface_id, attr.name)
                assert key not in keys
                keys.add(key)
                for value in attr.instances[:2]:
                    assert source.recognizes(attr.name, value)
        assert dataset.ground_truth.n_attributes == len(keys)

"""Tests for repro.datasets.corpus: the synthetic Surface Web."""

import pytest

from repro.datasets.concepts import DOMAINS, domain_spec
from repro.datasets.corpus import (
    CorpusConfig,
    build_corpus,
    concept_phrases,
    zipf_sample,
)
from repro.surfaceweb.engine import SearchEngine
from repro.util.rng import derive_rng


@pytest.fixture(scope="module")
def book_engine():
    return SearchEngine(build_corpus("book", seed=3))


class TestZipfSample:
    def test_distinct_values(self):
        rng = derive_rng(1, "z")
        sample = zipf_sample(rng, [str(i) for i in range(50)], 20)
        assert len(sample) == len(set(sample)) == 20

    def test_k_larger_than_population(self):
        rng = derive_rng(1, "z")
        assert sorted(zipf_sample(rng, ["a", "b"], 5)) == ["a", "b"]

    def test_skews_to_early_ranks(self):
        values = [str(i) for i in range(100)]
        first_picks = [
            zipf_sample(derive_rng(i, "z"), values, 1)[0] for i in range(300)
        ]
        early = sum(1 for v in first_picks if int(v) < 10)
        late = sum(1 for v in first_picks if int(v) >= 90)
        assert early > late * 3

    def test_deterministic_per_rng(self):
        values = [str(i) for i in range(30)]
        a = zipf_sample(derive_rng(2, "s"), values, 10)
        b = zipf_sample(derive_rng(2, "s"), values, 10)
        assert a == b


class TestConceptPhrases:
    def test_phrases_from_np_labels(self):
        concept = domain_spec("airfare").concept("origin_city")
        plurals = {p for p, _ in concept_phrases(concept)}
        assert "cities" in plurals           # from "From city"
        assert "departure cities" in plurals
        assert "origins" in plurals

    def test_no_phrases_from_bare_prepositions(self):
        concept = domain_spec("airfare").concept("origin_city")
        singulars = {s for _, s in concept_phrases(concept)}
        assert "from" not in singulars

    def test_deduplication(self):
        concept = domain_spec("auto").concept("model")
        phrases = concept_phrases(concept)
        assert len(phrases) == len({p for p, _ in phrases})


class TestBuildCorpus:
    def test_deterministic(self):
        a = build_corpus("auto", seed=5)
        b = build_corpus("auto", seed=5)
        assert [d.tokens for d in a] == [d.tokens for d in b]

    def test_doc_ids_sequential_from_start(self):
        docs = build_corpus("auto", seed=5, start_doc_id=100)
        assert docs[0].doc_id == 100
        assert [d.doc_id for d in docs] == list(
            range(100, 100 + len(docs)))

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_all_domains_build(self, domain):
        docs = build_corpus(domain, seed=1)
        assert len(docs) > 100

    def test_pattern_docs_answer_extraction_queries(self, book_engine):
        hits = book_engine.search('"authors such as" +book')
        assert hits
        assert "such as" in hits[0].snippet.lower()

    def test_pattern_docs_carry_domain_keywords(self):
        engine = SearchEngine(build_corpus("airfare", seed=3))
        with_kw = engine.num_hits('"departure cities such as" +airfare +flight')
        without = engine.num_hits('"departure cities such as"')
        assert with_kw == without  # every pattern page mentions the domain

    def test_listing_docs_give_proximity_evidence(self, book_engine):
        # "Author: <name>" lines make the proximity pattern fire
        assert book_engine.num_hits_proximity("author", "mark twain") > 0 or \
            book_engine.num_hits_proximity("author", "jane austen") > 0

    def test_unfindable_concepts_have_no_clean_patterns(self):
        engine = SearchEngine(build_corpus("realestate", seed=3))
        results = engine.search('"mls numbers such as" +real +estate')
        for result in results:
            # only polluted (distractor) completions exist for MLS numbers
            assert "MLS1" not in result.snippet

    def test_distractors_have_high_marginals(self, book_engine):
        assert book_engine.num_hits('"free shipping"') >= 3

    def test_mention_docs_cover_every_value(self):
        config = CorpusConfig(mentions_per_value=1)
        engine = SearchEngine(build_corpus("book", seed=3, config=config))
        from repro.datasets import vocab
        missing = [a for a in vocab.AUTHORS
                   if engine.num_hits(f'"{a.lower()}"') == 0]
        assert not missing

    def test_noise_docs_present(self):
        base = CorpusConfig(n_noise_docs=0)
        with_noise = CorpusConfig(n_noise_docs=50)
        lean = build_corpus("auto", seed=1, config=base)
        full = build_corpus("auto", seed=1, config=with_noise)
        assert len(full) - len(lean) == 50

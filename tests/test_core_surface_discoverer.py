"""Tests for SurfaceDiscoverer: the end-to-end §2 pipeline."""

import pytest

from repro.core.surface import SurfaceConfig, SurfaceDiscoverer
from repro.datasets import build_domain_dataset
from repro.deepweb.models import Attribute


@pytest.fixture(scope="module")
def book_discoverer():
    ds = build_domain_dataset("book", n_interfaces=6, seed=7)
    return ds, SurfaceDiscoverer(ds.engine)


def discover(pair, label, **config):
    ds, _ = pair
    discoverer = SurfaceDiscoverer(ds.engine, SurfaceConfig(**config)) \
        if config else pair[1]
    return discoverer.discover(
        Attribute(name="x", label=label),
        ds.spec.keyword_terms(), ds.spec.object_name,
    )


class TestDiscovery:
    def test_rich_noun_label_succeeds(self, book_discoverer):
        result = discover(book_discoverer, "Author")
        assert len(result.instances) == 10
        from repro.datasets import vocab
        authors = {a.lower() for a in vocab.AUTHORS}
        good = sum(1 for i in result.instances if i.lower() in authors)
        assert good >= 8  # instances are overwhelmingly true authors

    def test_no_noun_phrase_fails_fast(self, book_discoverer):
        result = discover(book_discoverer, "Written by")
        assert result.instances == []
        assert result.queries_used == 0

    def test_unfindable_generic_label(self, book_discoverer):
        result = discover(book_discoverer, "Keywords")
        assert len(result.instances) < 10

    def test_k_limits_instances(self, book_discoverer):
        result = discover(book_discoverer, "Author", k=3)
        assert len(result.instances) == 3

    def test_queries_accounted(self, book_discoverer):
        result = discover(book_discoverer, "Publisher")
        assert result.queries_used > 0

    def test_outliers_reported(self, book_discoverer):
        result = discover(book_discoverer, "Author")
        assert set(result.outliers).isdisjoint(set(result.instances))

    def test_numeric_domain_detection(self, book_discoverer):
        result = discover(book_discoverer, "Price")
        if result.raw_candidates:
            assert result.numeric_domain

    def test_deterministic(self, book_discoverer):
        a = discover(book_discoverer, "Subject")
        b = discover(book_discoverer, "Subject")
        assert a.instances == b.instances

    def test_results_deduplicated(self, book_discoverer):
        result = discover(book_discoverer, "Author")
        lowered = [i.lower() for i in result.instances]
        assert len(lowered) == len(set(lowered))

    def test_candidates_exclude_label_itself(self, book_discoverer):
        result = discover(book_discoverer, "Author")
        assert "author" not in [c.lower() for c in result.raw_candidates]


class TestDomainDifficulty:
    """Per-domain success/failure shapes the Surface component must show."""

    def test_airfare_prepositional_labels_fail(self):
        ds = build_domain_dataset("airfare", n_interfaces=6, seed=7)
        discoverer = SurfaceDiscoverer(ds.engine)
        for label in ("From", "To", "Depart from", "Leaving from"):
            result = discoverer.discover(
                Attribute(name="x", label=label),
                ds.spec.keyword_terms(), ds.spec.object_name)
            assert result.instances == [], label

    def test_airfare_noun_labels_succeed(self):
        ds = build_domain_dataset("airfare", n_interfaces=6, seed=7)
        discoverer = SurfaceDiscoverer(ds.engine)
        result = discoverer.discover(
            Attribute(name="x", label="Departure city"),
            ds.spec.keyword_terms(), ds.spec.object_name)
        assert len(result.instances) == 10

    def test_auto_zip_is_ambiguous(self):
        ds = build_domain_dataset("auto", n_interfaces=6, seed=7)
        discoverer = SurfaceDiscoverer(ds.engine)
        result = discoverer.discover(
            Attribute(name="x", label="Zip"),
            ds.spec.keyword_terms(), ds.spec.object_name)
        assert len(result.instances) < 10


class TestStandaloneKeepsNoMemo:
    def test_repeated_discover_repeats_all_its_tagging(self, book_discoverer):
        # outside an acquisition run each call's Surface memo ends with
        # it: a second identical call tags every snippet again
        from repro.util import counters as work

        counts = []
        for _ in range(2):
            with work.collecting(work.WorkCounters()) as counters:
                discover(book_discoverer, "Author")
            counts.append(counters.as_dict())
        assert counts[0]["tokenizer.calls"] > 0
        for name in ("tokenizer.calls", "surface.memo_hits"):
            assert counts[0].get(name) == counts[1].get(name), name

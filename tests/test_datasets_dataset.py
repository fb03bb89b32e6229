"""Tests for repro.datasets.dataset and .statistics."""

import pytest

from repro.datasets import (
    DOMAINS,
    build_domain_dataset,
    build_world,
    dataset_statistics,
)
from repro.datasets.corpus import CorpusConfig


class TestBuildDomainDataset:
    def test_components_present(self, small_airfare):
        ds = small_airfare
        assert len(ds.interfaces) == 6
        assert ds.engine.n_documents > 50
        assert set(ds.sources) == {i.interface_id for i in ds.interfaces}
        assert ds.ground_truth.n_attributes > 0

    def test_concept_of(self, small_airfare):
        ds = small_airfare
        interface = ds.interfaces[0]
        attr = interface.attributes[0]
        assert ds.concept_of(interface.interface_id, attr.name) == attr.name

    def test_concept_of_unknown_interface(self, small_airfare):
        with pytest.raises(KeyError):
            small_airfare.concept_of("nope", "x")

    def test_clear_acquired(self):
        ds = build_domain_dataset("book", n_interfaces=4, seed=2)
        attr = ds.interfaces[0].attributes[0]
        attr.acquired.append("test-value")
        ds.clear_acquired()
        assert attr.acquired == []

    def test_reset_counters(self):
        ds = build_domain_dataset("book", n_interfaces=4, seed=2)
        ds.engine.num_hits("anything")
        next(iter(ds.sources.values())).probe_count = 5
        ds.reset_counters()
        assert ds.engine.query_count == 0
        assert all(s.probe_count == 0 for s in ds.sources.values())

    def test_determinism(self):
        a = build_domain_dataset("auto", n_interfaces=4, seed=6)
        b = build_domain_dataset("auto", n_interfaces=4, seed=6)
        assert [i.attribute_names for i in a.interfaces] == \
            [i.attribute_names for i in b.interfaces]
        assert a.engine.n_documents == b.engine.n_documents


class TestDomainWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world("book", 2)

    def test_datasets_share_a_given_world(self, world):
        a = build_domain_dataset("book", n_interfaces=4, seed=2, world=world)
        b = build_domain_dataset("book", n_interfaces=2, seed=2, world=world)
        assert a.world is b.world is world
        assert a.engine.index is b.engine.index is world.index
        assert a.engine is not b.engine
        assert (a.domain, a.seed) == ("book", 2)

    @pytest.mark.parametrize("asked", [
        dict(domain="auto", seed=2),
        dict(domain="book", seed=3),
        dict(domain="book", seed=2,
             corpus_config=CorpusConfig(n_noise_docs=10)),
    ], ids=["domain", "seed", "corpus_config"])
    def test_refuses_a_world_of_another_web(self, world, asked):
        with pytest.raises(ValueError, match="cannot serve"):
            build_domain_dataset(n_interfaces=2, world=world, **asked)


class TestStatistics:
    @pytest.fixture(scope="class")
    def full_airfare(self):
        return build_domain_dataset("airfare", seed=1)

    def test_columns_in_range(self, full_airfare):
        stats = dataset_statistics(full_airfare)
        assert 0 < stats.avg_attributes < 20
        assert 0 <= stats.pct_interfaces_no_inst <= 100
        assert 0 <= stats.pct_attrs_no_inst <= 100
        assert 0 <= stats.pct_expected_findable <= 100

    def test_airfare_profile(self, full_airfare):
        stats = dataset_statistics(full_airfare)
        # Table 1 shape: airfare has the most attributes per interface and
        # every no-instance attribute is findable.
        assert stats.avg_attributes > 8
        assert stats.pct_expected_findable == 100.0

    def test_job_has_most_no_instance_attrs(self):
        values = {
            d: dataset_statistics(build_domain_dataset(d, seed=1)).pct_attrs_no_inst
            for d in DOMAINS
        }
        assert max(values, key=values.get) == "job"

    def test_findable_ordering_matches_paper(self):
        values = {
            d: dataset_statistics(
                build_domain_dataset(d, seed=1)).pct_expected_findable
            for d in DOMAINS
        }
        # airfare/auto 100 > book > realestate (paper column 5 ordering,
        # with job between book and realestate)
        assert values["airfare"] == values["auto"] == 100.0
        assert values["book"] > values["realestate"]
        assert values["job"] > values["realestate"]

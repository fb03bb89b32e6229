"""The blocked similarity matrix equals the all-pairs one, exactly.

``IceQMatcher.similarities`` evaluates only the pairs the blocking index
proposes. The oracle here is test-local and independent of the index:
``similarity_components`` over every ``i < j``, nonzero values kept, in
``(i, j)`` order. The blocked dict must equal it as an *ordered* dict,
float reprs included (so a ``-0.0`` cannot hide behind ``== 0.0``), and
with a provenance recorder attached the explanation list must equal the
all-pairs one element for element — a skipped pair is explained with the
very floats an evaluation would have produced.

Inputs: the five Figure-6 domains, hypothesis-perturbed datasets (label
noise, dropped SELECT domains) mixed with edge views (no instances,
stopword-only labels, mixed numeric families), the label-only baseline's
weights (α = 1, β = 0) and their domain-only mirror, and τ = −1, where
``agglomerate`` reads every pair densely. A deliberately lossy index
must make the check fail.

The matrix finishes each proposed pair from the ``(dot, shared)`` counts
the index's probe hands over; a second check holds that finish to the
full evaluation on its own, pair by pair, float reprs included.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import DOMAINS, build_domain_dataset
from repro.datasets.perturb import add_label_noise, drop_select_instances
from repro.matching import clustering
from repro.matching.blocking import BlockingIndex
from repro.matching.clustering import (
    IceQMatcher,
    agglomerate,
    views_from_interfaces,
)
from repro.matching.similarity import (
    AttributeView,
    SimilarityConfig,
    similarity_components,
)
from repro.obs.provenance import MatchExplanation, ProvenanceRecorder
from tests.test_registry_blocking import _LossyIndex

CONFIGS = (
    SimilarityConfig(),
    SimilarityConfig(alpha=1.0, beta=0.0),
    SimilarityConfig(alpha=0.0, beta=1.0),
)


def dense_components(views, config):
    """``(i, j, components)`` for every pair, in ``(i, j)`` order."""
    return [
        (i, j, similarity_components(views[i], views[j], config))
        for i in range(len(views))
        for j in range(i + 1, len(views))
    ]


def dense_similarities(views, config):
    return {
        (i, j): components[2]
        for i, j, components in dense_components(views, config)
        if components[2] != 0.0
    }


def dense_explanations(views, config, threshold):
    return [
        MatchExplanation(
            a=views[i].key, b=views[j].key,
            label_sim=label_sim, dom_sim=dom_sim,
            alpha=config.alpha, beta=config.beta,
            sim=value, threshold=threshold,
        )
        for i, j, (label_sim, dom_sim, value) in dense_components(
            views, config)
    ]


def assert_blocked_equals_dense(views, config=SimilarityConfig(),
                                threshold=0.0):
    blocked = IceQMatcher(config).similarities(views, threshold)
    dense = dense_similarities(views, config)
    assert list(blocked) == list(dense)
    assert list(map(repr, blocked.values())) == list(map(repr, dense.values()))

    recorder = ProvenanceRecorder(capacity=10 ** 6)
    IceQMatcher(config, provenance=recorder).similarities(views, threshold)
    explanations = recorder.explanations
    expected = dense_explanations(views, config, threshold)
    assert explanations == expected
    assert list(map(repr, explanations)) == list(map(repr, expected))


def assert_dense_branch_clusters(views, config=SimilarityConfig()):
    """τ = −1: ``agglomerate`` materialises every pair, zeros included."""
    result = IceQMatcher(config).match_views(views, -1.0)
    members, _ = agglomerate(views, dense_similarities(views, config), -1.0)
    assert [cluster.keys for cluster in result.clusters] == [
        [views[idx].key for idx in indices] for indices in members]
    assert result.similarity_evaluations == len(views) * (len(views) - 1) // 2


#: labels the similarity reads as empty, and ones sharing a single token
EDGE_LABELS = ("Please select", "the", "Enter your", "", "Price",
               "Price range", "Select a city", "City", "Date")
#: instance sets across every inferred type, plus none and blanks
EDGE_INSTANCES = (
    (),
    ("3", "7", "12"),
    ("$10", "$25"),
    ("2.5", "4.75"),
    ("1,200", "$3,400"),
    ("Jan 15", "12/25/2006"),
    ("Boston", " boston ", "Chicago"),
    ("Chicago", "Denver"),
    ("  ", ""),
    ("7",),
    # one literal under two types: DATE here, STRING below
    ("12/25", "1/1"),
    ("12/25", "Boston", "Chicago"),
)

edge_views = st.lists(
    st.builds(
        lambda iface, name, label, instances: AttributeView(
            f"edge{iface}", f"e{name}", label, instances),
        st.integers(0, 2), st.integers(0, 10 ** 6),
        st.sampled_from(EDGE_LABELS), st.sampled_from(EDGE_INSTANCES),
    ),
    max_size=8,
    unique_by=lambda view: view.key,
)


class TestBlockedMatrixEqualsDense:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_figure6_domains(self, domain):
        views = views_from_interfaces(
            build_domain_dataset(domain, 6, 1).interfaces)
        for threshold in (0.0, 0.1, -1.0):
            assert_blocked_equals_dense(views, threshold=threshold)
        assert_dense_branch_clusters(views)

    @pytest.mark.parametrize("config", CONFIGS[1:],
                             ids=["label-only", "domain-only"])
    def test_other_weightings(self, config):
        views = views_from_interfaces(
            build_domain_dataset("airfare", 6, 1).interfaces)
        assert_blocked_equals_dense(views, config)
        assert_dense_branch_clusters(views, config)

    @settings(deadline=None, max_examples=15)
    @given(
        domain=st.sampled_from(DOMAINS),
        seed=st.integers(0, 10 ** 6),
        label_rate=st.floats(0.0, 0.6),
        drop_rate=st.floats(0.0, 1.0),
        extra=edge_views,
        config=st.sampled_from(CONFIGS),
        threshold=st.sampled_from((0.0, 0.1, -1.0)),
    )
    def test_perturbed_views(self, domain, seed, label_rate, drop_rate,
                             extra, config, threshold):
        dataset = build_domain_dataset(domain, 4, seed % 17)
        add_label_noise(dataset, rate=label_rate, seed=seed)
        drop_select_instances(dataset, rate=drop_rate, seed=seed)
        views = views_from_interfaces(dataset.interfaces) + extra
        assert_blocked_equals_dense(views, config, threshold)
        assert_dense_branch_clusters(views, config)

    def test_edge_views_alone(self):
        views = [
            AttributeView(f"i{k % 3}", f"a{k}", label, instances)
            for k, (label, instances) in enumerate(
                itertools.product(EDGE_LABELS, EDGE_INSTANCES))
        ]
        assert_blocked_equals_dense(views)
        assert_blocked_equals_dense(views, threshold=-1.0)

    def test_no_views_and_one_view(self):
        assert IceQMatcher().similarities([]) == {}
        one = [AttributeView("i1", "a", "City", ("Boston",))]
        assert_blocked_equals_dense(one)


def probed_pairs(views):
    """``(i, j, (dot, shared))`` for every pair the index proposes, views
    joining one at a time as in ``IceQMatcher.similarities``."""
    index = BlockingIndex()
    pairs = []
    for j, view in enumerate(views):
        for i, dot, shared in index.probe(view.features):
            pairs.append((i, j, (dot, shared)))
        index.add(view.features)
    return pairs


def assert_overlap_is_exact(views, config=SimilarityConfig()):
    """Every proposed pair finished from the probe's counts equals the
    full evaluation, float reprs included."""
    for i, j, overlap in probed_pairs(views):
        a, b = views[i], views[j]
        assert repr(similarity_components(a, b, config, overlap=overlap)) \
            == repr(similarity_components(a, b, config)), (a, b, overlap)


class TestProbeOverlapIsExact:
    """``similarity_components(..., overlap=)`` with the probe's
    ``(dot, shared)`` reproduces the full evaluation bit for bit."""

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_registry_stream_domains(self, domain):
        views = views_from_interfaces(
            build_domain_dataset(domain, 24, 1).interfaces)
        assert_overlap_is_exact(views)

    @settings(deadline=None, max_examples=25)
    @given(
        domain=st.sampled_from(DOMAINS),
        seed=st.integers(0, 10 ** 6),
        label_rate=st.floats(0.0, 0.6),
        drop_rate=st.floats(0.0, 1.0),
        extra=edge_views,
        config=st.sampled_from(CONFIGS),
    )
    def test_perturbed_views(self, domain, seed, label_rate, drop_rate,
                             extra, config):
        dataset = build_domain_dataset(domain, 4, seed % 17)
        add_label_noise(dataset, rate=label_rate, seed=seed)
        drop_select_instances(dataset, rate=drop_rate, seed=seed)
        views = extra + views_from_interfaces(dataset.interfaces) + extra
        assert_overlap_is_exact(views, config)

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=["default", "label-only", "domain-only"])
    def test_edge_views_alone(self, config):
        views = [
            AttributeView(f"i{k % 3}", f"a{k}", label, instances)
            for k, (label, instances) in enumerate(
                itertools.product(EDGE_LABELS, EDGE_INSTANCES))
        ]
        assert_overlap_is_exact(views, config)


def test_a_lossy_index_fails_the_check(monkeypatch):
    """The check has teeth: batch IceQ built on the soundness suite's
    lossy index, which drops value-only and numeric-only candidates, no
    longer equals the dense matrix."""
    views = views_from_interfaces(
        build_domain_dataset("airfare", 6, 1).interfaces)
    monkeypatch.setattr(clustering, "BlockingIndex", _LossyIndex)
    with pytest.raises(AssertionError):
        assert_blocked_equals_dense(views)

"""Blocking soundness: the index may over-generate, never under-generate.

The recall-1.0 oracle: for ANY pair of cross-interface attributes whose
full similarity is positive, the blocking stage must propose the pair —
at every clustering threshold on the Figure-6 grid, the clusters produced
from the blocked (sparse) similarity matrix must equal full O(n²)
evaluation's, computed here with ``attribute_similarity`` over every
pair. Seeded label/domain perturbations (``datasets/perturb``)
push the vocabulary off the happy path: decorated labels ("City:*"),
typos, stripped SELECT domains, shuffled attribute order.

On failure the suite does not just dump the assertion: a structural
shrinker peels interfaces and attributes off the dataset while the
violation persists and reports the minimal counterexample (typically one
pair of views), which is the difference between "recall < 1 somewhere in
218 views" and a fixable bug report. The shrinker itself is tested
against a deliberately broken blocking rule.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import build_domain_dataset
from repro.datasets.perturb import (
    add_label_noise,
    drop_select_instances,
    shuffle_attribute_order,
)
from repro.matching.blocking import BlockingIndex
from repro.matching.clustering import agglomerate, views_from_interfaces
from repro.matching.similarity import AttributeView, attribute_similarity

#: the Figure-6 threshold grid (repro.matching.threshold's default)
TAU_GRID = tuple(i / 20 for i in range(11))


def blocked_pairs(views, index_cls=BlockingIndex):
    """Candidate cross-interface pairs, produced the way assimilation
    produces them: index the views one interface at a time (id order) and
    query each arriving view against everything registered so far."""
    by_interface = {}
    for view in views:
        by_interface.setdefault(view.interface_id, []).append(view)
    index = index_cls()
    registered = []
    candidates = set()
    for interface_id in sorted(by_interface):
        arriving = by_interface[interface_id]
        for view in arriving:
            for view_id, _, _ in index.probe(view.features):
                candidates.add(frozenset((registered[view_id].key, view.key)))
        for view in arriving:
            index.add(view.features)
            registered.append(view)
    return candidates


def soundness_violations(views, candidates):
    """Cross-interface pairs with positive similarity the blocking missed."""
    violations = []
    for a, b in itertools.combinations(views, 2):
        if a.interface_id == b.interface_id:
            continue
        if attribute_similarity(a, b) > 0 and (
                frozenset((a.key, b.key)) not in candidates):
            violations.append((a, b))
    return violations


def shrink_views(views, fails):
    """Greedy structural shrinker: drop views while ``fails`` holds.

    ``fails(subset)`` must be True for the starting set; the result is a
    minimal subset (removing any single view makes the failure vanish).
    """
    current = list(views)
    assert fails(current), "shrinker needs a failing starting point"
    progress = True
    while progress:
        progress = False
        for view in list(current):
            trial = [v for v in current if v is not view]
            if trial and fails(trial):
                current = trial
                progress = True
    return current


def counterexample_report(views):
    lines = ["blocking dropped a positive-similarity pair; minimal "
             "counterexample:"]
    for view in views:
        features = view.features
        lines.append(
            f"  {view.interface_id}.{view.name} label={view.label!r} "
            f"tokens={sorted(features.label_vector)} "
            f"values={sorted(features.values)[:5]}")
    for a, b in itertools.combinations(views, 2):
        sim = attribute_similarity(a, b)
        if sim > 0 and a.interface_id != b.interface_id:
            lines.append(f"  missed pair {a.key} ~ {b.key}: Sim={sim:.4f}")
    return "\n".join(lines)


def assert_blocking_sound(views):
    candidates = blocked_pairs(views)
    violations = soundness_violations(views, candidates)
    if violations:
        def fails(subset):
            return bool(soundness_violations(
                subset, blocked_pairs(subset)))
        minimal = shrink_views(views, fails)
        pytest.fail(counterexample_report(minimal))


class TestPerturbedSoundness:
    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(0, 10 ** 6),
        label_rate=st.floats(0.0, 0.6),
        drop_rate=st.floats(0.0, 0.8),
    )
    def test_recall_is_one_under_perturbation(self, seed, label_rate,
                                              drop_rate):
        dataset = build_domain_dataset("book", 5, seed % 17)
        add_label_noise(dataset, rate=label_rate, seed=seed)
        drop_select_instances(dataset, rate=drop_rate, seed=seed)
        shuffle_attribute_order(dataset, seed=seed)
        assert_blocking_sound(views_from_interfaces(dataset.interfaces))

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(0, 10 ** 6))
    def test_blocked_matrix_clusters_equal_full_matrix_on_tau_grid(
            self, seed):
        """The cluster-level oracle: at every Figure-6 τ, clustering the
        sparse (blocked) matrix equals clustering the dense one. The dense
        side evaluates every pair here with ``attribute_similarity``:
        batch IceQ blocks through the same index, so it cannot be the
        oracle."""
        dataset = build_domain_dataset("job", 4, seed % 13)
        add_label_noise(dataset, rate=0.3, seed=seed)
        drop_select_instances(dataset, rate=0.4, seed=seed)
        views = views_from_interfaces(dataset.interfaces)
        candidates = blocked_pairs(views)

        sparse_sim = {
            (i, j): attribute_similarity(a, b)
            for i, a in enumerate(views)
            for j, b in enumerate(views)
            if i < j and a.interface_id != b.interface_id
            and frozenset((a.key, b.key)) in candidates
        }

        dense_sim = {
            (i, j): attribute_similarity(a, b)
            for i, a in enumerate(views)
            for j, b in enumerate(views)
            if i < j
        }

        for tau in TAU_GRID:
            dense = [
                sorted(views[idx].key for idx in indices)
                for indices in agglomerate(views, dense_sim, tau)[0]
            ]
            sparse = [
                sorted(views[idx].key for idx in indices)
                for indices in agglomerate(views, sparse_sim, tau)[0]
            ]
            assert sparse == dense, f"diverged at tau={tau}"

    @pytest.mark.parametrize("domain", ["airfare", "auto", "book", "job",
                                        "realestate"])
    def test_recall_is_one_on_pristine_domains(self, domain):
        dataset = build_domain_dataset(domain, 6, 1)
        assert_blocking_sound(views_from_interfaces(dataset.interfaces))


class TestBlockingUnit:
    def test_shared_token_is_a_candidate(self):
        index = BlockingIndex()
        index.add(AttributeView("i1", "a", "Departure city", ()).features)
        probe = AttributeView("i2", "b", "Arrival city", ())
        # one shared token, counted once on each side
        assert index.probe(probe.features) == [(0, 1, 0)]

    def test_shared_value_signature_is_a_candidate(self):
        index = BlockingIndex()
        index.add(AttributeView("i1", "a", "Carrier",
                                ("Delta", "United")).features)
        probe = AttributeView("i2", "b", "Airline", ("  united  ", "JetBlue"))
        assert index.probe(probe.features) == [(0, 0, 1)]

    def test_numeric_family_shares_one_bucket(self):
        index = BlockingIndex()
        index.add(AttributeView("i1", "a", "Price", ("$10", "$25")).features)
        probe = AttributeView("i2", "b", "Amount", ("3", "7"))
        # no shared token, no shared literal value — but both numeric:
        # range overlap could still be positive, so they must meet
        assert index.probe(probe.features) == [(0, 0, 0)]

    def test_numeric_values_are_not_counted(self):
        """Numeric pairs compare by range, so their values are never
        value-posted: equal literals leave ``shared`` at 0."""
        index = BlockingIndex()
        index.add(AttributeView("i1", "a", "Year", ("1999", "2004")).features)
        probe = AttributeView("i2", "b", "Model year", ("1999", "2001"))
        assert index.probe(probe.features) == [(0, 1, 0)]

    def test_unrelated_pair_is_blocked_and_has_zero_sim(self):
        a = AttributeView("i1", "a", "Airline", ("Delta",))
        b = AttributeView("i2", "b", "Carrier", ("Lufthansa",))
        index = BlockingIndex()
        index.add(a.features)
        assert index.probe(b.features) == []
        assert attribute_similarity(a, b) == 0.0

    def test_type_mismatch_without_tokens_is_blocked(self):
        a = AttributeView("i1", "a", "Code", ("XY12", "AB34"))
        b = AttributeView("i2", "b", "Count", ("3", "7"))
        index = BlockingIndex()
        index.add(a.features)
        assert index.probe(b.features) == []
        assert attribute_similarity(a, b) == 0.0

    def test_same_literal_under_two_types_is_blocked(self):
        a = AttributeView("i1", "a", "When", ("12/25", "1/1"))
        b = AttributeView("i2", "b", "Where", ("12/25", "Boston", "Chicago"))
        assert a.features.domain_type is not b.features.domain_type
        index = BlockingIndex()
        index.add(a.features)
        assert index.probe(b.features) == []
        assert attribute_similarity(a, b) == 0.0

    def test_index_reads_the_view_features(self):
        """The index holds the facts ``similarity_components`` compares:
        the label word counts, and the normalised values under the
        inferred type, read off the view's cached features."""
        view = AttributeView("i1", "a", "The Departure Cities",
                             (" Boston ", "CHICAGO", "boston"))
        index = BlockingIndex()
        assert index.add(view.features) == 0
        assert view.features.label_vector == {"departure": 1, "city": 1}
        probe = AttributeView("i2", "b", "City of departure city",
                              ("BOSTON", "Denver"))
        # dot: city 1·2 + departure 1·1; shared: "boston"
        assert index.probe(probe.features) == [(0, 3, 1)]
        # no instances, no type: only the label postings can propose
        bare = AttributeView("i3", "c", "x", ())
        assert bare.features.domain_type is None
        assert index.probe(bare.features) == []

    def test_candidates_ascend_and_counts_accumulate(self):
        index = BlockingIndex()
        for k, (label, instances) in enumerate([
                ("City", ("Boston",)),
                ("Zip", ("02139",)),
                ("City city", ("Boston", "Denver")),
                ("Departure", ("Denver", "Boston", "Austin"))]):
            assert index.add(
                AttributeView("i1", f"a{k}", label, instances).features) == k
        probe = AttributeView("i2", "b", "City", ("boston", "denver"))
        assert index.probe(probe.features) == [
            (0, 1, 1), (2, 2, 2), (3, 0, 2)]


class _LossyIndex(BlockingIndex):
    """A deliberately broken blocking rule: drops every candidate that
    was proposed on value or numeric evidence alone (a zero label dot
    product means no shared token)."""

    def probe(self, features):
        return [
            (vid, dot, shared) for vid, dot, shared in super().probe(features)
            if dot
        ]


class TestShrinker:
    def test_shrinker_reports_a_minimal_counterexample(self):
        """Feed the shrinker a blocking rule that drops value-signature
        candidates; it must reduce a whole-dataset failure to the two
        views that exhibit it."""
        dataset = build_domain_dataset("airfare", 6, 1)
        views = views_from_interfaces(dataset.interfaces)

        def lossy_candidates(subset):
            return blocked_pairs(subset, index_cls=_LossyIndex)

        def fails(subset):
            return bool(soundness_violations(
                subset, lossy_candidates(subset)))

        assert fails(views), (
            "the lossy index should miss at least one value-only match")
        minimal = shrink_views(views, fails)
        assert len(minimal) == 2
        a, b = minimal
        assert a.interface_id != b.interface_id
        assert attribute_similarity(a, b) > 0
        # token overlap is absent — the dropped evidence was the values
        assert not (a.features.label_vector.keys()
                    & b.features.label_vector.keys())
        report = counterexample_report(minimal)
        assert "missed pair" in report

    def test_shrinker_requires_a_failing_start(self):
        views = views_from_interfaces(
            build_domain_dataset("book", 2, 1).interfaces)
        with pytest.raises(AssertionError):
            shrink_views(views, lambda subset: False)

"""Tests for repro.matching.clustering: the constrained IceQ matcher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.deepweb.models import Attribute, AttributeKind, QueryInterface
from repro.matching.clustering import (
    IceQMatcher,
    agglomerate,
    views_from_interfaces,
)
from repro.matching.similarity import AttributeView
from repro.obs.provenance import MergeStep


def view(iid, name, label, instances=()):
    return AttributeView(iid, name, label, tuple(instances))


def _cross_interface_sims(views, similarity):
    """Sparse sims for every cross-interface pair, as the registry's
    assimilator supplies them (same-interface pairs never evaluated)."""
    return {
        (i, j): similarity(a, b)
        for i, a in enumerate(views)
        for j, b in enumerate(views)
        if i < j and a.interface_id != b.interface_id
    }


def _dense_scan_agglomerate(views, sims, threshold, linkage="average"):
    """Reference oracle: the original dense merge loop, which rescans
    every active pair of a full n×n linkage matrix before each merge.
    ``agglomerate`` must reproduce its clusters and merge steps exactly."""
    n = len(views)
    members = {i: [i] for i in range(n)}
    ifaces = {i: {views[i].interface_id} for i in range(n)}
    avg = {
        i: {j: sims.get((min(i, j), max(i, j)), 0.0)
            for j in range(n) if j != i}
        for i in range(n)
    }
    active = set(range(n))
    steps = []
    while len(active) > 1:
        best_pair = None
        best_value = threshold
        for i in sorted(active):
            for j in sorted(avg[i]):
                if j <= i or j not in active:
                    continue
                value = avg[i][j]
                better = value > best_value or (
                    value == best_value
                    and best_pair is not None
                    and (i, j) < best_pair
                )
                if better and not (ifaces[i] & ifaces[j]):
                    best_value = value
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        steps.append(MergeStep(
            step=len(steps),
            linkage_value=best_value,
            threshold=threshold,
            cluster_a=tuple(views[idx].key for idx in members[i]),
            cluster_b=tuple(views[idx].key for idx in members[j]),
        ))
        size_i, size_j = len(members[i]), len(members[j])
        for k in active:
            if k in (i, j):
                continue
            sim_ik = avg[i].get(k, 0.0)
            sim_jk = avg[j].get(k, 0.0)
            if linkage == "single":
                merged = max(sim_ik, sim_jk)
            elif linkage == "complete":
                merged = min(sim_ik, sim_jk)
            else:
                merged = (size_i * sim_ik + size_j * sim_jk) / (
                    size_i + size_j
                )
            avg[i][k] = merged
            avg[k][i] = merged
            avg[k].pop(j, None)
        members[i].extend(members[j])
        ifaces[i] |= ifaces[j]
        del members[j], ifaces[j], avg[j]
        avg[i].pop(j, None)
        active.discard(j)
    return [sorted(members[i]) for i in sorted(active)], steps


@pytest.fixture()
def matcher():
    return IceQMatcher()


class TestBasicClustering:
    def test_identical_labels_cluster(self, matcher):
        views = [view("i1", "a", "City"), view("i2", "a", "City")]
        result = matcher.match_views(views)
        assert len(result.clusters) == 1

    def test_disjoint_labels_stay_apart(self, matcher):
        views = [view("i1", "a", "Airline"), view("i2", "a", "Carrier")]
        result = matcher.match_views(views)
        assert len(result.clusters) == 2

    def test_instances_bridge_disjoint_labels(self, matcher):
        views = [
            view("i1", "a", "Airline", ["Air Canada", "Delta Air Lines"]),
            view("i2", "a", "Carrier", ["Air Canada", "Delta Air Lines"]),
        ]
        result = matcher.match_views(views)
        assert len(result.clusters) == 1

    def test_cannot_link_same_interface(self, matcher):
        # Two attributes of one interface never co-cluster, even identical.
        views = [view("i1", "a", "City"), view("i1", "b", "City")]
        result = matcher.match_views(views)
        assert len(result.clusters) == 2

    def test_cannot_link_propagates_through_merges(self, matcher):
        views = [
            view("i1", "a", "City"),
            view("i2", "a", "City"),
            view("i1", "b", "City area"),  # links to the City cluster...
        ]
        result = matcher.match_views(views)
        for cluster in result.clusters:
            ids = [m.interface_id for m in cluster.members]
            assert len(ids) == len(set(ids))

    def test_threshold_blocks_weak_merges(self, matcher):
        views = [view("i1", "a", "Departure city"),
                 view("i2", "a", "City name")]
        loose = matcher.match_views(views, threshold=0.0)
        strict = matcher.match_views(views, threshold=0.5)
        assert len(loose.clusters) == 1
        assert len(strict.clusters) == 2

    def test_empty_input(self, matcher):
        result = matcher.match_views([])
        assert result.clusters == []

    def test_singleton_input(self, matcher):
        result = matcher.match_views([view("i1", "a", "X")])
        assert len(result.clusters) == 1

    def test_evaluation_count(self, matcher):
        views = [view(f"i{k}", "a", "City") for k in range(5)]
        result = matcher.match_views(views)
        assert result.similarity_evaluations == 10  # C(5,2)


class TestLinkages:
    def make_views(self):
        return [
            view("i1", "a", "Make", ["Honda", "Toyota"]),
            view("i2", "a", "Make", ["Honda", "Ford"]),
            view("i3", "a", "Brand", ["Honda", "Toyota"]),
            view("i4", "a", "Unrelated thing"),
        ]

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            IceQMatcher(linkage="median")

    @pytest.mark.parametrize("linkage", ["single", "average", "complete"])
    def test_all_linkages_produce_valid_partition(self, linkage):
        matcher = IceQMatcher(linkage=linkage)
        views = self.make_views()
        result = matcher.match_views(views)
        seen = set()
        for cluster in result.clusters:
            for member in cluster.members:
                assert member.key not in seen
                seen.add(member.key)
        assert len(seen) == len(views)

    def test_single_merges_at_least_as_much_as_complete(self):
        views = self.make_views()
        single = IceQMatcher(linkage="single").match_views(views, 0.1)
        complete = IceQMatcher(linkage="complete").match_views(views, 0.1)
        assert len(single.clusters) <= len(complete.clusters)


class TestMatchPairs:
    def test_pairs_from_clusters(self, matcher):
        views = [view("i1", "a", "City"), view("i2", "a", "City"),
                 view("i3", "a", "City")]
        result = matcher.match_views(views)
        assert len(result.match_pairs()) == 3  # C(3,2)

    def test_no_pairs_for_singletons(self, matcher):
        views = [view("i1", "a", "Airline"), view("i2", "a", "Carrier")]
        assert matcher.match_views(views).match_pairs() == set()


class TestViewsFromInterfaces:
    def test_includes_acquired_instances(self):
        attr = Attribute(name="from", label="From")
        attr.acquired.extend(["Boston", "Chicago"])
        qi = QueryInterface("i1", "airfare", "flight", [attr])
        views = views_from_interfaces([qi])
        assert views[0].instances == ("Boston", "Chicago")

    def test_select_plus_acquired(self):
        attr = Attribute(name="airline", label="Airline",
                         kind=AttributeKind.SELECT, instances=("Air Canada",))
        attr.acquired.append("Aer Lingus")
        qi = QueryInterface("i1", "airfare", "flight", [attr])
        views = views_from_interfaces([qi])
        assert views[0].instances == ("Air Canada", "Aer Lingus")


class TestMergeTieBreaking:
    """Regression: equal-linkage merge candidates must break toward the
    lowest ``(i, j)`` pair, independent of set/dict iteration order.

    CPython happens to iterate sets of small contiguous ints in ascending
    order, so the old iteration-order-dependent scan agreed with the
    contract *by accident*. Shadowing the module-global ``set`` with a
    descending-iteration subclass exposes the dependence: under the old
    scan the lexicographically highest of two equal-value pairs was kept
    (strict ``>`` never replaces an equal value), so this test fails
    before the fix and passes after it under any iteration order.
    """

    def _tied_views(self):
        # sim(0, 3) == sim(1, 2) (identical labels), cross-pairs ~0.
        return [
            view("i1", "a", "Price"),
            view("i2", "a", "Date"),
            view("i3", "a", "Date"),
            view("i4", "a", "Price"),
        ]

    def _first_merge_members(self, provenance):
        first = provenance.merges[0]
        return frozenset(first.cluster_a) | frozenset(first.cluster_b)

    def test_tie_breaks_to_lowest_pair_under_hostile_iteration(
            self, monkeypatch):
        from repro.matching import clustering as clustering_module
        from repro.obs.provenance import ProvenanceRecorder

        class DescendingSet(set):
            def __iter__(self):
                return iter(sorted(set.__iter__(self), reverse=True))

        monkeypatch.setattr(
            clustering_module, "set", DescendingSet, raising=False)
        provenance = ProvenanceRecorder()
        IceQMatcher(provenance=provenance).match_views(self._tied_views())
        assert self._first_merge_members(provenance) == \
            {("i1", "a"), ("i4", "a")}

    def test_tie_breaks_to_lowest_pair_natively(self):
        from repro.obs.provenance import ProvenanceRecorder

        provenance = ProvenanceRecorder()
        IceQMatcher(provenance=provenance).match_views(self._tied_views())
        assert self._first_merge_members(provenance) == \
            {("i1", "a"), ("i4", "a")}


class TestPartitionProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(
            ["City", "State", "Make", "Model", "Price"])),
        min_size=1, max_size=15))
    def test_always_a_partition_respecting_cannot_link(self, specs):
        views = []
        used = set()
        for iface, label in specs:
            name = f"a{len(views)}"
            key = (f"i{iface}", name)
            if key in used:
                continue
            used.add(key)
            views.append(view(f"i{iface}", name, label))
        result = IceQMatcher().match_views(views)
        all_members = [m.key for c in result.clusters for m in c.members]
        assert sorted(all_members) == sorted(v.key for v in views)
        for cluster in result.clusters:
            ids = [m.interface_id for m in cluster.members]
            assert len(ids) == len(set(ids))

    @settings(deadline=None, max_examples=15)
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(
            ["City", "City name", "Town", "State"])),
        min_size=2, max_size=12),
        st.floats(0, 0.5), st.floats(0, 0.5))
    def test_higher_threshold_never_merges_more(self, specs, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        views = []
        for k, (iface, label) in enumerate(specs):
            views.append(view(f"i{iface}", f"a{k}", label))
        matcher = IceQMatcher()
        pairs_lo = matcher.match_views(views, lo).match_pairs()
        pairs_hi = matcher.match_views(views, hi).match_pairs()
        assert len(pairs_hi) <= len(pairs_lo)


class TestSharedMergeStep:
    """The merge loop is ONE function — ``agglomerate`` — shared by batch
    IceQ and the registry's incremental assimilator. Before the refactor
    the loop lived inline in ``match_views``; any second copy (as the
    registry would have needed) could drift in tie-break order and break
    the incremental == batch guarantee silently. These tests pin the
    shared code path and its behaviour under a sparse similarity view.
    """

    def test_registry_and_batch_share_the_same_function_object(self):
        from repro.matching import clustering
        from repro.registry import assimilate

        assert assimilate.agglomerate is clustering.agglomerate

    def test_agglomerate_tie_breaks_lowest_pair_with_sparse_sims(self):
        from repro.matching.clustering import agglomerate

        views = [
            view("i1", "a", "Price"),
            view("i2", "a", "Date"),
            view("i3", "a", "Date"),
            view("i4", "a", "Price"),
        ]
        # identical labels: sim(0,3) == sim(1,2) == 1·alpha; the equal-
        # value tie must resolve to the lowest (i, j) — (0, 3) — exactly
        # as the dense matcher does.
        sims = {(0, 3): 0.6, (1, 2): 0.6}

        _, steps = agglomerate(views, sims, 0.0)
        first = frozenset(steps[0].cluster_a) | frozenset(steps[0].cluster_b)
        assert first == {("i1", "a"), ("i4", "a")}

    def test_sparse_same_interface_skip_equals_dense(self):
        """The assimilator never evaluates same-interface pairs (the
        cannot-link constraint makes them unreachable); feeding the merge
        loop 0.0 for them must reproduce the dense matcher's clusters."""
        from repro.matching.clustering import agglomerate
        from repro.matching.similarity import attribute_similarity
        from repro.datasets import build_domain_dataset

        views = views_from_interfaces(
            build_domain_dataset("auto", 4, 2).interfaces)
        sparse = _cross_interface_sims(views, attribute_similarity)

        for threshold in (0.0, 0.1, 0.3):
            dense = [
                sorted(m.key for m in c.members)
                for c in IceQMatcher().match_views(views, threshold).clusters
            ]
            sparse_clusters = [
                sorted(views[idx].key for idx in indices)
                for indices in agglomerate(views, sparse, threshold)[0]
            ]
            assert sparse_clusters == dense

    @pytest.mark.parametrize("linkage", ["single", "average", "complete"])
    def test_skip_holds_for_every_linkage(self, linkage):
        from repro.matching.clustering import agglomerate
        from repro.matching.similarity import attribute_similarity
        from repro.datasets import build_domain_dataset

        views = views_from_interfaces(
            build_domain_dataset("book", 3, 4).interfaces)
        sparse = _cross_interface_sims(views, attribute_similarity)

        dense = [
            sorted(m.key for m in c.members)
            for c in IceQMatcher(linkage=linkage)
            .match_views(views, 0.05).clusters
        ]
        assert [
            sorted(views[idx].key for idx in indices)
            for indices in agglomerate(
                views, sparse, 0.05, linkage=linkage)[0]
        ] == dense


@st.composite
def _merge_problems(draw):
    """Views over a few interfaces (so cannot-link conflicts occur) and a
    sparse sims mapping over a small value set (so ties are common)."""
    n = draw(st.integers(0, 40))
    n_interfaces = draw(st.integers(1, 8))
    views = [
        view(f"i{draw(st.integers(0, n_interfaces - 1))}", f"a{k}", "x")
        for k in range(n)
    ]
    values = st.sampled_from((0.0, 0.1, 0.3, 0.6, -0.1, -0.3))
    sims = {}
    for i in range(n):
        for j in range(i + 1, n):
            value = draw(values)
            if value != 0.0 or draw(st.booleans()):
                sims[(i, j)] = value
    return views, sims


class TestHeapMergeLoopEqualsDenseScan:
    """``agglomerate`` keeps sparse linkage rows and takes each merge off a
    lazy max-heap; the dense rescan it replaced is the oracle. Clusters
    and MergeStep sequences (floats included) must be equal."""

    @settings(deadline=None, max_examples=100)
    @given(problem=_merge_problems(),
           threshold=st.sampled_from((-1.0, 0.0, 0.1)),
           linkage=st.sampled_from(("single", "average", "complete")))
    def test_equals_dense_scan(self, problem, threshold, linkage):
        views, sims = problem
        assert agglomerate(views, sims, threshold, linkage=linkage) == \
            _dense_scan_agglomerate(views, sims, threshold, linkage)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 0.1])
    @pytest.mark.parametrize("linkage", ["single", "average", "complete"])
    def test_equals_dense_scan_on_a_domain(self, threshold, linkage):
        from repro.datasets import build_domain_dataset

        views = views_from_interfaces(
            build_domain_dataset("airfare", 6, 1).interfaces)
        sims = IceQMatcher().similarities(views)
        assert agglomerate(views, sims, threshold, linkage=linkage) == \
            _dense_scan_agglomerate(views, sims, threshold, linkage)

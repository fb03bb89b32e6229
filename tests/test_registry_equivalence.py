"""The metamorphic oracle: incremental assimilation == batch IceQ.

The registry's headline guarantee — assimilating ANY arrival permutation
of an interface set yields an induced matching **byte-identical** to
batch IceQ over the same set — is enforced here three ways:

- exhaustively over every permutation of a small domain;
- sampled by seed over full 20-interface domains, and against
  clustering the all-pairs matrix, which no blocking index touches;
- across the existing stack matrix (faults x cache x checkpoint)
  through the pipeline, asserting byte-identical induced
  match views, zero invariant violations, and zero provenance
  divergence (a registry-attached run exports the same bytes as a run
  without one).
"""

import itertools
import json
import random

import pytest

from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import (
    dump_induced_matching,
    induced_matching_to_dict,
    run_result_to_dict,
)
from repro.matching.clustering import IceQMatcher, agglomerate
from repro.matching.similarity import attribute_similarity
from repro.obs import ObsConfig, check_run, diff_runs
from repro.registry import (
    RegistryAssimilator,
    RegistryStore,
    batch_induced_clusters,
    build_registry,
)
from repro.registry.assimilate import induced_clusters

DOMAIN = "book"


def interfaces_for(n, seed=3):
    return list(build_domain_dataset(DOMAIN, n, seed).interfaces)


def induced_payload(store):
    return json.dumps(induced_matching_to_dict(store), sort_keys=True)


def batch_payload(interfaces, threshold=0.0, linkage="average"):
    """The oracle payload, via pure batch IceQ over id-sorted interfaces."""
    ordered = sorted(interfaces, key=lambda i: i.interface_id)
    result = IceQMatcher(linkage=linkage).match(ordered, threshold=threshold)
    return json.dumps({
        "domain": DOMAIN,
        "threshold": threshold,
        "linkage": linkage,
        "n_interfaces": len(ordered),
        "clusters": [
            [list(key) for key in sorted(cluster.keys)]
            for cluster in result.clusters
        ],
    }, sort_keys=True)


class TestExhaustivePermutations:
    N = 4

    def test_every_arrival_permutation_matches_batch(self):
        interfaces = interfaces_for(self.N)
        oracle = batch_payload(interfaces)
        for perm in itertools.permutations(range(self.N)):
            store, _ = build_registry(
                DOMAIN, [interfaces[i] for i in perm])
            assert induced_payload(store) == oracle, (
                f"arrival order {perm} diverged from batch IceQ")

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.25])
    def test_permutations_match_batch_at_other_thresholds(self, threshold):
        interfaces = interfaces_for(self.N)
        oracle = batch_payload(interfaces, threshold=threshold)
        for perm in itertools.permutations(range(self.N)):
            store = RegistryStore(domain=DOMAIN, threshold=threshold)
            store, _ = build_registry(
                DOMAIN, [interfaces[i] for i in perm], store=store)
            assert induced_payload(store) == oracle

    def test_save_load_mid_sequence_preserves_equivalence(self, tmp_path):
        """Persisting and reloading between every assimilation must not
        change a byte of the final induced matching."""
        interfaces = interfaces_for(self.N)
        oracle = batch_payload(interfaces)
        order = [2, 0, 3, 1]
        directory = str(tmp_path / "registry")
        store = RegistryStore(domain=DOMAIN)
        for position in order:
            assimilator = RegistryAssimilator(store)
            assimilator.assimilate(interfaces[position])
            store.save(directory)
            store = RegistryStore.load(directory)
        assert induced_payload(store) == oracle

    def test_induced_json_dump_is_byte_identical_across_orders(self, tmp_path):
        interfaces = interfaces_for(self.N)
        paths = []
        for k, perm in enumerate([(0, 1, 2, 3), (3, 1, 0, 2)]):
            store, _ = build_registry(
                DOMAIN, [interfaces[i] for i in perm])
            path = tmp_path / f"induced-{k}.json"
            dump_induced_matching(store, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestSampledPermutations:
    """Full-size domains, arrival orders sampled by seed."""

    N = 20

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    def test_sampled_arrival_orders_match_batch(self, shuffle_seed):
        interfaces = interfaces_for(self.N, seed=1)
        oracle = batch_payload(interfaces)
        shuffled = list(interfaces)
        random.Random(shuffle_seed).shuffle(shuffled)
        store, report = build_registry(DOMAIN, shuffled)
        assert induced_payload(store) == oracle
        # and the blocking must actually be doing something at this size
        assert report.blocked > report.evaluated

    def test_incremental_equals_batch_clusters_object_level(self):
        interfaces = interfaces_for(self.N, seed=1)
        shuffled = list(interfaces)
        random.Random(7).shuffle(shuffled)
        store, _ = build_registry(DOMAIN, shuffled)
        incremental, _ = induced_clusters(store)
        assert incremental == batch_induced_clusters(store)

    @pytest.mark.parametrize("threshold", [0.0, 0.1])
    def test_incremental_and_batch_equal_all_pairs_evaluation(
            self, threshold):
        """The oracle independent of blocking: batch IceQ and the
        assimilator share one blocking index, so both must also equal
        clustering the matrix of every pair — same-interface pairs
        included — evaluated with ``attribute_similarity``."""
        shuffled = interfaces_for(self.N, seed=1)
        random.Random(3).shuffle(shuffled)
        store, _ = build_registry(
            DOMAIN, shuffled,
            store=RegistryStore(domain=DOMAIN, threshold=threshold))
        views = store.canonical_views()
        dense = {
            (i, j): attribute_similarity(a, b)
            for i, a in enumerate(views)
            for j, b in enumerate(views)
            if i < j
        }
        members, _ = agglomerate(views, dense, threshold)
        expected = tuple(
            tuple(sorted(views[idx].key for idx in indices))
            for indices in members)
        assert induced_clusters(store)[0] == expected
        assert batch_induced_clusters(store) == expected


def _matrix_configs(tmp_path):
    """The stack matrix: faults x checkpoint."""
    from repro.checkpoint import CheckpointConfig
    from repro.resilience import FaultProfile, ResilienceConfig

    combos = []
    for fault_rate in (0.0, 0.2):
        for with_checkpoint in (False, True):
            resilience = (
                ResilienceConfig(
                    profile=FaultProfile(fault_rate=fault_rate, seed=5))
                if fault_rate else None)
            checkpoint = None
            if with_checkpoint:
                checkpoint = CheckpointConfig(
                    directory=str(tmp_path / f"journal-f{fault_rate}"))
            combos.append((resilience, checkpoint))
    return combos


class TestStackMatrix:
    """Registry equivalence must survive the whole stack, not just the
    pristine pipeline."""

    N = 5

    def test_matrix_runs_hold_every_invariant_and_match_batch(self, tmp_path):
        for resilience, checkpoint in _matrix_configs(tmp_path):
            registry_dir = str(
                tmp_path / f"registry-{len(list(tmp_path.iterdir()))}")
            config = WebIQConfig(
                resilience=resilience, checkpoint=checkpoint,
                obs=ObsConfig(), registry=registry_dir)
            dataset = build_domain_dataset(DOMAIN, self.N, 1)
            result = WebIQMatcher(config).run(dataset)

            audit = check_run(result)
            assert audit.ok, (
                f"stack combo {config!r}: {audit.summary()}")
            assert "registry-batch-equivalence" in audit.checked
            assert "registry-blocking-conservation" in audit.checked

            batch = tuple(
                tuple(sorted(cluster.keys))
                for cluster in result.match_result.clusters)
            assert result.registry.induced == batch

            # two arrival orders through the same post-acquisition
            # interfaces: identity and a seeded shuffle
            shuffled = list(dataset.interfaces)
            random.Random(1).shuffle(shuffled)
            store, _ = build_registry(
                DOMAIN, shuffled,
                store=RegistryStore(domain=DOMAIN,
                                    threshold=config.threshold,
                                    linkage=config.linkage,
                                    similarity=config.similarity))
            assert tuple(
                tuple(cluster) for cluster in
                induced_clusters(store)[0]) == batch

    def test_registry_never_changes_the_export(self, tmp_path):
        """Zero provenance divergence: a registry-attached run exports the
        same bytes as the same run without one."""
        from repro.resilience import FaultProfile, ResilienceConfig

        base = dict(
            resilience=ResilienceConfig(
                profile=FaultProfile(fault_rate=0.2, seed=5)),
            obs=ObsConfig())
        without = WebIQMatcher(WebIQConfig(**base)).run(
            build_domain_dataset(DOMAIN, self.N, 1))
        with_registry = WebIQMatcher(WebIQConfig(
            registry=str(tmp_path / "registry"), **base)).run(
            build_domain_dataset(DOMAIN, self.N, 1))

        payload_without = run_result_to_dict(without)
        payload_with = run_result_to_dict(with_registry)
        assert json.dumps(payload_with, sort_keys=True) == json.dumps(
            payload_without, sort_keys=True)
        diff = diff_runs(payload_without, payload_with)
        assert diff.identical
        assert "no provenance divergence" in diff.summary()

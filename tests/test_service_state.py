"""WarmState epoch manager: copy-on-write publication and atomicity."""

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.perf.cache import (
    CacheConfig,
    CachePreload,
    CachingSearchEngine,
    ValidationCache,
)
from repro.registry import RegistryStore, build_registry
from repro.service import Epoch, WarmState
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import PreemptionError, StaleEpochError


def preload_with(entries):
    return CachePreload(engine_entries=entries)


class TestEpochLifecycle:
    def test_boot_epoch_is_zero_empty_and_unpublished(self):
        warm = WarmState()
        assert warm.current.epoch_id == 0
        assert warm.current.parent_id is None
        assert warm.current.warm.is_empty
        assert warm.current.published_by is None
        assert warm.chain == []

    def test_publish_derives_consecutive_child(self):
        warm = WarmState()
        parent = warm.begin("r0001")
        epoch = warm.publish(
            parent, warm=preload_with([(("search", "q", 10), [])]),
            published_by="r0001")
        assert epoch.epoch_id == 1
        assert epoch.parent_id == 0
        assert warm.current is epoch
        assert warm.chain == [1]
        assert warm.published == 1 and warm.begun == 1

    def test_abandon_leaves_current_untouched(self):
        warm = WarmState()
        parent = warm.begin("r0001")
        warm.abandon(parent, "r0001")
        assert warm.current.epoch_id == 0
        assert warm.abandoned == 1
        assert warm.abandoned_by == ["r0001"]
        # the next request still derives from the boot epoch
        assert warm.begin("r0002").epoch_id == 0

    def test_stale_parent_publication_is_refused(self):
        warm = WarmState()
        parent_a = warm.begin("r0001")
        parent_b = warm.begin("r0002")
        warm.publish(parent_a, warm=CachePreload(), published_by="r0001")
        with pytest.raises(StaleEpochError, match="r0002"):
            warm.publish(parent_b, warm=CachePreload(),
                         published_by="r0002")

    def test_registry_none_carries_parent_store_forward(self):
        interfaces = list(build_domain_dataset("book", 2, 1).interfaces)
        store, _ = build_registry("book", interfaces)
        warm = WarmState(registry=store)
        parent = warm.begin("r0001")
        epoch = warm.publish(parent, warm=CachePreload(),
                             published_by="r0001")
        assert epoch.registry is store  # unchanged → inherited

    def test_registry_replacement_publishes_the_new_store(self):
        warm = WarmState()
        parent = warm.begin("r0001")
        replacement = RegistryStore(domain="book")
        epoch = warm.publish(parent, warm=CachePreload(),
                             registry=replacement, published_by="r0001")
        assert epoch.registry is replacement
        # and the parent epoch still records none — epochs are immutable
        assert warm.epochs[0].registry is None


class TestEpochImmutability:
    def test_epoch_dataclass_is_frozen(self):
        warm = WarmState()
        with pytest.raises(AttributeError):
            warm.current.epoch_id = 99

    def test_epochs_history_keeps_every_generation(self):
        warm = WarmState()
        for index in range(3):
            parent = warm.begin(f"r{index}")
            warm.publish(parent, warm=CachePreload(),
                         published_by=f"r{index}")
        assert sorted(warm.epochs) == [0, 1, 2, 3]
        assert [warm.epochs[i].parent_id for i in (1, 2, 3)] == [0, 1, 2]


class TestCachePreloadSymmetry:
    """The warm-start primitive itself: capture == apply, by fingerprint."""

    def test_fingerprint_is_content_addressed(self):
        a = preload_with([(("num_hits", "x"), 4)])
        b = preload_with([(("num_hits", "x"), 4)])
        c = preload_with([(("num_hits", "y"), 4)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_empty_preload_properties(self):
        empty = CachePreload()
        assert empty.is_empty
        assert empty.n_entries == 0


class TestEpochIsolation:
    """Epochs share unchanged content, so isolation rests on nothing ever
    writing a preload's order, answer map or validation memo."""

    CACHED = WebIQConfig(cache=CacheConfig())

    @staticmethod
    def warm_run(domain, warm=None, config=CACHED):
        dataset = build_domain_dataset(domain, 3, 1)
        return WebIQMatcher(config).run(dataset, warm=warm).cache_content

    @pytest.fixture(scope="class")
    def parent(self):
        return self.warm_run("book")

    def test_a_run_that_applied_a_preload_cannot_change_it(self):
        engine = SearchEngine([
            Document(0, "u0", "t", "Authors such as King, Rowling."),
            Document(1, "u1", "t", "Cities such as Boston, Chicago."),
        ])
        donor = CachingSearchEngine(engine)
        donor.search("authors such as")
        donor.num_hits("boston")
        memo = ValidationCache()
        memo.marginal_hits["authors"] = 1
        parent = CachePreload.capture(donor, memo)
        fingerprint, entries = parent.fingerprint(), parent.engine_entries

        child_engine = CachingSearchEngine(engine)
        child_memo = ValidationCache()
        parent.apply(child_engine, child_memo)
        child_engine.search("cities such as")         # a store
        child_engine.search("authors such as")        # a hit (recency)
        child_memo.marginal_hits["cities"] = 1        # memo growth
        child_memo.joint_hits[("cities", "boston", 0)] = 1
        child = CachePreload.capture(child_engine, child_memo, parent)

        assert parent.fingerprint() == fingerprint
        assert parent.engine_entries == entries
        assert parent.n_entries == 2 and child.n_entries == 3
        assert dict(parent.validation.marginal_hits) == {"authors": 1}

    def test_a_trimming_load_is_a_change(self, parent):
        # A run whose cache holds fewer entries than the parent drops the
        # cold end on load and so must not share the parent's map, even
        # though it counts no store and no eviction.
        small = CachingSearchEngine(None, max_entries=10)
        memo = ValidationCache()
        parent.apply(small, memo)
        child = CachePreload.capture(small, memo, parent)
        assert small.stats.stores == small.stats.evictions == 0
        assert child._answers is not parent._answers
        assert child.engine_entries == parent.engine_entries[-10:]

    def test_a_run_that_adds_nothing_shares_the_parent_content(self, parent):
        child = self.warm_run("book", warm=parent)
        assert child._answers is parent._answers
        assert child.validation is parent.validation
        assert child.n_entries == parent.n_entries

    def test_a_run_that_adds_entries_shares_nothing(self, parent):
        child = self.warm_run("airfare", warm=parent)
        assert child._answers is not parent._answers
        assert child.validation is not parent.validation
        assert child.n_entries > parent.n_entries
        assert len(child.validation) > len(parent.validation)

    @pytest.mark.parametrize("kill_at", [0, 21, 41])
    def test_a_resumed_warm_run_captures_the_uninterrupted_preload(
            self, parent, tmp_path, kill_at):
        # Replay re-seeds the journaled stores without counting them in
        # CacheStats; the capture must still see them as new content. At
        # kill_at=41 (the run's last boundary) every store is a replay.
        directory = str(tmp_path / "journal")
        uninterrupted = self.warm_run("airfare", warm=parent)
        with pytest.raises(PreemptionError):
            self.warm_run("airfare", warm=parent, config=WebIQConfig(
                cache=CacheConfig(),
                checkpoint=CheckpointConfig(directory, kill_at=kill_at)))
        resumed = self.warm_run("airfare", warm=parent, config=WebIQConfig(
            cache=CacheConfig(),
            checkpoint=CheckpointConfig(directory, resume=True)))
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed._answers is not parent._answers

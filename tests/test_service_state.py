"""WarmState epoch manager: copy-on-write publication and atomicity."""

import pytest

from repro.checkpoint import CheckpointConfig
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.core.surface import WebValidator
from repro.datasets import build_domain_dataset
from repro.perf.cache import CachePreload, ValidationCache
from repro.registry import RegistryStore, build_registry
from repro.service import Epoch, WarmState
from repro.surfaceweb.document import Document
from repro.surfaceweb.engine import SearchEngine
from repro.util.errors import PreemptionError, StaleEpochError


def preload_with(marginals):
    memo = ValidationCache()
    memo.marginal_hits.update(marginals)
    return CachePreload(memo)


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
            parent, warm=preload_with({"q": 3}),
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
        a = preload_with({"x": 4})
        b = preload_with({"x": 4})
        c = preload_with({"y": 4})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_a_shared_child_reuses_the_parent_fingerprint(self, monkeypatch):
        parent = preload_with({"x": 4, "y": 2})
        fingerprint = parent.fingerprint()
        run_memo = ValidationCache()
        parent.apply(run_memo)
        child = CachePreload.capture(run_memo, parent)
        assert child.validation is parent.validation
        assert fingerprint == CachePreload(run_memo).fingerprint()
        # The shared child never builds the canonical repr again.
        built = []
        monkeypatch.setattr("repro.perf.cache.repr",
                            lambda obj: built.append(obj) or "",
                            raising=False)
        assert child.fingerprint() == fingerprint
        assert parent.fingerprint() == fingerprint
        assert built == []

    def test_empty_preload_properties(self):
        empty = CachePreload()
        assert empty.is_empty
        assert empty.n_entries == 0


class TestEpochIsolation:
    """Epochs share unchanged content, so isolation rests on nothing ever
    writing a preload's memo."""

    @staticmethod
    def warm_run(domain, warm=None, config=WebIQConfig()):
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
        memo = ValidationCache()
        WebValidator(engine, cache=memo).marginal_hits("authors")
        parent = CachePreload.capture(memo)
        fingerprint = parent.fingerprint()

        child_memo = ValidationCache()
        parent.apply(child_memo)
        validator = WebValidator(engine, cache=child_memo)
        validator.marginal_hits("authors")            # a hit
        validator.marginal_hits("cities")             # memo growth
        child_memo.joint_hits[("cities", "boston", 0)] = 1
        child = CachePreload.capture(child_memo, parent)

        assert parent.fingerprint() == fingerprint
        assert CachePreload(parent.validation).fingerprint() == fingerprint
        assert parent.n_entries == 1 and child.n_entries == 3
        assert dict(parent.validation.marginal_hits) == {"authors": 1}

    def test_a_run_that_adds_nothing_shares_the_parent_content(self, parent):
        child = self.warm_run("book", warm=parent)
        assert child.validation is parent.validation
        assert child.n_entries == parent.n_entries

    def test_a_run_that_adds_entries_shares_nothing(self, parent):
        child = self.warm_run("airfare", warm=parent)
        assert child.validation is not parent.validation
        assert child.n_entries > parent.n_entries
        assert len(child.validation) > len(parent.validation)

    @pytest.mark.parametrize("kill_at", [0, 21, 41])
    def test_a_resumed_warm_run_captures_the_uninterrupted_preload(
            self, parent, tmp_path, kill_at):
        # Replay merges the journaled memo growth without counting it in
        # CacheStats; the capture must still see it as new content. At
        # kill_at=41 (the run's last boundary) every entry is a replay.
        directory = str(tmp_path / "journal")
        uninterrupted = self.warm_run("airfare", warm=parent)
        with pytest.raises(PreemptionError):
            self.warm_run("airfare", warm=parent, config=WebIQConfig(
                checkpoint=CheckpointConfig(directory, kill_at=kill_at)))
        resumed = self.warm_run("airfare", warm=parent, config=WebIQConfig(
            checkpoint=CheckpointConfig(directory, resume=True)))
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed.validation is not parent.validation

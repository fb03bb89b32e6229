"""Registry store durability: corruption fuzzing.

Mirrors ``tests/test_checkpoint_journal.py`` for the registry's on-disk
envelope: every way the store can be damaged — torn writes, bit flips
under a stale CRC, flipped CRC fields, future formats, duplicate
interfaces or dangling similarity pairs — must surface as a typed
``RegistryError`` subclass naming the damaged entity, never a crash and
never silently-wrong clusters. Cases shared by every sealed file live in
``tests/test_envelope.py``.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.envelope import record_crc
from repro.datasets import build_domain_dataset
from repro.registry import store as store_module
from repro.registry import (
    REGISTRY_FILENAME,
    REGISTRY_FORMAT,
    RegistryAssimilator,
    RegistryStore,
    build_registry,
)
from repro.util.errors import (
    RegistryCorruptionError,
    RegistryError,
    RegistryFormatError,
    RegistryMismatchError,
)

DOMAIN = "book"

def saved_registry(tmp_path, n=3):
    """Build and persist a small real registry; returns its directory."""
    directory = str(tmp_path / "registry")
    interfaces = list(build_domain_dataset(DOMAIN, n, 1).interfaces)
    build_registry(DOMAIN, interfaces, directory=directory)
    return directory


def store_path(directory):
    return os.path.join(directory, REGISTRY_FILENAME)


def rewrite(directory, mutate):
    """Load the envelope, apply ``mutate(envelope)``, write it back raw."""
    path = store_path(directory)
    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    mutate(envelope)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)
    return path


def reseal(envelope):
    """Recompute the CRC so body tampering survives the checksum and has
    to be caught by the semantic validation instead."""
    envelope["crc"] = record_crc(envelope["body"])


class TestRoundTrip:
    def test_save_load_round_trips_bytes(self, tmp_path):
        directory = saved_registry(tmp_path)
        with open(store_path(directory), "rb") as handle:
            first = handle.read()
        RegistryStore.load(directory).save(directory)
        with open(store_path(directory), "rb") as handle:
            assert handle.read() == first

    def test_loaded_store_continues_assimilating(self, tmp_path):
        interfaces = list(build_domain_dataset(DOMAIN, 4, 1).interfaces)
        directory = str(tmp_path / "registry")
        build_registry(DOMAIN, interfaces[:3], directory=directory)
        store = RegistryStore.load(directory)
        RegistryAssimilator(store).assimilate(interfaces[3])
        assert store.n_views == sum(
            len(i.attributes) for i in interfaces)

    def test_writer_emits_current_format(self, tmp_path):
        directory = saved_registry(tmp_path)
        with open(store_path(directory), "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
        assert envelope["format"] == REGISTRY_FORMAT
        assert envelope["crc"] == record_crc(envelope["body"])
        assert "entries" not in envelope["body"]

    def test_loaded_entries_equal_writer_entries_after_every_add(
            self, tmp_path, monkeypatch):
        save = RegistryStore.save
        checked = []

        def save_and_reload(store, directory):
            path = save(store, directory)
            assert RegistryStore.load(directory).entries == store.entries
            checked.append(len(store.interfaces))
            return path

        monkeypatch.setattr(RegistryStore, "save", save_and_reload)
        interfaces = list(build_domain_dataset(DOMAIN, 5, 1).interfaces)
        build_registry(DOMAIN, interfaces,
                       directory=str(tmp_path / "registry"))
        assert checked == [1, 2, 3, 4, 5]

    def test_missing_store_is_a_mismatch_not_corruption(self, tmp_path):
        with pytest.raises(RegistryMismatchError, match="no registry store"):
            RegistryStore.load(str(tmp_path / "nowhere"))


class TestFormat2:
    """A format-2 store carried a derived ``entries`` section; it still
    loads, and the section is ignored whatever it holds."""

    @pytest.mark.parametrize("entries", [
        [], "garbage", [{"cluster_id": "c0000", "members": [["x", "y"]]}],
    ])
    def test_stale_or_garbage_entries_are_ignored(self, tmp_path, entries):
        directory = saved_registry(tmp_path)
        fresh, _ = build_registry(
            DOMAIN, list(build_domain_dataset(DOMAIN, 3, 1).interfaces))

        def downgrade(env):
            env["format"] = 2
            env["body"]["entries"] = entries
            reseal(env)

        rewrite(directory, downgrade)
        loaded = RegistryStore.load(directory)
        assert loaded.to_body() == fresh.to_body()
        entries = loaded.entries
        assert entries and entries == fresh.entries


class TestEnvelopeCorruption:
    def test_torn_file_names_the_position(self, tmp_path):
        directory = saved_registry(tmp_path)
        path = store_path(directory)
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(RegistryCorruptionError, match="torn or unparseable"):
            RegistryStore.load(directory)

    def test_body_tamper_with_stale_crc_fails_checksum(self, tmp_path):
        directory = saved_registry(tmp_path)
        rewrite(directory,
                lambda env: env["body"].__setitem__("threshold", 0.99))
        with pytest.raises(RegistryCorruptionError, match="CRC mismatch"):
            RegistryStore.load(directory)

    def test_flipped_crc_field(self, tmp_path):
        directory = saved_registry(tmp_path)
        rewrite(directory,
                lambda env: env.__setitem__("crc", env["crc"] ^ 0x1))
        with pytest.raises(RegistryCorruptionError, match="CRC mismatch"):
            RegistryStore.load(directory)

    def test_future_format_is_rejected_typed(self, tmp_path):
        directory = saved_registry(tmp_path)

        def bump(env):
            env["format"] = REGISTRY_FORMAT + 1

        rewrite(directory, bump)
        with pytest.raises(RegistryFormatError, match="newer than this reader"):
            RegistryStore.load(directory)

    @pytest.mark.parametrize("bad_format", ["2", 0, None])
    def test_unusable_format_values(self, tmp_path, bad_format):
        directory = saved_registry(tmp_path)
        rewrite(directory,
                lambda env: env.__setitem__("format", bad_format))
        with pytest.raises(RegistryCorruptionError, match="unusable registry format"):
            RegistryStore.load(directory)

    @pytest.mark.parametrize("dropped", ["format", "crc", "body"])
    def test_missing_envelope_key(self, tmp_path, dropped):
        directory = saved_registry(tmp_path)
        rewrite(directory, lambda env: env.pop(dropped))
        with pytest.raises(RegistryCorruptionError, match="missing format/crc/body"):
            RegistryStore.load(directory)

    def test_non_object_envelope(self, tmp_path):
        directory = saved_registry(tmp_path)
        with open(store_path(directory), "w", encoding="utf-8") as handle:
            json.dump([1, 2, 3], handle)
        with pytest.raises(RegistryCorruptionError, match="missing format/crc/body"):
            RegistryStore.load(directory)


class TestBodyCorruption:
    """Tampering that survives the CRC (resealed) must be caught by the
    semantic validation, naming the damaged entry."""

    def test_duplicate_interface_names_it(self, tmp_path):
        directory = saved_registry(tmp_path)

        def dup(env):
            env["body"]["interfaces"].append(
                dict(env["body"]["interfaces"][0]))
            reseal(env)

        rewrite(directory, dup)
        with pytest.raises(RegistryCorruptionError,
                           match="duplicate interface 'book-00'"):
            RegistryStore.load(directory)

    def test_sim_cache_unknown_pair(self, tmp_path):
        directory = saved_registry(tmp_path)

        def dangle(env):
            env["body"]["sims"].append(
                [["ghost-99", "phantom"], ["ghost-99", "wraith"], 0.5])
            reseal(env)

        rewrite(directory, dangle)
        with pytest.raises(RegistryCorruptionError,
                           match="references unknown attribute pair"):
            RegistryStore.load(directory)

    def test_sim_cache_non_canonical_pair(self, tmp_path):
        directory = saved_registry(tmp_path)

        def flip(env):
            sims = env["body"]["sims"]
            a, b, value = sims[0]
            sims[0] = [b, a, value]
            reseal(env)

        rewrite(directory, flip)
        with pytest.raises(RegistryCorruptionError,
                           match="not in canonical order"):
            RegistryStore.load(directory)

    def test_sim_cache_duplicate_pair(self, tmp_path):
        directory = saved_registry(tmp_path)

        def dup(env):
            env["body"]["sims"].append(list(env["body"]["sims"][0]))
            reseal(env)

        rewrite(directory, dup)
        with pytest.raises(RegistryCorruptionError,
                           match="duplicate similarity cache pair"):
            RegistryStore.load(directory)

    def test_malformed_body_is_wrapped_not_raised_raw(self, tmp_path):
        directory = saved_registry(tmp_path)

        def gut(env):
            del env["body"]["sims"]
            reseal(env)

        rewrite(directory, gut)
        with pytest.raises(RegistryCorruptionError,
                           match="malformed registry body"):
            RegistryStore.load(directory)

    def test_every_corruption_error_is_a_registry_error(self):
        assert issubclass(RegistryCorruptionError, RegistryError)
        assert issubclass(RegistryFormatError, RegistryError)
        assert issubclass(RegistryMismatchError, RegistryError)


class TestAssimilationMismatch:
    def test_duplicate_interface_assimilation_is_rejected(self, tmp_path):
        interfaces = list(build_domain_dataset(DOMAIN, 2, 1).interfaces)
        store, _ = build_registry(DOMAIN, interfaces)
        with pytest.raises(RegistryMismatchError, match="already assimilated"):
            RegistryAssimilator(store).assimilate(interfaces[0])

    def test_wrong_domain_interface_is_rejected(self):
        store, _ = build_registry(
            DOMAIN, list(build_domain_dataset(DOMAIN, 2, 1).interfaces))
        alien = list(build_domain_dataset("airfare", 1, 1).interfaces)[0]
        with pytest.raises(RegistryMismatchError, match="domain"):
            RegistryAssimilator(store).assimilate(alien)


class TestConcurrentOpenProtection:
    """A second writer must get a typed error, never a torn store.

    The lock is a sentinel file created with ``O_CREAT | O_EXCL``; the
    fuzz cases reuse the corruption harness's tactic of damaging on-disk
    state directly and asserting the reader/writer stays typed.
    """

    def test_second_writer_is_rejected_with_holder_named(self, tmp_path):
        from repro.registry import RegistryLock
        from repro.util.errors import RegistryLockedError

        directory = saved_registry(tmp_path)
        with RegistryLock(directory, owner="first-writer"):
            with pytest.raises(RegistryLockedError) as excinfo:
                RegistryLock(directory, owner="second-writer").acquire()
            assert excinfo.value.owner == "first-writer"
            assert excinfo.value.directory == directory
            assert "first-writer" in str(excinfo.value)
        # released on exit: the next writer gets in
        with RegistryLock(directory, owner="third-writer"):
            pass

    def test_locked_error_is_a_registry_error(self):
        from repro.util.errors import RegistryError, RegistryLockedError

        assert issubclass(RegistryLockedError, RegistryError)

    def test_build_registry_holds_the_lock(self, tmp_path):
        from repro.registry import LOCK_FILENAME, RegistryLock
        from repro.util.errors import RegistryLockedError

        directory = str(tmp_path / "registry")
        interfaces = list(build_domain_dataset(DOMAIN, 2, 1).interfaces)
        lock = RegistryLock(directory, owner="stuck-writer").acquire()
        try:
            with pytest.raises(RegistryLockedError, match="stuck-writer"):
                build_registry(DOMAIN, interfaces, directory=directory)
        finally:
            lock.release()
        # and the lock never leaks after a successful build
        build_registry(DOMAIN, interfaces, directory=directory)
        assert not os.path.exists(os.path.join(directory, LOCK_FILENAME))

    @pytest.mark.parametrize("content", [
        b"", b"{", b"\x00\xff\xfe garbage", b"[1, 2, 3]",
        b'{"pid": 123}', b'{"owner": 7}',
    ])
    def test_torn_lock_file_still_counts_as_held(self, tmp_path, content):
        # Fuzz the sentinel itself: whatever garbage a dead writer left,
        # the safe reading is "someone is mid-write" with unknown holder.
        from repro.registry import LOCK_FILENAME, RegistryLock
        from repro.util.errors import RegistryLockedError

        directory = saved_registry(tmp_path)
        with open(os.path.join(directory, LOCK_FILENAME), "wb") as handle:
            handle.write(content)
        with pytest.raises(RegistryLockedError) as excinfo:
            RegistryLock(directory, owner="late-writer").acquire()
        assert excinfo.value.owner == "unknown"

    def test_break_lock_is_the_operator_escape_hatch(self, tmp_path):
        from repro.registry import LOCK_FILENAME, RegistryLock

        directory = saved_registry(tmp_path)
        with open(os.path.join(directory, LOCK_FILENAME), "w",
                  encoding="utf-8") as handle:
            handle.write("dead holder")
        assert RegistryLock.break_lock(directory) is True
        assert RegistryLock.break_lock(directory) is False
        with RegistryLock(directory, owner="next-writer"):
            pass

    def test_release_is_idempotent_and_tolerates_broken_lock(self, tmp_path):
        from repro.registry import RegistryLock

        directory = saved_registry(tmp_path)
        lock = RegistryLock(directory, owner="writer").acquire()
        RegistryLock.break_lock(directory)  # operator intervened
        lock.release()  # must not raise
        lock.release()  # idempotent


# ------------------------------------------------ snapshot plus deltas
POOL_SIZE = 8


@pytest.fixture(scope="module")
def pool():
    """Interfaces to stream into registries, built once per module."""
    return list(build_domain_dataset(DOMAIN, POOL_SIZE, 1).interfaces)


def delta_path(directory, number):
    return os.path.join(directory, f"delta-{number:06d}.json")


def listing(directory):
    return sorted(os.listdir(directory))


def registry_with_deltas(tmp_path, pool, n):
    """A persisted registry of ``pool[:n]`` whose last save appended a
    delta; returns ``(directory, store)``."""
    directory = str(tmp_path / "registry")
    store = RegistryStore(domain=DOMAIN)
    assimilator = RegistryAssimilator(store)
    for interface in pool[:n]:
        assimilator.assimilate(interface)
        store.save(directory)
    assert store.layout()[1] > 0
    return directory, store


class TestSnapshotPlusDeltas:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_load_equals_store_after_every_add(self, pool, data):
        order = data.draw(st.permutations(range(POOL_SIZE)))
        # per add: save after it?  then replace the store by a reload
        # or by a copy?
        steps = data.draw(st.lists(
            st.tuples(st.booleans(),
                      st.sampled_from(["keep", "reload", "copy"])),
            min_size=POOL_SIZE, max_size=POOL_SIZE))
        with tempfile.TemporaryDirectory() as root:
            directory = os.path.join(root, "registry")
            store = RegistryStore(domain=DOMAIN)
            saved = None
            for index, (save, then) in zip(order, steps):
                RegistryAssimilator(store).assimilate(pool[index])
                if save:
                    store.save(directory)
                    saved = store.to_body()
                if saved is not None:
                    loaded = RegistryStore.load(directory)
                    assert loaded.to_body() == saved
                    if save:
                        assert loaded.layout() == store.layout()
                if then == "reload":
                    store.save(directory)
                    saved = store.to_body()
                    store = RegistryStore.load(directory)
                elif then == "copy":
                    store = store.copy()
            store.save(directory)
            assert RegistryStore.load(directory).to_body() == store.to_body()

    def test_deltas_hold_only_the_adds_since_the_last_save(
            self, tmp_path, pool):
        directory = str(tmp_path / "registry")
        store = RegistryStore(domain=DOMAIN)
        assimilator = RegistryAssimilator(store)
        for interface in pool[:3]:
            assimilator.assimilate(interface)
        store.save(directory)
        snapshot_crc = store._mark.snapshot_crc
        for interface in pool[3:5]:
            assimilator.assimilate(interface)
        store.save(directory)
        assert listing(directory) == ["delta-000001.json", REGISTRY_FILENAME]
        with open(delta_path(directory, 1), encoding="utf-8") as handle:
            delta = json.load(handle)
        assert delta["format"] == REGISTRY_FORMAT
        body = delta["body"]
        assert body["base"] == {"crc": snapshot_crc, "interfaces": 3}
        assert [item["interface_id"] for item in body["interfaces"]] == \
            [interface.interface_id for interface in pool[3:5]]
        assert [add["interface_id"] for add in body["stats"]["adds"]] == \
            [interface.interface_id for interface in pool[3:5]]
        new = {interface.interface_id for interface in pool[3:5]}
        assert body["sims"] and all(
            a[0] in new or b[0] in new for a, b, _ in body["sims"])
        assert RegistryStore.load(directory).to_body() == store.to_body()

    def test_snapshot_once_deltas_would_outnumber_its_interfaces(
            self, tmp_path, pool):
        directory = str(tmp_path / "registry")
        store = RegistryStore(domain=DOMAIN)
        assimilator = RegistryAssimilator(store)
        layouts = []
        for interface in pool:
            assimilator.assimilate(interface)
            store.save(directory)
            layouts.append(store.layout()[1])
        # snapshots of 1, 3 and 7 interfaces, each followed by deltas
        assert layouts == [0, 1, 0, 1, 2, 3, 0, 1]
        assert listing(directory) == ["delta-000001.json", REGISTRY_FILENAME]

    def test_save_without_new_adds_writes_nothing(
            self, tmp_path, pool, monkeypatch):
        directory, store = registry_with_deltas(tmp_path, pool, 2)
        before = {name: os.stat(os.path.join(directory, name)).st_mtime_ns
                  for name in listing(directory)}
        written = []
        monkeypatch.setattr(store_module, "atomic_write_json",
                            lambda path, payload: written.append(path))
        store.save(directory)
        RegistryStore.load(directory).save(directory)
        store.copy().save(directory)
        assert written == []
        assert {name: os.stat(os.path.join(directory, name)).st_mtime_ns
                for name in listing(directory)} == before

    def test_second_writer_gets_a_snapshot_not_an_append(
            self, tmp_path, pool):
        directory, first = registry_with_deltas(tmp_path, pool, 4)
        second = RegistryStore.load(directory)
        RegistryAssimilator(second).assimilate(pool[4])
        second.save(directory)  # the directory moves past first's mark
        assert listing(directory) == [
            "delta-000001.json", "delta-000002.json", REGISTRY_FILENAME]
        RegistryAssimilator(first).assimilate(pool[5])
        first.save(directory)
        assert listing(directory) == [REGISTRY_FILENAME]
        assert RegistryStore.load(directory).to_body() == first.to_body()

    def test_same_record_count_but_another_writers_records(
            self, tmp_path, pool):
        # The listdir count matches the first writer's mark; only the
        # newest record's CRC tells the records apart.
        directory, first = registry_with_deltas(tmp_path, pool, 4)
        second = RegistryStore(domain=DOMAIN)
        assimilator = RegistryAssimilator(second)
        for interface in pool[4:6]:
            assimilator.assimilate(interface)
            second.save(directory)
        assert second.layout() == first.layout() == (REGISTRY_FORMAT, 1)
        RegistryAssimilator(first).assimilate(pool[4])
        first.save(directory)
        assert first.layout() == (REGISTRY_FORMAT, 0)
        assert RegistryStore.load(directory).to_body() == first.to_body()

    def test_fresh_store_overwrites_a_registry_with_a_snapshot(
            self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)
        fresh, _ = build_registry(DOMAIN, pool[5:7])
        fresh.save(directory)
        assert listing(directory) == [REGISTRY_FILENAME]
        assert RegistryStore.load(directory).to_body() == fresh.to_body()

    def test_stale_delta_from_an_older_snapshot_is_ignored(
            self, tmp_path, pool):
        directory, store = registry_with_deltas(tmp_path, pool, 2)
        with open(delta_path(directory, 1), "rb") as handle:
            stale = handle.read()
        RegistryAssimilator(store).assimilate(pool[2])
        store.save(directory)  # deltas would outnumber: new snapshot
        assert listing(directory) == [REGISTRY_FILENAME]
        with open(delta_path(directory, 1), "wb") as handle:
            handle.write(stale)
        loaded = RegistryStore.load(directory)
        assert loaded.to_body() == store.to_body()
        assert loaded.layout() == (REGISTRY_FORMAT, 0)
        # the next save cannot extend a directory it does not account
        # for: it writes a snapshot and removes the stale delta
        RegistryAssimilator(loaded).assimilate(pool[3])
        loaded.save(directory)
        assert listing(directory) == [REGISTRY_FILENAME]
        assert RegistryStore.load(directory).to_body() == loaded.to_body()

    def test_older_format_snapshot_is_rewritten_not_extended(
            self, tmp_path, pool):
        directory = saved_registry(tmp_path)

        def downgrade(env):
            env["format"] = 3
            reseal(env)

        rewrite(directory, downgrade)
        store = RegistryStore.load(directory)
        assert store.layout() == (3, 0)
        RegistryAssimilator(store).assimilate(pool[3])
        store.save(directory)
        with open(store_path(directory), encoding="utf-8") as handle:
            assert json.load(handle)["format"] == REGISTRY_FORMAT
        assert listing(directory) == [REGISTRY_FILENAME]
        assert RegistryStore.load(directory).to_body() == store.to_body()

    def test_configuration_change_gets_a_snapshot(self, tmp_path, pool):
        # a delta carries no configuration: it extends the snapshot's
        directory, store = registry_with_deltas(tmp_path, pool, 4)
        store.threshold = 0.25
        RegistryAssimilator(store).assimilate(pool[4])
        store.save(directory)
        assert store.layout() == (REGISTRY_FORMAT, 0)
        assert RegistryStore.load(directory).to_body() == store.to_body()

    def test_copy_leaves_the_original_untouched(self, tmp_path, pool):
        directory, store = registry_with_deltas(tmp_path, pool, 4)
        body = store.to_body()
        twin = store.copy()
        assert twin == store and twin.layout() == store.layout()
        RegistryAssimilator(twin).assimilate(pool[4])
        assert store.to_body() == body
        twin.save(directory)
        assert twin.layout() == (REGISTRY_FORMAT, 2)
        assert RegistryStore.load(directory).to_body() == twin.to_body()


def rewrite_delta(directory, number, mutate):
    path = delta_path(directory, number)
    with open(path, encoding="utf-8") as handle:
        envelope = json.load(handle)
    mutate(envelope)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle)


class TestDeltaCorruption:
    """A damaged delta is typed and named, exactly like the snapshot."""

    def test_torn_delta(self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)
        with open(delta_path(directory, 1), "r+b") as handle:
            handle.truncate(40)
        with pytest.raises(RegistryCorruptionError,
                           match=r"delta-000001\.json: torn or unparseable"):
            RegistryStore.load(directory)

    def test_crc_mismatched_delta(self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)
        rewrite_delta(directory, 1, lambda env: env["body"]["stats"][
            "adds"][0].__setitem__("evaluated", 999))
        with pytest.raises(RegistryCorruptionError,
                           match=r"delta-000001\.json: CRC mismatch"):
            RegistryStore.load(directory)

    def test_newer_format_delta(self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)
        rewrite_delta(directory, 1, lambda env: env.__setitem__(
            "format", REGISTRY_FORMAT + 1))
        with pytest.raises(RegistryFormatError,
                           match=r"delta-000001\.json: .*newer than this"):
            RegistryStore.load(directory)

    def test_delta_that_skips_a_record(self, tmp_path, pool):
        directory, store = registry_with_deltas(tmp_path, pool, 4)
        assert store.layout() == (REGISTRY_FORMAT, 1)
        RegistryAssimilator(store).assimilate(pool[4])
        store.save(directory)
        os.remove(delta_path(directory, 1))
        with pytest.raises(RegistryCorruptionError,
                           match=r"delta-000002\.json: extends a registry "
                                 r"of 4 interfaces, but the records before "
                                 r"it hold 3"):
            RegistryStore.load(directory)

    def test_resealed_delta_repeating_an_interface(self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)

        def repeat(env):
            env["body"]["interfaces"].append(
                dict(env["body"]["interfaces"][0]))
            reseal(env)

        rewrite_delta(directory, 1, repeat)
        with pytest.raises(RegistryCorruptionError,
                           match=r"delta-000001\.json: duplicate interface"):
            RegistryStore.load(directory)

    def test_resealed_delta_without_base(self, tmp_path, pool):
        directory, _ = registry_with_deltas(tmp_path, pool, 2)

        def drop_base(env):
            del env["body"]["base"]
            reseal(env)

        rewrite_delta(directory, 1, drop_base)
        with pytest.raises(RegistryCorruptionError,
                           match=r"delta-000001\.json: malformed registry"):
            RegistryStore.load(directory)


class Crash(Exception):
    """Injected in place of a filesystem call."""


def failing_on_call(real, number):
    """``real``, except that call ``number`` (1-based) raises Crash."""
    calls = []

    def call(*args, **kwargs):
        calls.append(None)
        if len(calls) == number:
            raise Crash(f"injected at call {number}")
        return real(*args, **kwargs)

    return call


class TestCrashDuringSave:
    """Whichever ``os.replace`` or ``os.fsync`` inside ``save`` fails, the
    directory loads to the store before the save or the store after it,
    and the next saves from the same store land what it holds."""

    def prepare(self, tmp_path, pool, kind):
        """A directory and an in-memory store one add past it whose next
        save takes the ``kind`` path."""
        directory = str(tmp_path / "registry")
        if kind == "delta":
            build_registry(DOMAIN, pool[:3], directory=directory)
            store = RegistryStore.load(directory)
        elif kind == "snapshot":
            build_registry(DOMAIN, pool[:4], directory=directory)
            store = RegistryStore.load(directory)
        else:  # "fresh": a store that never saved here
            build_registry(DOMAIN, pool[:4], directory=directory)
            store, _ = build_registry(DOMAIN, pool[1:4])
        pre = RegistryStore.load(directory).to_body()
        RegistryAssimilator(store).assimilate(pool[4])
        return directory, store, pre

    @pytest.mark.parametrize("kind", ["delta", "snapshot", "fresh"])
    @pytest.mark.parametrize("target", ["replace", "fsync"])
    def test_every_injected_failure_leaves_pre_or_post(
            self, tmp_path, pool, monkeypatch, kind, target):
        real = getattr(os, target)
        outcomes = []
        for number in range(1, 10):
            case = tmp_path / f"{number}"
            directory, store, pre = self.prepare(case, pool, kind)
            post = store.to_body()
            monkeypatch.setattr(os, target, failing_on_call(real, number))
            try:
                store.save(directory)
            except Crash:
                crashed = True
            else:
                crashed = False
            finally:
                monkeypatch.setattr(os, target, real)
            assert RegistryStore.load(directory).to_body() in (pre, post)
            store.save(directory)
            assert RegistryStore.load(directory).to_body() == post
            RegistryAssimilator(store).assimilate(pool[5])
            store.save(directory)
            assert RegistryStore.load(directory).to_body() == store.to_body()
            outcomes.append(crashed)
            if not crashed:
                break
        # each save calls os.replace once and os.fsync twice
        assert outcomes == [True] * (1 if target == "replace" else 2) \
            + [False]

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

import pytest

from repro.util.envelope import record_crc
from repro.datasets import build_domain_dataset
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

"""Salvage: a damaged journal is truncated to its longest valid prefix.

Where :meth:`RunJournal.open` refuses, :meth:`RunJournal.salvage` heals —
cutting the log at the first damage and copying (never deleting) the torn
tail into ``quarantine/``. These tests attack salvage with the same
arsenal the loader faces (torn tails, flipped CRCs, gaps, duplicates,
forged formats); a seeded crash-fuzz property test tears or bit-flips the
log at random byte offsets, and injected failures inside an append model
a crash mid-write. Every time, salvage + resume must recover the longest
valid prefix and complete byte-identical.
"""

import json
import os
import pathlib
import random

import pytest

from repro.checkpoint import (
    QUARANTINE_DIRNAME,
    CheckpointConfig,
    RunJournal,
)
from repro.core.pipeline import WebIQConfig, WebIQMatcher
from repro.datasets import build_domain_dataset
from repro.io import run_result_to_dict
from repro.obs import check_run
from repro.supervisor import (
    COMPLETED,
    FAILURE_CORRUPTION,
    FAILURE_CRASH,
    RunSupervisor,
)
from repro.util.errors import (
    JournalCorruptionError,
    JournalFormatError,
    JournalMismatchError,
)
from tests.test_checkpoint_journal import (
    META,
    body_for,
    drop_line,
    log_lines,
    log_path,
    make_journal,
    rewrite,
    set_line,
)

def quarantine_dir(directory):
    return os.path.join(str(directory), QUARANTINE_DIRNAME)


def quarantined_bytes(directory):
    """The quarantine files, as ``{name: bytes}``."""
    root = pathlib.Path(quarantine_dir(directory))
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestSalvageSemantics:
    def test_intact_journal_is_a_no_op(self, tmp_path):
        make_journal(tmp_path, n=4)
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 4
        assert report.quarantined == ()
        assert not report.salvaged_anything
        assert "nothing to salvage" in report.summary()
        assert not os.path.isdir(quarantine_dir(tmp_path))
        assert len(RunJournal.open(str(tmp_path))) == 4

    def test_torn_tail_is_trimmed(self, tmp_path):
        make_journal(tmp_path, n=5)
        set_line(tmp_path, 3, '{"torn')
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 3
        [tail] = quarantined_bytes(tmp_path)
        assert [q.filename for q in report.quarantined] == [tail, tail]
        assert "torn or unparseable" in report.quarantined[0].reason
        # Record 4 was healthy, but the prefix property makes it
        # unusable the moment record 3 is gone.
        assert "follows truncation at record 3" in \
            report.quarantined[1].reason
        assert len(RunJournal.open(str(tmp_path))) == 3

    def test_flipped_crc_is_trimmed(self, tmp_path):
        make_journal(tmp_path, n=3)
        rewrite(tmp_path, 1,
                lambda env: env.__setitem__("crc", env["crc"] ^ 1))
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 1
        assert report.quarantined_records == 2
        assert "CRC mismatch" in report.quarantined[0].reason

    def test_sequence_gap_is_trimmed(self, tmp_path):
        make_journal(tmp_path, n=4)
        drop_line(tmp_path, 1)
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 1
        [tail] = quarantined_bytes(tmp_path)
        assert [q.filename for q in report.quarantined] == [tail, tail]
        assert "record 1: body claims index 2" in report.quarantined[0].reason

    def test_duplicate_unit_is_trimmed(self, tmp_path):
        journal = make_journal(tmp_path, n=2)
        journal.append(body_for(0))  # same unit as record 0
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 2
        assert "duplicate" in report.quarantined[0].reason

    def test_damaged_records_are_moved_not_deleted(self, tmp_path):
        make_journal(tmp_path, n=3)
        last = log_lines(tmp_path)[2]
        set_line(tmp_path, 1, "garbage")
        RunJournal.salvage(str(tmp_path))
        # damage stays inspectable: the cut tail, byte for byte
        assert list(quarantined_bytes(tmp_path).values()) == \
            [f"garbage\n{last}\n".encode("ascii")]

    def test_repeated_salvage_does_not_clobber_quarantine(self, tmp_path):
        """A record quarantined twice keeps both generations on disk."""
        make_journal(tmp_path, n=2)
        set_line(tmp_path, 1, "first damage")
        RunJournal.salvage(str(tmp_path))
        journal = RunJournal.open(str(tmp_path))
        journal.append(body_for(1))
        set_line(tmp_path, 1, "second damage")
        RunJournal.salvage(str(tmp_path))
        moved = quarantined_bytes(tmp_path)
        assert sorted(moved.values()) == \
            [b"first damage\n", b"second damage\n"]

    def test_salvage_is_idempotent(self, tmp_path):
        make_journal(tmp_path, n=3)
        set_line(tmp_path, 2, "garbage")
        first = RunJournal.salvage(str(tmp_path))
        assert first.salvaged_anything
        second = RunJournal.salvage(str(tmp_path))
        assert second.kept_records == first.kept_records == 2
        assert not second.salvaged_anything

    def test_torn_meta_is_beyond_salvage(self, tmp_path):
        make_journal(tmp_path, n=2)
        with open(os.path.join(str(tmp_path), "meta.json"), "w") as handle:
            handle.write('{"torn')
        with pytest.raises(JournalCorruptionError, match="journal meta"):
            RunJournal.salvage(str(tmp_path))

    def test_missing_meta_is_beyond_salvage(self, tmp_path):
        make_journal(tmp_path, n=2)
        os.unlink(os.path.join(str(tmp_path), "meta.json"))
        with pytest.raises(JournalMismatchError, match="meta"):
            RunJournal.salvage(str(tmp_path))

    def test_future_format_record_refuses_salvage(self, tmp_path):
        """A newer-schema journal must not be truncated by an old reader."""
        make_journal(tmp_path, n=2)
        rewrite(tmp_path, 1,
                lambda env: env.__setitem__("format", 99))
        with pytest.raises(JournalFormatError, match="newer"):
            RunJournal.salvage(str(tmp_path))

    def test_create_wipes_stale_quarantine(self, tmp_path):
        make_journal(tmp_path, n=2)
        set_line(tmp_path, 1, "garbage")
        RunJournal.salvage(str(tmp_path))
        assert os.listdir(quarantine_dir(tmp_path))
        RunJournal.create(str(tmp_path), dict(META))
        assert not os.path.exists(quarantine_dir(tmp_path))

    def test_summary_names_first_damage(self, tmp_path):
        make_journal(tmp_path, n=3)
        set_line(tmp_path, 1, "garbage")
        report = RunJournal.salvage(str(tmp_path))
        summary = report.summary()
        assert "1-record prefix" in summary
        [tail] = quarantined_bytes(tmp_path)
        assert f"{tail}: record 1: torn or unparseable" in summary


class JournaledRuns:
    """Real journaled runs of book/3, as comparable bytes."""

    N_INTERFACES = 3

    def _canonical(self, dataset, result):
        payload = run_result_to_dict(result)
        for key in ("checkpoint", "format", "supervisor"):
            payload.pop(key, None)
        payload["_acquired"] = {
            interface.interface_id: {
                attribute.name: list(attribute.acquired)
                for attribute in interface.attributes
            }
            for interface in dataset.interfaces
        }
        return json.dumps(payload, sort_keys=True)

    def _run(self, directory, resume=False):
        dataset = build_domain_dataset("book", self.N_INTERFACES, 1)
        config = WebIQConfig(checkpoint=CheckpointConfig(
            directory=directory, resume=resume))
        result = WebIQMatcher(config).run(dataset)
        return self._canonical(dataset, result)


class TestCrashFuzz(JournaledRuns):
    """Tear a real run's journal at random byte offsets; salvage + resume
    must always recover the longest valid prefix and finish identical."""

    FUZZ_SEEDS = range(8)

    @pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
    def test_salvage_recovers_longest_valid_prefix(self, tmp_path,
                                                   fuzz_seed):
        directory = str(tmp_path / "journal")
        reference = self._run(directory)
        with open(log_path(directory), "rb") as handle:
            original = handle.read()
        line_starts = [0] + [
            position + 1 for position, byte in enumerate(original[:-1])
            if byte == ord("\n")]

        rng = random.Random(fuzz_seed)
        offset = rng.randrange(len(original))
        # the record whose line holds the damaged byte
        victim_index = sum(1 for start in line_starts if start <= offset) - 1
        with open(log_path(directory), "r+b") as handle:
            if rng.random() < 0.5:
                handle.truncate(offset)  # torn write
            else:
                handle.seek(offset)  # bit rot
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
            handle.seek(0)
            torn = handle.read()
        prefix_end = line_starts[victim_index]

        try:
            RunJournal.open(directory)
            damaged = False  # the cut landed exactly on a line end
        except JournalCorruptionError:
            damaged = True

        report = RunJournal.salvage(directory)
        if damaged:
            # Longest valid prefix: everything before the victim
            # survives; the victim's line and all after it are cut off
            # and quarantined byte for byte.
            removed = torn[prefix_end:]
            assert report.kept_records == victim_index
            assert report.quarantined_records == len(removed.splitlines())
            assert list(quarantined_bytes(directory).values()) == [removed]
        else:
            assert not report.salvaged_anything
        with open(log_path(directory), "rb") as handle:
            assert handle.read() == original[:prefix_end]
        assert len(RunJournal.open(directory)) == report.kept_records

        assert self._run(directory, resume=True) == reference


class Crash(Exception):
    """Injected in place of a filesystem call."""


def crash_in_append(monkeypatch, target, at, death):
    """Make the append of record ``at`` fail, once, at ``os.<target>``.

    A failing ``os.write`` first writes half its bytes, so a partial line
    reaches the log. With ``death`` the process dies before the append can
    truncate that line away (its ``os.ftruncate`` fails too).
    """
    real_append = RunJournal.append
    real_target = getattr(os, target)
    fired = []

    def fail(fd, *args):
        if target == "write":
            real_target(fd, args[0][: len(args[0]) // 2])
        raise Crash(f"injected at os.{target}")

    def die(fd, length):
        raise Crash("died before the partial line was truncated")

    def append(journal, body):
        if fired or len(journal.records) != at:
            return real_append(journal, body)
        fired.append(True)
        with monkeypatch.context() as patch:
            patch.setattr(os, target, fail)
            if death:
                patch.setattr(os, "ftruncate", die)
            return real_append(journal, body)

    monkeypatch.setattr(RunJournal, "append", append)


CRASH_POINTS = pytest.mark.parametrize(
    "target, death",
    [("write", False), ("fsync", False), ("write", True)],
    ids=["write", "fsync", "write-then-death"],
)


class TestCrashDuringAppend(JournaledRuns):
    """Whichever call inside an append fails, the journal opens to the
    records before it (or, after a death mid-write, names the torn
    record), salvage keeps exactly those, and the run recovers."""

    AT = 4

    @CRASH_POINTS
    def test_open_salvage_and_resume(self, tmp_path, monkeypatch,
                                     target, death):
        reference = self._run(str(tmp_path / "reference"))
        directory = str(tmp_path / "journal")
        crash_in_append(monkeypatch, target, self.AT, death)
        with pytest.raises(Crash):
            self._run(directory)
        monkeypatch.undo()
        if death:
            with pytest.raises(JournalCorruptionError,
                               match=f"record {self.AT}: torn"):
                RunJournal.open(directory)
        else:
            assert len(RunJournal.open(directory)) == self.AT
        report = RunJournal.salvage(directory)
        assert report.kept_records == self.AT
        assert report.salvaged_anything == death
        assert self._run(directory, resume=True) == reference

    @CRASH_POINTS
    def test_supervised_run_heals(self, tmp_path, monkeypatch,
                                  target, death):
        reference = self._run(str(tmp_path / "reference"))
        crash_in_append(monkeypatch, target, self.AT, death)
        dataset = build_domain_dataset("book", self.N_INTERFACES, 1)
        config = WebIQConfig(checkpoint=CheckpointConfig(
            directory=str(tmp_path / "journal")))
        result = RunSupervisor(config).run(dataset)
        outcomes = [attempt.outcome for attempt in result.supervisor.attempts]
        assert outcomes == [FAILURE_CRASH] \
            + ([FAILURE_CORRUPTION] if death else []) + [COMPLETED]
        assert self._canonical(dataset, result) == reference
        audit = check_run(result)
        assert audit.ok, audit.summary()

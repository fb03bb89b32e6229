"""Salvage: a damaged journal is truncated to its longest valid prefix.

Where :meth:`RunJournal.open` refuses, :meth:`RunJournal.salvage` heals —
trimming the record chain at the first damage and moving (never deleting)
the torn suffix into ``quarantine/``. These tests attack salvage with the
same arsenal the loader faces (torn tails, flipped CRCs, gaps,
duplicates, forged formats), then a seeded crash-fuzz property test tears
record files at random byte offsets and requires salvage + resume to
recover the longest valid prefix and complete byte-identical, every time.
"""

import json
import os
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
from repro.util.errors import (
    JournalCorruptionError,
    JournalFormatError,
    JournalMismatchError,
)
from tests.test_checkpoint_journal import (
    META,
    body_for,
    make_journal,
    record_path,
    rewrite,
)

def quarantine_dir(directory):
    return os.path.join(str(directory), QUARANTINE_DIRNAME)


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
        with open(record_path(tmp_path, 3), "w") as handle:
            handle.write('{"torn')
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 3
        assert [q.filename for q in report.quarantined] == \
            ["record-000003.json", "record-000004.json"]
        assert "torn or unparseable" in report.quarantined[0].reason
        # Record 4 was healthy, but the prefix property makes it
        # unusable the moment record 3 is gone.
        assert "follows truncation at record 3" in \
            report.quarantined[1].reason
        assert len(RunJournal.open(str(tmp_path))) == 3

    def test_flipped_crc_is_trimmed(self, tmp_path):
        make_journal(tmp_path, n=3)
        rewrite(record_path(tmp_path, 1),
                lambda env: env.__setitem__("crc", env["crc"] ^ 1))
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 1
        assert report.quarantined_records == 2
        assert "CRC mismatch" in report.quarantined[0].reason

    def test_sequence_gap_is_trimmed(self, tmp_path):
        make_journal(tmp_path, n=4)
        os.unlink(record_path(tmp_path, 1))
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 1
        assert [q.filename for q in report.quarantined] == \
            ["record-000002.json", "record-000003.json"]
        assert "sequence gap" in report.quarantined[0].reason

    def test_duplicate_unit_is_trimmed(self, tmp_path):
        journal = make_journal(tmp_path, n=2)
        journal.append(body_for(0))  # same unit as record 0
        report = RunJournal.salvage(str(tmp_path))
        assert report.kept_records == 2
        assert "duplicate" in report.quarantined[0].reason

    def test_damaged_records_are_moved_not_deleted(self, tmp_path):
        make_journal(tmp_path, n=3)
        with open(record_path(tmp_path, 1), "w") as handle:
            handle.write("garbage")
        RunJournal.salvage(str(tmp_path))
        moved = sorted(os.listdir(quarantine_dir(tmp_path)))
        assert moved == ["record-000001.json", "record-000002.json"]
        with open(os.path.join(quarantine_dir(tmp_path),
                               "record-000001.json")) as handle:
            assert handle.read() == "garbage"  # damage stays inspectable

    def test_repeated_salvage_does_not_clobber_quarantine(self, tmp_path):
        """A record quarantined twice keeps both generations on disk."""
        make_journal(tmp_path, n=2)
        with open(record_path(tmp_path, 1), "w") as handle:
            handle.write("first damage")
        RunJournal.salvage(str(tmp_path))
        journal = RunJournal.open(str(tmp_path))
        journal.append(body_for(1))
        with open(record_path(tmp_path, 1), "w") as handle:
            handle.write("second damage")
        RunJournal.salvage(str(tmp_path))
        moved = sorted(os.listdir(quarantine_dir(tmp_path)))
        assert moved == ["record-000001.json", "record-000001.json.1"]

    def test_salvage_is_idempotent(self, tmp_path):
        make_journal(tmp_path, n=3)
        with open(record_path(tmp_path, 2), "w") as handle:
            handle.write("garbage")
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
        rewrite(record_path(tmp_path, 1),
                lambda env: env.__setitem__("format", 99))
        with pytest.raises(JournalFormatError, match="newer"):
            RunJournal.salvage(str(tmp_path))

    def test_create_wipes_stale_quarantine(self, tmp_path):
        make_journal(tmp_path, n=2)
        with open(record_path(tmp_path, 1), "w") as handle:
            handle.write("garbage")
        RunJournal.salvage(str(tmp_path))
        assert os.listdir(quarantine_dir(tmp_path))
        RunJournal.create(str(tmp_path), dict(META))
        assert os.listdir(quarantine_dir(tmp_path)) == []

    def test_summary_names_first_damage(self, tmp_path):
        make_journal(tmp_path, n=3)
        with open(record_path(tmp_path, 1), "w") as handle:
            handle.write("garbage")
        report = RunJournal.salvage(str(tmp_path))
        summary = report.summary()
        assert "1-record prefix" in summary
        assert "record-000001.json" in summary


class TestCrashFuzz:
    """Tear a real run's journal at random byte offsets; salvage + resume
    must always recover the longest valid prefix and finish identical."""

    N_INTERFACES = 3
    FUZZ_SEEDS = range(8)

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

    @pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
    def test_salvage_recovers_longest_valid_prefix(self, tmp_path,
                                                   fuzz_seed):
        directory = str(tmp_path / "journal")
        reference = self._run(directory)
        records = sorted(
            name for name in os.listdir(directory)
            if name.startswith("record-"))

        rng = random.Random(fuzz_seed)
        victim_index = rng.randrange(len(records))
        victim = os.path.join(directory, records[victim_index])
        size = os.path.getsize(victim)
        offset = rng.randrange(size)
        with open(victim, "r+b") as handle:
            if rng.random() < 0.5:
                handle.truncate(offset)  # torn write
            else:
                handle.seek(offset)  # bit rot
                original = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([original[0] ^ 0xFF]))

        try:
            RunJournal.open(directory)
            damaged = False  # the flip landed on insignificant bytes
        except JournalCorruptionError:
            damaged = True

        report = RunJournal.salvage(directory)
        if damaged:
            # Longest valid prefix: everything before the victim
            # survives, the victim and all successors are quarantined.
            assert report.kept_records == victim_index
            assert report.quarantined_records == \
                len(records) - victim_index
        else:
            assert not report.salvaged_anything
        assert len(RunJournal.open(directory)) == report.kept_records

        assert self._run(directory, resume=True) == reference

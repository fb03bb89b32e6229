"""The run journal's crash-safety contract, attacked directly.

The journal's promise is that whatever is on disk is a *complete prefix*
of the run: every record present is whole, CRC-verified, gap-free and
unique per unit of work. These tests fuzz that promise — truncating
tails, flipping CRC bits, forging future formats, duplicating records —
and require every violation to surface as a typed :class:`JournalError`
subclass naming the offending record, never a crash and never a silent
(mis-)resume.
"""

import json
import os

import pytest

from repro.checkpoint import JOURNAL_FORMAT, RunJournal
from repro.resilience import KillSwitch
from repro.util.envelope import record_crc, seal
from repro.util.errors import (
    JournalCorruptionError,
    JournalFormatError,
    JournalMismatchError,
    PreemptionError,
    WebAccessError,
)

META = {"domain": "book", "seed": 1, "n_interfaces": 3}


def body_for(index):
    return {
        "unit": ["surface", f"book-{index:02d}", "title"],
        "skipped": False,
        "added": [f"value-{index}"],
        "record": {"n_after_surface": index},
        "queries": index,
        "probes": 0,
        "stores": {},
        "probe_memo": [],
        "state": {},
    }


def make_journal(directory, n=3):
    journal = RunJournal.create(str(directory), dict(META))
    for index in range(n):
        journal.append(body_for(index))
    return journal


def write_format_1_journal(directory, meta=META):
    """A journal in the old layout: sealed meta plus one file per record."""
    os.makedirs(str(directory), exist_ok=True)
    for name, body in (("meta.json", meta),
                       ("record-000000.json", body_for(0))):
        with open(os.path.join(str(directory), name), "w") as handle:
            handle.write(seal(body, 1))


def log_path(directory):
    return os.path.join(str(directory), "journal.log")


def log_lines(directory):
    """The log's lines, without their line ends."""
    with open(log_path(directory), "rb") as handle:
        return handle.read().decode("ascii").splitlines()


def write_lines(directory, lines):
    with open(log_path(directory), "w") as handle:
        handle.write("".join(line + "\n" for line in lines))


def set_line(directory, index, text):
    """Overwrite record ``index``'s line, keeping the line framing."""
    lines = log_lines(directory)
    lines[index] = text
    write_lines(directory, lines)


def drop_line(directory, index):
    lines = log_lines(directory)
    del lines[index]
    write_lines(directory, lines)


def rewrite(directory, index, mutate):
    """Load record ``index``'s envelope, apply ``mutate(envelope)``, write
    it back in place (``index=None`` rewrites ``meta.json`` instead)."""
    if index is None:
        path = os.path.join(str(directory), "meta.json")
        with open(path) as handle:
            envelope = json.load(handle)
        mutate(envelope)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        return
    envelope = json.loads(log_lines(directory)[index])
    mutate(envelope)
    set_line(directory, index, json.dumps(envelope))


def reseal(mutate):
    """``mutate`` the body, then recompute the CRC so only the semantic
    checks can catch the damage."""
    def apply(envelope):
        mutate(envelope["body"])
        envelope["crc"] = record_crc(envelope["body"])
    return apply


class TestJournalRoundTrip:
    def test_append_then_open_round_trips(self, tmp_path):
        make_journal(tmp_path, n=4)
        reopened = RunJournal.open(str(tmp_path))
        assert reopened.meta == META
        assert len(reopened) == 4
        for index, body in enumerate(reopened.records):
            assert body["index"] == index
            assert body["added"] == [f"value-{index}"]

    def test_append_returns_boundary_indices(self, tmp_path):
        journal = RunJournal.create(str(tmp_path), dict(META))
        assert journal.append(body_for(0)) == 0
        assert journal.append(body_for(1)) == 1

    def test_create_wipes_stale_journal(self, tmp_path):
        make_journal(tmp_path, n=5)
        fresh = RunJournal.create(str(tmp_path), dict(META))
        assert len(fresh) == 0
        assert log_lines(tmp_path) == []

    def test_record_files_are_envelope_sealed(self, tmp_path):
        make_journal(tmp_path, n=1)
        [line] = log_lines(tmp_path)
        envelope = json.loads(line)
        assert envelope["format"] == JOURNAL_FORMAT
        assert envelope["crc"] == record_crc(envelope["body"])
        assert line == seal(envelope["body"], JOURNAL_FORMAT)

    def test_empty_journal_opens(self, tmp_path):
        RunJournal.create(str(tmp_path), dict(META))
        assert len(RunJournal.open(str(tmp_path))) == 0

    def test_append_is_one_fsync_and_no_rename(self, tmp_path, monkeypatch):
        journal = make_journal(tmp_path, n=1)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def spy_replace(*args, **kwargs):
            calls.append("replace")
            real_replace(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        journal.append(body_for(1))
        assert calls == ["fsync"]
        assert len(RunJournal.open(str(tmp_path))) == 2


class TestJournalCorruption:
    """Every damaged journal is refused loudly, naming the record."""

    def test_truncated_tail_record(self, tmp_path):
        make_journal(tmp_path, n=3)
        with open(log_path(tmp_path), "r+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            handle.truncate(size - len(log_lines(tmp_path)[2]) // 2)
        with pytest.raises(JournalCorruptionError, match="record 2"):
            RunJournal.open(str(tmp_path))

    def test_bit_flipped_payload_fails_crc(self, tmp_path):
        make_journal(tmp_path, n=3)
        rewrite(tmp_path, 1,
                lambda env: env["body"].__setitem__("added", ["tampered"]))
        with pytest.raises(JournalCorruptionError,
                           match="record 1: CRC mismatch"):
            RunJournal.open(str(tmp_path))

    def test_flipped_crc_field(self, tmp_path):
        make_journal(tmp_path, n=2)
        rewrite(tmp_path, 0,
                lambda env: env.__setitem__("crc", env["crc"] ^ 1))
        with pytest.raises(JournalCorruptionError,
                           match="record 0: CRC mismatch"):
            RunJournal.open(str(tmp_path))

    def test_future_format_record_is_rejected(self, tmp_path):
        make_journal(tmp_path, n=2)
        rewrite(tmp_path, 1,
                lambda env: env.__setitem__("format", 99))
        with pytest.raises(JournalFormatError, match="newer"):
            RunJournal.open(str(tmp_path))

    def test_future_format_meta_is_rejected(self, tmp_path):
        make_journal(tmp_path, n=1)
        rewrite(tmp_path, None,
                lambda env: env.__setitem__("format", JOURNAL_FORMAT + 1))
        with pytest.raises(JournalFormatError, match="journal meta"):
            RunJournal.open(str(tmp_path))

    def test_duplicate_unit_names_both_records(self, tmp_path):
        journal = make_journal(tmp_path, n=2)
        duplicate = body_for(0)  # same unit as record 0
        journal.append(duplicate)
        with pytest.raises(JournalCorruptionError,
                           match=r"record 2: duplicate .*first at record 0"):
            RunJournal.open(str(tmp_path))

    def test_sequence_gap(self, tmp_path):
        make_journal(tmp_path, n=4)
        drop_line(tmp_path, 1)
        with pytest.raises(JournalCorruptionError,
                           match="record 1: body claims index 2"):
            RunJournal.open(str(tmp_path))

    def test_body_index_disagrees_with_filename(self, tmp_path):
        make_journal(tmp_path, n=2)
        rewrite(tmp_path, 1,
                reseal(lambda body: body.__setitem__("index", 7)))
        with pytest.raises(JournalCorruptionError, match="claims index 7"):
            RunJournal.open(str(tmp_path))

    def test_missing_unit_key(self, tmp_path):
        make_journal(tmp_path, n=1)
        rewrite(tmp_path, 0,
                reseal(lambda body: body.pop("unit")))
        with pytest.raises(JournalCorruptionError, match="missing unit"):
            RunJournal.open(str(tmp_path))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(JournalMismatchError, match="no journal"):
            RunJournal.open(str(tmp_path / "nowhere"))

    def test_format_1_directory_is_refused(self, tmp_path):
        write_format_1_journal(tmp_path)
        with pytest.raises(JournalMismatchError,
                           match="format 1, the old layout"):
            RunJournal.open(str(tmp_path))
        with pytest.raises(JournalMismatchError,
                           match="format 1, the old layout"):
            RunJournal.salvage(str(tmp_path))

    def test_missing_log(self, tmp_path):
        make_journal(tmp_path, n=1)
        os.unlink(log_path(tmp_path))
        with pytest.raises(JournalMismatchError, match="journal.log"):
            RunJournal.open(str(tmp_path))

    def test_missing_meta(self, tmp_path):
        make_journal(tmp_path, n=1)
        os.unlink(os.path.join(str(tmp_path), "meta.json"))
        with pytest.raises(JournalMismatchError, match="meta"):
            RunJournal.open(str(tmp_path))


class TestKillSwitch:
    def test_fires_exactly_at_boundary(self):
        switch = KillSwitch(2)
        switch.check(0)
        switch.check(1)
        with pytest.raises(PreemptionError, match="boundary 2"):
            switch.check(2)
        assert switch.fired

    def test_fires_only_once(self):
        switch = KillSwitch(0)
        with pytest.raises(PreemptionError):
            switch.check(0)
        switch.check(0)  # already fired: no second death

    def test_preemption_is_not_a_web_fault(self):
        # A preemption must never enter the resilience retry loop — it is
        # process death, not a flaky round trip.
        assert not issubclass(PreemptionError, WebAccessError)

    def test_negative_boundary_rejected(self):
        with pytest.raises(ValueError):
            KillSwitch(-1)

    def test_sweep_point_is_seed_deterministic(self):
        points = {KillSwitch.sweep_point(seed, 40) for seed in range(30)}
        assert KillSwitch.sweep_point(7, 40) == KillSwitch.sweep_point(7, 40)
        assert all(0 <= p < 40 for p in points)
        assert len(points) > 1  # the sweep actually varies the kill point

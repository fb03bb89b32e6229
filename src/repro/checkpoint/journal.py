"""The write-ahead run journal: one append-only log of CRC-guarded records.

A journal is a directory::

    <dir>/meta.json     # run identity (domain, seed, config coords)
    <dir>/journal.log   # one sealed record per line: unit 0, unit 1, ...
    <dir>/quarantine/   # damaged tails cut off by salvage, if any

``meta.json`` is a sealed envelope (:mod:`repro.util.envelope`) written by
:func:`repro.util.atomicio.atomic_write_json`. Each log line is one
envelope's canonical JSON, which is ASCII-only with newlines escaped, so
no body can forge the framing. An append writes one line and fsyncs once:
a crash between appends leaves a *complete prefix* of the run, and a death
mid-append at worst a torn last line. That prefix property is what makes
resume sound; the loader therefore enforces it militantly:

- an unterminated or unparseable line, a CRC mismatch, a body ``index``
  that is not the line number, and a missing or duplicate unit are
  :class:`JournalCorruptionError` (naming the record index);
- an envelope written by a *newer* schema is :class:`JournalFormatError`
  — old readers must refuse loudly, not misread silently;
- a format-1 journal (one file per record), a format-2 journal (whose
  records journal hit counts under two marginal keys and no extraction
  searches) and a format-3 journal (whose records replay the query
  cache's ops) are :class:`JournalMismatchError`: journals are per-run
  state, so no reader for an old format is kept.

The enforcement has an escape hatch for supervised recovery:
:meth:`RunJournal.salvage` copies the damaged tail into
``<dir>/quarantine/``, truncates the log to its longest valid prefix and
describes the cut in a typed :class:`SalvageReport`, after which
:meth:`RunJournal.open` accepts the journal again and resume re-runs the
trimmed units fresh. Only the meta file is beyond salvage: without a
verified run identity the journal cannot say whose prefix it is.

Record bodies are opaque to this module; their content is defined by
:mod:`repro.checkpoint.session`. The ``unit`` key (a
``[phase, interface_id, attribute]`` triple) is the only field the loader
interprets, for duplicate detection.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.util.atomicio import _fsync_directory, atomic_write_json
from repro.util.envelope import read_sealed, seal, verify_sealed
from repro.util.errors import (
    JournalCorruptionError,
    JournalFormatError,
    JournalMismatchError,
)

__all__ = [
    "JOURNAL_FORMAT",
    "QUARANTINE_DIRNAME",
    "QuarantinedRecord",
    "RunJournal",
    "SalvageReport",
]

#: Schema version of journal envelopes (records and meta alike).
JOURNAL_FORMAT = 4

META_FILENAME = "meta.json"
LOG_FILENAME = "journal.log"
#: Subdirectory (inside the journal) that salvage copies damaged tails to.
QUARANTINE_DIRNAME = "quarantine"


@dataclass(frozen=True)
class QuarantinedRecord:
    """One line of a damaged tail cut off by :meth:`RunJournal.salvage`;
    ``filename`` names the ``quarantine/`` file holding the tail."""

    filename: str
    reason: str


@dataclass(frozen=True)
class SalvageReport:
    """What :meth:`RunJournal.salvage` kept, and what it cut off."""

    directory: str
    #: records in the surviving valid prefix
    kept_records: int
    #: one entry per line of the damaged tail, in log order
    quarantined: Tuple[QuarantinedRecord, ...] = ()

    @property
    def quarantined_records(self) -> int:
        return len(self.quarantined)

    @property
    def salvaged_anything(self) -> bool:
        """True when salvage actually had to trim the journal."""
        return bool(self.quarantined)

    def summary(self) -> str:
        if not self.quarantined:
            return (
                f"journal intact: {self.kept_records} records, "
                "nothing to salvage"
            )
        first = self.quarantined[0]
        return (
            f"salvaged journal to {self.kept_records}-record prefix; "
            f"quarantined {self.quarantined_records} "
            f"record{'s' if self.quarantined_records != 1 else ''} "
            f"(first: {first.filename}: {first.reason})"
        )


def _scan(directory: str) -> Tuple[
    Dict[str, Any], List[Dict[str, Any]], int, bytes, Optional[str],
]:
    """Walk the log's lines, stopping (not raising) at the first damage.

    Returns ``(meta, records, end, tail, reason)``: the valid prefix, its
    byte end, the bytes after it (all unusable, by the prefix property)
    and why the walk stopped (``None``: the whole log is valid). A missing
    journal, meta or log and a journal of format 1 to 3 raise
    :class:`JournalMismatchError`, and newer-format envelopes
    :class:`JournalFormatError` — no damage a prefix walk may paper over.
    """
    meta_path = os.path.join(directory, META_FILENAME)
    if not os.path.exists(meta_path):
        raise JournalMismatchError(
            f"no journal at {directory} (missing {META_FILENAME})")
    meta = read_sealed(meta_path, "journal", JOURNAL_FORMAT,
                       JournalCorruptionError, JournalFormatError,
                       "journal meta")
    if meta["format"] == 1:
        raise JournalMismatchError(
            f"journal at {directory} has format 1, the old layout of one "
            "file per record; start the run afresh")
    if meta["format"] < JOURNAL_FORMAT:
        raise JournalMismatchError(
            f"journal at {directory} has format {meta['format']}, an old "
            "record schema (format 2 lacks the run's search memo, format 3 "
            "replays the removed query cache); start the run afresh")
    try:
        with open(os.path.join(directory, LOG_FILENAME), "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise JournalMismatchError(
            f"no journal at {directory} (missing {LOG_FILENAME})") from None

    records: List[Dict[str, Any]] = []
    seen_units: Dict[Tuple[str, ...], int] = {}
    end = 0
    reason: Optional[str] = None
    while end < len(data) and reason is None:
        index = len(records)
        line_end = data.find(b"\n", end)
        if line_end < 0:
            reason = f"record {index}: torn or unparseable (no line end)"
            break
        try:
            body = verify_sealed(
                data[end:line_end], "journal", JOURNAL_FORMAT,
                JournalCorruptionError, JournalFormatError, f"record {index}",
            )["body"]
        except JournalCorruptionError as exc:
            reason = str(exc)
            break
        unit = tuple(body.get("unit", ()))
        if body.get("index") != index:
            reason = f"record {index}: body claims index {body.get('index')!r}"
        elif not unit:
            reason = f"record {index}: missing unit key"
        elif unit in seen_units:
            reason = (f"record {index}: duplicate record for unit "
                      f"{list(unit)} (first at record {seen_units[unit]})")
        else:
            seen_units[unit] = index
            records.append(body)
            end = line_end + 1
    return meta["body"], records, end, data[end:], reason


def _write_durably(path: str, data: bytes, flags: int) -> None:
    """Write all of ``data`` to ``path`` opened with ``flags``, then fsync.

    If the write or the fsync raises, the file is truncated back to its
    size before the write, so a failed append leaves no partial line.
    """
    fd = os.open(path, os.O_WRONLY | flags, 0o644)
    try:
        start = os.lseek(fd, 0, os.SEEK_END)
        try:
            while data:
                data = data[os.write(fd, data):]
            os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, start)
            raise
    finally:
        os.close(fd)


class RunJournal:
    """An append-only, crash-safe journal of completed units of work."""

    def __init__(self, directory: str, meta: Dict[str, Any],
                 records: Optional[List[Dict[str, Any]]] = None) -> None:
        self.directory = directory
        self.meta = meta
        self.records: List[Dict[str, Any]] = records if records is not None \
            else []

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, directory: str, meta: Dict[str, Any]) -> "RunJournal":
        """Start a fresh journal in ``directory`` (wiping any stale one).

        The log is emptied before the meta is written, so a crash in
        between never pairs the new identity with stale records; the meta
        write's directory fsync also makes the log's entry durable.
        """
        os.makedirs(directory, exist_ok=True)
        shutil.rmtree(os.path.join(directory, QUARANTINE_DIRNAME),
                      ignore_errors=True)
        _write_durably(os.path.join(directory, LOG_FILENAME), b"",
                       os.O_CREAT | os.O_TRUNC)
        atomic_write_json(
            os.path.join(directory, META_FILENAME), seal(meta, JOURNAL_FORMAT)
        )
        return cls(directory, meta)

    @classmethod
    def open(cls, directory: str) -> "RunJournal":
        """Load an existing journal, verifying every guarantee.

        The records come back in index order; any violation of the
        complete-prefix property — a torn last line included — raises a
        typed :class:`JournalError` subclass naming the offending record.
        """
        meta, records, _, _, reason = _scan(directory)
        if reason is not None:
            raise JournalCorruptionError(reason)
        return cls(directory, meta, records)

    @classmethod
    def valid_prefix(cls, directory: str) -> List[Dict[str, Any]]:
        """The record bodies of the log's longest valid prefix, without
        raising on (or touching) damage past it."""
        return _scan(directory)[1]

    @classmethod
    def salvage(cls, directory: str) -> SalvageReport:
        """Truncate a damaged journal to its longest valid prefix.

        Walks the log exactly as :meth:`open` does, but where ``open``
        raises, ``salvage`` *stops*. The bytes from the first damaged line
        on are first written verbatim and durably to one new file under
        ``<dir>/quarantine/`` (the damage stays inspectable); then the log
        is truncated to the last valid line end and fsynced. The file is
        named by the tail's first record index and a digest of its bytes,
        so an earlier salvage's tail is never overwritten.

        Two damages remain fatal: a torn/missing ``meta.json`` (the
        journal cannot prove whose prefix it is), and a record written by
        a newer schema (:class:`JournalFormatError` — a new-format journal
        must not be truncated by an old reader that cannot understand it).
        """
        _, records, end, tail, reason = _scan(directory)
        kept = len(records)
        if reason is None:
            return SalvageReport(directory=directory, kept_records=kept)

        quarantine_dir = os.path.join(directory, QUARANTINE_DIRNAME)
        os.makedirs(quarantine_dir, exist_ok=True)
        digest = hashlib.sha256(tail).hexdigest()[:16]
        name = f"tail-{kept:06d}-{digest}.log"
        _write_durably(os.path.join(quarantine_dir, name), tail,
                       os.O_CREAT | os.O_TRUNC)
        _fsync_directory(quarantine_dir)
        _fsync_directory(directory)
        log = os.open(os.path.join(directory, LOG_FILENAME), os.O_WRONLY)
        try:
            os.ftruncate(log, end)
            os.fsync(log)
        finally:
            os.close(log)
        lines = tail.count(b"\n") + (not tail.endswith(b"\n"))
        follows = f"follows truncation at record {kept}"
        return SalvageReport(
            directory=directory,
            kept_records=kept,
            quarantined=tuple(
                QuarantinedRecord(name, follows if position else reason)
                for position in range(lines)
            ),
        )

    # ---------------------------------------------------------------- append
    def append(self, body: Dict[str, Any]) -> int:
        """Durably append one record; returns its boundary index.

        The body is stamped with its index, CRC-sealed and written as one
        line of the log, which is then fsynced — when this method returns,
        the record *is* on disk and a crash at the very next instruction
        loses nothing. An append that raises leaves no partial line.
        """
        index = len(self.records)
        body = dict(body, index=index)
        _write_durably(os.path.join(self.directory, LOG_FILENAME),
                       (seal(body, JOURNAL_FORMAT) + "\n").encode("ascii"),
                       os.O_APPEND)
        self.records.append(body)
        return index

    def __len__(self) -> int:
        return len(self.records)

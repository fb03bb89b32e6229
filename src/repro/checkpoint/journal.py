"""The write-ahead run journal: one CRC-guarded record per unit of work.

A journal is a directory::

    <dir>/meta.json            # run identity (domain, seed, config coords)
    <dir>/record-000000.json   # unit 0
    <dir>/record-000001.json   # unit 1
    ...

Every file is a sealed envelope (:mod:`repro.util.envelope`), written as
canonical compact JSON::

    {"body":{...},"crc":<crc32 of canonical body JSON>,"format":1}

via :func:`repro.util.atomicio.atomic_write_json` — temp file, fsync,
``os.replace`` — so a crash between any two appends leaves a journal that
is a *complete prefix* of the run: every record present is whole and
verified, and no partial record can exist. That prefix property is what
makes resume sound; the loader therefore enforces it militantly:

- an unparseable or torn record file is :class:`JournalCorruptionError`
  (naming the record index);
- a CRC mismatch, an index that disagrees with the filename, a gap in the
  sequence, or two records claiming the same unit of work are all
  :class:`JournalCorruptionError`;
- a record (or the meta file) written by a *newer* schema is
  :class:`JournalFormatError` — old readers must refuse loudly, not
  misread silently.

The enforcement has an escape hatch for supervised recovery:
:meth:`RunJournal.salvage` truncates a damaged journal to its longest
valid prefix instead of refusing it — the damaged suffix is moved (never
deleted) into ``<dir>/quarantine/`` and described by a typed
:class:`SalvageReport`, after which :meth:`RunJournal.open` accepts the
journal again and resume re-runs the trimmed units fresh. Only the meta
file is beyond salvage: without a verified run identity the journal
cannot say whose prefix it is.

Record bodies are opaque to this module; their content is defined by
:mod:`repro.checkpoint.session`. The ``unit`` key (a
``[phase, interface_id, attribute]`` triple) is the only field the loader
interprets, for duplicate detection.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.util.atomicio import _fsync_directory, atomic_write_json
from repro.util.envelope import read_sealed, seal
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
JOURNAL_FORMAT = 1

META_FILENAME = "meta.json"
#: Subdirectory (inside the journal) that salvage moves damaged records to.
QUARANTINE_DIRNAME = "quarantine"
_RECORD_PATTERN = re.compile(r"^record-(\d{6})\.json$")


@dataclass(frozen=True)
class QuarantinedRecord:
    """One record file moved aside by :meth:`RunJournal.salvage`."""

    filename: str
    reason: str


@dataclass(frozen=True)
class SalvageReport:
    """What :meth:`RunJournal.salvage` kept, and what it moved aside."""

    directory: str
    #: records in the surviving valid prefix
    kept_records: int
    #: damaged/unreachable records moved to ``quarantine/``, in index order
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


def _record_filename(index: int) -> str:
    return f"record-{index:06d}.json"


def _scan_valid_prefix(
    directory: str,
) -> Tuple[
    Dict[str, Any], List[Dict[str, Any]], List[Tuple[int, str]],
    Optional[str],
]:
    """Walk the record chain, stopping (not raising) at the first damage.

    Returns ``(meta, prefix_bodies, ordered_files, reason)`` where
    ``ordered_files`` is every on-disk record as ``(index, filename)`` in
    index order and ``reason`` describes why the walk stopped (``None``
    when the whole chain is valid). The prefix property means everything
    past the first damaged record is unusable regardless of its own
    integrity. Shared by :meth:`RunJournal.open` (which raises on the
    damage), :meth:`RunJournal.salvage` (which moves the damaged suffix
    aside) and the supervisor's spend accounting (which must count a torn
    journal's surviving prefix without mutating it).

    Raises :class:`JournalMismatchError` for a missing journal/meta and
    :class:`JournalFormatError` for newer-format files — neither is
    damage a prefix walk may paper over.
    """
    if not os.path.isdir(directory):
        raise JournalMismatchError(
            f"no journal at {directory} (not a directory)"
        )
    meta_path = os.path.join(directory, META_FILENAME)
    if not os.path.exists(meta_path):
        raise JournalMismatchError(
            f"no journal at {directory} (missing {META_FILENAME})"
        )
    meta = _read_envelope(meta_path, "journal meta")

    by_index: Dict[int, str] = {}
    for name in sorted(os.listdir(directory)):
        match = _RECORD_PATTERN.match(name)
        if match:
            by_index[int(match.group(1))] = name
    ordered = [(index, by_index[index]) for index in sorted(by_index)]

    bodies: List[Dict[str, Any]] = []
    reason: Optional[str] = None
    seen_units: Dict[Tuple[str, ...], int] = {}
    for position, (index, name) in enumerate(ordered):
        if index != position:
            reason = f"sequence gap (expected record {position} next)"
            break
        try:
            body = _read_envelope(
                os.path.join(directory, name), f"record {index}"
            )
        except JournalCorruptionError as exc:
            reason = str(exc)
            break
        unit = tuple(body.get("unit", ()))
        if body.get("index") != index:
            reason = f"body claims index {body.get('index')!r}"
        elif not unit:
            reason = "missing unit key"
        elif unit in seen_units:
            reason = (
                f"duplicate record for unit {list(unit)} "
                f"(first at record {seen_units[unit]})"
            )
        if reason is not None:
            break
        seen_units[unit] = index
        bodies.append(body)
    return meta, bodies, ordered, reason


def _read_envelope(path: str, what: str) -> Dict[str, Any]:
    """Read and verify one envelope file (meta or record)."""
    return read_sealed(
        path, "journal", JOURNAL_FORMAT,
        JournalCorruptionError, JournalFormatError, what,
    )["body"]


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
        """Start a fresh journal in ``directory`` (wiping any stale one)."""
        os.makedirs(directory, exist_ok=True)
        for name in os.listdir(directory):
            if _RECORD_PATTERN.match(name) or name == META_FILENAME:
                os.unlink(os.path.join(directory, name))
        quarantine_dir = os.path.join(directory, QUARANTINE_DIRNAME)
        if os.path.isdir(quarantine_dir):
            for name in os.listdir(quarantine_dir):
                os.unlink(os.path.join(quarantine_dir, name))
        atomic_write_json(
            os.path.join(directory, META_FILENAME), seal(meta, JOURNAL_FORMAT)
        )
        return cls(directory, meta)

    @classmethod
    def open(cls, directory: str) -> "RunJournal":
        """Load an existing journal, verifying every guarantee.

        The records come back in index order; any violation of the
        complete-prefix property raises a typed :class:`JournalError`
        subclass naming the offending record.
        """
        meta, records, ordered, reason = _scan_valid_prefix(directory)
        if reason is not None:
            label = f"record {ordered[len(records)][0]}: "
            raise JournalCorruptionError(
                reason if reason.startswith(label) else label + reason
            )
        return cls(directory, meta, records)

    @classmethod
    def salvage(cls, directory: str) -> SalvageReport:
        """Truncate a damaged journal to its longest valid prefix.

        Walks the record chain exactly as :meth:`open` does, but where
        ``open`` raises, ``salvage`` *stops*: the first record that is
        torn, CRC-mismatched, out of sequence, mis-indexed or duplicated
        marks the end of the salvageable prefix, and every record file
        from that point on is moved into ``<dir>/quarantine/`` (moved,
        not deleted — the damage stays inspectable). After salvage,
        :meth:`open` accepts the journal and resume re-runs the trimmed
        units fresh.

        Two damages remain fatal: a torn/missing ``meta.json`` (the
        journal cannot prove whose prefix it is —
        :class:`JournalCorruptionError` / :class:`JournalMismatchError`),
        and a record written by a newer schema
        (:class:`JournalFormatError` — a new-format journal must not be
        truncated by an old reader that cannot understand it).
        """
        _, bodies, ordered, reason = _scan_valid_prefix(directory)
        kept = len(bodies)

        if reason is None:
            return SalvageReport(directory=directory, kept_records=kept)

        quarantine_dir = os.path.join(directory, QUARANTINE_DIRNAME)
        os.makedirs(quarantine_dir, exist_ok=True)
        quarantined: List[QuarantinedRecord] = []
        for index, name in ordered[kept:]:
            record_reason = reason if not quarantined else (
                f"follows truncation at record {kept}"
            )
            destination = os.path.join(quarantine_dir, name)
            suffix = 0
            while os.path.exists(destination):
                suffix += 1
                destination = os.path.join(
                    quarantine_dir, f"{name}.{suffix}"
                )
            os.replace(os.path.join(directory, name), destination)
            quarantined.append(QuarantinedRecord(name, record_reason))
        _fsync_directory(quarantine_dir)
        _fsync_directory(directory)
        return SalvageReport(
            directory=directory,
            kept_records=kept,
            quarantined=tuple(quarantined),
        )

    # ---------------------------------------------------------------- append
    def append(self, body: Dict[str, Any]) -> int:
        """Durably append one record; returns its boundary index.

        The body is stamped with its index, CRC-sealed, and atomically
        written — when this method returns, the record *is* on disk and a
        crash at the very next instruction loses nothing.
        """
        index = len(self.records)
        body = dict(body, index=index)
        atomic_write_json(
            os.path.join(self.directory, _record_filename(index)),
            seal(body, JOURNAL_FORMAT),
        )
        self.records.append(body)
        return index

    def __len__(self) -> int:
        return len(self.records)

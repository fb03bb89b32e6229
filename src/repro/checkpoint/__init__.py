"""Crash-safe checkpointing: run journal, preemption, bit-identical resume.

WebIQ's acquisition phase is the expensive part of a run — and before
this package, a process death mid-run lost all of it. The pieces:

- :mod:`repro.checkpoint.journal` — :class:`RunJournal`, a write-ahead
  log appending one schema-versioned, CRC-guarded, fsynced line per
  completed unit of work;
- :mod:`repro.checkpoint.session` — :class:`CheckpointSession`, which
  records fresh units and replays journaled ones without touching the
  search engine or any Deep-Web source, plus :class:`CheckpointConfig`
  (attach to ``WebIQConfig.checkpoint``) and the in-memory
  :class:`CheckpointReport`;
- :class:`repro.resilience.KillSwitch` (armed by
  ``CheckpointConfig.kill_at``) — deterministic process death at any
  chosen journal boundary, so every crash point is testable.

The contract: *kill at boundary k, then resume* produces a run payload
byte-identical to the uninterrupted run, with zero transport calls
re-spent on replayed units. ``WebIQConfig(checkpoint=None)`` (the
default) leaves the pipeline bit-identical to pre-checkpoint behaviour.
"""

from repro.checkpoint.journal import (
    JOURNAL_FORMAT,
    QUARANTINE_DIRNAME,
    QuarantinedRecord,
    RunJournal,
    SalvageReport,
)
from repro.checkpoint.session import (
    CheckpointConfig,
    CheckpointReport,
    CheckpointSession,
    ReplayedUnit,
    open_session,
)

__all__ = [
    "JOURNAL_FORMAT",
    "QUARANTINE_DIRNAME",
    "QuarantinedRecord",
    "RunJournal",
    "SalvageReport",
    "CheckpointConfig",
    "CheckpointReport",
    "CheckpointSession",
    "ReplayedUnit",
    "open_session",
]

"""Atomic file writes: temp file + ``os.replace``, never a torn target.

Every whole-file JSON artifact the library persists — dataset snapshots,
run archives, the journal's meta, sealed registry and bench envelopes —
goes through :func:`atomic_write_text` / :func:`atomic_write_json`
(the run journal's log is appended in place instead). The content is
fully serialised in memory first, written to a temporary file *in the
target's directory* (so the rename cannot cross filesystems), flushed
and fsynced, and only then renamed over the target. A crash at any
point leaves either the old complete file or the new complete file —
never a truncated hybrid.

After the rename the *parent directory* is fsynced too: ``os.replace``
updates a directory entry, and on a power loss the entry itself can be
lost even though the file's blocks are safe — leaving a registry whose
newest delta silently vanished. The directory fsync makes the rename
durable.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from repro.util.envelope import Sealed

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so a crash never leaves a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str) -> None:
    """Make a just-completed rename in ``directory`` durable.

    Best-effort on platforms/filesystems where directories cannot be
    opened or fsynced (e.g. Windows): the write itself already succeeded,
    so an unsupported directory fsync degrades durability, not
    correctness.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_json(path: str, payload: Any, *, indent: int = 2) -> None:
    """Serialise ``payload`` fully in memory, then write it atomically.

    Serialising first means an unserialisable payload raises before the
    filesystem is touched at all; the byte format (``indent=2``,
    ``sort_keys=True``) matches the library's historical dumps exactly.
    A :class:`~repro.util.envelope.Sealed` payload is already canonical
    JSON text and is written as is.
    """
    if not isinstance(payload, Sealed):
        payload = json.dumps(payload, indent=indent, sort_keys=True)
    atomic_write_text(path, payload)

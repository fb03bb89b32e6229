"""One sealed-envelope codec for journal, registry and bench files.

Every sealed file is one canonical JSON object::

    {"body":{...},"crc":<crc32 of the canonical body>,"format":N}

The canonical encoding of a body is key-sorted compact JSON, and the CRC
is taken over its UTF-8 bytes (:func:`record_crc`). :func:`seal` encodes
the body once and builds the file text around that encoding.

:func:`verify_sealed` is the one verifier: :func:`read_sealed` applies
it to a file and the run journal to each line of its log. It re-derives
the CRC from the parsed body, so envelopes written with other whitespace
(the ``indent=2`` files of earlier revisions) still verify. It raises the
caller's own error classes, so each store keeps its typed errors and the
CLI exit codes built on them. Each caller owns its format number: the
journal 2, the registry 4, bench artifacts 1.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Type

__all__ = [
    "Sealed",
    "canonical",
    "envelope",
    "read_sealed",
    "record_crc",
    "seal",
    "verify_sealed",
]


class Sealed(str):
    """The JSON text of a sealed envelope, already encoded by :func:`seal`.

    :func:`repro.util.atomicio.atomic_write_json` writes it as is, so
    sealed files and plain dumps share one atomic write path. ``crc`` is
    the body's CRC, so a writer can remember what it sealed without
    encoding the body again.
    """

    crc: int


def canonical(body: Any) -> str:
    """The canonical JSON the CRC is computed over (key-sorted, compact).

    It is ASCII-only and holds no newline (``json.dumps`` escapes both),
    so a sealed envelope is one line of a log.
    """
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _crc32(encoded: str) -> int:
    return zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF


def record_crc(body: Any) -> int:
    """CRC32 guard over a record body's canonical JSON."""
    return _crc32(canonical(body))


def envelope(body: Dict[str, Any], fmt: int) -> Dict[str, Any]:
    """The in-memory envelope ``{"format", "crc", "body"}`` of ``body``."""
    return {"format": fmt, "crc": record_crc(body), "body": body}


def seal(body: Dict[str, Any], fmt: int) -> Sealed:
    """The file text of ``body`` sealed under ``fmt``.

    The body is encoded once; the CRC and the file share that encoding.
    The result equals :func:`canonical` of :func:`envelope`.
    """
    encoded = canonical(body)
    crc = _crc32(encoded)
    sealed = Sealed(f'{{"body":{encoded},"crc":{crc},"format":{fmt}}}')
    sealed.crc = crc
    return sealed


def read_sealed(path: str, kind: str, max_format: int,
                corrupt: Type[Exception], newer: Type[Exception],
                what: str = "") -> Dict[str, Any]:
    """Read one sealed file and verify it with :func:`verify_sealed`
    (``what`` defaults to ``path``); an unreadable file raises ``corrupt``."""
    what = what or path
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise corrupt(f"{what}: torn or unparseable ({exc})") from exc
    return verify_sealed(data, kind, max_format, corrupt, newer, what)


def verify_sealed(data: bytes, kind: str, max_format: int,
                  corrupt: Type[Exception], newer: Type[Exception],
                  what: str) -> Dict[str, Any]:
    """Verify the bytes of one sealed envelope; return the envelope dict.

    ``what`` prefixes every error message and ``kind`` names the store in
    format errors. Torn, non-UTF-8 or unparseable bytes, a missing
    envelope key, a non-object body, a format that is not an ``int`` of
    at least 1, and a CRC mismatch raise ``corrupt``; a format above
    ``max_format`` raises ``newer``.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise corrupt(f"{what}: torn or unparseable ({exc})") from exc
    if (
        not isinstance(payload, dict)
        or not {"format", "crc", "body"} <= payload.keys()
        or not isinstance(payload["body"], dict)
    ):
        raise corrupt(f"{what}: envelope is missing format/crc/body")
    fmt = payload["format"]
    if type(fmt) is not int or fmt < 1:
        raise corrupt(f"{what}: unusable {kind} format {fmt!r}")
    if fmt > max_format:
        raise newer(
            f"{what}: {kind} format {fmt} is newer than this reader "
            f"(knows up to {max_format})"
        )
    if payload["crc"] != record_crc(payload["body"]):
        raise corrupt(f"{what}: CRC mismatch")
    return payload

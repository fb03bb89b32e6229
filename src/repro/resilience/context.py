"""Ambient *unit context*: which checkpoint unit is executing.

Every sequential random stream that a unit draws from — Deep-Web fault
fates, backoff jitter — is partitioned by checkpoint unit
``(phase, interface_id, attribute)``. A stream keyed by unit starts at
position 0 whenever that unit runs, so its draws are a pure function of
the unit: they cannot depend on which units ran before it, in what
order interfaces arrived, or how much of the run was replayed from a
journal. That removes the need to fast-forward streams on resume.

Acquisition brackets each unit's fresh work with :func:`unit_scope`, and
the substrates ask :func:`current_unit` which per-unit stream to draw
from. Code running outside any unit (direct substrate use in tests, the
``discover`` CLI) sees ``None`` and falls back to the shared streams, so
standalone behaviour is unchanged. The context is thread-local, so the
service's concurrent callers never see each other's unit.

>>> current_unit() is None
True
>>> with unit_scope(("surface", "i1", "title")):
...     current_unit()
('surface', 'i1', 'title')
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

__all__ = ["UnitKey", "unit_scope", "current_unit"]

#: (phase, interface_id, attribute_name) — the checkpoint unit identity.
UnitKey = Tuple[str, str, str]

_state = threading.local()


@contextmanager
def unit_scope(unit: UnitKey) -> Iterator[None]:
    """Mark this thread as executing ``unit`` for the duration of the block."""
    previous = getattr(_state, "unit", None)
    _state.unit = tuple(unit)
    try:
        yield
    finally:
        _state.unit = previous


def current_unit() -> Optional[UnitKey]:
    """The unit this thread is executing, or ``None`` outside any unit."""
    return getattr(_state, "unit", None)

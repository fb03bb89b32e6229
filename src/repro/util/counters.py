"""Hot-path work counters: cheap, off by default, strictly read-only.

The profiler (:mod:`repro.obs.profile`) wants to know how much *work* the
substrate inner loops did — tokeniser calls, postings intersections,
proximity window checks, similarity evaluations, PMI phrase queries,
blocking-index probes, raw engine round trips. Those loops live at the
very bottom of the dependency stack (``repro.text``, ``repro.surfaceweb``,
``repro.matching``, ``repro.registry``), which cannot import
``repro.obs`` without creating a cycle (``obs`` → provenance → matching →
text). So the counting substrate lives here, in ``repro.util``, below
everything.

Design constraints, in order of importance:

1. **Read-only.** A counter bump must not change a single behavioural
   byte. Counters never gate logic, never consume randomness, never
   raise. Profiling on ⇒ run exports bit-identical to profiling off —
   the metamorphic suite in ``tests/test_obs_profile.py`` enforces it.
2. **Free when off.** The default state is "no collector installed": the
   per-site cost is one module-attribute load and a ``None`` check. The
   pipeline only installs a collector when ``ObsConfig.profile`` is set.

Usage at a counter site (the fast-path guard is deliberately inlined at
each site rather than hidden behind a function call)::

    from repro.util import counters as work

    def tokenize(text):
        if work.ACTIVE is not None:
            work.ACTIVE.bump("tokenizer.calls")
        ...

and around a profiled region::

    with work.collecting(my_counters):
        ...          # bumps accumulate into my_counters
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["WorkCounters", "ACTIVE", "collecting", "bump"]


class WorkCounters:
    """One run's accumulated work counts, keyed by dotted counter name."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Sorted snapshot, ready for deterministic JSON export."""
        return {name: self.counts[name] for name in sorted(self.counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkCounters({self.as_dict()!r})"


#: The installed collector, or ``None`` (the default: counting disabled).
#: Hot-path sites read this directly — see the module docstring.
ACTIVE: Optional[WorkCounters] = None


def bump(name: str, n: int = 1) -> None:
    """Bump a counter on the installed collector, if any.

    Convenience for cold sites; hot loops should inline the
    ``ACTIVE is not None`` guard to skip the call entirely when off.
    """
    if ACTIVE is not None:
        ACTIVE.bump(name, n)


@contextmanager
def collecting(counters: WorkCounters) -> Iterator[WorkCounters]:
    """Install ``counters`` as the collector for the ``with`` body.

    The previous collector — normally ``None`` — is restored on exit,
    even on exception, so nested or sequential profiled regions compose.
    """
    global ACTIVE
    saved = ACTIVE
    ACTIVE = counters
    try:
        yield counters
    finally:
        ACTIVE = saved

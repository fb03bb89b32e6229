"""Machine pace: a fixed reference loop, timed every few milliseconds while
the ops of an untraced pass run, so that op times can be stated in
reference loops instead of seconds.

The host this benchmark was sized on runs the same code at one speed for
a while and at half of it for a while, sometimes for seconds, sometimes
for minutes, and the guest sees nothing of it (no steal time, no hardware
counters). A wall time then says as much about the host's neighbours as
about the program. An op's time divided by the time the reference loop
took around it does not: both slow down together.

:class:`PaceSampler` runs :func:`reference_loop` from a ``SIGALRM``
handler every :data:`INTERVAL` seconds. Python runs the handler between
bytecodes of the main thread, so the program is paused, not disturbed,
while a sample runs, and :meth:`PaceSampler.cost` takes the samples' own
time back out of the op it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List

__all__ = ["PaceSampler", "reference_loop"]

#: iterations of the reference loop: about 0.4 ms on the sizing host
REFERENCE_STEPS = 1500
#: wall seconds between two reference samples (about 1% of the run)
INTERVAL = 0.05
#: an interval's pace is the mean of the samples that start within this
#: many seconds of it
WINDOW = 0.25


def reference_loop() -> dict:
    """A fixed amount of the kind of work the program does most: string
    building and dict updates in interpreted Python."""
    table: dict = {}
    for step in range(REFERENCE_STEPS):
        key = str(step % 331)
        table[key] = table.get(key, 0) + step
    return table


class PaceSampler:
    """Reference-loop samples, ``(start, seconds)``, in time order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)

    @contextmanager
    def sampling(self) -> Iterator["PaceSampler"]:
        """Take a sample every :data:`INTERVAL` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def cost(self, start: float, end: float) -> float:
        """Reference loops the interval ``[start, end]`` is worth: its wall
        seconds less the samples taken inside it, over the mean time of
        the samples near it."""
        starts = self.starts
        own = sum(self.seconds[bisect.bisect_left(starts, start):
                               bisect.bisect_left(starts, end)])
        near = self.seconds[bisect.bisect_left(starts, start - WINDOW):
                            bisect.bisect_right(starts, end + WINDOW)]
        if not near:
            index = min(bisect.bisect_left(starts, start), len(starts) - 1)
            near = self.seconds[index:index + 1]
        return (end - start - own) / statistics.fmean(near)

"""Wall time measured against a reference loop, so that it is steady on a
shared machine.

A shared host runs the same pure-Python work a fifth or more slower for
stretches of tens of seconds, and a run cannot average that out.  The
benchmark therefore splits each measured step into chunks of about
:data:`SAMPLE_EVERY_S` of work, times a short fixed reference loop between
chunks, and divides each chunk's wall time by the mean of the loops just
before and just after it: the chunk's time in reference-loop times, which
holds while the machine speeds up and slows down under it.
:data:`REFERENCE_S` turns that back into seconds at a fixed nominal
machine speed.  The loops themselves are not counted in any step.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

#: Iterations of the reference loop.
REFERENCE_ITERATIONS = 20_000

#: The reference loop's seconds at nominal speed (a 2-core VM running
#: CPython 3.11 unloaded).  Nominal times are in seconds at this speed.
REFERENCE_S = 0.005

#: Wall seconds of work between two runs of the reference loop.
SAMPLE_EVERY_S = 0.1


def reference_s() -> float:
    """Seconds the reference loop takes now; its work never changes."""
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class StepClock:
    """Times named steps in chunks, with the reference loop between them.

    ``walls[label]`` is a step's wall seconds and ``nominal[label]`` its
    seconds at nominal speed.  Work inside a step calls :meth:`tick`
    between chunks; a step that never ticks is one chunk.
    """

    def __init__(self) -> None:
        self.walls: Dict[str, float] = {}
        self.nominal: Dict[str, float] = {}
        self._label: Optional[str] = None
        self._ref = self._sample()
        self._start = 0.0

    def _sample(self) -> float:
        return reference_s()

    def time(self, label: str, fn: Callable[[], Any]) -> Any:
        self.walls[label] = self.nominal[label] = 0.0
        self._label = label
        self._start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(time.perf_counter())
            self._label = None

    def tick(self) -> None:
        """Close the current chunk once it has run :data:`SAMPLE_EVERY_S`."""
        now = time.perf_counter()
        if self._label is not None and now - self._start >= SAMPLE_EVERY_S:
            self._close(now)

    def _close(self, now: float) -> None:
        label = self._label
        assert label is not None
        chunk = now - self._start
        ref = self._sample()
        self.walls[label] += chunk
        self.nominal[label] += chunk / ((self._ref + ref) / 2) * REFERENCE_S
        self._ref = ref
        self._start = time.perf_counter()

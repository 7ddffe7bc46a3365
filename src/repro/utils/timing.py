"""The clock reads of the repair stack.

Every duration in ``src/`` is read here: :func:`wall_cpu_now` is what
:class:`~repro.obs.trace.Span` times itself with, and :class:`TimeBudget`
is the driver's soft deadline.  The paper's per-repair split of where time
goes (LinRegions, Jacobian, LP, other; Figure 7(b)) is not measured by a
clock of its own: :class:`~repro.core.result.RepairTiming` sums named spans
of the repair's span tree.  The repair daemon's HTTP and queue latencies
are service timings that cross threads and stay on ``time.monotonic``.
"""

from __future__ import annotations

import time


def wall_cpu_now() -> tuple[float, float]:
    """The pair every duration in this codebase is computed from.

    ``perf_counter`` for wall time and ``process_time`` for CPU time —
    both monotonic, so differences are always valid durations.
    ``time.time()`` is for timestamps only and must never be subtracted.
    """
    return time.perf_counter(), time.process_time()


class TimeBudget:
    """A soft deadline used by sweeps to stop launching new work."""

    def __init__(self, seconds: float | None) -> None:
        self._seconds = seconds
        self._start = time.perf_counter()

    def exhausted(self) -> bool:
        """True once the budget has elapsed (never true for ``None``)."""
        if self._seconds is None:
            return False
        return (time.perf_counter() - self._start) >= self._seconds

    def remaining(self) -> float | None:
        """Seconds remaining, or ``None`` for an unlimited budget."""
        if self._seconds is None:
            return None
        return max(0.0, self._seconds - (time.perf_counter() - self._start))

"""Span-based tracing: per-run span trees with wall and CPU time.

A :class:`Trace` is one tree of :class:`Span` nodes — one per traced run
(a repair job, a driver run, a bench sweep).  Spans are opened with
``obs.span("lp.solve", backend="scipy")`` and nest via a per-trace stack;
the *current* trace is carried in a :mod:`contextvars` variable so each
daemon job thread gets its own tree without any global mutable handoff.

The tree is the only clock of the repair stack: a repair's or a driver
run's time split is :meth:`Span.seconds_in` over named spans of its
subtree (see :class:`~repro.core.result.RepairTiming`).

Durations come from :func:`repro.utils.timing.wall_cpu_now` — the
monotonic wall and process-CPU clocks — never ``time.time()`` deltas.  The single wall-clock timestamp (``started_unix`` on the root) is
informational only and never subtracted from anything.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager

from repro.utils.timing import wall_cpu_now

__all__ = ["Span", "Trace", "current_trace", "use_trace"]


class Span:
    """One timed operation: name, attributes, wall/CPU seconds, children."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "wall_seconds",
        "cpu_seconds",
        "_start_wall",
        "_start_cpu",
    )

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._start_wall = 0.0
        self._start_cpu = 0.0

    def _open(self) -> None:
        self._start_wall, self._start_cpu = wall_cpu_now()

    def _close(self) -> None:
        wall, cpu = wall_cpu_now()
        self.wall_seconds = wall - self._start_wall
        self.cpu_seconds = cpu - self._start_cpu

    def find(self, name: str) -> list["Span"]:
        """The outermost spans called ``name`` below this one, in order."""
        found: list[Span] = []
        for child in self.children:
            if child.name == name:
                found.append(child)
            else:
                found.extend(child.find(name))
        return found

    def seconds_in(self, name: str) -> float:
        """Wall seconds spent in spans called ``name`` below this one.

        Nested spans of the same name count once, through the outermost.
        """
        return sum((node.wall_seconds for node in self.find(name)), 0.0)

    def export(self) -> dict:
        """This span (and its subtree) as a JSON-ready dict."""
        document: dict = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attributes:
            document["attributes"] = {
                key: self.attributes[key] for key in sorted(self.attributes)
            }
        if self.children:
            document["children"] = [child.export() for child in self.children]
        return document


_TRACE_IDS = itertools.count(1)


class Trace:
    """One span tree plus the open-span stack that builds it.

    The stack is guarded by a lock because the daemon can close a job's
    trace from a different thread than the one that ran it; within one
    repair run all spans open and close on a single thread, so the lock is
    uncontended on the hot path.
    """

    def __init__(self, name: str = "run", trace_id: str | None = None) -> None:
        # ``started_unix`` is a timestamp for humans (trace listings), not
        # an input to any duration arithmetic.
        self.trace_id = trace_id or f"trace-{next(_TRACE_IDS)}"
        self.started_unix = time.time()
        self.root = Span(name)
        self.root._open()
        self._stack: list[Span] = [self.root]
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a child span under the innermost open span."""
        node = Span(name, attributes)
        with self._lock:
            self._stack[-1].children.append(node)
            self._stack.append(node)
        node._open()
        try:
            yield node
        finally:
            node._close()
            with self._lock:
                # Remove the innermost *matching* entry: exception unwinding
                # can close spans out of order without corrupting the stack.
                for index in range(len(self._stack) - 1, 0, -1):
                    if self._stack[index] is node:
                        del self._stack[index]
                        break

    def finish(self) -> None:
        """Close the root span (idempotent enough for the daemon's purposes)."""
        self.root._close()

    def export(self) -> dict:
        """The whole trace as a JSON-ready dict (``/jobs/<id>/trace`` body)."""
        return {
            "trace_id": self.trace_id,
            "started_unix": self.started_unix,
            "root": self.root.export(),
        }


#: The trace the current thread/context records into (None = no tracing).
_CURRENT: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> Trace | None:
    """The active trace for this context, if any."""
    return _CURRENT.get()


@contextmanager
def use_trace(trace: Trace | None):
    """Make ``trace`` the active trace for the dynamic extent of the block."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)

"""repro.obs — unified telemetry: metrics registry, tracing spans, surfacing.

The facade every other subsystem imports (always as ``from repro.obs import
...`` — never ``from repro import obs`` — so partially-initialised package
state during ``import repro`` can't bite).  Three pieces:

* a process-wide :class:`~repro.obs.registry.MetricsRegistry` reached
  through :func:`counter` / :func:`gauge` / :func:`histogram`;
* span-based tracing — ``with span("lp.solve", backend=...)`` — recording
  into the contextvar-carried current :class:`~repro.obs.trace.Trace`;
* renderers (:func:`render_prometheus`, :func:`render_summary`) and the
  worker-side :func:`capture` / parent-side :func:`absorb` pair that moves
  telemetry across spawn process boundaries deterministically.

**Telemetry is off by default** and the disabled path is near-zero cost:
every instrumented call site is guarded by a single ``if enabled():``
branch, and :func:`span` returns a shared no-op context manager.  Nothing
in this package reads or writes network parameters, LP tableaus, or any
other numeric state — enabling it must never change a repair's bytes, and
the differential tests in ``tests/test_obs_differential.py`` pin that.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.logs import LEVELS, JsonLogger
from repro.obs.prometheus import CONTENT_TYPE
from repro.obs.prometheus import render_prometheus as _render_prometheus
from repro.obs.prometheus import render_summary as _render_summary
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    JOB_SECONDS_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import Span, Trace, current_trace, use_trace

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "JOB_SECONDS_BUCKETS",
    "LEVELS",
    "JsonLogger",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "Trace",
    "absorb",
    "capture",
    "counter",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "isolated",
    "registry",
    "render_prometheus",
    "render_summary",
    "reset",
    "snapshot",
    "span",
    "use_trace",
]

_ENABLED = False
_REGISTRY = MetricsRegistry()


def enabled() -> bool:
    """The one branch every instrumented call site guards on."""
    return _ENABLED


def enable() -> None:
    """Turn telemetry on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn telemetry off (the registry keeps whatever it has recorded)."""
    global _ENABLED
    _ENABLED = False


def registry() -> MetricsRegistry:
    """The active registry (process-wide, unless inside :func:`capture`)."""
    return _REGISTRY


def counter(name: str, help_text: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
    """Get-or-create a counter family in the active registry."""
    return _REGISTRY.counter(name, help_text, labels)


def gauge(name: str, help_text: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
    """Get-or-create a gauge family in the active registry."""
    return _REGISTRY.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str = "",
    labels: tuple[str, ...] = (),
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
) -> MetricFamily:
    """Get-or-create a histogram family in the active registry."""
    return _REGISTRY.histogram(name, help_text, labels, buckets)


def snapshot(kinds: tuple[str, ...] | None = None) -> dict:
    """A deterministic JSON-ready dump of the active registry."""
    return _REGISTRY.snapshot(kinds)


def reset() -> None:
    """Drop everything in the active registry (tests / bench isolation)."""
    _REGISTRY.reset()


def render_prometheus(document: dict | None = None) -> str:
    """Prometheus text exposition of ``document`` (default: live snapshot)."""
    return _render_prometheus(document if document is not None else snapshot())


def render_summary(document: dict | None = None) -> str:
    """Human-readable metrics table of ``document`` (default: live snapshot)."""
    return _render_summary(document if document is not None else snapshot())


# ----------------------------------------------------------------------
# Spans
class _NoopSpan:
    """Shared do-nothing span so the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attributes):
    """Open a traced span, or the shared no-op when telemetry can't record.

    No-op when telemetry is disabled *or* no trace is active in this
    context — so library code can call it unconditionally and only pays a
    real span when someone (daemon job, bench harness, test) installed a
    :class:`Trace` via :func:`use_trace`.
    """
    if not _ENABLED:
        return _NOOP
    trace = current_trace()
    if trace is None:
        return _NOOP
    return trace.span(name, **attributes)


# ----------------------------------------------------------------------
# Cross-process propagation (spawn workers) and test isolation
class _Capture:
    """Handle yielded by :func:`capture`: the task-local registry and trace."""

    __slots__ = ("registry", "trace")

    def __init__(self, captured_registry: MetricsRegistry, trace: Trace) -> None:
        self.registry = captured_registry
        self.trace = trace

    def telemetry(self) -> dict:
        """The captured delta, ready to pickle back to the parent."""
        return {
            "metrics": self.registry.snapshot(),
            "trace": self.trace.root.export(),
        }


@contextmanager
def capture(root_name: str = "worker.task", **attributes):
    """Record into a fresh registry + trace for the extent of the block.

    Worker processes run this around each telemetry-wrapped engine task:
    the yielded handle's :meth:`~_Capture.telemetry` holds only that task's
    delta (workers are reused across batches — a cumulative snapshot would
    double-count on the parent).  Swaps the module-global registry, so it
    must not run concurrently with other instrumented work in the same
    process; engine workers execute one task at a time, which satisfies
    that.
    """
    global _REGISTRY, _ENABLED
    fresh = MetricsRegistry()
    trace = Trace(root_name)
    trace.root.attributes.update(attributes)
    previous_registry, previous_enabled = _REGISTRY, _ENABLED
    _REGISTRY, _ENABLED = fresh, True
    try:
        with use_trace(trace):
            yield _Capture(fresh, trace)
    finally:
        trace.finish()
        _REGISTRY, _ENABLED = previous_registry, previous_enabled


def absorb(telemetry: dict) -> None:
    """Fold a :meth:`_Capture.telemetry` payload into the parent's state.

    Metrics merge into the active registry; the worker's span tree is
    adopted under the current span of the active trace (if any).  Callers
    absorb payloads in task order, making the result deterministic.
    """
    _REGISTRY.merge_snapshot(telemetry["metrics"])
    trace = current_trace()
    if trace is not None:
        trace.adopt(telemetry["trace"])


@contextmanager
def isolated(start_enabled: bool = True):
    """A private registry + enabled flag for tests; restores both on exit."""
    global _REGISTRY, _ENABLED
    previous_registry, previous_enabled = _REGISTRY, _ENABLED
    _REGISTRY, _ENABLED = MetricsRegistry(), start_enabled
    try:
        yield _REGISTRY
    finally:
        _REGISTRY, _ENABLED = previous_registry, previous_enabled

"""repro.obs — unified telemetry: metrics registry, tracing spans, surfacing.

The facade every other subsystem imports (always as ``from repro.obs import
...`` — never ``from repro import obs`` — so partially-initialised package
state during ``import repro`` can't bite).  Three pieces:

* a process-wide :class:`~repro.obs.registry.MetricsRegistry` reached
  through :func:`counter` / :func:`gauge` / :func:`histogram`;
* span-based tracing — ``with span("lp.solve", backend=...)`` — recording
  into the contextvar-carried current :class:`~repro.obs.trace.Trace`;
* renderers (:func:`render_prometheus`, :func:`render_summary`), plus
  :func:`isolated` for tests that need a private registry.

**The span tree is the repair stack's only clock.**  :func:`span` records
whenever a trace is active and returns a shared no-op context manager when
none is.  :func:`timed` is for the entry points that report a duration
(a repair, a driver run, a verification pass, a baseline): it opens its
span in the active trace, or as the root of a private trace for the
block, so the duration and every nested span's are always measured.
:class:`~repro.core.result.RepairTiming` and
:class:`~repro.driver.driver.DriverTiming` are sums over such a tree.

**The metrics registry is off by default**: every call site that records
a metric is guarded by a single ``if enabled():`` branch.  Nothing in this
package reads or writes network parameters, LP tableaus, or any other
numeric state — tracing and metrics must never change a repair's bytes,
and the differential tests in ``tests/test_obs_differential.py`` pin that.
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
    "timed",
    "use_trace",
]

_ENABLED = False
_REGISTRY = MetricsRegistry()


def enabled() -> bool:
    """The one branch every metric-recording call site guards on."""
    return _ENABLED


def enable() -> None:
    """Turn the metrics registry on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn the metrics registry off (it keeps whatever it has recorded)."""
    global _ENABLED
    _ENABLED = False


def registry() -> MetricsRegistry:
    """The active registry (process-wide, unless inside :func:`isolated`)."""
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
    """Shared do-nothing span so the untraced path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attributes):
    """Open a span in the active trace, or the shared no-op when none is active.

    Library code calls it unconditionally: it records whenever someone (a
    :func:`timed` entry point, the daemon's job, a bench harness, a test)
    installed a :class:`Trace`, whether or not the metrics registry is on.
    """
    trace = current_trace()
    if trace is None:
        return _NOOP
    return trace.span(name, **attributes)


@contextmanager
def timed(name: str, **attributes):
    """Open a span that always records, yielding the :class:`Span`.

    Inside an active trace this is :func:`span`; without one, the span is
    the root of a private trace that is active for the block, so the spans
    nested in it record too.  Read ``wall_seconds`` after the block exits.
    """
    trace = current_trace()
    if trace is not None:
        with trace.span(name, **attributes) as node:
            yield node
        return
    trace = Trace(name)
    trace.root.attributes.update(attributes)
    try:
        with use_trace(trace):
            yield trace.root
    finally:
        trace.finish()


# ----------------------------------------------------------------------
# Test isolation
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

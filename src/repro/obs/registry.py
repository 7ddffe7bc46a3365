"""The process-wide metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` holds every metric family the process publishes
(cache hit/miss counters, LP solve-time histograms, driver round counters,
job gauges …).  A family is created on first use — ``registry.counter(name,
help, labels)`` — and re-requesting it returns the same object, so call
sites never hold module-level metric state of their own.

Design constraints, in order:

1. **Determinism.**  :meth:`MetricsRegistry.snapshot` is a pure function of
   the recorded values: families and series are emitted in sorted order,
   label names are sorted at family creation, so two runs that record the
   same values produce the same document whatever order the series were
   first touched in.
2. **stdlib only.**  No prometheus_client; the text exposition lives in
   :mod:`repro.obs.prometheus`.
3. **Cheap.**  All mutation runs under one registry lock; the hot paths
   that must stay near-zero when telemetry is disabled never reach this
   module at all (they are guarded at the :func:`repro.obs.enabled` branch).
"""

from __future__ import annotations

import re
import threading

__all__ = [
    "COUNTER",
    "DEFAULT_BUCKETS",
    "GAUGE",
    "HISTOGRAM",
    "JOB_SECONDS_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
]

COUNTER, GAUGE, HISTOGRAM = "counter", "gauge", "histogram"

#: Default histogram boundaries, in seconds: spans LP solves (sub-ms on toy
#: models) through multi-minute verification passes.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)

#: Coarser boundaries for whole-job durations: a repair job's run time lives
#: in the tens-of-milliseconds-to-minutes range, where the sub-ms resolution
#: of :data:`DEFAULT_BUCKETS` wastes half its buckets and tops out too early
#: to separate "slow" from "stuck".
JOB_SECONDS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)

_NAME_PATTERN = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_PATTERN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


class _Series:
    """One labeled child of a family: a scalar, or histogram state."""

    __slots__ = ("value", "bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int = 0) -> None:
        self.value = 0.0
        # ``num_buckets`` boundaries plus one overflow (+Inf) bucket; counts
        # are per-bucket (non-cumulative) — the exposition cumulates.
        self.bucket_counts = [0] * (num_buckets + 1) if num_buckets else None
        self.sum = 0.0
        self.count = 0


class MetricFamily:
    """A named metric plus all of its labeled series.

    Callers use the kind-appropriate method — :meth:`inc` (counter),
    :meth:`set` (gauge), :meth:`observe` (histogram) — passing label values
    as keyword arguments::

        family.inc(tier="memory", result="hit")
        family.observe(0.012, backend="scipy")
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] | None,
        lock: threading.RLock,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        #: Sorted at creation so series keys and exposition order never
        #: depend on call-site keyword order.
        self.label_names = tuple(sorted(label_names))
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = lock
        self._series: dict[tuple[str, ...], _Series] = {}

    # ------------------------------------------------------------------
    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _child(self, key: tuple[str, ...]) -> _Series:
        series = self._series.get(key)
        if series is None:
            series = _Series(len(self.buckets) if self.buckets is not None else 0)
            self._series[key] = series
        return series

    # ------------------------------------------------------------------
    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (counters only; must be non-negative)."""
        if self.kind != COUNTER:
            raise ValueError(f"{self.name!r} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._child(self._key(labels)).value += float(amount)

    def set(self, value: float, **labels) -> None:
        """Set the current value (gauges only)."""
        if self.kind != GAUGE:
            raise ValueError(f"{self.name!r} is a {self.kind}, not a gauge")
        with self._lock:
            self._child(self._key(labels)).value = float(value)

    def observe(self, value: float, **labels) -> None:
        """Record one observation (histograms only)."""
        if self.kind != HISTOGRAM:
            raise ValueError(f"{self.name!r} is a {self.kind}, not a histogram")
        value = float(value)
        with self._lock:
            series = self._child(self._key(labels))
            index = len(self.buckets)  # overflow bucket
            for position, boundary in enumerate(self.buckets):
                if value <= boundary:
                    index = position
                    break
            series.bucket_counts[index] += 1
            series.sum += value
            series.count += 1

    def value(self, **labels) -> float:
        """The scalar value of one series (0.0 if never touched)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.value if series is not None else 0.0

    # ------------------------------------------------------------------
    def snapshot_series(self) -> list[dict]:
        """All series as JSON-ready dictionaries, sorted by label values."""
        with self._lock:
            rows = []
            for key in sorted(self._series):
                series = self._series[key]
                labels = dict(zip(self.label_names, key))
                if self.kind == HISTOGRAM:
                    rows.append(
                        {
                            "labels": labels,
                            "buckets": list(series.bucket_counts),
                            "sum": series.sum,
                            "count": series.count,
                        }
                    )
                else:
                    rows.append({"labels": labels, "value": series.value})
            return rows


class MetricsRegistry:
    """All metric families of one process (or one :func:`repro.obs.isolated` block)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        if not _NAME_PATTERN.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_PATTERN.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, tuple(labels), buckets, self._lock)
                self._families[name] = family
                return family
        if family.kind != kind:
            raise ValueError(f"metric {name!r} is already registered as a {family.kind}")
        if family.label_names != tuple(sorted(labels)):
            raise ValueError(
                f"metric {name!r} is already registered with labels "
                f"{list(family.label_names)}"
            )
        if buckets is not None and family.buckets != tuple(buckets):
            # Two call sites silently disagreeing on boundaries would merge
            # incompatible bucket vectors; make the disagreement loud.
            raise ValueError(
                f"histogram {name!r} is already registered with buckets "
                f"{list(family.buckets)}"
            )
        return family

    def counter(self, name: str, help_text: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._family(name, COUNTER, help_text, labels)

    def gauge(self, name: str, help_text: str = "", labels: tuple[str, ...] = ()) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._family(name, GAUGE, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Get-or-create a histogram family with fixed bucket boundaries."""
        boundaries = tuple(float(b) for b in buckets)
        if list(boundaries) != sorted(set(boundaries)):
            raise ValueError("histogram buckets must be strictly increasing")
        return self._family(name, HISTOGRAM, help_text, labels, boundaries)

    # ------------------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        """All families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self, kinds: tuple[str, ...] | None = None) -> dict:
        """The whole registry as a JSON-ready, deterministically-ordered dict.

        ``kinds`` restricts the dump (e.g. ``("counter",)`` for the compact
        per-round snapshots the driver streams through ``RoundRecord``).
        """
        document: dict = {}
        for family in self.families():
            if kinds is not None and family.kind not in kinds:
                continue
            entry: dict = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": family.snapshot_series(),
            }
            if family.buckets is not None:
                entry["bounds"] = list(family.buckets)
            document[family.name] = entry
        return document

    def reset(self) -> None:
        """Drop every family (tests and bench harness isolation)."""
        with self._lock:
            self._families.clear()

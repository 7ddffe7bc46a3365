"""Unit tests for :mod:`repro.obs`: registry, traces, renderers, logging.

The cross-cutting guarantee — telemetry never changes repair bytes — lives
in ``tests/test_obs_differential.py``; this module pins the local behaviour
of each piece.
"""

from __future__ import annotations

import io
import json
import time

import pytest

import repro.obs as obs
from repro.core.result import RepairTiming
from repro.obs import JsonLogger, MetricsRegistry, Trace, current_trace, use_trace
from repro.obs.prometheus import render_prometheus, render_summary


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "Hits.", labels=("tier",))
        family.inc(tier="memory")
        family.inc(2, tier="memory")
        family.inc(tier="disk")
        assert family.value(tier="memory") == 3.0
        assert family.value(tier="disk") == 1.0
        assert family.value(tier="never") == 0.0

    def test_counter_rejects_negative_and_wrong_kind_calls(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        with pytest.raises(ValueError, match="not a gauge"):
            counter.set(3.0)
        with pytest.raises(ValueError, match="not a histogram"):
            counter.observe(0.5)

    def test_reregistration_returns_same_family_and_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "Jobs.", labels=("status",))
        again = registry.counter("jobs_total", "ignored", labels=("status",))
        assert again is first
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("jobs_total")
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("jobs_total", labels=("kind",))

    def test_histogram_bucket_boundary_conflicts_raise(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        assert registry.histogram("h_seconds", buckets=(0.1, 1.0)) is family
        # Two call sites silently disagreeing on boundaries would merge
        # incompatible bucket vectors; the registry refuses loudly instead.
        with pytest.raises(ValueError, match="already registered with buckets"):
            registry.histogram("h_seconds", buckets=(0.5, 1.0))
        with pytest.raises(ValueError, match="already registered with buckets"):
            registry.histogram("h_seconds")  # implied DEFAULT_BUCKETS differ too

    def test_invalid_metric_and_label_names_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("fine_name", labels=("bad-label",))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_label_order_is_name_sorted_not_call_site_order(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("zeta", "alpha"))
        family.inc(zeta="z", alpha="a")
        (series,) = registry.snapshot()["c_total"]["series"]
        assert list(series["labels"]) == ["alpha", "zeta"]

    def test_histogram_buckets_sum_and_count(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 7.0):
            family.observe(value)
        (series,) = registry.snapshot()["lat_seconds"]["series"]
        # Non-cumulative counts: <=0.1, <=1.0, overflow.
        assert series["buckets"] == [1, 2, 1]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(8.05)
        assert registry.snapshot()["lat_seconds"]["bounds"] == [0.1, 1.0]

    def test_snapshot_is_sorted_and_kind_filterable(self):
        registry = MetricsRegistry()
        registry.gauge("b_gauge").set(2.0)
        registry.counter("a_total").inc()
        registry.histogram("c_seconds").observe(0.01)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a_total", "b_gauge", "c_seconds"]
        assert list(registry.snapshot(kinds=("counter",))) == ["a_total"]

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc()
        registry.reset()
        assert registry.snapshot() == {}


class TestTrace:
    def test_span_tree_nesting_and_export(self):
        trace = Trace("run", trace_id="trace-test")
        with use_trace(trace):
            with trace.span("outer", layer=2):
                with trace.span("inner"):
                    pass
            with trace.span("sibling"):
                pass
        trace.finish()
        exported = trace.export()
        assert exported["trace_id"] == "trace-test"
        root = exported["root"]
        assert root["name"] == "run"
        assert [child["name"] for child in root["children"]] == ["outer", "sibling"]
        outer = root["children"][0]
        assert outer["attributes"] == {"layer": 2}
        assert [child["name"] for child in outer["children"]] == ["inner"]
        # Leaf spans omit the (empty) children key to keep exports compact.
        assert "children" not in outer["children"][0]
        assert root["wall_seconds"] >= outer["wall_seconds"] >= 0.0
        assert outer["cpu_seconds"] >= 0.0

    def test_span_closes_on_exception(self):
        trace = Trace("run")
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        with trace.span("after"):
            pass
        trace.finish()
        root = trace.export()["root"]
        # "after" is a sibling of "doomed", not its child: the stack popped.
        assert [child["name"] for child in root["children"]] == ["doomed", "after"]

    def test_use_trace_scopes_the_contextvar(self):
        assert current_trace() is None
        trace = Trace("scoped")
        with use_trace(trace):
            assert current_trace() is trace
        assert current_trace() is None


class TestFacade:
    def test_span_is_noop_unless_enabled_and_traced(self):
        with obs.isolated(start_enabled=False):
            assert obs.span("anything") is obs._NOOP
        with obs.isolated():
            # Enabled but no active trace: still the no-op singleton.
            assert obs.span("anything") is obs._NOOP
            trace = Trace("run")
            with use_trace(trace):
                with obs.span("real", key="value"):
                    pass
            trace.finish()
            assert trace.export()["root"]["children"][0]["name"] == "real"
        with obs.isolated(start_enabled=False):
            # A disabled registry does not silence an active trace.
            trace = Trace("run")
            with use_trace(trace):
                with obs.span("recorded"):
                    pass
            assert [child.name for child in trace.root.children] == ["recorded"]
            # ``timed`` without a trace records into a private one, which
            # is active only for its block.
            with obs.timed("private", key="value") as root:
                assert current_trace() is not None
                with obs.span("inner"):
                    pass
            assert current_trace() is None
            assert root.name == "private" and root.attributes == {"key": "value"}
            assert [child.name for child in root.children] == ["inner"]
            assert root.wall_seconds >= root.children[0].wall_seconds > 0.0

    def test_isolated_swaps_registry_and_flag(self):
        before_enabled = obs.enabled()
        before_registry = obs.registry()
        with obs.isolated() as registry:
            assert obs.enabled()
            obs.counter("repro_test_total").inc()
            assert registry.snapshot()["repro_test_total"]["series"][0]["value"] == 1.0
        assert obs.enabled() == before_enabled
        assert obs.registry() is before_registry
        assert "repro_test_total" not in obs.snapshot()

class TestSpanClock:
    """The span tree as the repair stack's clock: sums of named spans."""

    def test_timed_nests_inside_an_active_trace(self):
        trace = Trace("run")
        with use_trace(trace):
            with obs.timed("entry") as node:
                pass
            assert current_trace() is trace
        assert trace.root.children == [node]

    def test_seconds_in_sums_outermost_named_spans(self):
        with obs.timed("run") as root:
            for _ in range(2):
                with obs.span("phase"):
                    time.sleep(0.01)
                    with obs.span("phase"):  # nested: counted once, via its parent
                        pass
            with obs.span("other"):
                with obs.span("phase"):
                    pass
        phases = root.find("phase")
        assert len(phases) == 3
        assert root.seconds_in("phase") == sum(node.wall_seconds for node in phases)
        assert root.seconds_in("phase") >= 0.02
        assert root.seconds_in("missing") == 0.0

    def test_spans_record_cpu_time(self):
        with obs.timed("run") as root:
            with obs.span("spin"):
                total = 0
                for value in range(200_000):
                    total += value
            with obs.span("sleep"):
                time.sleep(0.02)
        spin, sleep = root.children
        assert spin.cpu_seconds > 0.0
        # Sleeping burns wall-clock but (almost) no CPU.
        assert sleep.wall_seconds >= 0.02
        assert sleep.cpu_seconds < sleep.wall_seconds

    def test_repair_timing_other_is_the_remainder(self):
        with obs.timed("repair") as root:
            with obs.span("repair.linregions"):
                time.sleep(0.01)
            with obs.span("repair.encode"):
                pass
            with obs.span("lp.solve"):
                time.sleep(0.01)
            time.sleep(0.02)  # unattributed
        timing = RepairTiming.from_spans(root)
        assert timing.linregions_seconds == root.seconds_in("repair.linregions") >= 0.01
        assert timing.jacobian_seconds == root.seconds_in("repair.encode")
        assert timing.lp_seconds == root.children[2].wall_seconds >= 0.01
        assert timing.other_seconds >= 0.015
        assert timing.total_seconds == pytest.approx(root.wall_seconds, rel=1e-12)
        twice = RepairTiming.from_spans(root, root)
        assert twice.total_seconds == pytest.approx(2 * root.wall_seconds, rel=1e-12)


class TestPrometheusExposition:
    def test_golden_document(self):
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_cache_requests_total", "Cache lookups.", labels=("result", "tier")
        )
        requests.inc(3, tier="memory", result="hit")
        requests.inc(tier="disk", result='mi"ss\n')
        registry.gauge("repro_jobs_running", "Running jobs.").set(2.0)
        solve = registry.histogram(
            "repro_lp_solve_seconds", "LP solve wall time.", labels=("backend",),
            buckets=(0.01, 0.1),
        )
        solve.observe(0.005, backend="scipy")
        solve.observe(0.05, backend="scipy")
        solve.observe(5.0, backend="scipy")
        text = render_prometheus(registry.snapshot())
        assert text == (
            "# HELP repro_cache_requests_total Cache lookups.\n"
            "# TYPE repro_cache_requests_total counter\n"
            'repro_cache_requests_total{result="hit",tier="memory"} 3\n'
            'repro_cache_requests_total{result="mi\\"ss\\n",tier="disk"} 1\n'
            "# HELP repro_jobs_running Running jobs.\n"
            "# TYPE repro_jobs_running gauge\n"
            "repro_jobs_running 2\n"
            "# HELP repro_lp_solve_seconds LP solve wall time.\n"
            "# TYPE repro_lp_solve_seconds histogram\n"
            'repro_lp_solve_seconds_bucket{backend="scipy",le="0.01"} 1\n'
            'repro_lp_solve_seconds_bucket{backend="scipy",le="0.1"} 2\n'
            'repro_lp_solve_seconds_bucket{backend="scipy",le="+Inf"} 3\n'
            'repro_lp_solve_seconds_sum{backend="scipy"} 5.055\n'
            'repro_lp_solve_seconds_count{backend="scipy"} 3\n'
        )

    def test_empty_registry_renders_empty_string(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_summary_table(self):
        registry = MetricsRegistry()
        registry.counter("repro_rounds_total").inc(4)
        registry.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
        summary = render_summary(registry.snapshot())
        assert "repro_rounds_total" in summary
        assert "n=1 mean=0.500000s" in summary
        assert render_summary(MetricsRegistry().snapshot()) == "(no metrics recorded)"


class TestJsonLogger:
    def test_one_json_line_per_event_with_fields(self):
        stream = io.StringIO()
        logger = JsonLogger("info", stream=stream)
        logger.info("job_state", job_id="job-1", status="done")
        logger.error("job_state", job_id="job-2", status="failed")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "job_state"
        assert first["level"] == "info"
        assert first["job_id"] == "job-1"
        assert isinstance(first["ts"], float)

    def test_level_filtering_and_off(self):
        stream = io.StringIO()
        logger = JsonLogger("warning", stream=stream)
        logger.debug("noise")
        logger.info("noise")
        logger.warning("signal")
        assert len(stream.getvalue().splitlines()) == 1
        silent = JsonLogger("off", stream=stream)
        silent.error("nothing")
        assert len(stream.getvalue().splitlines()) == 1

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            JsonLogger("loud")

    def test_non_serializable_fields_fall_back_to_str(self):
        stream = io.StringIO()
        JsonLogger("info", stream=stream).info("event", path=io.StringIO)
        assert json.loads(stream.getvalue())["path"].startswith("<class")

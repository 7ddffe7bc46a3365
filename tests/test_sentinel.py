"""Tests for the perf-regression sentinel (benchmarks/sentinel.py).

The acceptance bar: the sentinel must *demonstrably* catch an injected
regression — a doctored telemetry document with a synthetic slowdown makes
``main()`` exit nonzero — while clean artifacts pass, new series never
fail, and every run (pass or fail) lands in the history JSONL.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import sentinel  # noqa: E402  - benchmarks/ is not a package


def service_document(
    *,
    speedup: float = 3.0,
    warm_p99_ms: float = 50.0,
    warm_mean_ms: float = 40.0,
    lp_sum: float = 0.2,
    lp_count: int = 10,
) -> dict:
    """A minimal BENCH_service.json with an embedded telemetry block."""
    return {
        "benchmark": "service",
        "warm_speedup": speedup,
        "warm": {"latency_p99_ms": warm_p99_ms, "latency_mean_ms": warm_mean_ms},
        "telemetry": {
            "metrics": {
                "repro_lp_solve_seconds": {
                    "kind": "histogram",
                    "bounds": [0.1, 1.0],
                    "series": [
                        {
                            "labels": {"backend": "scipy"},
                            "buckets": [lp_count, 0, 0],
                            "sum": lp_sum,
                            "count": lp_count,
                        }
                    ],
                }
            }
        },
    }


def incremental_document(
    *,
    round_seconds: float = 0.5,
    speedup: float = 2.0,
    backends: dict | None = None,
) -> dict:
    return {
        "benchmark": "incremental",
        "results": [
            {
                "incremental": {"mean_round_seconds": round_seconds},
                "round_speedup": speedup,
                "backends": backends or {},
            }
        ],
    }


def imagenet_document(*, results: list[dict] | None = None) -> dict:
    """A minimal BENCH_imagenet_scaling.json."""
    if results is None:
        results = [
            {"constraint_rows": 800, "round_seconds_mean": 0.2, "peak_rss_bytes": 2.0e8},
            {"constraint_rows": 4000, "round_seconds_mean": 1.1, "peak_rss_bytes": 2.6e8},
        ]
    return {"benchmark": "imagenet_scaling", "results": results}


def backend_entry(slug: str, round_seconds: float) -> dict:
    """One per-backend portfolio entry as bench_incremental once recorded it."""
    return {
        "slug": slug,
        "available": True,
        "warm_start_is_exact": True,
        "cold_mean_round_seconds": round_seconds * 2.0,
        "incremental_mean_round_seconds": round_seconds,
        "round_speedup": 2.0,
        "rounds": 5,
        "warm_started_rounds": 4,
        "total_seconds": 1.0,
    }


def write(path: Path, document: dict) -> str:
    path.write_text(json.dumps(document))
    return str(path)


class TestExtract:
    def test_service_series_and_directions(self):
        series = sentinel.extract(service_document())
        assert series["service_warm_speedup"] == {"value": 3.0, "direction": "higher"}
        assert series["service_warm_p99_ms"] == {"value": 50.0, "direction": "lower"}
        assert series["service_lp_solve_total_seconds"]["value"] == pytest.approx(0.2)
        assert series["service_lp_solve_mean_seconds"]["value"] == pytest.approx(0.02)

    def test_incremental_series(self):
        series = sentinel.extract(incremental_document())
        assert series["incremental_mean_round_seconds"]["value"] == 0.5
        # The cold-vs-incremental speedup is retired with the cold driver:
        # older artifacts still carrying it must not resurrect the series.
        assert "incremental_round_speedup" not in series

    def test_legacy_backend_tables_are_ignored(self):
        """Artifacts from before the single LP solver carried per-backend
        tables; they still grade, on the overall series only."""
        document = incremental_document(
            backends={
                "scipy": backend_entry("scipy", 0.2),
                "race:highs_native,scipy": backend_entry("race_highs_native_scipy", 0.3),
            }
        )
        series = sentinel.extract(document)
        assert series["incremental_mean_round_seconds"]["value"] == 0.5
        assert not any(name.startswith("incremental_backend_") for name in series)

    def test_documents_without_backend_tables_extract_cleanly(self):
        document = incremental_document()
        series = sentinel.extract(document)
        assert not any(name.startswith("incremental_backend_") for name in series)

    def test_imagenet_grades_largest_workload_of_the_sweep(self):
        series = sentinel.extract(imagenet_document())
        assert series["imagenet_round_seconds"] == {"value": 1.1, "direction": "lower"}
        assert series["imagenet_peak_rss_bytes"] == {
            "value": 2.6e8,
            "direction": "lower",
        }

    def test_imagenet_empty_results_extract_cleanly(self):
        assert sentinel.extract(imagenet_document(results=[])) == {}

    def test_lp_histogram_joins_from_any_benchmark_kind(self):
        document = service_document()
        document["benchmark"] = "lp_scaling"
        assert "lp_scaling_lp_solve_mean_seconds" in sentinel.extract(document)

    def test_nan_and_infinity_are_dropped(self):
        document = service_document(speedup=float("nan"))
        document["warm"]["latency_p99_ms"] = float("inf")
        series = sentinel.extract(document)
        assert "service_warm_speedup" not in series
        assert "service_warm_p99_ms" not in series

    def test_document_without_telemetry_still_extracts_stats(self):
        document = service_document()
        del document["telemetry"]
        series = sentinel.extract(document)
        assert "service_warm_speedup" in series
        assert "service_lp_solve_total_seconds" not in series


class TestCompare:
    BASELINE = {
        "tolerance": 1.0,
        "series": {
            "warm_p99_ms": {"value": 50.0, "direction": "lower", "tolerance": 1.0},
            "speedup": {"value": 3.0, "direction": "higher", "tolerance": 0.5},
        },
    }

    def test_within_tolerance_passes(self):
        measured = {
            "warm_p99_ms": {"value": 80.0, "direction": "lower"},
            "speedup": {"value": 2.5, "direction": "higher"},
        }
        rows, regressions = sentinel.compare(measured, self.BASELINE)
        assert regressions == []
        assert all(row["verdict"] == "ok" for row in rows)

    def test_lower_is_better_regression(self):
        measured = {"warm_p99_ms": {"value": 101.0, "direction": "lower"}}
        _, regressions = sentinel.compare(measured, self.BASELINE)
        assert len(regressions) == 1 and "warm_p99_ms" in regressions[0]

    def test_higher_is_better_regression(self):
        measured = {"speedup": {"value": 1.9, "direction": "higher"}}
        _, regressions = sentinel.compare(measured, self.BASELINE)
        assert len(regressions) == 1 and "speedup" in regressions[0]

    def test_improvements_never_fail(self):
        measured = {
            "warm_p99_ms": {"value": 1.0, "direction": "lower"},
            "speedup": {"value": 300.0, "direction": "higher"},
        }
        _, regressions = sentinel.compare(measured, self.BASELINE)
        assert regressions == []

    def test_new_series_reported_but_never_fail(self):
        measured = {"brand_new_ms": {"value": 1e9, "direction": "lower"}}
        rows, regressions = sentinel.compare(measured, self.BASELINE)
        assert regressions == []
        verdicts = {row["series"]: row["verdict"] for row in rows}
        assert verdicts["brand_new_ms"] == "new"
        # ... and a silently-dropped benchmark is visible in the rows.
        assert verdicts["warm_p99_ms"] == "missing-from-artifacts"
        assert verdicts["speedup"] == "missing-from-artifacts"


class TestMainEndToEnd:
    def grade(self, tmp_path: Path, documents: list[dict], *extra: str) -> int:
        artifacts = [
            write(tmp_path / f"BENCH_{index}.json", document)
            for index, document in enumerate(documents)
        ]
        return sentinel.main(
            [
                *artifacts,
                "--baseline", str(tmp_path / "baseline.json"),
                "--history", str(tmp_path / "history.jsonl"),
                *extra,
            ]
        )

    def test_write_baseline_then_clean_artifacts_pass(self, tmp_path):
        documents = [service_document(), incremental_document()]
        assert self.grade(tmp_path, documents, "--write-baseline") == 0
        baseline = json.loads((tmp_path / "baseline.json").read_text())
        assert "service_warm_p99_ms" in baseline["series"]
        assert self.grade(tmp_path, documents) == 0

    def test_injected_slowdown_exits_nonzero(self, tmp_path):
        assert self.grade(tmp_path, [service_document()], "--write-baseline") == 0
        # A synthetic 200x latency cliff plus a collapsed warm-cache
        # speedup: far past any noise tolerance.
        doctored = service_document(
            speedup=3.0 / 200.0,
            warm_p99_ms=50.0 * 200.0,
            warm_mean_ms=40.0 * 200.0,
            lp_sum=0.2 * 200.0,
        )
        assert self.grade(tmp_path, [doctored]) == 1
        history = [
            json.loads(line)
            for line in (tmp_path / "history.jsonl").read_text().splitlines()
        ]
        assert [record["ok"] for record in history] == [False]
        assert any("service_warm_p99_ms" in r for r in history[0]["regressions"])

    def test_history_accumulates_run_over_run(self, tmp_path):
        assert self.grade(tmp_path, [service_document()], "--write-baseline") == 0
        assert self.grade(tmp_path, [service_document()]) == 0
        assert self.grade(tmp_path, [service_document(warm_p99_ms=50.0 * 500)]) == 1
        history = [
            json.loads(line)
            for line in (tmp_path / "history.jsonl").read_text().splitlines()
        ]
        assert [record["ok"] for record in history] == [True, False]
        assert history[0]["values"]["service_warm_p99_ms"] == 50.0

    def test_tolerance_override_widens_every_series(self, tmp_path):
        assert self.grade(tmp_path, [service_document()], "--write-baseline") == 0
        doctored = [service_document(warm_p99_ms=50.0 * 200.0)]
        assert self.grade(tmp_path, doctored) == 1
        assert self.grade(tmp_path, doctored, "--tolerance", "1000") == 0

    def test_no_series_and_unreadable_artifacts_exit_2(self, tmp_path):
        assert sentinel.main(
            [str(tmp_path / "missing.json"), "--baseline", str(tmp_path / "b.json")]
        ) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert sentinel.main([str(broken), "--baseline", str(tmp_path / "b.json")]) == 2

    def test_grading_without_a_baseline_exits_2(self, tmp_path):
        artifact = write(tmp_path / "BENCH_service.json", service_document())
        assert sentinel.main(
            [artifact, "--baseline", str(tmp_path / "nope.json"),
             "--history", str(tmp_path / "history.jsonl")]
        ) == 2

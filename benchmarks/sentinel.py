"""Perf-regression sentinel: grade BENCH_*.json artifacts against a baseline.

Every benchmark report already embeds a full telemetry document (the final
metrics-registry dump plus run metadata) — but until now those were
write-only artifacts.  The sentinel closes the loop:

1. **Extract** a small set of key series from each artifact it is given —
   the warm-cache speedup and warm p99 from ``BENCH_service.json``, the
   mean per-round repair seconds from ``BENCH_incremental.json``, the largest-workload round seconds and peak
   RSS from ``BENCH_imagenet_scaling.json``, and the LP solve-time
   histogram mass (mean and total seconds from ``repro_lp_solve_seconds``)
   from any artifact whose telemetry carries it.
2. **Record** one JSON line per run into a history file
   (``BENCH_history.jsonl``) so the trajectory accumulates run-over-run —
   CI uploads it as an artifact.
3. **Compare** each extracted value against the committed baseline
   (``benchmarks/BENCH_baseline.json``) with a per-series noise tolerance,
   and exit nonzero if any series regressed.

A "regression" is direction-aware: for lower-is-better series (latencies,
solve seconds) the measured value must stay under ``baseline * (1 +
tolerance)``; for higher-is-better series (speedups) it must stay above
``baseline / (1 + tolerance)``.  Tolerances are deliberately generous by
default — CI runners are shared and noisy: with ``DEFAULT_TOLERANCES`` a
lower-is-better series fails only once it exceeds 10× its baseline
(tolerance 9.0) and a speedup only once it falls below baseline / 2.5
(tolerance 1.5).  A 3× slowdown therefore passes by default; pass
``--tolerance`` to grade tighter.  Improvements are never failures;
regenerate the baseline (``--write-baseline``) when a PR legitimately moves
the numbers.

Usage::

    PYTHONPATH=src python benchmarks/sentinel.py \
        BENCH_service.json BENCH_incremental.json BENCH_lp_scaling.json \
        --baseline benchmarks/BENCH_baseline.json --history BENCH_history.jsonl

    # refresh the committed baseline from the current artifacts
    PYTHONPATH=src python benchmarks/sentinel.py ... --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

#: Default relative tolerance per series kind when writing a fresh baseline.
#: Wall-clock series get the widest band — the committed baseline is
#: generated on one machine and graded on shared CI runners that can be an
#: order of magnitude slower — while speedup ratios, being mostly
#: machine-independent, get a narrower one.
DEFAULT_TOLERANCES = {
    "lower": 9.0,   # latencies / seconds: fail only past 10x the baseline
    "higher": 1.5,  # speedups: fail below baseline / 2.5
}


def _histogram_totals(telemetry: dict, family: str) -> tuple[float, int] | None:
    """(sum_seconds, count) over every series of one histogram family."""
    metrics = (telemetry or {}).get("metrics") or {}
    entry = metrics.get(family)
    if not entry or entry.get("kind") != "histogram":
        return None
    total, count = 0.0, 0
    for series in entry.get("series", ()):
        total += float(series.get("sum", 0.0))
        count += int(series.get("count", 0))
    return total, count


def extract(document: dict) -> dict[str, dict]:
    """Pull the key series out of one benchmark report.

    Returns ``{series_name: {"value": float, "direction": "lower"|"higher"}}``.
    Unknown benchmark kinds still contribute their LP histogram mass when
    their telemetry carries it, so new benchmarks join the sentinel for
    free.
    """
    series: dict[str, dict] = {}
    kind = document.get("benchmark", "unknown")

    def put(name: str, value, direction: str) -> None:
        if value is None:
            return
        value = float(value)
        if value == value and value not in (float("inf"), float("-inf")):  # not NaN/inf
            series[name] = {"value": value, "direction": direction}

    if kind == "service":
        put("service_warm_speedup", document.get("warm_speedup"), "higher")
        warm = document.get("warm") or {}
        put("service_warm_p99_ms", warm.get("latency_p99_ms"), "lower")
        put("service_warm_mean_ms", warm.get("latency_mean_ms"), "lower")
    elif kind == "incremental":
        results = document.get("results") or []
        round_seconds = [
            entry["incremental"]["mean_round_seconds"]
            for entry in results
            if entry.get("incremental", {}).get("mean_round_seconds") is not None
        ]
        if round_seconds:
            put(
                "incremental_mean_round_seconds",
                sum(round_seconds) / len(round_seconds),
                "lower",
            )
    elif kind == "imagenet_scaling":
        # Grade the largest workload of the sweep: that is the record the
        # out-of-core pipeline exists for, and CI invokes the benchmark with
        # fixed sizes so the largest record is comparable run over run.
        results = document.get("results") or []
        largest = max(results, key=lambda entry: entry.get("constraint_rows", 0), default=None)
        if largest is not None:
            put("imagenet_round_seconds", largest.get("round_seconds_mean"), "lower")
            put("imagenet_peak_rss_bytes", largest.get("peak_rss_bytes"), "lower")

    totals = _histogram_totals(document.get("telemetry") or {}, "repro_lp_solve_seconds")
    if totals is not None and totals[1] > 0:
        put(f"{kind}_lp_solve_total_seconds", totals[0], "lower")
        put(f"{kind}_lp_solve_mean_seconds", totals[0] / totals[1], "lower")
    return series


def compare(measured: dict[str, dict], baseline: dict) -> tuple[list[dict], list[str]]:
    """Grade measured series against the baseline document.

    Returns ``(rows, regressions)``: one row per measured series with its
    verdict, and the regression messages (empty = pass).  Series missing
    from the baseline are reported as ``new`` and never fail; baseline
    series missing from the artifacts are reported so a silently-dropped
    benchmark cannot hide a regression forever.
    """
    rows: list[dict] = []
    regressions: list[str] = []
    default_tolerance = float(baseline.get("tolerance", 1.0))
    baseline_series = baseline.get("series", {})
    for name in sorted(measured):
        entry = measured[name]
        value, direction = entry["value"], entry["direction"]
        reference = baseline_series.get(name)
        if reference is None:
            rows.append({"series": name, "value": value, "verdict": "new"})
            continue
        base_value = float(reference["value"])
        tolerance = float(reference.get("tolerance", default_tolerance))
        if base_value <= 0:
            rows.append({"series": name, "value": value, "verdict": "skipped-zero-baseline"})
            continue
        if direction == "lower":
            limit = base_value * (1.0 + tolerance)
            regressed = value > limit
        else:
            limit = base_value / (1.0 + tolerance)
            regressed = value < limit
        verdict = "REGRESSED" if regressed else "ok"
        rows.append(
            {
                "series": name,
                "value": value,
                "baseline": base_value,
                "limit": limit,
                "direction": direction,
                "tolerance": tolerance,
                "verdict": verdict,
            }
        )
        if regressed:
            regressions.append(
                f"{name}: {value:.6g} vs baseline {base_value:.6g} "
                f"(allowed {'<=' if direction == 'lower' else '>='} {limit:.6g})"
            )
    measured_names = set(measured)
    for name in sorted(set(baseline_series) - measured_names):
        rows.append({"series": name, "verdict": "missing-from-artifacts"})
    return rows, regressions


def write_baseline(measured: dict[str, dict], path: Path) -> None:
    """Write a fresh baseline document from the measured values."""
    document = {
        "generated_unix": time.time(),
        "tolerance": 1.0,
        "series": {
            name: {
                "value": entry["value"],
                "direction": entry["direction"],
                "tolerance": DEFAULT_TOLERANCES[entry["direction"]],
            }
            for name, entry in sorted(measured.items())
        },
    }
    path.write_text(json.dumps(document, indent=2) + "\n")


def append_history(path: Path, record: dict) -> None:
    with path.open("a") as stream:
        stream.write(json.dumps(record) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", type=Path, nargs="+", help="BENCH_*.json reports to grade")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).parent / "BENCH_baseline.json",
        help="committed baseline document (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path("BENCH_history.jsonl"),
        help="append-only run history (default: BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the baseline's default relative tolerance",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from these artifacts instead of grading",
    )
    args = parser.parse_args(argv)

    measured: dict[str, dict] = {}
    for path in args.artifacts:
        if not path.exists():
            print(f"sentinel: skipping missing artifact {path}", file=sys.stderr)
            continue
        try:
            document = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as error:
            print(f"sentinel: unreadable artifact {path}: {error}", file=sys.stderr)
            return 2
        for name, entry in extract(document).items():
            measured[name] = entry
    if not measured:
        print("sentinel: no key series extracted from any artifact", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(measured, args.baseline)
        print(f"sentinel: wrote baseline {args.baseline} ({len(measured)} series)")
        return 0

    if not args.baseline.exists():
        print(f"sentinel: no baseline at {args.baseline}", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    if args.tolerance is not None:
        # The override wins everywhere, including over per-series values the
        # baseline writer recorded — otherwise the flag would be dead weight.
        baseline["tolerance"] = args.tolerance
        for entry in baseline.get("series", {}).values():
            entry.pop("tolerance", None)
    rows, regressions = compare(measured, baseline)

    width = max(len(row["series"]) for row in rows)
    for row in rows:
        value = f"{row['value']:.6g}" if "value" in row else "-"
        reference = f"{row['baseline']:.6g}" if "baseline" in row else "-"
        print(f"{row['series']:<{width}}  {value:>12}  baseline={reference:>12}  {row['verdict']}")

    append_history(
        args.history,
        {
            "unix": time.time(),
            "sha": os.environ.get("GITHUB_SHA"),
            "values": {name: entry["value"] for name, entry in sorted(measured.items())},
            "regressions": regressions,
            "ok": not regressions,
        },
    )
    print(f"sentinel: appended run to {args.history}")

    if regressions:
        print("sentinel: PERFORMANCE REGRESSION", file=sys.stderr)
        for message in regressions:
            print(f"  {message}", file=sys.stderr)
        return 1
    print("sentinel: all series within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

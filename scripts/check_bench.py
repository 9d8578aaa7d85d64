#!/usr/bin/env python3
"""Gate CI on simulator fast-path performance.

Compares a BENCH_pipeline.json produced by bench_perf_pipeline against the
checked-in baseline (scripts/bench_baseline.json) and exits non-zero if any
metric regressed by more than the allowed factor (default 2x). The factor
is deliberately loose: shared CI runners are noisy, and the gate exists to
catch algorithmic regressions (an accidental O(n^2), a capture outgrowing
the inline-callback buffer), not scheduler jitter.

Also gates the laces_store archive bench (bench_archive) and the
laces_serve query-server bench (bench_serve): pass their result files with
the matching baseline (scripts/bench_baseline_archive.json /
scripts/bench_baseline_serve.json). Metrics absent from the chosen
baseline are reported but not gated, so the one METRICS table serves every
result file.

Results and baseline must come from the same bench mode: the benches write
"mode": "short" (LACES_BENCH_SHORT=1, a smaller workload) or "full", and a
file whose mode differs from the baseline's is refused rather than compared.

Usage:
    scripts/check_bench.py BENCH_pipeline.json [--baseline scripts/bench_baseline.json]
                           [--max-regression 2.0]
    scripts/check_bench.py BENCH_archive.json --baseline scripts/bench_baseline_archive.json
    scripts/check_bench.py BENCH_serve.json --baseline scripts/bench_baseline_serve.json

After an intentional performance change, refresh the baseline on a quiet
machine (`./bench/bench_perf_pipeline` / `./bench/bench_archive` in a
Release build) and commit the new baseline file together with the change.
"""

import argparse
import json
import sys

# metric name -> direction ("higher" = throughput, "lower" = latency/time)
METRICS = {
    "events_per_sec": "higher",
    "packets_per_sec": "higher",
    "census_day_wall_ms": "lower",
    # Scaled-world tier (WorldConfig::scale): census-day wall time over the
    # 10x world.
    "scaled_census_day_wall_ms": "lower",
    # bench_archive (laces_store): throughput up, compression ratio down.
    "archive_write_mb_s": "higher",
    "archive_read_mb_s": "higher",
    "compression_ratio": "lower",
    # bench_serve (laces_serve): throughput up, tail latency down.
    "serve_requests_per_sec": "higher",
    "serve_p50_ms": "lower",
    "serve_p99_ms": "lower",
    "serve_p999_ms": "lower",
    # bench_mesh (laces_mesh): pub/sub fan-out chunk deliveries per second
    # up, push tail latency (append start -> subscriber sink) down.
    "mesh_deltas_per_sec": "higher",
    "mesh_push_p50_ms": "lower",
    "mesh_push_p999_ms": "lower",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="BENCH_pipeline.json from bench_perf_pipeline")
    parser.add_argument("--baseline", default="scripts/bench_baseline.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail if a metric is worse than baseline by more than this factor",
    )
    args = parser.parse_args()

    with open(args.results) as f:
        results = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    if results.get("mode") != baseline.get("mode"):
        print(
            f"FAIL: {args.results} was measured in mode {results.get('mode')!r} "
            f"but {args.baseline} in mode {baseline.get('mode')!r}; "
            "rerun the bench in the baseline's mode",
            file=sys.stderr,
        )
        return 1

    failures = []
    print(f"{'metric':<24} {'baseline':>14} {'current':>14} {'ratio':>8}")
    for name, direction in METRICS.items():
        if name not in baseline:
            print(f"{name:<24} {'(no baseline)':>14} {results.get(name, '-'):>14}")
            continue
        if name not in results:
            failures.append(f"{name}: missing from results file")
            continue
        base, cur = float(baseline[name]), float(results[name])
        if base <= 0 or cur <= 0:
            failures.append(f"{name}: non-positive value (baseline={base}, current={cur})")
            continue
        # ratio > 1 means "worse than baseline" in both directions.
        ratio = base / cur if direction == "higher" else cur / base
        flag = " REGRESSION" if ratio > args.max_regression else ""
        print(f"{name:<24} {base:>14.1f} {cur:>14.1f} {ratio:>7.2f}x{flag}")
        if ratio > args.max_regression:
            failures.append(
                f"{name}: {ratio:.2f}x worse than baseline "
                f"(limit {args.max_regression:.2f}x)"
            )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: all metrics within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Compare a pytest-benchmark JSON export against a committed baseline.

Reads the ``--benchmark-json`` output of a bench run and the repo's
``benchmarks/BENCH_<suite>.json`` trajectory file, then fails (exit
code 1) if any bench's mean time regressed by more than the allowed
fraction over the latest committed trajectory point. Benches present
on only one side are reported but never fail the gate (new benches
need a first recorded point; retired ones age out when recorded).

Run:

    python -m pytest benchmarks/test_bench_simulation_speed.py \\
        --benchmark-json=bench.json
    python tools/bench_compare.py bench.json \\
        --baseline benchmarks/BENCH_simulation_speed.json

Append the run as a new trajectory point (after an intentional
performance change):

    python tools/bench_compare.py bench.json \\
        --baseline benchmarks/BENCH_simulation_speed.json \\
        --record --label "vectorized NRZ + fabric kernels"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))
from _report import (  # noqa: E402
    append_trajectory_point, latest_baseline, load_trajectory,
)

#: Default allowed regression: 30% over the committed mean. Bench
#: runners (especially shared CI machines) are noisy; the trajectory
#: exists to catch step changes, not single-digit jitter.
DEFAULT_MAX_REGRESSION = 0.30


def read_benchmark_means(path) -> dict:
    """``{test_name: mean_seconds}`` from a pytest-benchmark export."""
    with open(path) as fh:
        doc = json.load(fh)
    return {b["name"]: float(b["stats"]["mean"])
            for b in doc["benchmarks"]}


def compare(measured: dict, baseline: dict,
            max_regression: float) -> int:
    """Print a comparison table; return the number of failures."""
    failures = 0
    names = sorted(set(measured) | set(baseline))
    width = max(len(n) for n in names) if names else 4
    print(f"{'bench':<{width}}  {'baseline':>12}  {'measured':>12}"
          f"  {'ratio':>7}  verdict")
    for name in names:
        base = baseline.get(name)
        mean = measured.get(name)
        if base is None:
            print(f"{name:<{width}}  {'-':>12}  {mean:>12.6f}"
                  f"  {'-':>7}  NEW (not gated)")
            continue
        if mean is None:
            print(f"{name:<{width}}  {base:>12.6f}  {'-':>12}"
                  f"  {'-':>7}  MISSING (not gated)")
            continue
        ratio = mean / base
        if ratio > 1.0 + max_regression:
            verdict = f"FAIL (> +{max_regression:.0%})"
            failures += 1
        elif ratio < 1.0:
            verdict = f"ok ({1.0 / ratio:.2f}x faster)"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {base:>12.6f}  {mean:>12.6f}"
              f"  {ratio:>6.2f}x  {verdict}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("benchmark_json",
                        help="pytest-benchmark --benchmark-json export")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json trajectory file")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="allowed fractional slowdown over the "
                             "latest trajectory point (default 0.30)")
    parser.add_argument("--record", action="store_true",
                        help="append this run as a new trajectory "
                             "point after comparing")
    parser.add_argument("--label", default="",
                        help="label for the recorded point "
                             "(required with --record)")
    parser.add_argument("--note", default="",
                        help="optional note stored with the point")
    args = parser.parse_args(argv)

    measured = read_benchmark_means(args.benchmark_json)
    if not measured:
        print("no benchmarks in export; nothing to compare",
              file=sys.stderr)
        return 1

    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        doc = load_trajectory(baseline_path)
        print(f"baseline: {baseline_path} "
              f"(point {len(doc['trajectory'])}: "
              f"{doc['trajectory'][-1]['label']!r})")
        failures = compare(measured, latest_baseline(baseline_path),
                           args.max_regression)
    else:
        print(f"baseline {baseline_path} missing; nothing gated")
        failures = 0

    if args.record:
        if not args.label:
            print("--record requires --label", file=sys.stderr)
            return 2
        append_trajectory_point(baseline_path, args.label, measured,
                               note=args.note)
        print(f"recorded trajectory point {args.label!r} "
              f"into {baseline_path}")

    if failures:
        print(f"{failures} bench(es) regressed beyond "
              f"+{args.max_regression:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

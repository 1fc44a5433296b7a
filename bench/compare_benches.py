#!/usr/bin/env python3
"""Diff google-benchmark JSON results against committed baselines.

Usage:
    bench/compare_benches.py BASELINE_DIR NEW_DIR [--threshold PCT]
                             [--normalize] [--filter REGEX]
                             [--rss-gate MB]

Compares every BENCH_*.json present in both directories benchmark by
benchmark (matched on the google-benchmark name) and fails — exit code
1 — when any benchmark's real_time regressed by more than PCT percent
(default 25).

--rss-gate MB additionally scans the NEW results for benchmarks that
report a `peak_rss_mb` counter (the streaming memory benches) and
fails when any exceeds the ceiling — the memory-flatness gate for the
histogram fold. Unlike the timing diff it needs no baseline and no
normalization: peak RSS is a property of the binary, not the machine
speed.

--normalize divides every per-benchmark ratio by the median ratio
across all benchmarks first. A uniform machine-speed difference (the
committed baselines come from the dev container; CI runners differ)
moves every ratio equally and cancels out, so only benchmarks that
regressed *relative to the rest of the suite* flag. Use it whenever
the two sides ran on different hardware.

Benchmarks present on only one side are reported but never fail the
check (new benchmarks land before their baselines do).

A result file may hold repeated runs of one benchmark
(--benchmark_repetitions); each side is then compared by its median.
"""

import argparse
import json
import re
import sys
from pathlib import Path
from statistics import median


def load_benchmarks(path: Path) -> dict[str, float]:
    """name -> median real_time (ns) over the name's repetitions.

    A file written with --benchmark_repetitions holds one entry per
    repetition under the same name; all of them are folded into their
    median. Aggregate entries (_mean, _median, _stddev, ...) are
    skipped.
    """
    with path.open() as f:
        data = json.load(f)
    runs: dict[str, list[float]] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        # Normalize to nanoseconds so mixed time_units compare.
        unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
            bench.get("time_unit", "ns")
        ]
        runs.setdefault(bench["name"], []).append(
            float(bench["real_time"]) * unit)
    return {name: median(times) for name, times in runs.items()}


def load_rss_counters(path: Path) -> dict[str, float]:
    """name -> peak_rss_mb for benchmarks that report the counter."""
    with path.open() as f:
        data = json.load(f)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "peak_rss_mb" in bench:
            out[bench["name"]] = float(bench["peak_rss_mb"])
    return out


def check_rss_gate(new_dir: Path, ceiling_mb: float) -> list[str]:
    """Failure lines for every peak_rss_mb counter above the ceiling."""
    failures = []
    for new_file in sorted(new_dir.glob("BENCH_*.json")):
        for name, rss in sorted(load_rss_counters(new_file).items()):
            status = "FAIL" if rss > ceiling_mb else "ok"
            print(f"{new_file.name}: {name}: peak RSS {rss:.1f} MB "
                  f"(ceiling {ceiling_mb:.0f} MB) {status}")
            if rss > ceiling_mb:
                failures.append(f"{new_file.name}: {name}: {rss:.1f} MB")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent (default 25)")
    parser.add_argument("--normalize", action="store_true",
                        help="cancel uniform machine-speed differences "
                             "via the median ratio")
    parser.add_argument("--filter", default="",
                        help="only compare benchmark names matching this "
                             "regex")
    parser.add_argument("--rss-gate", type=float, default=0.0,
                        metavar="MB",
                        help="fail when any new benchmark reports a "
                             "peak_rss_mb counter above this ceiling "
                             "(0 = gate off)")
    args = parser.parse_args()

    pattern = re.compile(args.filter) if args.filter else None
    ratios: list[tuple[str, str, float]] = []  # (file, name, new/old)
    only_old: list[str] = []
    only_new: list[str] = []

    baseline_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"no BENCH_*.json baselines under {args.baseline}",
              file=sys.stderr)
        return 2
    for base_file in baseline_files:
        new_file = args.new / base_file.name
        if not new_file.exists():
            print(f"-- {base_file.name}: no new result, skipped")
            continue
        old = load_benchmarks(base_file)
        new = load_benchmarks(new_file)
        for name in sorted(old.keys() | new.keys()):
            if pattern and not pattern.search(name):
                continue
            if name not in new:
                only_old.append(f"{base_file.name}:{name}")
            elif name not in old:
                only_new.append(f"{base_file.name}:{name}")
            elif old[name] > 0:
                ratios.append((base_file.name, name, new[name] / old[name]))

    if not ratios:
        print("no overlapping benchmarks to compare", file=sys.stderr)
        return 2

    scale = median(r for _, _, r in ratios) if args.normalize else 1.0
    if args.normalize:
        print(f"median new/old ratio: {scale:.3f} "
              "(dividing it out as the machine-speed factor)")

    limit = 1.0 + args.threshold / 100.0
    regressions = []
    for file, name, ratio in ratios:
        adjusted = ratio / scale
        marker = " <-- REGRESSION" if adjusted > limit else ""
        print(f"{file}: {name}: {ratio:.3f}x"
              + (f" (adjusted {adjusted:.3f}x)" if args.normalize else "")
              + marker)
        if adjusted > limit:
            regressions.append((file, name, adjusted))

    for entry in only_new:
        print(f"new benchmark (no baseline): {entry}")
    for entry in only_old:
        print(f"baseline benchmark missing from new run: {entry}")

    rss_failures = (check_rss_gate(args.new, args.rss_gate)
                    if args.rss_gate > 0 else [])

    # Report every gate's failures before exiting so one failing gate
    # never hides the other.
    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
              f"than {args.threshold:.0f}%:", file=sys.stderr)
        for file, name, adjusted in regressions:
            print(f"  {file}: {name}: {adjusted:.3f}x", file=sys.stderr)
    if rss_failures:
        print(f"\nFAIL: {len(rss_failures)} benchmark(s) exceeded the "
              f"{args.rss_gate:.0f} MB peak-RSS ceiling:", file=sys.stderr)
        for entry in rss_failures:
            print(f"  {entry}", file=sys.stderr)
    if regressions or rss_failures:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0f}% "
          f"({len(ratios)} compared)"
          + (f"; all peak-RSS counters under {args.rss_gate:.0f} MB"
             if args.rss_gate > 0 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test for bench/compare_benches.py (ctest `compare_benches_test`).

Feeds the gate google-benchmark result files written with
--benchmark_repetitions=3: every repetition of a name must fold into
the median of its runs, aggregate entries must be skipped, and the
exit code must follow the medians, not whichever repetition the file
lists last.

Usage: compare_benches_test.py [REPO_ROOT]
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(sys.argv[1] if len(sys.argv) > 1 else
            Path(__file__).resolve().parent.parent)
SCRIPT = REPO / "bench" / "compare_benches.py"

failures = []


def check(condition, label):
    print(("PASS" if condition else "FAIL") + f": {label}")
    if not condition:
        failures.append(label)


def result_file(path: Path, runs: dict[str, list[float]], unit="ns"):
    """A result file holding every run of each name plus the aggregate
    entries google-benchmark appends after them."""
    benchmarks = []
    for name, times in runs.items():
        for index, time in enumerate(times):
            benchmarks.append({"name": name, "run_name": name,
                               "run_type": "iteration",
                               "repetitions": len(times),
                               "repetition_index": index,
                               "real_time": time, "cpu_time": time,
                               "time_unit": unit})
        for aggregate in ("mean", "median", "stddev"):
            benchmarks.append({"name": f"{name}_{aggregate}",
                               "run_name": name, "run_type": "aggregate",
                               "aggregate_name": aggregate,
                               "real_time": 1.0, "cpu_time": 1.0,
                               "time_unit": unit})
    path.write_text(json.dumps({"context": {}, "benchmarks": benchmarks}))


def gate(baseline: Path, new: Path) -> int:
    return subprocess.run([sys.executable, str(SCRIPT), str(baseline),
                           str(new), "--threshold", "25"],
                          capture_output=True, text=True).returncode


def main() -> int:
    spec = importlib.util.spec_from_file_location("compare_benches", SCRIPT)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        folded = root / "folded.json"
        result_file(folded, {"BM_A": [3.0, 2.0, 1.0],
                             "BM_B": [20.0, 10.0, 30.0]}, unit="us")
        loaded = compare.load_benchmarks(folded)
        check(loaded == {"BM_A": 2000.0, "BM_B": 20000.0},
              f"repetitions fold into their median, in ns ({loaded})")

        base, new = root / "base", root / "new"
        base.mkdir()
        new.mkdir()
        result_file(base / "BENCH_x.json", {"BM_X": [100.0, 100.0, 100.0]})

        # The last repetition is an outlier: the median has not moved.
        result_file(new / "BENCH_x.json", {"BM_X": [100.0, 105.0, 300.0]})
        check(gate(base, new) == 0,
              "a slow last repetition alone does not fail the gate")

        # Two of three repetitions regressed 3x; the last one did not.
        result_file(new / "BENCH_x.json", {"BM_X": [300.0, 310.0, 100.0]})
        check(gate(base, new) == 1,
              "a regressed median fails the gate whatever comes last")

    if failures:
        print(f"\n{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("\nall compare_benches checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

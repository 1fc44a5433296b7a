#!/usr/bin/env python3
"""crp_shard benchmark: time from launching `crp_shard run`/`supervise`
to a checked CSV on disk, per workload; and, with --trace 1, the
per-layer split measured by the in-process driver trace/crp_trace.cpp.

Usage (from the repository root):
  python3 perfbench/run.py --workload table1-deep --seed 1 --seconds 45 --trace 0

The benchmark builds crp_shard and crp_trace (Release) under
.bench_build/, generates the workload's inputs from --seed, then runs a
closed loop with one client: launch crp_shard, wait, check the output,
launch again, until --seconds have passed. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the
exit code is 0 only when every output check passed. README.md documents
the workloads, the metrics and how each is measured.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH_BUILD = ROOT / ".bench_build"
BUILD_DIR = BENCH_BUILD / "cmake"
LAUNCHER = BUILD_DIR / "crp_launch"
INVOCATION_TIMEOUT_S = 120
MIN_INVOCATIONS = 3
SETUP_REPS = 41        # least `plan` launches per run, for setup_s
UNTRACED_REPS = 3      # untraced launches in a traced run, for the overhead
EXEC_REPS = 15         # one-cell `plan` launches, for tools.crp_shard.exec_ms
MERGE_REPS = 3
SCALING_REPS = 3       # crp_shard run launches per thread count


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# build

def cmake_build_type(build_dir):
    """CMAKE_BUILD_TYPE from the build tree's cache: the same rule as
    bench/run_benches.sh."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        return ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"{ROOT} holds no crp source tree (CMakeLists.txt, src/)")
    BENCH_BUILD.mkdir(exist_ok=True)
    log = BENCH_BUILD / "build.log"
    # Configure every time, so that a target added to an existing tree
    # is known before the build names it; only a new tree gets the
    # build type, so an existing tree keeps its own and is checked below.
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure.append("-DCMAKE_BUILD_TYPE=Release")
    steps = [configure,
             ["cmake", "--build", str(BUILD_DIR), "--target", "crp_shard",
              "crp_trace", "crp_launch", "-j", str(nproc())]]
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (see {log})", 1)
    build_type = cmake_build_type(BUILD_DIR)
    if build_type != "Release":
        die(f"{BUILD_DIR} is a '{build_type or 'unknown'}' build, not "
            "Release; timings from it are not baseline-grade")
    return BUILD_DIR / "crp" / "crp_shard", BUILD_DIR / "crp_trace", build_type


# ---------------------------------------------------------------------------
# process launches

class Launch:
    """One finished process, started through crp_launch: exit code, wall
    time, and the wait4 rusage of its whole tree (the child plus every
    descendant it waited for)."""

    def __init__(self, argv, stdout_path=None, timeout=INVOCATION_TIMEOUT_S):
        self.argv = [str(a) for a in argv]
        self.timeout = timeout
        self.timed_out = False
        stderr_path = BENCH_BUILD / "last_stderr.txt"
        report_path = BENCH_BUILD / "last_launch.txt"
        report_path.unlink(missing_ok=True)
        with open(stderr_path, "w") as err, \
                open(stdout_path or os.devnull, "w") as out:
            proc = subprocess.Popen([LAUNCHER, report_path, *self.argv],
                                    stdout=out, stderr=err, cwd=ROOT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, self._kill, (proc.pid,))
            timer.start()
            self.returncode = proc.wait()
            timer.cancel()
            timer.join()
        self.stderr = stderr_path.read_text(errors="replace")
        # crp_launch writes the report whenever it exits; only a launch
        # killed on timeout has none, and that counts as failed.
        self.wall_s = self.cpu_s = self.peak_rss_mb = None
        if report_path.is_file():
            wall_s, cpu_s, maxrss_kib = report_path.read_text().split()
            self.wall_s, self.cpu_s = float(wall_s), float(cpu_s)
            self.peak_rss_mb = int(maxrss_kib) / 1024.0  # Linux reports KiB

    def _kill(self, pid):
        self.timed_out = True
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def errors(self):
        if self.timed_out:
            return [f"timed out after {self.timeout} s: {' '.join(self.argv)}"]
        if self.returncode != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit {self.returncode}: {' '.join(self.argv)}: {tail[0]}"]
        return []


def must(launch, what):
    errors = launch.errors()
    if errors:
        die(f"{what} failed: {errors[0]}", 1)
    return launch


# ---------------------------------------------------------------------------
# one run

class Bench:
    def __init__(self, name, seed):
        self.crp_shard, self.crp_trace, self.build_type = build()
        self.seed = seed
        self.work = BENCH_BUILD / "work" / f"{name}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.wl = workloads.WORKLOADS[name](seed, self.work)
        if self.wl.load() > nproc():
            die(f"{name} runs {self.wl.threads} threads x {self.wl.workers} "
                f"workers, more than the {nproc()} CPUs of this host")
        self.tally = checks.Tally()

        # Untimed preparation: the plan, the reference CSV, the oracle.
        plan_path = self.work / "plan.json"
        must(Launch(self.plan_argv(), stdout_path=plan_path), "plan")
        self.planned = checks.plan_cells(plan_path.read_text())
        reference = self.work / "reference.csv"
        ref = must(Launch(self.run_argv(reference, min(4, nproc()))),
                   "reference run")
        self.reference = reference.read_text()
        self.kernel_tier = next(
            (line.rsplit(" ", 1)[1] for line in ref.stderr.splitlines()
             if line.startswith("crp_shard: kernel tier ")), "unknown")
        self.oracle = None
        if self.wl.oracle:
            oracle_path = self.work / "oracle.json"
            must(Launch([self.crp_trace, "oracle", "--out", oracle_path,
                         "--threads", str(nproc()),
                         *self.wl.sweep_flags(seed)]), "oracle")
            self.oracle = json.loads(oracle_path.read_text())
        self.reference_errors = checks.check_output(
            self.reference, self.planned, oracle=self.oracle)
        self.total_trials = sum(trials for _, _, trials in self.planned)

    def plan_argv(self, flags=None):
        return [self.crp_shard, "plan",
                *(flags or self.wl.sweep_flags(self.seed)), "--json"]

    def run_argv(self, out, threads):
        return [self.crp_shard, "run", *self.wl.sweep_flags(self.seed),
                "--threads", str(threads), "--out", out]

    def invoke(self):
        """One closed-loop operation: launch the workload's crp_shard
        command, wait, check its output."""
        out = self.work / "out.csv"
        out.unlink(missing_ok=True)
        if self.wl.mode == "run":
            argv = self.run_argv(out, self.wl.threads)
        else:
            fleet = self.work / "fleet"
            shutil.rmtree(fleet, ignore_errors=True)
            argv = [self.crp_shard, "supervise", *self.wl.sweep_flags(self.seed),
                    "--threads", str(self.wl.threads),
                    "--workers", str(self.wl.workers),
                    "--out", out, "--out-dir", fleet]
        launch = Launch(argv)
        errors = launch.errors()
        if not errors:
            quarantine = None
            if self.wl.mode == "supervise":
                report = Path(f"{out}.quarantine.json")
                quarantine = report.read_text() if report.is_file() else ""
            errors = checks.check_output(
                out.read_text() if out.is_file() else "", self.planned,
                self.reference, self.oracle, quarantine)
        self.tally.record(errors)
        return launch if not errors else None

    def setup_wall_s(self):
        return must(Launch(self.plan_argv()), "plan").wall_s

    def context(self):
        return {
            "workload": self.wl.name, "seed": self.seed,
            "nproc": nproc(), "cpu_model": cpu_model(),
            "kernel_tier": self.kernel_tier, "build_type": self.build_type,
            "commit": commit(),
            "threads": self.wl.threads, "workers": self.wl.workers,
            "load_threads": self.wl.load(), "trials_in_grid": self.total_trials,
            "cells": len(self.planned),
        }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values):
    """Median, count, and a p90 only where ten samples lie beyond it."""
    summary = {"median": statistics.median(values), "n": len(values),
               "samples": values}
    if len(values) >= 100:
        summary["p90"] = statistics.quantiles(values, n=10)[-1]
    return summary


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics

def untraced(bench, seconds):
    launches, setup_walls = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or bench.tally.attempted < MIN_INVOCATIONS:
        launch = bench.invoke()
        if launch is not None:
            launches.append(launch)
        # A `plan` launch after each invocation, so that setup_s samples
        # the same stretch of host time as the other metrics.
        setup_walls.append(bench.setup_wall_s())
    while len(setup_walls) < SETUP_REPS:
        setup_walls.append(bench.setup_wall_s())
    setup_s = statistics.median(setup_walls)
    report = {"setup_s": {"median": setup_s, "n": len(setup_walls)}}
    values = {"setup_s": setup_s,
              "success_rate": 1.0 - bench.tally.error_rate}
    if launches:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            report[key] = summarize([getattr(l, key) for l in launches])
            values[key] = report[key]["median"]
        values["trials_per_s"] = bench.total_trials / values["wall_s"]
        report["trials_per_s"] = {"median": values["trials_per_s"],
                                  "n": len(launches)}
    return values, report


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics

def traced(bench):
    wl, work = bench.wl, bench.work
    values, report, absent = {}, {}, []

    untraced_walls = []
    for _ in range(UNTRACED_REPS):
        launch = bench.invoke()
        if launch is not None:
            untraced_walls.append(launch.wall_s)

    trace_path = work / "trace.json"
    argv = [bench.crp_trace, "trace", "--out", trace_path,
            "--work", work / "trace", "--crp-shard", bench.crp_shard,
            "--threads", str(wl.threads), *wl.sweep_flags(bench.seed)]
    if wl.mode == "supervise":
        argv += ["--supervise", "--workers", str(wl.workers)]
    launch = Launch(argv, timeout=150)
    errors = launch.errors()
    # The traced replay and the in-process fleet must reproduce the
    # reference bytes too.
    fleet_dir = work / "trace" / ("replay-fleet" if wl.mode == "supervise" else "fleet")
    for produced in ("replay.csv", "fleet.csv"):
        path = work / "trace" / produced
        if not errors and path.is_file():
            errors += checks.check_reference(path.read_text(), bench.reference)
    bench.tally.record(errors)
    if errors:
        return values, {"errors": errors}, absent
    trace = json.loads(trace_path.read_text())
    for name, metric in trace["metrics"].items():
        values[name] = metric["value"]
        report[name] = {"n": metric["samples"], "note": metric["note"]}
    report["self_time_s"] = trace["self_time_s"]
    absent = [f"channel.kernels.{tier}." for tier in trace["absent_tiers"]]

    # Thread scaling: the same grid at 1, 2 and 4 threads, the counts
    # alternated; every CSV must be byte-identical to the reference.
    counts = [t for t in (1, 2, 4) if t <= nproc()]
    absent += [f"harness.parallel.speedup_t{t}" for t in (2, 4)
               if t not in counts]
    walls = {t: [] for t in counts}
    for _ in range(SCALING_REPS):
        for threads in counts:
            out = work / f"threads{threads}.csv"
            launch = Launch(bench.run_argv(out, threads))
            errors = launch.errors() or checks.check_reference(
                out.read_text(), bench.reference)
            if bench.tally.record(errors):
                walls[threads].append(launch.wall_s)
    for threads in (2, 4):
        if walls.get(1) and walls.get(threads):
            values[f"harness.parallel.speedup_t{threads}"] = (
                statistics.median(walls[1]) / statistics.median(walls[threads]))
            report[f"harness.parallel.speedup_t{threads}"] = {
                "n": len(walls[threads]),
                "wall_s": {t: statistics.median(w) for t, w in walls.items() if w}}

    # Merge of the traced fleet's artifacts.
    manifests = sorted(fleet_dir.glob("*.manifest.json"))
    merged = work / "merged.csv"
    merge_walls = []
    for _ in range(MERGE_REPS):
        launch = Launch([bench.crp_shard, "merge", "--out", merged, *manifests])
        errors = launch.errors() or checks.check_reference(
            merged.read_text(), bench.reference)
        if bench.tally.record(errors):
            merge_walls.append(launch.wall_s)
    if merge_walls:
        values["harness.shard.merge_s"] = statistics.median(merge_walls)
        report["harness.shard.merge_s"] = {"n": len(merge_walls),
                                           "manifests": len(manifests)}

    # Process start + exit of crp_shard on the smallest grid.
    one_cell = work / "one_cell.json"
    workloads.one_cell_spec(one_cell)
    exec_walls = [must(Launch(bench.plan_argv(["--grid-spec", one_cell])),
                       "one-cell plan").wall_s for _ in range(EXEC_REPS)]
    values["tools.crp_shard.exec_ms"] = 1e3 * statistics.median(exec_walls)
    report["tools.crp_shard.exec_ms"] = {"n": len(exec_walls)}

    if untraced_walls:
        values["trace.overhead_s"] = (values["trace.replay_s"] -
                                      statistics.median(untraced_walls))
        report["trace.overhead_s"] = {"n": len(untraced_walls),
                                      "untraced_wall_s": statistics.median(untraced_walls)}
    return values, report, absent


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    spec = benchmark_spec()
    bench = Bench(args.workload, args.seed)
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, report, absent = traced(bench)
    else:
        values, report = untraced(bench, args.seconds)
        absent = []

    problems = [f"reference: {e}" for e in bench.reference_errors]
    problems += [e for errors in bench.tally.errors for e in errors]
    metrics = {}
    for metric in metric_specs:
        name = metric["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": metric["unit"]}
        elif not any(name.startswith(prefix) for prefix in absent):
            problems.append(f"metric {name} was not measured")
    correct = not problems

    context = bench.context()
    result = {"correct": correct, "attempted": bench.tally.attempted,
              "failed": bench.tally.failed, "metrics": metrics}
    results_dir = BENCH_BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"context": context, "report": report, "absent": absent,
         "problems": problems, "error_rate": bench.tally.error_rate,
         "result": result}, indent=1) + "\n")

    print("context: " + json.dumps(context))
    for name, metric in metrics.items():
        detail = report.get(name, {})
        samples = f" (n={detail['n']})" if "n" in detail else ""
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}{samples}")
    if absent:
        print("absent (not offered by this host): " + ", ".join(absent))
    print(f"error_rate {bench.tally.error_rate:.6g} "
          f"({bench.tally.failed}/{bench.tally.attempted})")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

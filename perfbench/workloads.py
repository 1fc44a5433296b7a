"""Workload definitions of the crp_shard benchmark.

Each workload is a function of the seed only: the seed becomes
crp_shard's --seed and drives every generated grid spec, and the
program sees only the generated files. See README.md for why each
workload exists and which layers it stresses.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Workload:
    name: str
    mode: str                   # "run" or "supervise"
    grid_flags: list            # --grid/--n or --grid-spec
    trials: int                 # sweep-level default trials (--trials)
    cd_engine: str
    threads: int                # threads per process
    workers: int = 1            # worker processes (supervise only)
    oracle: bool = False        # check every cell against the exact oracle

    def sweep_flags(self, seed):
        return self.grid_flags + ["--trials", str(self.trials),
                                  "--seed", str(seed),
                                  "--cd-engine", self.cd_engine]

    def load(self):
        """Threads the workload runs at once across its processes."""
        return self.threads * self.workers


def _write_spec(path, spec):
    path.write_text(json.dumps(spec, indent=1) + "\n")


def table1_deep(seed, work):
    return Workload(
        name="table1-deep", mode="run",
        grid_flags=["--grid", "table1", "--n", "1048576"],
        trials=2_000_000, cd_engine="tree", threads=4, oracle=True)


# The fleet's sources are fixed so that every seed costs about the
# same: its CPU time follows the coded cells' mean round count, which
# seeded sources moved by 7.5 % (IQR / median over 10 seeds). The seed
# moves the trial streams and the two fixed sizes, within narrow bands.
FLEET_SOURCES = {
    "s0": {"family": "uniform_ranges", "m": 3},
    "s1": {"family": "geometric_ranges", "decay": 0.45},
    "s2": {"family": "uniform_ranges", "m": 6},
    "s3": {"family": "geometric_ranges", "decay": 0.75},
}

# Product order, algorithm-major: plan_shards hands each worker a
# contiguous half, and nearly all of the fleet's CPU time is in the
# coded cells, so each half gets two coded algorithms (about 1.2 and
# 1.05 s of serial work). Sorted names would give one worker all of it.
FLEET_ORDER = ["cod-s0", "cod-s1", "lik-s0", "lik-s1",
               "cod-s2", "cod-s3", "lik-s2", "lik-s3"]


def fleet_journaled(seed, work):
    rng = random.Random(seed)
    n = 1 << 16
    sources, algorithms, sizes = dict(FLEET_SOURCES), {}, {}
    for key in sources:
        algorithms[f"lik-{key}"] = {"type": "likelihood", "source": key}
        algorithms[f"cod-{key}"] = {"type": "coded", "source": key}
        for placement in ("low", "high"):
            sizes[f"{placement}-{key}"] = {"type": "lift", "source": key,
                                           "placement": placement}
    sizes["k-small"] = {"type": "fixed_k", "k": rng.randint(900, 1100)}
    sizes["k-large"] = {"type": "fixed_k", "k": rng.randint(30000, 34000)}
    spec = {"format": "crp-grid-spec-v1", "name": f"fleet-journaled-{seed}",
            "n": n, "sources": sources, "algorithms": algorithms,
            "sizes": sizes,
            "product": {"algorithms": FLEET_ORDER,
                        "sizes": sorted(sizes),
                        "budgets": [16384, 262144]}}
    _write_spec(work / "fleet.json", spec)
    return Workload(
        name="fleet-journaled", mode="supervise",
        grid_flags=["--grid-spec", str(work / "fleet.json")],
        trials=6000, cd_engine="simulate", threads=2, workers=2)


WORKLOADS = {
    "table1-deep": table1_deep,
    "fleet-journaled": fleet_journaled,
}


def one_cell_spec(path):
    """The smallest grid: what `plan` costs beyond process start."""
    _write_spec(Path(path), {
        "format": "crp-grid-spec-v1", "name": "one-cell", "n": 64,
        "sources": {"u": {"family": "uniform_ranges", "m": 1}},
        "algorithms": {"lik": {"type": "likelihood", "source": "u"}},
        "sizes": {"k4": {"type": "fixed_k", "k": 4}},
        "cells": [{"algorithm": "lik", "sizes": "k4", "budget": 64}]})

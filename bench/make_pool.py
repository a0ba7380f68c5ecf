"""Rebuild pool.json: draw each workload's candidate units from a fixed seed,
time them through worker.py, the way a run computes them, sort by their mean
cost over PASSES passes (scaled to the reference speed) and cut the sorted
list into strata of the sizes workloads.py gives.

    python3 bench/make_pool.py [--only WORKLOAD ...]

The pool is an input of the benchmark, not a result: rebuild it only with
a change that edits the benchmark, never with one that claims a gain.
"""

import argparse
import json
import os
import platform
import random
from collections import defaultdict

from run import run_job
from workloads import POOL_PATH, WORKLOADS

PASSES = 2


def _candidates(w):
    rng = random.Random("pool:%s" % w.name)
    seen = set()
    while len(seen) < sum(w.strata):
        seen.add(rng.randrange(w.lo, w.hi))
    return sorted(seen)


def _costs(w, units):
    """Compute seconds per unit; one process per unit where a run does so."""
    job = dict(kind="units", workload=w.name, round_size=1, budget_s=None, trace=False,
               check=False)
    batches = [[u] for u in units] if w.process_per_unit else [units]
    costs = defaultdict(float)
    first = 0
    for batch in batches:
        out = run_job(dict(job, units=batch, first_index=first))
        for idx, _, seconds, *_ in out["records"]:
            costs[units[idx]] += seconds
        first += len(batch)
    return costs


def build(w):
    units = _candidates(w)
    costs = defaultdict(float)
    for _ in range(PASSES):
        for u, seconds in _costs(w, units).items():
            costs[u] += seconds / PASSES
    ranked = sorted(units, key=lambda u: costs[u])
    strata, start = [], 0
    for size in w.strata:
        strata.append(ranked[start:start + size])
        start += size
    return {
        "unit": "window start" if w.name == "sweep-1e5" else "n",
        "strata": strata,
        "cost_s": {str(u): round(costs[u], 4) for u in ranked},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = ap.parse_args()
    pool = {}
    if os.path.exists(POOL_PATH):
        with open(POOL_PATH) as f:
            pool = json.load(f)
    for name in args.only:
        pool[name] = build(WORKLOADS[name])
        pool["_measured_on"] = "%s, Python %s, %d CPUs" % (
            platform.machine(), platform.python_version(), os.cpu_count())
        with open(POOL_PATH, "w") as f:
            json.dump(pool, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s for %s" % (POOL_PATH, name))


if __name__ == "__main__":
    main()

"""Workload definitions shared by run.py, worker.py and make_pool.py.

Each workload draws its inputs from the stratified pool in pool.json.  The
pool's units were sorted by measured cost and cut into strata; a run is a
sequence of rounds, each round one unit from every stratum, so every run
sees the same mix of cheap and expensive inputs while the seed decides
which inputs those are.  A stratum stands for its share of the pool: the
run's statistics weight each stratum by its size, which lets a thin
stratum isolate a rare, expensive tail.  Per-input cost is heavy-tailed
(one distinct n can cost 30x another), so plain random draws would make a
run's mean depend mostly on luck.
"""

import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(BENCH_DIR, "pool.json")

SWEEP_WINDOW = 1000

# golden factorizations from tests/test_acceptance.py (criteria 3 and 3x)
ANCHORS = {
    10**9: (999969437, ((2, -1), (3, -1), (37, 1), (148399, -1), (150991, 1))),
    10**12: (999997526071, (
        (1621, 1), (1627, 1), (1637, 1), (5475739, -1), (5476469, -1), (5476483, 1))),
}


class Workload:
    """name: as in BENCHMARK.json.
    lo, hi: the range inputs are drawn from, hi exclusive.
    process_per_unit: each unit runs in its own process.
    anchor: the golden n solved by every run, outside the measured set.
    strata: sizes of the pool's strata, cheapest first."""

    def __init__(self, name, lo, hi, process_per_unit, anchor, strata):
        self.name = name
        self.lo = lo
        self.hi = hi
        self.process_per_unit = process_per_unit
        self.anchor = anchor
        self.strata = strata

    def unit_ns(self, unit):
        """The n a unit computes, in order."""
        if self.name == "sweep-1e5":
            return list(range(unit, unit + SWEEP_WINDOW))
        return [unit]

    def unit_hint(self, unit):
        """limit_hint for the Solver that computes this unit."""
        return self.unit_ns(unit)[-1]


WORKLOADS = {
    w.name: w
    for w in (
        # warm sweep: criterion 1 and `landau verify` traffic; contexts, D(B')
        # and G tables are reused inside a window, and each window runs in its
        # own process so that its cost does not depend on the windows before
        Workload("sweep-1e5", 10**5, 2 * 10**5, True, 10**9, (5,) * 8 + (4, 4)),
        # n far apart, a fresh Solver each, all in one process: nothing is
        # reused, the G window recursion dominates each call.  A shared
        # Solver would carry G tables from one n to the next, making an n's
        # cost depend on the n drawn before it.
        Workload("distinct-1e9", 10**9, 11 * 10**8 + 1, False, 10**9, (10,) * 15 + (5, 5)),
        # a fresh process and Solver per n: what each `landau compute` pays
        # (sieve, event table, D(B'), champion log)
        Workload("cold-1e14", 10**14, 105 * 10**12, True, 10**12, (14, 14, 9, 3)),
    )
}


def load_pool():
    with open(POOL_PATH) as f:
        return json.load(f)


def rounds(workload, seed, pool=None, count=64):
    """The seeded sequence of rounds for one run: each round holds one
    (stratum, unit) pair from every stratum, in a seeded order."""
    pool = pool or load_pool()
    strata = pool[workload.name]["strata"]
    rng = random.Random("%s:%d" % (workload.name, seed))
    orders = [rng.sample(s, len(s)) for s in strata]
    out = []
    for r in range(count):
        rnd = [(s, order[r % len(order)]) for s, order in enumerate(orders)]
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def weights(workload, pool=None):
    """Each stratum's share of the pool."""
    pool = pool or load_pool()
    sizes = [len(s) for s in pool[workload.name]["strata"]]
    return [size / sum(sizes) for size in sizes]

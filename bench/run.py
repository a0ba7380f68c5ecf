"""Benchmark of Landau's g(n): one workload per call, each job in a fresh,
single-threaded interpreter.

    python3 bench/run.py --workload sweep-1e5 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced replay of the same inputs.  The
line before it summarises the run, and the full record, raw per-n samples
included, goes to .bench_out/ at the root of the checkout.  See README.md
in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from spans import TIME_METRICS, counts
from workloads import BENCH_DIR, SWEEP_WINDOW, WORKLOADS, load_pool, rounds, weights

ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5       # Solver constructions a run times, at the least
DEADLINE_S = 170        # every job must have ended by then
SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_job(job, timeout=None):
    """Run one worker job in a fresh single-threaded interpreter and return
    its JSON output."""
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py")], input=json.dumps(job),
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s job exited with %d" % (job["kind"], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark call: the seeded rounds of a workload and the jobs that
    compute them, started one at a time."""

    def __init__(self, w, seed):
        self.w = w
        self.t0 = time.monotonic()
        pool = load_pool()
        self.rounds = rounds(w, seed, pool)
        self.size = len(self.rounds[0])
        self.stratum = [s for rnd in self.rounds for s, _ in rnd]  # by unit index
        self.weights = weights(w, pool)
        self.oracle_s = 0.0

    def job(self, **job):
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise TimeoutError("benchmark deadline passed before a %s job" % job["kind"])
        return run_job(job, timeout=left)

    def units(self, budget=None, count=None, trace=False, check=False):
        """Compute units in round order: the first `count`, or the whole
        first round and then each further unit that is expected to end
        before `budget` seconds have passed."""
        flat = [u for rnd in self.rounds for _, u in rnd][:count]
        common = dict(kind="units", workload=self.w.name, round_size=self.size,
                      trace=trace, check=check)
        if not self.w.process_per_unit:
            return [self.job(units=flat, budget_s=budget, first_index=0, **common)]
        outs = []
        start = time.monotonic()
        for i, unit in enumerate(flat):
            spent = time.monotonic() - start
            if budget is not None and i >= self.size and spent * (i + 1) / i > budget:
                break
            outs.append(self.job(units=[unit], budget_s=None, first_index=i, **common))
        return outs

    def checked_units(self, budget):
        """Units computed with every check on; a sweep's values are also
        compared with the list oracle, built once in a process of its own."""
        outs = self.units(budget=budget, check=True)
        records = _records(outs)
        if self.w.name == "sweep-1e5":
            oracle = self.job(kind="oracle", lo=self.w.lo, hi=self.w.hi + SWEEP_WINDOW - 2,
                              values={str(rec[1]): rec[6] for rec in records})
            wrong = set(oracle["wrong"])
            for rec in records:
                rec[4] = rec[4] and rec[1] not in wrong
            self.oracle_s = oracle["seconds"]
        return outs, records

    def _n_by_stratum(self, records):
        n = defaultdict(int)
        for rec in records:
            n[self.stratum[rec[0]]] += 1
        return n

    def per_n(self, records, totals):
        """Weighted mean over strata of (total of `totals` / n computed),
        `totals` mapping unit index to a summed quantity."""
        n = self._n_by_stratum(records)
        by_stratum = defaultdict(float)
        for idx, value in totals.items():
            by_stratum[self.stratum[idx]] += value
        present = sum(self.weights[s] for s in n)
        return sum(self.weights[s] * by_stratum[s] / n[s] for s in n) / present

    def weighted_median(self, records, value):
        n = self._n_by_stratum(records)
        items = sorted((value(rec), self.weights[s] / n[s])
                       for rec in records for s in (self.stratum[rec[0]],))
        half = sum(w for _, w in items) / 2
        acc = 0.0
        for v, w in items:
            acc += w
            if acc >= half:
                return v
        return items[-1][0]


def _records(outs):
    return [rec for out in outs for rec in out["records"]]


def _latency_totals(records, column=2):
    """Seconds per unit index: scaled to the reference speed, or with
    column=7 as measured."""
    totals = defaultdict(float)
    for rec in records:
        totals[rec[0]] += rec[column]
    return totals


def _first_round_digest(records, round_size):
    keys = [rec[3] or "failed %d" % rec[1] for rec in records if rec[0] < round_size]
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _environment(seed):
    def version(name):
        return __import__(name).__version__ if importlib.util.find_spec(name) else None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def end_to_end(run, seconds):
    w = run.w
    outs, records = run.checked_units(seconds)
    setups = [s for out in outs for s in out["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.job(kind="setup", hint=w.unit_hint(run.rounds[0][0][1]))["setup_s"])
    anchor = run.job(kind="anchor", n=w.anchor)
    lat_ms = sorted(rec[2] * 1e3 for rec in records)
    p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98] if len(lat_ms) > 1 else None
    beyond = sum(1 for x in lat_ms if p99 is not None and x > p99)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ms_per_n": (1e3 * run.per_n(records, _latency_totals(records)), "ms"),
        "peak_rss_mb": (statistics.median(out["peak_rss_mb"] for out in outs), "MB"),
    }
    summary = {
        "samples": len(records),
        "units": len({rec[0] for rec in records}),
        "latency_ms_p50": 1e3 * run.weighted_median(records, lambda rec: rec[2]),
        "latency_ms_p99": p99 if beyond >= 10 else None,
        "beyond_p99": beyond,
        "oracle_s": run.oracle_s,
    }
    summary["wall_ms_per_n"] = 1e3 * run.per_n(records, _latency_totals(records, column=7))
    summary["probe_ms_p50"] = statistics.median(out["probe_ms_p50"] for out in outs)
    detail = {"setup_s": setups,
              "per_n_ms": [[rec[1], rec[2] * 1e3, rec[7] * 1e3] for rec in records]}
    return records, anchor, metrics, summary, detail, True


def per_layer(run, seconds):
    """Untraced rounds for half the budget, a traced replay of the same
    rounds, and a second traced replay of one unit, whose counts must equal
    the first replay's: the first round's cheapest-stratum unit where units
    run in processes of their own, else the first unit, which alone starts
    from a fresh process."""
    _, records = run.checked_units(seconds / 2)
    done = len({rec[0] for rec in records})
    traced = run.units(count=done, trace=True)
    k = run.stratum.index(0) if run.w.process_per_unit else 0
    again = run.job(kind="units", workload=run.w.name, units=[run.rounds[0][k][1]],
                    round_size=run.size, budget_s=None, first_index=k, trace=True, check=False)
    anchor = run.job(kind="anchor", n=run.w.anchor)
    replay = _records(traced)
    same_keys = [r[3] for r in records] == [r[3] for r in replay]
    self_s = defaultdict(lambda: defaultdict(float))  # metric -> unit index -> s
    first, unit_k = [], []
    for out in traced:
        for req, rec in out["trace"].items():
            idx = int(req[1:].split(":")[0])
            for metric, s in rec["self_s"].items():
                self_s[metric][idx] += s
            if idx < run.size:
                first.append(rec)
            if idx == k:
                unit_k.append(rec)
    first_counts = counts(first)
    unit_counts, repeat_counts = counts(unit_k), counts(again["trace"].values())
    metrics = {m: (run.per_n(replay, self_s[m]), "s/n") for m in TIME_METRICS}
    for name, value in first_counts.items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["oracle.build_s"] = (run.oracle_s + anchor["seconds"], "s")
    plain_s = sum(rec[2] for rec in records)
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(rec[2] for rec in replay) - plain_s) / plain_s, "%")
    summary = {
        "samples": len(records),
        "units": done,
        "counts_repeat": unit_counts == repeat_counts,
        "replay_matches": same_keys,
        "spans": sum(out["spans"] for out in traced),
    }
    if not summary["counts_repeat"]:
        summary["repeat_counts"] = repeat_counts
    detail = {"per_n_ms": [[rec[1], rec[2] * 1e3] for rec in records],
              "traced_per_n_ms": [[rec[1], rec[2] * 1e3] for rec in replay]}
    return records, anchor, metrics, summary, detail, same_keys and summary["counts_repeat"]


def bench(name, seed, seconds, trace):
    run = Run(WORKLOADS[name], seed)
    records, anchor, metrics, summary, detail, ok = (per_layer if trace else end_to_end)(
        run, seconds)
    failed = [rec for rec in records if not rec[4]]
    summary.update(
        workload=name,
        failed_frac=len(failed) / len(records),
        failures=sorted({rec[5] or "wrong" for rec in failed}),
        anchor={"n": run.w.anchor, "ok": anchor["ok"], "s": anchor["seconds"]},
        first_round_digest=_first_round_digest(records, run.size),
    )
    correct = ok and not failed and anchor["ok"]
    with open(EXPECTED_PATH) as f:
        expected = json.load(f)
    if seed == expected["seed"]:
        summary["digest_matches"] = summary["first_round_digest"] == expected["digests"][name]
        correct = correct and summary["digest_matches"]
    summary["wall_s"] = time.monotonic() - run.t0
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (name, seed, trace))
    with open(path, "w") as f:
        json.dump({"environment": _environment(seed), "summary": summary, "result": result,
                   "detail": detail}, f)
    return summary, result


def main():
    # let subprocess.run kill and reap the running job when we are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "landau", "__init__.py")):
        print("no src/landau beside %s: run from a checkout of the repository" % BENCH_DIR,
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary, result = bench(name, args.seed, args.seconds, args.trace)
        print(json.dumps(summary))
        if args.workload == "all":
            result = dict(workload=name, **result)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

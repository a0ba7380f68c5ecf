"""One job of the benchmark, run in a fresh interpreter by run.py.

    echo '<job as JSON>' | python3 bench/worker.py

Kinds of job:
  setup   build one Solver and time it;
  anchor  solve a golden n and compare it with tests/test_acceptance.py;
  units   build a Solver for each of the given units and compute its n
          (after the first round, only while the budget is expected to hold
          one more unit), then check the results;
  oracle  compare digests of g(n) values with the list oracle.
Prints one JSON line.

Every timed interval is reported scaled to a reference speed.  The host's
CPU speed drifts by tens of percent within a second, so while a job runs a
timer interrupts it every PROBE_PERIOD seconds to time a fixed pure-Python
loop, `probe()`.  An interval is its clock time minus the probes inside it,
times PROBE_S over the mean duration of those probes and the nearest one
on each side.  The loop calls nothing in the package, so a scaled time
still moves one for one with the package's own speed.
"""

import bisect
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from workloads import ANCHORS, BENCH_DIR, WORKLOADS

ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import landau  # noqa: E402
from landau import LandauError, Solver, g_list_merge_prune  # noqa: E402
from landau.errors import (  # noqa: E402
    BoundFailureError,
    CapacityError,
    Delta1CeilingError,
    PrefixGapError,
)

# the exit code `landau compute` gives each error class
EXIT_CODES = (
    (BoundFailureError, 2),
    (PrefixGapError, 3),
    (CapacityError, 4),
    (Delta1CeilingError, 5),
    (LandauError, 1),
)

clock = time.perf_counter

PROBE_LOOPS = 10_000
PROBE_S = 0.002     # nominal duration of probe(): it defines the reference speed
PROBE_PERIOD = 0.1  # seconds between probes


def _exit_class(exc):
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return "%d:%s" % (code, type(exc).__name__)
    return "crash:%s" % type(exc).__name__


def key(n, res):
    """The rendered factorization the digests are taken over."""
    champion = res.champion.render() if res.champion is not None else "1"
    return "%d %s %s %d" % (n, champion, res.correction.render(), res.ell_g)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe():
    """(end time, seconds) of a fixed pure-Python loop: the host's speed."""
    t0 = clock()
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    t1 = clock()
    return t1, t1 - t0


class Speedometer:
    """Probes the host's speed from a SIGALRM timer while the `with` block
    runs, and once on entry and once on exit."""

    def __init__(self):
        self.probes = []

    def __enter__(self):
        self.probes.append(probe())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append(probe())

    def _on_alarm(self, signum, frame):
        self.probes.append(probe())

    def scaled(self, t0, t1):
        """Seconds from t0 to t1, both read inside the block, less the
        probes in between, at the reference speed.  Call after the block."""
        ends = [t for t, _ in self.probes]
        before = bisect.bisect_left(ends, t0) - 1
        after = bisect.bisect_right(ends, t1)
        inside = [d for _, d in self.probes[before + 1:after]]
        near = [d for _, d in self.probes[before:after + 1]]
        return (t1 - t0 - sum(inside)) * PROBE_S / statistics.mean(near)


def job_setup(job):
    with Speedometer() as speed:
        t0 = clock()
        Solver(limit_hint=job["hint"])
        t1 = clock()
    return {"setup_s": speed.scaled(t0, t1)}


def job_anchor(job):
    n = job["n"]
    ell_n, factors = ANCHORS[n]
    t0 = clock()
    res = Solver(limit_hint=n).compute(n)
    seconds = clock() - t0
    ok = res.context.ellN == ell_n and res.correction.factors == factors
    return {"ok": ok, "seconds": seconds}


def value_digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()[:32]


def job_oracle(job):
    """Digests of g_list_merge_prune over [lo, hi]; returns the n whose
    value digest differs from the oracle's.  The digests are kept in
    .bench_out/ under a hash of the package source and the range, so a
    checkout builds them once."""
    lo, hi = job["lo"], job["hi"]
    values = {int(n): d for n, d in job["values"].items()}
    h = hashlib.sha256(b"%d %d" % (lo, hi))
    for name in sorted(os.listdir(src_dir())):
        if name.endswith(".py"):
            with open(os.path.join(src_dir(), name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    path = os.path.join(ROOT, ".bench_out", "oracle-%s.json" % h.hexdigest()[:24])
    t0 = clock()
    if os.path.exists(path):
        with open(path) as f:
            digests = json.load(f)
    else:
        oracle = g_list_merge_prune(hi)
        digests = [value_digest(oracle.query(n)) for n in range(lo, hi + 1)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(digests, f)
        os.replace(path + ".tmp", path)
    seconds = clock() - t0
    wrong = [n for n, d in values.items() if not lo <= n <= hi or d != digests[n - lo]]
    return {"seconds": seconds, "wrong": wrong}


def job_units(job):
    w = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    units, round_size, budget = job["units"], job["round_size"], job["budget_s"]
    first = job["first_index"]
    # (unit index, n, t0, t1, exit class or None, key or None, l(g) <= n, g or None);
    # results are not kept, so each Solver and its tables go with its unit
    results = []
    keep_values = job["check"] and w.name == "sweep-1e5"
    setups = []     # (t0, t1) of each Solver construction
    rss = None
    with Speedometer() as speed:
        t_start = clock()
        for i, unit in enumerate(units):
            if budget is not None and i >= round_size and (
                    clock() - t_start) * (i + 1) / i > budget:
                break
            idx = first + i
            gc.collect()  # each unit starts from the same collector state
            if tracer:
                tracer.request = "u%d:setup" % idx
            t0 = clock()
            solver = Solver(limit_hint=w.unit_hint(unit))
            t1 = clock()
            setups.append((t0, t1))
            for n in w.unit_ns(unit):
                if tracer:
                    tracer.request = "u%d:%d" % (idx, n)
                t0 = clock()
                try:
                    res, err = solver.compute(n), None
                except Exception as exc:  # recorded as a failed n, never fatal
                    res, err = None, _exit_class(exc)
                t1 = clock()
                if res is None:
                    results.append((idx, n, t0, t1, err, None, False, None))
                else:
                    results.append((idx, n, t0, t1, err, key(n, res), res.ell_g <= n,
                                    res.to_int() if keep_values else None))
                del res
            del solver
            if tracer:
                tracer.request = None
            if i + 1 == round_size:
                rss = peak_rss_mb()  # over a fixed amount of work, whatever the budget
    out = {
        "setup_s": [speed.scaled(t0, t1) for t0, t1 in setups],
        "peak_rss_mb": rss or peak_rss_mb(),
        "probe_ms_p50": 1e3 * statistics.median(d for _, d in speed.probes),
        "records": [],
    }
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["spans"] = len(tracer.spans)
    prev = None
    for idx, n, t0, t1, err, k, ok, value in results:
        # a checked sweep must also be non-decreasing along each window; its
        # values' digests go to the oracle comparison
        digest = None
        if value is not None:
            digest = value_digest(value)
            ok = ok and (prev is None or prev[0] != idx or value >= prev[1])
            prev = (idx, value)
        out["records"].append([idx, n, speed.scaled(t0, t1), k, ok, err, digest, t1 - t0])
    return out


def src_dir():
    return os.path.realpath(os.path.join(ROOT, "src", "landau"))


def main():
    job = json.load(sys.stdin)
    if os.path.dirname(os.path.realpath(landau.__file__)) != src_dir():
        print("landau was imported from %s, not from this checkout" % landau.__file__,
              file=sys.stderr)
        return 3
    run = {"setup": job_setup, "anchor": job_anchor, "units": job_units,
           "oracle": job_oracle}[job["kind"]]
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

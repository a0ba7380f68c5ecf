"""One command for "same results": g(n) over a fixed set of n, and the
internals that lead to it, as two sha256 digests.

    PYTHONPATH=src python tests/same_results.py [--forced-exact]

The n are [998001, 10^6] and [7, 6000) on one warm Solver(limit_hint=10^6),
[150001, 151000] on another, and 20 n in [10^9, 10^9 + 10^7) and 6 in
[10^12, 10^12 + 10^9) from random.Random(2026), each on a fresh Solver:
9019 n in all.

The answers digest covers each n, the correction's factors, ell_g and the
oracle flag.  It does not change while every g(n) stays the same, and
same_results.sha256 holds it.  The internals digest adds B, the witness's
member and walk and the witness, every member of D(B) with its dell, every
candidate's Pi, m_suffix, lower and upper, the survivors, the number of
candidates evaluated, every delta1 call with its value, and every G table
built: pk_idx, cap, rhat_idx, and the set of every column, read per column
and collapsed into segments by oracles.entry_steps.  A change may move the
internals digest; it then says which field moved and why.

--forced-exact patches arith.rounding_error to inf, so that every float
comparison takes its exact fallback; both digests must stay the same.
"""

import argparse
import contextlib
import hashlib
import math
import os
import random
from unittest import mock

from landau import arith
from landau.assemble import Solver
from landau.gfunction import GEngine, _UptoEntry

from oracles import entry_steps

ANSWERS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "same_results.sha256")


def runs():
    """The n of each run, in order, with the limit_hint of its Solver."""
    rng = random.Random(2026)
    near_1e9 = [10**9 + rng.randrange(10**7) for _ in range(20)]
    near_1e12 = [10**12 + rng.randrange(10**9) for _ in range(6)]
    yield 10**6, list(range(998001, 10**6 + 1)) + list(range(7, 6000))
    yield 151000, list(range(150001, 151001))
    for n in near_1e9 + near_1e12:
        yield n, [n]


@contextlib.contextmanager
def recorded():
    """Record, in the list it yields, each delta1 call with its value and
    the steps of every G table built, as they happen."""
    log = []
    init, delta1 = _UptoEntry.__init__, GEngine.delta1

    def entry_init(self, pk_idx, cap, window):
        init(self, pk_idx, cap, window)
        log.append(("G", int(pk_idx), int(cap), int(self.rhat_idx), entry_steps(self)))

    def delta1_call(self, p):
        value = delta1(self, p)
        log.append(("delta1", int(p), int(value)))
        return value

    with mock.patch.object(_UptoEntry, "__init__", entry_init), \
            mock.patch.object(GEngine, "delta1", delta1_call):
        yield log


def _internals(res):
    """The fields of a result of the benefit method that the internals
    digest holds, beside its answer."""
    bound, cands = res.bound, res.candidates
    index = {id(c): i for i, c in enumerate(cands)}
    return (
        repr(bound.B), bound.member, bound.omega, bound.witness.factors,
        list(zip(res.d_set.fac.tolist(), res.d_set.dell.tolist())),
        [(c.Pi.factors, c.m_suffix, str(c.lower), str(c.upper)) for c in cands],
        [index[id(c)] for c in res.survivors],
        res.evaluated,
    )


def digests():
    """The answers and internals digests, hex, over every n of runs()."""
    answers, internals = hashlib.sha256(), hashlib.sha256()
    with recorded() as log:
        for hint, ns in runs():
            solver = Solver(limit_hint=hint)
            for n in ns:
                res = solver.compute(n)
                answer = repr((n, res.correction.factors, res.ell_g, res.from_oracle))
                answers.update(answer.encode() + b"\n")
                inner = None if res.from_oracle else _internals(res)
                internals.update(repr((answer, inner, log)).encode() + b"\n")
                log.clear()
    return answers.hexdigest(), internals.hexdigest()


def committed_answers():
    with open(ANSWERS_PATH) as f:
        return f.read().strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--forced-exact", action="store_true",
                        help="patch arith.rounding_error to inf: every comparison exact")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        if args.forced_exact:
            stack.enter_context(mock.patch.object(
                arith, "rounding_error", lambda size, steps: math.inf))
        answers, internals = digests()
    print("answers   %s%s" % (answers, "" if answers == committed_answers() else
                                "  (differs from same_results.sha256)"))
    print("internals %s" % internals)


if __name__ == "__main__":
    main()

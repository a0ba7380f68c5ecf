"""Benefit arithmetic and plain-prefix candidate sets.

ben(M) = l(M) - l(N) - rho*log(M/N) >= 0 measures how far M sits above the
champion hull at slope rho; it is additive over coprime parts, so a
candidate's benefit accumulates prime by prime.  The candidate set D(B')
holds every fraction on primes < sqrt(x1) that could be the small-prime part
of g(n) while ben g(n) <= B'; dominated candidates (smaller value, no
cheaper cost) are pruned as in the champion-list oracle.

D(B') is built with a float64 filter in front of the exact mpf arithmetic.
Every float is a copy of an mpf value, never a running float sum, so each
ben, dell and delta in D(B') is the one the mpf loop alone produces.  A
candidate runs the exact loop unless its float excess ben + c - B' (c the
cheaper of benp(p, -1) and benp(p, +1)) exceeds arith.rounding_error; a
layer whose adjacent float logs lie within that bound is sorted by the mpf
logs.  Domination compares dell as int64, which raises rather than wrap.
"""

from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from . import arith
from .arith import PrimeFraction, ell_pp, log_int
from .errors import BoundFailureError, CapacityError, InvariantViolation
from .superchampion import newton_from_above


class PrefixCandidate:
    __slots__ = ("delta", "ben", "dell")

    def __init__(self, delta, ben, dell):
        self.delta = delta
        self.ben = ben    # ben(N*delta), high precision
        self.dell = dell  # l(N*delta) - l(N), exact

    def __repr__(self):
        return "PrefixCandidate(%r, ben=%s, dell=%d)" % (
            self.delta.render(), mp.nstr(self.ben, 8), self.dell)


def dell_pp(p, alpha, gamma):
    """l(p^(alpha+gamma)) - l(p^alpha)."""
    return ell_pp(p, alpha + gamma) - ell_pp(p, alpha)


class BenefitTables:
    """Per-context cache: small-prime benefits ben(N p^gamma), the prefix
    sums of single-prime benefits along the walk above/below p_k, and the
    candidate sets D(B') built for a first-round budget, by budget."""

    def __init__(self, ctx):
        self.ctx = ctx
        t = ctx.table
        self.sp_count = t.count_upto(int(mp.floor(ctx.sqrt_x1)))
        self.sp_primes = [t.prime(i) for i in range(1, self.sp_count + 1)]
        self.alphas = {p: ctx.N.alpha(p) for p in self.sp_primes}
        self._benp = {}
        self._up = [mpf(0)]    # partial sums of ben(N p_{k+i}), i = 1..
        self._down = [mpf(0)]  # partial sums of ben(N / p_{k-i}), i = 0..
        self.dsets = {}

    def benp(self, p, gamma):
        """ben restricted to one prime p < sqrt(x1): change its exponent in N
        by gamma (>= -alpha_p)."""
        key = (p, gamma)
        v = self._benp.get(key)
        if v is None:
            alpha = self.alphas[p]
            if gamma < -alpha:
                raise ValueError("exponent of %d cannot drop below -%d" % (p, alpha))
            rho = self.ctx.rho
            if gamma == 0:
                v = mpf(0)
            elif gamma == 1 and rho.is_power_event and p == rho.q:
                v = mpf(0)  # the slope is exactly this prime's exponent bump
            else:
                v = dell_pp(p, alpha, gamma) - rho.value * gamma * log_int(p)
            self._benp[key] = v
        return v

    def up_ben(self, omega):
        """Sum of ben(N p_{k+i}) for i = 1..omega (primes appended above p_k)."""
        t, ctx = self.ctx.table, self.ctx
        while len(self._up) <= omega:
            i = len(self._up)
            p = t.prime(ctx.k + i)
            if i == 1 and not ctx.rho.is_power_event and p == ctx.rho.q:
                term = mpf(0)  # appending p_{k+1} is the zero-benefit champion step
            else:
                term = p - ctx.rho.value * log_int(p)
            self._up.append(self._up[-1] + term)
        return self._up[omega]

    def down_ben(self, count):
        """Sum of ben(N / p_{k-i}) for i = 0..count-1 (primes peeled off the top)."""
        t, ctx = self.ctx.table, self.ctx
        while len(self._down) <= count:
            i = len(self._down) - 1
            p = t.prime(ctx.k - i)
            self._down.append(self._down[-1] + ctx.rho.value * log_int(p) - p)
        return self._down[count]


def build_prefix_sets(ctx, b_prime, tables):
    """The candidate set D(B'): all undominated prefix fractions with benefit
    at most B', built one prime at a time with pruning at each step.

    Each layer is held as arrays parallel to the candidate list; only the
    candidates that pass the float budget test run the mpf loop.
    """
    if b_prime >= ctx.B1:
        raise BoundFailureError(
            "prefix budget %s is not below B1=%s" % (mp.nstr(b_prime, 10), mp.nstr(ctx.B1, 10))
        )
    if b_prime < 0:
        raise ValueError("budget must be non-negative")
    b_f = float(b_prime)
    cands = np.array([PrefixCandidate(PrimeFraction.one(), mpf(0), 0)], dtype=object)
    ben_f = np.zeros(1)
    log_f = np.zeros(1)
    dell = np.zeros(1, dtype=np.int64)
    for p in tables.sp_primes:
        alpha = tables.alphas[p]
        # the cheapest first step: the exact loop tries gamma = -1 and +1 first
        cost_f = float(min(tables.benp(p, g) for g in (-1, 1) if g >= -alpha))
        excess = ben_f + cost_f - b_f
        size = np.abs(ben_f) + abs(cost_f) + abs(b_f)
        maybe = np.flatnonzero(excess <= arith.rounding_error(size, 4, 53))
        at, new = [], []
        for i in maybe.tolist():
            ext = _extensions(cands[i], p, alpha, b_prime, tables)
            at += [i + 1] * len(ext)
            new += ext
        if not new:
            continue  # the layer is already sorted and pruned
        # insert each extension after its parent: the order the exact loop
        # appends in, which breaks ties in the stable sort below
        cands = np.insert(cands, at, np.array(new, dtype=object))
        ben_f = np.insert(ben_f, at, [float(c.ben) for c in new])
        log_f = np.insert(log_f, at, [float(c.delta.log) for c in new])
        dell = np.insert(dell, at, np.array([c.dell for c in new], dtype=np.int64))
        order = np.argsort(log_f, kind="stable")
        s = log_f[order]
        if np.any(np.diff(s) <= arith.rounding_error(np.abs(s[1:]) + np.abs(s[:-1]), 1, 53)):
            order = np.array(sorted(range(len(cands)), key=lambda i: cands[i].delta.log))
        order = order[_undominated(dell[order])]
        cands, ben_f, log_f, dell = cands[order], ben_f[order], log_f[order], dell[order]
    return cands.tolist()


def _extensions(cand, p, alpha, b_prime, tables):
    """cand times p^gamma for every gamma the budget admits, in the order
    -1, -2, ..., -alpha, then 1, 2, ...; each direction stops at the first
    gamma over budget."""
    budget = b_prime - cand.ben
    out = []
    for gamma in range(-1, -alpha - 1, -1):
        cost = tables.benp(p, gamma)
        if cost > budget:
            break
        out.append(_extend(cand, p, alpha, gamma, cost))
    gamma = 1
    while True:
        cost = tables.benp(p, gamma)
        if cost > budget:
            break
        out.append(_extend(cand, p, alpha, gamma, cost))
        gamma += 1
    return out


def _extend(cand, p, alpha, gamma, cost):
    # primes are added in ascending order, so p^gamma is the last factor
    delta = cand.delta
    return PrefixCandidate(
        PrimeFraction(delta.factors + ((p, gamma),), _ell=delta.ell + ell_pp(p, gamma)),
        cand.ben + cost,
        cand.dell + dell_pp(p, alpha, gamma),
    )


def _undominated(dell):
    """Mask of the entries, in ascending value, that no larger entry beats.

    By the domination lemma delta1 cannot be the prefix of g(n) when some
    delta2 > delta1 has l(N delta2) <= l(N delta1): entry i stays iff its
    dell is below every later one.
    """
    keep = np.ones(len(dell), dtype=bool)
    keep[:-1] = dell[:-1] < np.minimum.accumulate(dell[::-1])[::-1][1:]
    return keep


@dataclass
class BoundResult:
    B: mpf
    t1: mpf
    witness: PrimeFraction  # the correction M/N achieving the bound


def _solve_t1(ctx, B):
    """Root of t - rho*log t + B in (rho, x1].

    x1 solves x = rho*log x, so the function is B >= 0 at x1, and it is
    convex and increasing on (rho, x1]: Newton's method from x1."""
    rho = ctx.rho.value
    return newton_from_above(lambda t: (t - rho * mp.log(t) + B, 1 - rho / t), ctx.x1)


def estimate_B(ctx, d_set, n, tables):
    """Upper bound B >= ben g(n) + n - l(g(n)) from the best witness
    N*delta_omega with the candidates' primes extended along the champion walk."""
    if not d_set:
        raise InvariantViolation("empty candidate set")
    t = ctx.table
    cs = t.cumulative
    k = ctx.k
    s_k = int(cs[k - 1])
    sqrt_x1_floor = int(mp.floor(ctx.sqrt_x1))
    min_keep_idx = t.count_upto(sqrt_x1_floor) + 1  # removals must stay >= sqrt(x1)
    best = None
    best_parts = None
    for cand in d_set:
        c = n - ctx.ellN - cand.dell
        if c >= 0:
            omega = walk_up(cs, k, c)
            s_omega = int(cs[k + omega - 1]) - s_k
            ben_walk = tables.up_ben(omega)
        else:
            # peel p_k, p_{k-1}, ... until the cost drops below n
            idx = int(np.searchsorted(cs, s_k + c, side="left"))  # first with CS >= s_k+c
            count = k - idx
            if k - count + 1 < min_keep_idx:
                continue  # would peel primes below sqrt(x1): forget this candidate
            omega = -count
            s_omega = int(cs[k - count - 1]) - s_k  # negative
            ben_walk = tables.down_ben(count)
        slack = n - (ctx.ellN + cand.dell + s_omega)
        value = cand.ben + ben_walk + slack
        if best is None or value < best:
            best = value
            best_parts = (cand, omega)
    if best is None:
        raise BoundFailureError("no candidate admits a witness with l <= n")
    if best >= ctx.B1:
        raise BoundFailureError(
            "benefit bound %s reached B1=%s" % (mp.nstr(best, 10), mp.nstr(ctx.B1, 10))
        )
    cand, omega = best_parts
    witness = _walk_fraction(ctx, cand.delta, omega)
    return BoundResult(B=best, t1=_solve_t1(ctx, best), witness=witness)


def walk_up(cs, k, c):
    """Largest omega with p_{k+1} + ... + p_{k+omega} <= c, for c >= 0 and
    the table's cumulative sums cs.  A walk that reaches the last prime
    raises CapacityError: the table cannot tell how much further it goes."""
    idx = int(np.searchsorted(cs, c + int(cs[k - 1]), side="right"))
    if idx == len(cs):
        raise CapacityError("champion walk reaches the end of the prime table")
    return idx - k


def _walk_fraction(ctx, delta, omega):
    t = ctx.table
    if omega >= 0:
        ext = {t.prime(ctx.k + i): 1 for i in range(1, omega + 1)}
    else:
        ext = {t.prime(ctx.k - i): -1 for i in range(-omega)}
    return delta.mul(PrimeFraction.from_factors(ext))


def initial_budget(ctx, n):
    """First guess B' < B1: generous for tiny n, rho-scaled beyond."""
    if n < 2485:
        return ctx.B1 * (1 - mpf(10) ** (-6))
    if n <= 10**10:
        return ctx.rho.value
    return ctx.rho.value / 2


def bound_loop(ctx, n, tables, initial=None):
    """Iterate D(B') -> B until B <= B', then trim D to benefit <= B.

    B is always a valid bound; a second round only enlarges the candidate
    pool, so the loop settles after at most one restart in practice.  The
    first round's D(B') is kept in tables.dsets for the next n of the
    bracket; a restart's budget is B itself, which differs for each n, so
    its set serves this n alone.
    """
    b_prime = initial if initial is not None else initial_budget(ctx, n)
    for i in range(8):
        if b_prime >= ctx.B1:
            raise BoundFailureError(
                "budget %s reached B1=%s" % (mp.nstr(b_prime, 10), mp.nstr(ctx.B1, 10))
            )
        d_set = tables.dsets.get(b_prime)
        if d_set is None:
            d_set = build_prefix_sets(ctx, b_prime, tables)
            if i == 0:
                tables.dsets[b_prime] = d_set
        res = estimate_B(ctx, d_set, n, tables)
        if res.B <= b_prime:
            if res.B < b_prime:
                d_set = [c for c in d_set if c.ben <= res.B]
            return res, d_set
        b_prime = res.B
    raise InvariantViolation("benefit bound loop failed to settle")

"""Superchampion numbers: the integers N minimizing l(N) - rho*log N.

For a slope rho the champion's factorization is governed by thresholds
x_1 > x_2 > ... where (x_j^j - x_j^{j-1}) / log x_j = rho: a prime p gets
exponent j exactly when x_{j+1} <= p < x_j.  Champions are enumerated
through the critical slopes where some prime's exponent bumps from j-1 to
j (j >= 2); between two such events consecutive champions differ by one
new prime of exponent 1.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, sqrt as mp_sqrt

from . import arith
from .arith import _tree_product, log_int, log_product
from .errors import CapacityError, InvariantViolation
from .primes import sum_root

LOG_CHUNK = 1 << 18  # primes per np.log call of Champion.approx_log


class Rho:
    """A critical slope, kept symbolically as (q, j) so that the threshold
    x_j = q stays exact: j = 1 means q/log q, j >= 2 means
    (q^j - q^{j-1}) / log q."""

    __slots__ = ("q", "j", "_value")

    def __init__(self, q, j):
        self.q = q
        self.j = j
        self._value = None

    @property
    def value(self):
        if self._value is None:
            if self.j == 1:
                self._value = mpf(self.q) / log_int(self.q)
            else:
                self._value = mpf(self.q**self.j - self.q ** (self.j - 1)) / log_int(self.q)
        return self._value

    @property
    def is_power_event(self):
        return self.j >= 2

    def __repr__(self):
        if self.j == 1:
            return "Rho(%d/log %d)" % (self.q, self.q)
        return "Rho((%d^%d-%d^%d)/log %d)" % (self.q, self.j, self.q, self.j - 1, self.q)


class Threshold:
    """One x_j: a 30-digit value plus, when the slope is the defining event
    for this j, the exact integer root."""

    __slots__ = ("value", "exact")

    def __init__(self, value, exact=None):
        self.value = value
        self.exact = exact

    def greater_than_int(self, p):
        """x_j > p with the exact root honoured."""
        if self.exact is not None:
            return self.exact > p
        return self.value > p


def newton_from_above(f, x):
    """Root of f below x, for f convex and increasing near its root with
    f(x) >= 0; f(x) returns the value and the derivative.  Every tangent
    lies below a convex f, so Newton's method from x falls monotonically to
    the root and needs no bracket."""
    eps = mpf(10) ** (-mp.dps + 3)
    for _ in range(100):
        fx, dfx = f(x)
        step = fx / dfx
        if step < -eps * x:
            raise InvariantViolation("Newton's method started below its root")
        step = max(step, 0)  # below 0 only by rounding at the root
        x -= step
        if step < eps * x:
            return x
    raise InvariantViolation("Newton's method did not converge")


def _solve_x1(rho):
    """Root > rho of x - rho*log x, convex.  Newton starts at 2*rho*log rho,
    beyond the minimum at rho, where the function is
    rho*(log rho - log(2 log rho)) > 0 as rho > 2 log rho."""
    rv = rho.value
    return newton_from_above(lambda x: (x - rv * mp.log(x), 1 - rv / x), 2 * rv * mp.log(rv))


def _solve_xj(rho, j, hi):
    """Root x_j > 1 of x^j - x^{j-1} - rho*log x, convex on x > 1.

    Newton starts at the lower of hi = x_{j-1} and y = (rho*log hi)^(1/j) + 1.
    Both lie at or above x_j with the function >= 0 there: x^{j-1}(x - 1)
    increases on x > 1, and y^{j-1}(y - 1) >= (y - 1)^j = rho*log hi, which
    is at least rho*log x_j, and at least rho*log y when y <= hi."""
    rv = rho.value

    def f(x):
        return (x**j - x ** (j - 1) - rv * mp.log(x),
                j * x ** (j - 1) - (j - 1) * x ** (j - 2) - rv / x)

    return newton_from_above(f, min(mpf(hi), mp.root(rv * mp.log(hi), j) + 1))


def xj_thresholds(rho):
    """All thresholds x_1 > x_2 > ... > 2, highest precision, exact where the
    slope is the defining event."""
    if rho.value < mpf(5) / log_int(5) * (1 - mpf(10) ** (-25)):
        raise ValueError("slope below 5/log 5 is out of range")
    xs = []
    if rho.j == 1:
        xs.append(Threshold(mpf(rho.q), exact=rho.q))
    else:
        xs.append(Threshold(_solve_x1(rho)))
    j = 2
    while True:
        if rho.j == j:
            x = Threshold(mpf(rho.q), exact=rho.q)
        else:
            x = Threshold(_solve_xj(rho, j, xs[-1].value))
            resid = abs((x.value**j - x.value ** (j - 1)) / mp.log(x.value) - rho.value)
            if resid > mpf(10) ** (-20) * rho.value:
                raise InvariantViolation("threshold root residual too large at j=%d" % j)
        if not x.greater_than_int(2):
            break
        xs.append(x)
        j += 1
    return xs


class Champion:
    """A champion factorization, run-compressed: exponent j on the primes in
    [x_{j+1}, x_j).  The exponent-1 run can hold millions of primes, so the
    value is never expanded; cost and log come from prime-table range sums."""

    __slots__ = ("table", "xs", "runs", "ell", "k", "_log", "_approx")

    def __init__(self, table, xs):
        self.table = table
        self.xs = xs
        runs = []
        ell = 0
        lo_idx = 1  # conceptual x_{J+1} <= 2: the range for the top exponent starts at 2
        for j in range(len(xs), 0, -1):
            hi = xs[j - 1]
            if hi.exact is not None:
                hi_idx = table.count_upto(hi.exact - 1)
            else:
                hi_idx = table.count_upto(int(mp.floor(hi.value)))
            if hi_idx >= lo_idx:
                runs.append((j, lo_idx, hi_idx))
                if j == 1:
                    ell += table.sum_prime_range(lo_idx, hi_idx)
                else:
                    ell += sum(table.prime(i) ** j for i in range(lo_idx, hi_idx + 1))
            lo_idx = hi_idx + 1
        if not runs or runs[-1][0] != 1:
            raise InvariantViolation("champion has no exponent-1 primes")
        self.runs = runs
        self.ell = ell
        self.k = runs[-1][2]
        self._log = None
        self._approx = None

    @property
    def p_k(self):
        return self.table.prime(self.k)

    def alpha(self, p):
        """Exponent of the prime p in the champion (0 past p_k): the exponent
        of the run that holds p's index."""
        if p > self.p_k:
            return 0
        i = self.table.rank(p)
        return self.runs[bisect_right(self.runs, i, key=lambda r: r[1]) - 1][0]

    @property
    def log(self):
        """log N to the working precision: slow for millions of primes, so
        only a near-tie of approx_log() or a caller of log10_g reads it."""
        if self._log is None:
            total = mpf(0)
            for j, lo, hi in self.runs:
                total += j * log_product(self.table.primes[lo - 1 : hi])
            self._log = total
        return self._log

    def iter_factors(self):
        for j, lo, hi in self.runs:
            for i in range(lo, hi + 1):
                yield self.table.prime(i), j

    def approx_log(self):
        """(v, err): log N as a float with |v - log N| <= err, err counting
        the steps arith's docstring gives a champion log, with the one
        difference its caller compares v by."""
        if self._approx is None:
            v = 0.0
            for j, lo, hi in self.runs:
                run = 0.0
                for a in range(lo - 1, hi, LOG_CHUNK):  # bounded float temporaries
                    run += float(np.log(self.table.primes[a : min(a + LOG_CHUNK, hi)]).sum())
                v += j * run
            self._approx = (v, arith.rounding_error(v, self.k + len(self.runs) + 5))
        return self._approx

    def to_int(self, digit_budget=10**7):
        v, err = self.approx_log()
        bound = digit_budget * log_int(10)
        if arith.guarded_sign(mpf(v) - bound, err, lambda: self.log - bound) > 0:
            raise CapacityError(
                "champion has ~%d digits, budget %d" % (v / math.log(10) + 1, digit_budget)
            )
        return _tree_product(p**j for p, j in self.iter_factors())

    def render(self):
        parts = []
        for j, lo, hi in self.runs:
            if lo == hi:
                base = str(self.table.prime(lo))
            else:
                base = "[%d-%d]" % (self.table.prime(lo), self.table.prime(hi))
            parts.append(base if j == 1 else "%s^%d" % (base, j))
        return " * ".join(parts)

    def __repr__(self):
        return "Champion(%s, ell=%d)" % (self.render(), self.ell)


def b1(x1, x2):
    """Structural benefit threshold min(x2^2 - 2 x2, x1/2 - sqrt(x1))."""
    return min(x2 * x2 - 2 * x2, x1 / 2 - mp_sqrt(x1))


@dataclass(frozen=True)
class E2Entry:
    q: int
    j: int
    p: int
    ell: int


def build_e2_table(ell_limit, table):
    """All exponent-bump slopes in increasing order, each with the largest
    exponent-1 prime p of the champion just above it and l(N^+); stops at the
    first entry whose l exceeds ell_limit (kept, as the navigation fence).

    The slopes (q^j - q^{j-1}) / log q, j >= 2, up to a bound are sorted as
    floats, each run of neighbours within their rounding error by the mpf
    slopes.  An entry's p is the largest prime with p / log p below its
    slope: the float root of x / log x = slope places it, and the primes on
    either side are settled in floats beyond their rounding error and in
    mpf inside it.  l(N^+) = S(p) + the bump costs
    so far, S the prime sums: each prime up to p counts once, and each bump
    of q from j - 1 to j adds q^j - q^{j-1}.  Without the fence below the
    bound the bound doubles."""
    if ell_limit < 7:
        raise ValueError("ell_limit must be >= 7")
    primes = table.primes
    n = len(primes)
    bound = _slope_bound(ell_limit)
    while True:
        q, j, cost, r = _sorted_slopes(table, bound)
        # a slope left out may lie below one whose float is this close to the bound
        m = int(np.searchsorted(r, bound * (1 - 2.0**-40)))
        q, j, cost, r = q[:m], j[:m], cost[:m], r[:m]
        idx = _ratio_indices(primes, q, cost, r)
        ell = table.cumulative[idx - 1] + np.cumsum(cost)
        over = np.flatnonzero(ell > ell_limit)
        end = int(over[0]) + 1 if len(over) else m  # through the fence
        if np.any(idx[:end] >= n):  # past the sieve before the fence
            raise CapacityError("the event table needs primes past the sieve limit %d"
                                % table.limit)
        if len(over):
            break
        bound *= 2
    if np.any(np.diff(idx[:end]) < 0):
        raise InvariantViolation("event slopes out of order")
    rows = zip(q[:end].tolist(), j[:end].tolist(), primes[idx[:end] - 1].tolist(),
               ell[:end].tolist())
    return [E2Entry(*row) for row in rows]


def _slope_bound(ell_limit):
    """A first slope bound for build_e2_table.  The fence's p lies near the x
    with x^2 / (2 log x) = ell_limit; its slope came within 1.81 times
    x / log x for ell_limit from 7 to 10^12, and within 1.05 above 10^6.  A
    short bound costs one more build."""
    x = sum_root(ell_limit)
    return 1.5 * x / math.log(x) + 16


def _sorted_slopes(table, bound):
    """Every (q, j >= 2) whose float slope is at most bound, in the order of
    the slopes: q, j, the cost q^j - q^{j-1} and the float slope, arrays.

    The cost, below 2^53, converts exactly, so each float slope r lies within
    rounding_error(r, 5) of its mpf slope (arith's docstring), the bound
    guarded_order reads.  A run of closer neighbours is sorted by its mpf
    slopes, then by (q, j)."""
    qs, js, costs = [], [], []
    j = 2
    while 2 ** (j - 1) / math.log(2) <= bound:
        # a slope <= bound has q <= bound + 3 and (q - 1)^j <= bound log q
        hi = int((bound * math.log(bound + 3)) ** (1 / j)) + 2
        c = table.primes[: table.count_upto(hi)]
        cf = c.astype(np.float64)
        c = c[cf ** (j - 1) * (cf - 1) / np.log(cf) <= bound]
        qs.append(c)
        js.append(np.full(len(c), j, dtype=np.int64))
        costs.append(c ** (j - 1) * (c - 1))
        j += 1
    q, j, cost = np.concatenate(qs), np.concatenate(js), np.concatenate(costs)
    r = cost / np.log(q.astype(np.float64))
    logs = {}
    order = arith.guarded_order(r, arith.rounding_error(r, 5), lambda i: (
        _mpf_slope(int(q[i]), int(cost[i]), logs), int(q[i]), int(j[i])))
    return q[order], j[order], cost[order], r[order]


def _mpf_slope(q, cost, logs):
    """Rho(q, j).value, with log q kept in the caller's dict rather than in
    arith.log_int's cache: the build reads many q once."""
    if q not in logs:
        logs[q] = mp.log(q)
    return mpf(cost) / logs[q]


def _ratio_roots(r):
    """For each slope r > e, the root x > r of x - r log x, convex: Newton's
    method from 2 r log r, where it is r (log r - log(2 log r)) > 0, falls
    monotonically to the root."""
    x = 2 * r * np.log(r)
    for _ in range(100):
        step = (x - r * np.log(x)) / (1 - r / x)
        x -= step
        if np.all(np.abs(step) <= 1e-12 * x):
            return x
    raise InvariantViolation("Newton's method did not converge")


def _ratio_indices(primes, q, cost, r):
    """For each slope, the 1-based index of the largest prime p >= 3 with
    p / log p < slope (p / log p increases from 3 on); len(primes) when the
    table's last prime is below the slope."""
    n = len(primes)
    # integer needles: a float one would make numpy search a float64 copy
    idx = np.maximum(np.searchsorted(primes, _ratio_roots(r).astype(np.int64), side="right"), 2)
    d, err = _ratio_excess(primes[idx - 1], r)
    settled = d < -err
    up = idx < n
    d, err = _ratio_excess(primes[idx[up]], r[up])
    settled[up] &= d > err
    logs = {}
    for i in np.flatnonzero(~settled).tolist():  # the floats cannot tell: mpf
        rv = _mpf_slope(int(q[i]), int(cost[i]), logs)
        k = int(idx[i])
        while k > 2 and not _ratio_below(int(primes[k - 1]), rv):
            k -= 1
        while k < n and _ratio_below(int(primes[k]), rv):
            k += 1
        idx[i] = k
    return idx


def _ratio_excess(p, r):
    """p / log p - r in floats for float slopes r of _sorted_slopes, and its
    rounding bound (8 steps, arith's docstring)."""
    v = p / np.log(p)
    return v - r, arith.rounding_error(v + r, 8)


def _ratio_below(p, rv):
    """p / log p < rv in mpf, log p uncached: most probed primes are probed
    once."""
    return mpf(p) / mp.log(p) < rv


@dataclass
class SuperchampionContext:
    """Everything step 1 pins down for one n: the bracketing champions and
    the threshold geometry used by every later step."""

    n: int
    rho: Rho
    N: Champion
    ellN: int
    ell_nplus: int
    k: int          # index of the largest prime factor of N
    p_k: int
    xs: list
    x1: mpf
    x2: mpf
    sqrt_x1: mpf
    B1: mpf

    def covers(self, n):
        return self.ellN <= n < self.ell_nplus

    @property
    def table(self):
        return self.N.table


def find_context(n, table, e2_entries):
    """Locate the champion pair l(N) <= n < l(N') and derive the geometry."""
    if n < 7:
        raise ValueError("the superchampion path needs n >= 7")
    ells = [e.ell for e in e2_entries]
    i = bisect_right(ells, n) - 1
    if i < 0:
        raise InvariantViolation("event table starts above n")
    if i + 1 >= len(e2_entries):
        raise CapacityError("event table does not bracket n=%d; raise ell_limit" % n)
    cur, nxt = e2_entries[i], e2_entries[i + 1]
    t = nxt.ell - (nxt.q**nxt.j - nxt.q ** (nxt.j - 1))
    if t <= n:
        rho = Rho(nxt.q, nxt.j)
        ellN, ell_nplus = t, nxt.ell
    else:
        start_idx = table.rank(cur.p)
        cs = table.cumulative
        s0 = int(cs[start_idx - 1])
        # largest m >= start_idx with cur.ell + (S(p_m) - S(p_start)) <= n
        target = n - cur.ell + s0
        m = int(np.searchsorted(cs, target, side="right"))
        if m < start_idx:
            m = start_idx
        ellN = cur.ell + int(cs[m - 1]) - s0
        nxt_p = table.prime(m + 1)
        rho = Rho(nxt_p, 1)
        ell_nplus = ellN + nxt_p
    xs = xj_thresholds(rho)
    N = Champion(table, xs)
    if N.ell != ellN:
        raise InvariantViolation(
            "champion cost mismatch: factorization says %d, chain says %d" % (N.ell, ellN)
        )
    x1, x2 = xs[0].value, xs[1].value
    return SuperchampionContext(
        n=n,
        rho=rho,
        N=N,
        ellN=ellN,
        ell_nplus=ell_nplus,
        k=N.k,
        p_k=N.p_k,
        xs=xs,
        x1=x1,
        x2=x2,
        sqrt_x1=mp_sqrt(x1),
        B1=b1(x1, x2),
    )

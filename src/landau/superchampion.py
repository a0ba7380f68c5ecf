"""Superchampion numbers: the integers N minimizing l(N) - rho*log N.

The champion at a slope rho gives each prime p the largest exponent j with
(p^j - p^{j-1}) / log p < rho, one test per prime and exponent, as
Ramanujan built his superior highly composite numbers.  For j >= 2 the
slope increases with p, so the primes of exponent at least j are those
below the root x_j of (x^j - x^{j-1}) / log x = rho, and at j = 1 those
below the root x_1 > rho of x / log x = rho.  x_1 and x_2 are the only roots
solved: the runs of exponent 1 and 2 end below them, and B1 and the
benefit method read them.  Each run of exponent j >= 3 is counted by the
slope test over the primes below x_2.  Champions are enumerated through
the critical slopes where some prime's exponent bumps from j-1 to j
(j >= 2); between two such events consecutive champions differ by one new
prime of exponent 1.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, sqrt as mp_sqrt

from . import arith
from .arith import _tree_product, log_int, log_product
from .errors import CapacityError, InvariantViolation
from .primes import DEFAULT_MAX_LIMIT, sum_root

LOG_CHUNK = 1 << 16  # Champion.approx_log: products below this prime index, blocks past it
LOG_GROUP = 32       # primes per float product of Champion.approx_log
# LOG_GROUP primes below DEFAULT_MAX_LIMIT multiply to below 2^1024: no overflow
assert LOG_GROUP * DEFAULT_MAX_LIMIT.bit_length() < 1024


class Rho:
    """A critical slope, kept symbolically as (q, j) so that the champion's
    run j, which ends below q, stays exact: j = 1 means q/log q, j >= 2
    means (q^j - q^{j-1}) / log q."""

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


def _solve_x2(rho, x1):
    """Root x_2 > 1 of x^2 - x - rho*log x, convex on x > 1.

    Newton starts at the lower of x1 and y = (rho*log x1)^(1/2) + 1.  Both
    lie at or above x_2 with the function >= 0 there: x(x - 1) increases on
    x > 1, and y(y - 1) >= (y - 1)^2 = rho*log x1, which is at least
    rho*log x_2, and at least rho*log y when y <= x1."""
    rv = rho.value
    return newton_from_above(lambda x: (x**2 - x - rv * mp.log(x), 2 * x - 1 - rv / x),
                             min(mpf(x1), mp.root(rv * mp.log(x1), 2) + 1))


def _run_ends(table, rho, x1, x2):
    """ends[j - 1], the number of primes of exponent at least j in the
    champion at rho, for j from 1 to the exponent of 2.

    Runs 1 and 2 end below x1 and x2, run j >= 3 at the last of the primes
    of exponent j - 1 with p^j - p^{j-1} < rho log p, and the slope's own j
    below its prime q.  The test compares the float slope
    p^{j-1} (p - 1) / log p with rho beyond its rounding bound (j + 5 steps,
    arith's docstring), and in mpf inside it."""
    own = table.count_upto(rho.q - 1)
    ends = [own if rho.j == j else table.count_upto(int(mp.floor(x)))
            for j, x in ((1, x1), (2, x2))]
    p = table.primes[: ends[1]]
    pf = p.astype(np.float64)
    logs = np.log(pf)
    power = pf  # p^{j-1}
    rf = float(rho.value)
    j = 3
    while True:
        m = ends[-1]
        power = power[:m] * pf[:m]
        if rho.j == j:
            end = own
        else:
            s = power * (pf[:m] - 1) / logs[:m]
            mpf_below = lambda q: _slope_below(q, rho.value, q**j - q ** (j - 1))
            # inside the bound, -1 where p[i]'s mpf slope lies below rho, else 0
            sign = arith.guarded_sign(s - rf, arith.rounding_error(s + rf, j + 5),
                                      lambda i: -mpf_below(int(p[i])))
            end = int(np.count_nonzero(sign < 0))
        if end == 0:
            return ends
        ends.append(end)
        j += 1


class Champion:
    """A champion factorization, run-compressed: ends[j - 1] is the number of
    primes of exponent at least j (find_context counts them by per-prime
    slope tests), so exponent j sits on the primes ends[j] + 1 .. ends[j - 1]
    of the table.  The exponent-1 run can hold millions of primes, so the
    value is never expanded; cost and log come from prime-table range sums."""

    __slots__ = ("table", "runs", "ell", "k", "_log", "_approx")

    def __init__(self, table, ends):
        self.table = table
        runs = []
        ell = 0
        lo_idx = 1  # the top exponent's run starts at the prime 2
        for j in range(len(ends), 0, -1):
            hi_idx = ends[j - 1]
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
        the difference its caller compares v by (arith's docstring).

        A run's head, its primes of index below LOG_CHUNK, takes a log of
        each product of LOG_GROUP primes; its blocks of indices
        [i, i + i // 256) past the head take the midpoint of an enclosure of
        their sum of log p from their count, end primes and prime sum, and
        err takes the half-widths."""
        if self._approx is None:
            primes, cum = self.table.primes, self.table.cumulative
            heads = bounds = widths = 0.0  # the heads, both block bounds, their gaps
            for j, lo, hi in self.runs:
                cut = min(max(lo - 1, LOG_CHUNK), hi)  # head [lo - 1, cut), blocks [cut, hi)
                if cut >= lo:
                    size = cut - lo + 1
                    chunk = np.empty(-(-size // LOG_GROUP) * LOG_GROUP)
                    chunk[:size], chunk[size:] = primes[lo - 1 : cut], 1.0
                    products = np.multiply.reduce(chunk.reshape(LOG_GROUP, -1), axis=0)
                    heads += j * float(np.log(products, out=products).sum())
                s = [cut]  # steps of at least 256, so no duplicate starts
                while s[-1] < hi:
                    s.append(min(s[-1] + (s[-1] >> 8), hi))
                if len(s) > 1:
                    s = np.array(s)
                    c, a, b = np.diff(s), primes[s[:-1]], primes[s[1:] - 1]
                    total = cum[s[1:] - 1] - cum[s[:-1] - 1]
                    chord = (total - c * a) * (np.log1p((b - a) / a) / np.maximum(b - a, 1))
                    low = float((c * np.log(a) + chord).sum())
                    high = float((c * np.log(total / c)).sum())
                    bounds, widths = bounds + j * (low + high), widths + j * (high - low)
            self._approx = (heads + bounds / 2, widths / 2 + arith.rounding_error(
                heads + bounds, LOG_CHUNK // LOG_GROUP + len(self.runs) + 11))
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
        while k > 2 and not _slope_below(int(primes[k - 1]), rv):
            k -= 1
        while k < n and _slope_below(int(primes[k]), rv):
            k += 1
        idx[i] = k
    return idx


def _ratio_excess(p, r):
    """p / log p - r in floats for float slopes r of _sorted_slopes, and its
    rounding bound (8 steps, arith's docstring)."""
    v = p / np.log(p)
    return v - r, arith.rounding_error(v + r, 8)


def _slope_below(p, rv, cost=None):
    """The slope cost / log p of p below rv, in mpf: cost = p^j - p^{j-1} at
    j >= 2 and p (the default) at j = 1.  log p is uncached: most probed
    primes are probed once."""
    return mpf(p if cost is None else cost) / mp.log(p) < rv


@dataclass
class SuperchampionContext:
    """Everything step 1 pins down for one n: the bracketing champions, and
    the roots x1 and x2 with the bounds every later step reads from them."""

    rho: Rho
    N: Champion
    ellN: int
    ell_nplus: int
    k: int          # index of the largest prime factor of N
    p_k: int
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
    """Locate the champion pair l(N) <= n < l(N'), solve x1 and x2 and count
    N's runs."""
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
    x1 = mpf(rho.q) if rho.j == 1 else _solve_x1(rho)
    x2 = mpf(rho.q) if rho.j == 2 else _solve_x2(rho, x1)
    N = Champion(table, _run_ends(table, rho, x1, x2))
    if N.ell != ellN:
        raise InvariantViolation(
            "champion cost mismatch: factorization says %d, chain says %d" % (N.ell, ellN)
        )
    return SuperchampionContext(
        rho=rho,
        N=N,
        ellN=ellN,
        ell_nplus=ell_nplus,
        k=N.k,
        p_k=N.p_k,
        x1=x1,
        x2=x2,
        sqrt_x1=mp_sqrt(x1),
        B1=b1(x1, x2),
    )

"""The balanced-fraction maximum G(p_k, m) and its two algorithms.

G(p_k, m) is the largest fraction Q_1...Q_s/(q_1...q_s) over primes
3 <= q_s < ... < q_1 <= p_k < p_{k+1} <= Q_1 < ... < Q_s whose swap cost
sum(Q_i - q_i) stays within m.  Writing the window primes P_1 < ... < P_R
around p_k = P_K, the complement trick turns the maximum into a minimum
H(j, P_r; m) over j-tuples of window primes with a sum constraint, which
satisfies a two-term recursion in (j, r).  Every swap cost is even, so each
row j is a dense float array over r and even m holding the logs of its
products less the common j log p_k; a shift in m is a slice, the minimum
over r a running minimum, and one packed bit per (j, r, m) records whether
P_r was taken, and comparisons the floats cannot decide are settled on
exact products.

Few cells of a window are feasible, and a _Window does only their work.
Band: a row is inf below its first finite offset lo_j, which never falls
as j grows, so each row runs over [lo_j, K] alone.
Continuation: a row reads nothing above its own top prime, so the trial
window's rows are the first rows of the widened one, which appends to them.
Guard: row j's float comparisons are guarded by T_j, the largest term over
the primes it reads, which a wider window leaves as it is.  _Window's
docstring gives the three arguments.  Widening: the last row's floats
decide how far the window must reach (_Window.need), each test through
arith.guarded_sign.  The final window is kept as the table, its bits,
primes and last row, and a read walks back only the column it asks for.
Whether G lies below the line 1 + m/p_k is read off the same last row by
the test need makes (_line_excess), on the walked set inside its bound.

For large m the recursion over windows is replaced by a reduction to
G(p_{k+1}, m') for small m', valid as soon as an even budget delta with
p_{k+1}+delta-m prime and G(p_{k+1}, delta) >= 1 + delta/p_{k+1} exists
below 2m/9; delta1(p_k) is the smallest even budget making that search
guaranteed, and both algorithms agree on an overlap band of m.
"""

import math
from fractions import Fraction

import numpy as np

from . import arith
from .arith import PrimeFraction
from .errors import CapacityError, Delta1CeilingError, InvariantViolation

SMALL_M_CUTOFF = 3000     # below this the window recursion, never the large-m reduction
TRIAL_WIDTH = 10          # first truncated window: ten primes above p_k
UPTO_GRANULARITY = 256    # cache capacity rounding for per-prime G tables
UPTO_ENTRIES = 64         # per-prime G tables kept; the oldest goes first
DELTA1_ENTRIES = 64       # delta1 values kept; the oldest goes first


def check_fraction(frac, p_k, m):
    """Raise InvariantViolation unless frac is a balanced fraction of
    G(p_k, m): exponents +-1, as many numerator as denominator primes,
    3 <= q <= p_k < Q, and a swap cost in [0, m]."""
    Qs = [p for p, e in frac.factors if e == 1]
    qs = [p for p, e in frac.factors if e == -1]
    if len(Qs) + len(qs) != len(frac.factors):
        raise InvariantViolation("fraction exponent other than +-1")
    _check_swap(qs, Qs, p_k, m)


def _check_swap(qs, Qs, p_k, m):
    """check_fraction on the fraction Qs/qs, each list ascending."""
    if len(Qs) != len(qs):
        raise InvariantViolation("unbalanced fraction")
    if qs and not (3 <= qs[0] and qs[-1] <= p_k < Qs[0]):
        raise InvariantViolation("fraction primes outside their bands")
    ell = sum(Qs) - sum(qs)
    if not 0 <= ell <= m:
        raise InvariantViolation("fraction cost %d outside [0, %d]" % (ell, m))


def g_floor(table, p_k, pk1, m):
    """G(p_k, m) >= p_{k+1}/q, a Fraction: the single swap of q, the least
    prime >= p_{k+1} - m, for p_{k+1} when q <= p_k; else 1."""
    q = table.next_prime(pk1 - m - 1)
    return Fraction(pk1, q) if q <= p_k else Fraction(1)


def g_ceiling(pk1, m):
    """G(p_k, m) <= p_{k+1}/(p_{k+1} - m), a Fraction, for m < p_{k+1}."""
    return Fraction(pk1, pk1 - m)


def _walk(bits, Pl, K, j, o, i, known=()):
    """The walk from [o, i] of row j back through the packed bits: the
    cell where it enters each row, with the prime it takes in that row,
    down to row 0 or an entered cell in known; and the cell it stops at.
    A walk that runs off its row holds fewer than j primes."""
    J, path, item = j, [], bits.item
    while j:
        cell = (j, o, i)
        if cell in known:
            break
        byte, shift = i >> 3, 7 - (i & 7)
        while i < 0 or not item(j, o, byte) >> shift & 1:
            o -= 1
            if o < 0 or i < 0:
                raise InvariantViolation("a column of H holds other than %d primes" % J)
        p = Pl[j + o - 1]
        path.append((cell, p))
        j, i = j - 1, i - (Pl[K + j - 1] - p) // 2
    return path, (j, o, i)


def _line_excess(x, q, m, guard, scale):
    """x - t(q), t(q) = -log1p(-m/q), and its bound, for float arrays x
    within guard of their exact values, q and m: -1.0 and 0.0 where q <= m,
    as q(1 - e^-x) > m then fails for every x.  t's own rounding is at most
    4 steps over |x| + t + m/(q - m) (arith's docstring), at scale per unit."""
    d, err = np.full(len(x), -1.0), np.zeros(len(x))
    s = q > m
    mi, qi, xi = m[s], q[s], x[s]
    t = -np.log1p(-(mi / qi))
    d[s] = xi - t
    err[s] = guard + scale * 4 * (np.abs(xi) + t + mi / (qi - mi))
    return d, err


class _UptoEntry:
    """Confirmed-exact G(p_k, m) for all m <= cap, kept as its final window
    of J = rhat_idx - pk_idx rows: the packed bits of rows 0..J, the K + J
    window primes, and the last row's floats at offset K with their guard.

    Column c holds the budgets 2c and 2c + 1.  read(c) walks its H set back
    from the bits, the walk _Window._exact makes, and checks it: its cost
    within 2c, as check_fraction checks, and its float log sum within the
    guard of row[K, c].  The row holds the same sum, so each lies within
    rounding_error(J T_J, J + 3) of the exact log, and a mis-walked or
    non-optimal set lies further off.  fracs caches, by column, the
    fractions _extract has read; line the exact signs of the line test, by
    column (GEngine._below_line)."""

    __slots__ = ("pk_idx", "cap", "rhat_idx", "K", "Pl", "bits", "last", "guard", "scale",
                 "fracs", "line")

    def __init__(self, pk_idx, cap, window):
        K, J = window.K, window.j
        if not window.row[K, 0] < np.inf:
            raise InvariantViolation("H has no feasible value at m=0")
        self.pk_idx, self.cap, self.rhat_idx, self.K = pk_idx, cap, pk_idx + J, K
        self.Pl = window.Pl[: K + J]
        self.bits = window.bits[: J + 1].copy()
        self.last = window.row[K].copy()
        self.guard, self.scale = window.guard, window.scale
        self.fracs, self.line = {}, None

    def walk(self, c):
        """Column c's H prime set, ascending."""
        path, _ = _walk(self.bits, self.Pl, self.K, self.rhat_idx - self.pk_idx, self.K, c)
        return [p for _, p in reversed(path)]

    def read(self, c):
        """The primes at or below p_k of column c's set, and the window
        primes above p_k it leaves out, each ascending, checked."""
        chain, K, Pl = self.walk(c), self.K, self.Pl
        p_k = Pl[K - 1]
        qs = [p for p in chain if p <= p_k]
        used = {p for p in chain if p > p_k}
        Qs = [p for p in Pl[K:] if p not in used]
        _check_swap(qs, Qs, p_k, 2 * c)
        log = math.fsum(math.log1p((p - p_k) / p_k) for p in chain)
        if not abs(log - self.last[c]) <= self.guard:
            raise InvariantViolation("column %d's set is off its row's log" % c)
        return qs, Qs


class _Window:
    """The rows of the window recursion over P_1..P_R, table indices
    lo_idx..top_idx, around p_k = P_K, for even budgets up to M: rows are
    appended on demand and kept, with their packed choice bits, so a
    wider window continues from the last row; _UptoEntry keeps the final
    one, whose last row gives m -> min product H(R-K, P_Rhat; m) on [0, M].

    Row j holds H(j, P_{j+o}; 2i) at [o, i] for o = 0..K, the log of the
    product less j log p_k, so rows compare through log1p((P - p_k)/p_k).
    Its candidate at o takes P_{j+o} as the j-th prime and reads row
    j - 1 at the same o, shift(j, o) columns to the left; the row is the
    running minimum of the candidates over o.

    Band.  A row does not increase in o (a running minimum) nor in i
    (more budget).  Below lo_{j-1}, row j - 1 is inf, so are row j's
    candidates and its running minimum there: lo_j >= lo_{j-1}.  Row j
    is finite somewhere at o exactly when it is finite at the last
    column, so lo_j is the first o >= lo_{j-1} with shift(j, o) < H and
    row j - 1 finite at [o, H - 1 - shift(j, o)].  Adds, minima, the
    taken and near tests, settling and the packed bits run over
    [lo_j, K] alone; below it the row stays inf and its bits zero, as
    inf < inf leaves them.

    Continuation.  Row j reads row j - 1, the logs and costs of
    P_j..P_{K+j} against the top prime P_{K+j}, and its guard; nothing
    above P_{K+j}.  So a window's J rows are the first J rows of every
    wider window over the same P_1, K and M, and _g_upto widens its
    trial window by appending rows to the one it keeps: every row and
    bit equals a fresh wide run's.

    Guard.  Row j compares two sums of j terms log1p((P - p_k)/p_k)
    over primes among P_1..P_{K+j}.  arith's bound needs T to bound each
    term and the quotient's rounding |P - p_k|/P that log1p passes on,
    for every term compared; T_j, the larger of the two over
    P_1..P_{K+j}, does, and it is never larger than the whole window's T
    nor changed by widening.
    """

    def __init__(self, table, pk_idx, lo_idx, top_idx, M):
        K = self.K = pk_idx - lo_idx + 1
        H = self.H = M // 2 + 1
        self.pk_idx = pk_idx
        P = table.primes[lo_idx - 1 : top_idx].astype(np.int64)  # P_1..P_R
        p_k = int(P[K - 1])
        self.L = np.log1p((P - p_k) / p_k)
        # T[r - 1] bounds |L| and the quotient's rounding as log1p passes it
        # on, over P_1..P_r
        self.T = np.maximum.accumulate(np.maximum(np.abs(self.L), np.abs(P - p_k) / P))
        self.Pl = P.tolist()
        self.j, self.lo = 0, 0
        self.guard = self.scale = None  # the last row's, from _add_row
        self.row = np.zeros((K + 1, H))  # j = 0: the empty product, at every m
        self.bits = np.zeros((top_idx - pk_idx + 1, K + 1, (H + 7) // 8), np.uint8)
        self.memo = {}
        self.cand = np.empty((K + 1, H))
        self.diff = np.empty((K + 1, H))
        self.taken = np.empty((K + 1, H), bool)
        self.near = np.empty((K + 1, H), bool)
        self.runs = np.full((2, K + 2, H), np.inf)  # run[o + 1]: minimum of cand[:o + 1]
        self.clean = [K + 2, K + 2]  # run[:clean] is inf in each of runs

    def _shift(self, j, o):  # half the cost of P_{j+o} as the j-th prime
        return (self.Pl[self.K + j - 1] - self.Pl[j + o - 1]) // 2

    def _exact(self, j, o, i):
        """The product at [o, i] of a finished row j, walked from the bits."""
        memo = self.memo
        path, end = _walk(self.bits, self.Pl, self.K, j, o, i, memo)
        v = memo.get(end, 1)
        for cell, p in reversed(path):
            v *= p
            memo[cell] = v
        return v

    def _settle(self, i):
        """Redo column i of the last row's running minimum over its band on
        exact products, as two of its floats lie within the guard."""
        j, cand, taken, row = self.j, self.cand, self.taken, self.row
        best, best_v = -1, None
        for o in range(self.lo, self.K + 1):
            take = False
            if cand[o, i] < np.inf:
                v = self.Pl[j + o - 1] * self._exact(j - 1, o, i - self._shift(j, o))
                take = best < 0 or v < best_v
            taken[o, i] = take
            if take:
                best, best_v = o, v
            row[o, i] = cand[best, i] if best >= 0 else np.inf

    def _add_row(self):
        j = self.j = self.j + 1
        K, H, L, prev, lo = self.K, self.H, self.L, self.row, self.lo
        shift = self._shift
        # the first offset whose candidate reads a finite value of row j - 1
        while lo < K and (shift(j, lo) >= H or not prev[lo, H - 1 - shift(j, lo)] < np.inf):
            lo += 1
        self.lo = lo
        run, cand = self.runs[j & 1], self.cand
        run[self.clean[j & 1] : lo + 1] = np.inf  # the row below lo_j, and left[lo_j]
        self.clean[j & 1] = lo + 1
        for o in range(lo, K + 1):
            d = shift(j, o)
            cand[o, :d] = np.inf
            np.add(prev[o, : H - d], L[j + o - 1], out=cand[o, d:])
            np.minimum(run[o], cand[o], out=run[o + 1])
        self.row = run[1:]
        diff, taken, near = self.diff[lo:], self.taken[lo:], self.near[lo:]
        size, steps = 2 * j * self.T[K + j - 1], j + 3
        guard = self.guard = arith.rounding_error(size, steps)
        self.scale = guard / (size * steps)  # rounding_error is linear in both
        with np.errstate(invalid="ignore"):  # inf - inf: both infeasible
            np.subtract(cand[lo:], run[lo:-1], out=diff)
            np.less(diff, 0, out=taken)  # cand < left, inf included
            np.less_equal(np.abs(diff, out=diff), guard, out=near)
        # a finite guard holds only pairs of finite values; an infinite one
        # settles every column holding a finite candidate
        if near.any():
            for i in np.flatnonzero(near.any(axis=0)).tolist():
                self._settle(i)
        self.bits[j, lo:] = np.packbits(taken, axis=1)

    def grow(self, rhat_idx):
        """Append rows up to R - K = rhat_idx - pk_idx."""
        while self.j < rhat_idx - self.pk_idx:
            self._add_row()

    def need(self, cap):
        """Largest prime the window of the last row J must reach to be
        provably exact on all of [0, cap], cap <= M; 0 when it already is.

        Column c holds the set of budgets 2c and 2c + 1, so its last budget
        is m = min(2c + 1, cap).  With num the product of the J top primes,
        den that of the column's set and f = 1 - den/num = 1 - e^-x, the
        window is exact up to m when P_Rhat > p_k + m or P_Rhat f > m; else
        the column needs the least of p_k + m and floor(m/f) + 1.  For a
        fixed set the need grows with m, so the largest over columns is the
        largest over the runs of equal sets at their last budgets.

        Below the first gap p_{k+1} - p_k only the top set is feasible, so
        den = num and the need is 0; from the gap on, the swap of p_k for
        p_{k+1} is feasible, so den < num.  x is row[K, 0] - row[K, c], a
        difference of two values of the last row, so within its guard.  A
        test q f > m reads x > t(q) = -log1p(-m/q), whose sign
        arith.guarded_sign decides from _line_excess beyond that guard plus
        t's own rounding, and from the bits' exact q (num - den) - m num
        inside it; q <= m fails it.  Where the float floor of m/f fails
        its two-sided check, the need is the exact floor of m num/(num -
        den), plus one."""
        K, J, Pl = self.K, self.j, self.Pl
        p_k, p_rhat = Pl[K - 1], Pl[K + J - 1]
        cols = np.arange((Pl[K] - p_k) // 2, min(self.H - 1, cap // 2) + 1)
        m = np.minimum(2 * cols + 1, cap).astype(float)
        x = self.row[K, 0] - self.row[K, cols]
        num = math.prod(Pl[K : K + J])
        den = lambda i: self._exact(J, K, int(cols[i]))

        def sign(q, i):  # sign of x - t(q), that is of q f - m, at columns i
            d, err = _line_excess(x[i], q, m[i], self.guard, self.scale)
            return arith.guarded_sign(d, err, lambda r: (
                int(q[r]) * (num - den(i[r])) - int(m[i[r]]) * num))

        need = np.zeros(len(cols), np.int64)
        i = np.flatnonzero(p_rhat <= p_k + m)  # elsewhere exact: P_Rhat > p_k + m
        i = i[sign(np.full(len(i), float(p_rhat)), i) <= 0]  # P_Rhat f <= m
        s = sign(p_k + m[i], i)
        at_bound = i[s <= 0]  # (p_k + m) f <= m: the need is p_k + m
        need[at_bound] = p_k + m[at_bound]
        i = i[s > 0]  # floor(m/f) + 1, checked at both ends
        N = np.floor(m[i] / -np.expm1(-x[i]))
        ok = (sign(N, i) <= 0) & (sign(N + 1, i) > 0)
        need[i[ok]] = N[ok] + 1
        for r in i[~ok].tolist():
            need[r] = int(m[r]) * num // (num - den(r)) + 1
        return int(need.max(initial=0))


def _keep(cache, key, value, entries):
    """Store value as the newest entry of cache, dropping the oldest past
    entries."""
    cache.pop(key, None)
    cache[key] = value
    if len(cache) > entries:
        del cache[next(iter(cache))]


class GEngine:
    """Computes G(p_k, m) exactly, caching in memory the G tables of the
    last UPTO_ENTRIES primes and the last DELTA1_ENTRIES delta1 values."""

    def __init__(self, table):
        self.table = table
        self._upto = {}
        self._delta1 = {}

    # -- shared window machinery ------------------------------------------------

    def _low_idx(self, pk1, M):
        lo_p = max(3, pk1 - M)
        return self.table.count_upto(lo_p - 1) + 1

    def _full_top_idx(self, pk_idx, M):
        p_k = self.table.prime(pk_idx)
        if p_k + M > self.table.limit:
            raise CapacityError(
                "window for G(%d, %d) exceeds sieve limit %d" % (p_k, M, self.table.limit)
            )
        return self.table.count_upto(p_k + M)

    def _extract(self, entry, m):
        """G(p_k, m) from a confirmed entry: the window primes above p_k
        that column m // 2's H set leaves out over the primes at or below
        p_k it takes."""
        frac = entry.fracs.get(m // 2)
        if frac is None:
            qs, Qs = entry.read(m // 2)
            frac = PrimeFraction(tuple((p, -1) for p in qs) + tuple((p, 1) for p in Qs))
            entry.fracs[m // 2] = frac
        return frac

    def _below_line(self, entry):
        """d -> whether G(p_k, d) < 1 + d/p_k, for the entry's p_k and even
        0 <= d <= entry.cap.

        At column c = d/2, G = e^x with x = row[K, 0] - row[K, c], the log
        of T, the product of the J tops, over that of the column's set,
        within the last row's guard.  So the test is x < log1p(d/p_k), that
        is x < t(q) at q = p_k + d and m = d, whose sign arith.guarded_sign
        decides for every column at once from _line_excess, as need decides
        its own, and inside its bound from p_k T - (p_k + d) times the
        product of the walked set."""
        if entry.line is None:  # G(p_k, 0) = 1 lies on the line
            K, Pl = entry.K, entry.Pl
            p_k, T = Pl[K - 1], math.prod(Pl[K:])
            d = np.arange(2, 2 * len(entry.last), 2)
            x, err = _line_excess(entry.last[0] - entry.last[1:], p_k + d, d, entry.guard,
                                  entry.scale)
            entry.line = [0.0] + arith.guarded_sign(x, err, lambda i: (
                p_k * T - (p_k + int(d[i])) * math.prod(entry.walk(i + 1)))).tolist()
        return lambda d: entry.line[d // 2] < 0

    def _g_upto(self, pk_idx, M):
        """Confirmed-exact G(p_k, .) on [0, max(M, cap)], as an _UptoEntry.

        The window starts TRIAL_WIDTH primes above p_k and widens by
        appending rows until its last row's need is 0 or it reaches
        p_k + cap; the entry keeps the final window's rows for reads."""
        entry = self._upto.get(pk_idx)
        if entry is not None and entry.cap >= M:
            return entry
        cap = -(-M // UPTO_GRANULARITY) * UPTO_GRANULARITY
        t = self.table
        pk1 = t.next_prime(t.prime(pk_idx))
        lo_idx = self._low_idx(pk1, cap)
        full_top = self._full_top_idx(pk_idx, cap)
        rhat_idx = min(pk_idx + TRIAL_WIDTH, full_top)
        window = _Window(t, pk_idx, lo_idx, full_top, cap)
        while True:
            window.grow(rhat_idx)
            if rhat_idx >= full_top:
                break
            need = window.need(cap)
            if need == 0:
                break
            rhat_idx = min(max(t.count_upto(need) + 1, rhat_idx + TRIAL_WIDTH), full_top)
        entry = _UptoEntry(pk_idx, cap, window)
        _keep(self._upto, pk_idx, entry, UPTO_ENTRIES)
        return entry

    # -- public operations ----------------------------------------------------------

    def g_fraction(self, p_k, m):
        """G(p_k, m), dispatching between the two algorithms."""
        t = self.table
        pk_idx = t.rank(p_k)
        pk1 = t.prime(pk_idx + 1)
        if not 0 <= m <= pk1 - 3:
            raise ValueError("m=%d outside [0, %d]" % (m, pk1 - 3))
        if m < pk1 - p_k:
            return PrimeFraction.one()
        if self.uses_large_m(p_k, m):
            frac = self.g_large(p_k, m)
        else:
            frac = self._extract(self._g_upto(pk_idx, m), m)
        self._check_sandwich(p_k, pk1, m, frac)
        return frac

    def uses_large_m(self, p_k, m):
        """Whether g_fraction evaluates G(p_k, m), m past the first gap, by
        the large-m reduction rather than the window recursion."""
        return m >= SMALL_M_CUTOFF and 2 * m >= 9 * self.delta1(self.table.next_prime(p_k))

    def _check_sandwich(self, p_k, pk1, m, frac):
        value = frac.fraction()
        if value < g_floor(self.table, p_k, pk1, m):
            raise InvariantViolation("G below its single-swap floor")
        if value > g_ceiling(pk1, m):
            raise InvariantViolation("G above p_{k+1}/(p_{k+1}-m)")
        if frac.ell > m:
            raise InvariantViolation("G cost exceeds budget")

    # -- delta1 ------------------------------------------------------------------------

    def delta1(self, p):
        """Smallest even budget d1 >= Delta(p) such that every even d in
        (d1 - Delta, d1] has G(p, d) >= 1 + d/p.

        Keyed by the prime where G is evaluated; the large-m reduction at
        base p_k consumes delta1(p_{k+1})."""
        if p < 5:
            raise ValueError("delta1 needs p >= 5")
        cached = self._delta1.get(p)
        if cached is not None:
            return cached
        t = self.table
        p_idx = t.rank(p)
        gap = t.max_gap_upto(p)
        delta = gap + (gap & 1)
        ceiling = int(4 * 2.55 * math.log(p) ** 2) + 2
        last_bad = 0
        d = 2
        # delta1 came to 1.4-2.7 times delta over primes from 10^5 to
        # 2.4*10^8, and g_large reads G(p, .) to about 1.5*delta1: where
        # 2*delta passes 256 the scan likely does too, and one first table
        # 512 above max(delta, 256) serves the scan and g_large
        entry = self._g_upto(p_idx, min(max(delta, 256) + (512 if delta > 128 else 0), ceiling))
        below = self._below_line(entry)
        while True:
            if d > entry.cap:
                entry = self._g_upto(p_idx, min(d + 256, ceiling + 2))
                below = self._below_line(entry)
            if below(d):
                last_bad = d  # G(p, d) < 1 + d/p
            if d >= delta and d - gap + 2 > last_bad:
                _keep(self._delta1, p, d, DELTA1_ENTRIES)
                return d
            d += 2
            if d > ceiling:
                raise Delta1CeilingError(
                    "delta1(%d) exceeded ceiling %d" % (p, ceiling)
                )

    # -- large m -----------------------------------------------------------------------

    def g_large(self, p_k, m):
        """G(p_k, m) via the reduction to G(p_{k+1}, m') for small m'."""
        t = self.table
        m -= m & 1  # odd budgets buy nothing: all swap costs are even
        pk_idx = t.rank(p_k)
        pk1 = t.prime(pk_idx + 1)
        pk2 = t.prime(pk_idx + 2)
        if not pk1 - p_k <= m <= pk1 - 3:
            raise ValueError("m=%d outside [%d, %d]" % (m, pk1 - p_k, pk1 - 3))
        d1 = self.delta1(pk1)
        if 2 * m < 9 * d1:
            raise ValueError("m=%d below the validity floor 9*delta1/2" % m)
        delta = None
        pk1_idx = pk_idx + 1
        below = self._below_line(self._g_upto(pk1_idx, d1))
        for d in range(d1 - (d1 & 1), -1, -2):
            if 9 * d >= 2 * m:
                continue
            if not t.is_prime(pk1 + d - m):
                continue
            if d == 0:
                delta = 0
                break
            if not below(d):  # G(p_{k+1}, d) >= 1 + d/p_{k+1}
                delta = d
                break
        if delta is None:
            raise InvariantViolation("no valid budget delta found for G(%d, %d)" % (p_k, m))
        if delta == 0:
            return PrimeFraction(((pk1 - m, -1), (pk1, 1)))
        q_hat = (pk1 * pk2 * (pk1 - m + delta)) // ((pk1 + delta) * (pk1 - 3 * delta // 2))
        q_lo = pk1 - m
        if q_hat < q_lo + delta:
            raise InvariantViolation("empty denominator range in the large-m reduction")
        inner = self._g_upto(pk1_idx, m - pk1 + q_hat)
        qs = t.primes[t.count_upto(q_lo - 1) : t.count_upto(q_hat)].tolist()
        # the best p_{k+1}/q * G(p_{k+1}, m - p_{k+1} + q); max keeps the
        # first of equal values, the smallest q
        q, inner_frac = max(
            ((q, self._extract(inner, m - pk1 + q)) for q in qs),
            key=lambda pair: pair[1].fraction() / pair[0])
        # p_{k+1}/q times G(p_{k+1}, m - p_{k+1} + q): a p_{k+1} below cancels,
        # and a q already below would show as q^-2
        out = inner_frac.mul(PrimeFraction(((q, -1), (pk1, 1))))
        check_fraction(out, p_k, m)
        return out

"""Test-side reference oracles for g(n): a dynamic program over primes and a
tiny exhaustive search.  Together with the package's merge-and-prune list
(`landau.oracle.g_list_merge_prune`) they give three independent ways to
compute g(n) at small scale.

`prefix_sets_mpf` is the reference for `landau.benefit.build_prefix_sets`:
the candidate set D(B') built in mpf alone, with no float filter, as a list
of `Prefix` records, and `ben` is ben(N*delta) for a prefix fraction delta,
summed prime by prime.  Both take the primes below sqrt(x1) from the table
(`small_primes`) and each exponent from `Champion.alpha`, not from the
arrays a `BenefitTables` holds.  `members` reads a `PrefixSet` as such a list.
`estimate_B_mpf` is the reference for `landau.benefit.estimate_B`: every
candidate's witness valued in mpf, one candidate at a time.
`bound_loop_exact` is the reference for `landau.benefit.bound_loop`: each
restart builds D(B) at the bound B itself, with no budget ladder, keeps
only the first round's set, and reads t1 in mpf alone: its `Bound` is an
`mpf_bound`, with no float bracket, which may also hold a planted B or t1.
`normalized_candidates_loop` is the reference for
`landau.assemble.normalized_candidates`: the walk up and the peel down,
step by step, each step testing its mpf bounds.

`segmented_primes_all` is the reference for `landau.primes._segmented_primes`:
the same segmented sieve over every number, odd and even, with each segment's
first multiple found by a division.  `e2_table_heap` is the reference for
`landau.superchampion.build_e2_table`: the per-prime slope streams merged
through a heap of mpf slopes, each event's prime found by an exponential and
binary search of guarded probes.  `xj_thresholds` is the reference for
the champion's runs in `landau.superchampion.find_context`: every x_j as an
mpf Newton root, exact at the slope's own j, and `threshold_champion`
builds the champion whose run j ends below x_j; `run_ends` reads a
champion's run ends back.

`h_window_steps` is the reference for the column reads of a
`landau.gfunction._UptoEntry`, collapsed into segments: the window
recursion H(j, P_r; m) over breakpoint lists of linked prime chains,
compared as exact integers, whose rows `h_window_rows` yields one by one.
`entry_steps` reads every column of an `_UptoEntry` and collapses the sets
into segments, the form `h_window_steps` gives.
`confirm_segments` is the reference for `landau.gfunction._Window.need`: the
largest prime a truncated window needs, from the exact product of every
segment of its step function.
`line_test_signs` checks the float line test of
`landau.gfunction.GEngine._below_line` against the integers of each
column's checked read, at every column of the tables delta1 builds, and
records which columns the floats left open.
`g_small` runs the full, uncertified window recursion, the reference for the
confirmed window.  `delta1_reference` is the reference for
`landau.gfunction.GEngine.delta1`: the scan reads G(p, d) as a Fraction at
every even d and compares it with the Fraction 1 + d/p.
"""

import heapq
import math
from collections import deque, namedtuple
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from landau import arith
from landau.arith import PrimeFraction, log_int
from landau.assemble import NormalizedCandidate
from landau.benefit import (
    Bound,
    _trim,
    _walk_fraction,
    build_prefix_sets,
    dell_pp,
    estimate_B,
    initial_budget,
)
from landau.errors import (
    BoundFailureError,
    CapacityError,
    Delta1CeilingError,
    InvariantViolation,
    PrefixGapError,
)
from landau.gfunction import GEngine, _line_excess, _UptoEntry, _Window, g_ceiling, g_floor
from landau.oracle import _pmax
from landau.primes import _simple_sieve
from landau.superchampion import Champion, E2Entry, _solve_x1, newton_from_above

DP_MAX_N = 2_000_000
BRUTE_MAX_N = 64


class GTable:
    """g(n) for all 0 <= n <= limit, with factored access per entry."""

    def __init__(self, limit, values, prime_pool):
        self.limit = limit
        self.values = values          # object ndarray of exact ints
        self._pool = prime_pool       # primes that may divide any entry

    def int_value(self, n):
        return int(self.values[n])

    def factors(self, n):
        """Factorization of g(n) as a dict prime -> exponent."""
        v = int(self.values[n])
        fac = {}
        for p in self._pool:
            if p * p > v:
                break
            e = 0
            while v % p == 0:
                e += 1
                v //= p
            if e:
                fac[p] = e
        if v > 1:
            fac[v] = fac.get(v, 0) + 1
        return fac

    def value(self, n):
        return PrimeFraction.from_factors(self.factors(n))

    def __len__(self):
        return self.limit + 1


def g_table_dp(N, max_n=DP_MAX_N):
    """Prime-by-prime dynamic program g_j(n) = max_k p_j^k g_{j-1}(n - p_j^k).

    Cells hold exact integers in an object ndarray so the per-prime update is
    one vectorized multiply plus one vectorized max; ~10^6 is minutes of work.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > max_n:
        raise CapacityError("dp table for N=%d exceeds budget %d" % (N, max_n))
    g = np.ones(N + 1, dtype=object)
    pool = _simple_sieve(_pmax(N)).tolist() if N >= 2 else []
    for p in pool:
        if p > N:
            break
        base = g.copy()
        q = p
        while q <= N:
            np.maximum(g[q:], base[: N + 1 - q] * q, out=g[q:])
            q *= p
    return GTable(N, g, pool)


def g_bruteforce(n):
    """Direct maximization of prod p_i^a_i subject to sum p_i^a_i <= n
    over distinct primes; exponential, for tiny n only."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_MAX_N:
        raise CapacityError("brute force beyond n=%d refused" % BRUTE_MAX_N)
    ps = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61) if p <= n]

    def best(i, budget):
        if i == len(ps) or ps[i] > budget:
            return 1
        top = best(i + 1, budget)
        q = ps[i]
        while q <= budget:
            top = max(top, q * best(i + 1, budget - q))
            q *= ps[i]
        return top

    return PrimeFraction.from_int(best(0, n))


def segmented_primes_all(limit, segment=1 << 20):
    """All primes <= limit, sieved over all numbers segment by segment into
    one array sized by pi(x) < 1.25506 x / log x, trimmed once."""
    base = _simple_sieve(math.isqrt(limit) + 1)
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    count = 0
    lo = 0
    while lo <= limit:
        hi = min(lo + segment, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            mask[:2] = False
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        found = np.flatnonzero(mask)
        found += lo
        out[count : count + len(found)] = found
        count += len(found)
        lo = hi
    out.resize(count, refcheck=False)
    return out


def e2_table_heap(ell_limit, table):
    """build_e2_table by merging the per-prime slope streams
    (q^2-q)/log q < (q^3-q^2)/log q < ... through a heap of mpf slopes."""
    if ell_limit < 7:
        raise ValueError("ell_limit must be >= 7")
    cs = table.cumulative

    def sum_through(idx):  # primes p_1..p_idx
        return int(cs[idx - 1]) if idx else 0

    def rho_val(q, j):
        return mpf(q**j - q ** (j - 1)) / log_int(q)

    heap = [(rho_val(2, 2), 2, 2), (rho_val(3, 2), 3, 2)]
    max_seeded = 3
    entries = []
    p_idx = 2  # largest prime with p/log p < r starts at 3 for the first event
    ell = 3    # champion just below the first event is 3 itself
    while True:
        r, q, j = heapq.heappop(heap)
        heapq.heappush(heap, (rho_val(q, j + 1), q, j + 1))
        if q == max_seeded:
            nq = table.next_prime(q)
            heapq.heappush(heap, (rho_val(nq, 2), nq, 2))
            max_seeded = nq
        new_idx = _largest_prime_ratio_below(table, r, p_idx)
        ell += sum_through(new_idx) - sum_through(p_idx)
        ell += q**j - q ** (j - 1)
        if q == 2 and j == 2:
            ell += 2  # 2/log 2 coincides with (2^2-2)/log 2: exponent jumps 0 -> 2
        p_idx = new_idx
        entries.append(E2Entry(q, j, table.prime(p_idx), ell))
        if ell > ell_limit:
            break
    return entries


def _largest_prime_ratio_below(table, r, lo_idx):
    """Largest index i >= lo_idx >= 2 with p_i / log p_i < r (monotone there)."""
    lo = max(lo_idx, 2)
    hi = len(table)
    rf = float(r)
    if not _ratio_below(table.prime(lo), r, rf):
        raise InvariantViolation("event slope below its own prime window")
    step = 1
    while lo + step <= hi and _ratio_below(table.prime(lo + step), r, rf):
        lo += step
        step *= 2
    hi = min(lo + step, hi)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _ratio_below(table.prime(mid), r, rf):
            lo = mid
        else:
            hi = mid - 1
    if lo >= len(table):
        raise CapacityError("the event table needs primes past the sieve limit %d" % table.limit)
    return lo


def _ratio_below(p, r, rf):
    """p / log p < r, rf the float copy of r: floats decide beyond their
    rounding error, mp.log the rest."""
    q = p / math.log(p)
    return arith.guarded_sign(q - rf, arith.rounding_error(q + rf, 6),
                              lambda: mpf(p) / mp.log(p) - r) < 0


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


def threshold_champion(table, xs):
    """The champion whose run j ends at the last prime below x_j."""
    return Champion(table, [table.count_upto(x.exact - 1) if x.exact is not None
                            else table.count_upto(int(mp.floor(x.value))) for x in xs])


def run_ends(champion):
    """The run ends a Champion is built from: for each j from 1 to the top
    exponent, the number of primes of exponent at least j."""
    top = champion.runs[0][0]
    return [max(hi for e, _, hi in champion.runs if e >= j) for j in range(1, top + 1)]


def small_primes(ctx):
    """The primes below sqrt(x1), read off the table one mpf comparison at a
    time."""
    out = []
    while ctx.table.prime(len(out) + 1) < ctx.sqrt_x1:
        out.append(ctx.table.prime(len(out) + 1))
    return out


def ben(delta, tables):
    """ben(N*delta) for a prefix fraction delta supported below sqrt(x1)."""
    total = mpf(0)
    for p, e in delta.factors:
        if p >= tables.ctx.sqrt_x1:
            raise ValueError("%d is not a prefix prime (>= sqrt(x1))" % p)
        total += tables.benp(p, e)
    return total


# a member of D(B'): its prefix fraction, its mpf ben and its dell
Prefix = namedtuple("Prefix", "delta ben dell")


def members(d_set, tables):
    """A PrefixSet's members as Prefix records, each mpf ben read through
    tables.ben_of (which a test may stub)."""
    return [Prefix(PrimeFraction(f), tables.ben_of(f), d)
            for f, d in zip(d_set.fac.tolist(), d_set.dell.tolist())]


def prefix_sets_mpf(ctx, b_prime, tables):
    """D(B') prime by prime in mpf: extend every candidate by each p^gamma
    the budget admits, sort by the mpf log, prune the dominated."""
    d_set = [Prefix(PrimeFraction.one(), mpf(0), 0)]
    for p in small_primes(ctx):
        alpha = ctx.N.alpha(p)
        extended = []
        for cand in d_set:
            budget = b_prime - cand.ben
            extended.append(cand)
            for gamma in range(-1, -alpha - 1, -1):
                cost = tables.benp(p, gamma)
                if cost > budget:
                    break
                extended.append(_extend_mpf(cand, p, alpha, gamma, cost))
            gamma = 1
            while True:
                cost = tables.benp(p, gamma)
                if cost > budget:
                    break
                extended.append(_extend_mpf(cand, p, alpha, gamma, cost))
                gamma += 1
        extended.sort(key=lambda c: c.delta.log)
        d_set = _prune_mpf(extended)
    return d_set


def _extend_mpf(cand, p, alpha, gamma, cost):
    return Prefix(
        cand.delta.mul(PrimeFraction(((p, gamma),))),
        cand.ben + cost,
        cand.dell + dell_pp(p, alpha, gamma),
    )


def _prune_mpf(cands):
    # drop each candidate that a larger one at no greater dell dominates
    out = []
    for c in cands:
        while out and out[-1].dell >= c.dell:
            out.pop()
        out.append(c)
    return out


def walk_up(cs, k, c):
    """Largest omega with p_{k+1} + ... + p_{k+omega} <= c, for c >= 0 and
    the table's cumulative sums cs.  A walk that reaches the last prime
    raises CapacityError: the table cannot tell how much further it goes."""
    idx = int(np.searchsorted(cs, c + int(cs[k - 1]), side="right"))
    if idx == len(cs):
        raise CapacityError("champion walk reaches the end of the prime table")
    return idx - k


def estimate_B_mpf(ctx, d_set, n, tables):
    """estimate_B candidate by candidate in mpf: the first minimum of
    ben(N*delta) + ben of the walk + the slack n - l(N*delta_omega)."""
    if not d_set:
        raise InvariantViolation("empty candidate set")
    cs = ctx.table.cumulative
    k = ctx.k
    s_k = int(cs[k - 1])
    sp_count = len(small_primes(ctx))
    best = best_parts = None
    for cand in members(d_set, tables):
        c = n - ctx.ellN - cand.dell
        if c >= 0:
            omega = walk_up(cs, k, c)
            s_omega = int(cs[k + omega - 1]) - s_k
            ben_walk = tables.walk_ben(omega)
        else:
            # peel p_k, p_{k-1}, ... until the cost drops below n
            idx = int(np.searchsorted(cs, s_k + c, side="left"))
            count = k - idx
            if k - count + 1 < sp_count + 1:
                continue  # would peel primes below sqrt(x1)
            omega = -count
            s_omega = int(cs[k - count - 1]) - s_k
            ben_walk = tables.walk_ben(-count)
        value = cand.ben + ben_walk + (n - (ctx.ellN + cand.dell + s_omega))
        if best is None or value < best:
            best, best_parts = value, (cand, omega)
    if best is None:
        raise BoundFailureError("no candidate admits a witness with l <= n")
    if best >= ctx.B1:
        raise BoundFailureError("benefit bound reached B1")
    cand, omega = best_parts
    return Bound(ctx, best, cand.delta.factors, omega)


def bound_loop_exact(ctx, n, tables):
    """bound_loop with each restart's budget the bound B itself: iterate
    D(B') -> B until B <= B', trim D to ben <= B and read t1 in mpf."""
    b_prime = initial_budget(ctx, n)
    for i in range(8):
        if b_prime >= ctx.B1:
            raise BoundFailureError("budget reached B1")
        d_set = tables.dsets.get(b_prime)
        if d_set is None:
            d_set = build_prefix_sets(ctx, b_prime, tables)
            if i == 0:
                tables.dsets[b_prime] = d_set
        res = estimate_B(ctx, d_set, n, tables)
        if res.B <= b_prime:
            if res.B < b_prime:
                d_set = _trim(d_set, res.B, tables)
            return mpf_bound(res), d_set
        b_prime = res.B
    raise InvariantViolation("benefit bound loop failed to settle")


def mpf_bound(bound, B=None, t1=None):
    """A Bound with bound's witness and no float bracket, so that every read
    of t1 is in mpf; B and t1 may be planted, and a planted t1 need not be
    the root for B."""
    out = Bound(bound.ctx, bound.B if B is None else B, bound.member, bound.omega)
    out.bracket = None
    if t1 is not None:
        out.t1 = t1
    return out


def normalized_candidates_loop(ctx, bound, d_set, n, tables):
    """normalized_candidates step by step: for each candidate walk omega down
    from the longest walk up and then peel p_k, p_{k-1}, ..., testing each
    step's mpf bounds."""
    t = ctx.table
    cs = t.cumulative
    k = ctx.k
    s_k = int(cs[k - 1])
    rho = ctx.rho.value
    denom = 1 - rho / bound.t1
    if denom <= 0:
        raise InvariantViolation("t1 at or below rho")
    width = bound.B / denom
    out = []
    for cand in members(d_set, tables):
        hi = n - ctx.ellN - cand.dell
        weak_lo = hi - width
        # omega >= 0: S_w = p_{k+1} + ... + p_{k+w}
        if hi >= 0:
            w = walk_up(cs, k, hi)
            while w >= 0:
                s_w = int(cs[k + w - 1]) - s_k if w > 0 else 0
                if mpf(s_w) < weak_lo:
                    break
                _try_candidate(ctx, bound, tables, out, cand, w, s_w, hi, denom)
                w -= 1
        # omega < 0: peel p_k, p_{k-1}, ... while the peeled prime stays >= t1
        count = 1
        while True:
            peeled = t.prime(k - count + 1)
            if mpf(peeled) < bound.t1:
                break
            s_w = int(cs[k - count - 1]) - s_k  # negative
            if mpf(s_w) < weak_lo:
                break
            if s_w <= hi:
                _try_candidate(ctx, bound, tables, out, cand, -count, s_w, hi, denom)
            count += 1
    if not out:
        raise InvariantViolation(
            "no normalized candidate at n=%d; the true prefix must qualify" % n
        )
    return out


def _try_candidate(ctx, bound, tables, out, cand, w, s_w, hi, denom):
    t = ctx.table
    ben_pi = cand.ben + tables.walk_ben(w)
    # sharpened window: S_w >= hi - (B - ben(N*Pi)) / (1 - rho/t1)
    if mpf(s_w) < hi - (bound.B - ben_pi) / denom:
        return
    m_suffix = hi - s_w
    next_p = t.prime(ctx.k + w + 1)
    if mpf(next_p) < bound.t1:
        return
    if mpf(next_p - m_suffix) < ctx.sqrt_x1:
        raise PrefixGapError(
            "candidate at omega=%d has p_{k+w+1}-m = %d below sqrt(x1)=%s"
            % (w, next_p - m_suffix, mp.nstr(ctx.sqrt_x1, 10))
        )
    Pi = _walk_fraction(ctx, cand.delta, w)
    base = t.prime(ctx.k + w)
    pi_f = Fraction(Pi.numerator(), Pi.denominator())
    out.append(
        NormalizedCandidate(
            delta=cand.delta,
            omega=w,
            Pi=Pi,
            dell_Pi=cand.dell + s_w,
            ben_Pi=ben_pi,
            m_suffix=m_suffix,
            base_prime=base,
            lower=pi_f * g_floor(t, base, next_p, m_suffix),
            upper=pi_f * g_ceiling(next_p, m_suffix),
        )
    )


def g_small(engine, p_k, M):
    """[G(p_k, 0), ..., G(p_k, M)] by the full, uncertified window
    recursion of a GEngine: the reference the confirmed window is checked
    against."""
    pk_idx = engine.table.rank(p_k)
    if pk_idx < 2:
        raise ValueError("p_k must be at least 3")
    pk1 = engine.table.prime(pk_idx + 1)
    if not 0 <= M <= pk1 - 3:
        raise ValueError("M=%d outside [0, %d]" % (M, pk1 - 3))
    top_idx = max(engine._full_top_idx(pk_idx, M), pk_idx + 1)
    window = _Window(engine.table, pk_idx, engine._low_idx(pk1, M), top_idx, M)
    window.grow(top_idx)
    entry = _UptoEntry(pk_idx, M, window)
    return [engine._extract(entry, m) for m in range(M + 1)]


def delta1_reference(engine, p):
    """delta1(p) by a scan that reads G(p, d) through engine._extract, as a
    Fraction, at every even d, with the window growth GEngine.delta1 makes."""
    t = engine.table
    p_idx = t.rank(p)
    gap = t.max_gap_upto(p)
    delta = gap + (gap & 1)
    ceiling = int(4 * 2.55 * math.log(p) ** 2) + 2
    last_bad = 0
    d = 2
    entry = engine._g_upto(p_idx, min(max(delta, 256) + (512 if delta > 128 else 0), ceiling))
    while True:
        if d > entry.cap:
            entry = engine._g_upto(p_idx, min(d + 256, ceiling + 2))
        if engine._extract(entry, d).fraction() < Fraction(p + d, p):
            last_bad = d
        if d >= delta and d - gap + 2 > last_bad:
            return d
        d += 2
        if d > ceiling:
            raise Delta1CeilingError("delta1(%d) exceeded ceiling %d" % (p, ceiling))


def line_test_signs(table, primes):
    """delta1(p) for each prime on a fresh GEngine, and for each prime the
    line test's sign at every column d/2 > 0 of every G table that built,
    each with whether G(p_k, d) lies on the line, after asserting at each
    that _below_line(entry)(d) is the integer test on the column's checked
    read, p_k num < (p_k + d) den; and, in the same order, whether the
    float test left each column open, |x| <= err from _line_excess as
    _below_line computes them."""
    values, signs, opened = [], [], []
    for p in primes:
        engine = GEngine(table)
        values.append(engine.delta1(p))
        signs.append([])
        opened.append([])
        for entry in engine._upto.values():
            below = engine._below_line(entry)
            p_k = entry.Pl[entry.K - 1]
            m = np.arange(2, 2 * len(entry.last), 2)
            x, err = _line_excess(entry.last[0] - entry.last[1:], p_k + m, m, entry.guard,
                                  entry.scale)
            for d in range(2, entry.cap + 1, 2):
                qs, Qs = entry.read(d // 2)
                lhs, rhs = p_k * math.prod(Qs), (p_k + d) * math.prod(qs)
                assert below(d) == (lhs < rhs), (p, entry.cap, d)
                signs[-1].append((entry.line[d // 2], lhs == rhs))
                opened[-1].append(bool(abs(x[d // 2 - 1]) <= err[d // 2 - 1]))
    return values, signs, opened


class _Node:
    """One H value: a product of distinct window primes, shared as a chain."""

    __slots__ = ("p", "up", "value")

    def __init__(self, p, up):
        self.p = p
        self.up = up
        self.value = p * (up.value if up is not None else 1)


def _node_primes(node):
    out = []
    while node is not None:
        out.append(node.p)
        node = node.up
    return tuple(sorted(out))


def _scale_shift(steps, p, d, M):
    """p * H(m - d) on [0, M] for a step list [(m, node), ...]; d >= 0."""
    return [(m + d, _Node(p, node)) for m, node in steps if m + d <= M]


def _merge_min(a, b):
    """Pointwise minimum of two non-increasing step lists, with a
    breakpoint only where the value falls."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    cur_a = cur_b = None
    while i < len(a) or j < len(b):
        ma = a[i][0] if i < len(a) else math.inf
        mb = b[j][0] if j < len(b) else math.inf
        m = min(ma, mb)
        if ma == m:
            cur_a = a[i][1]
            i += 1
        if mb == m:
            cur_b = b[j][1]
            j += 1
        if cur_a is None or (cur_b is not None and cur_b.value < cur_a.value):
            best = cur_b
        else:
            best = cur_a
        if not out or best.value < out[-1][1].value:
            out.append((m, best))
    return out


def h_window_rows(table, pk_idx, lo_idx, rhat_idx, M):
    """Rows j = 1..R-K of the window recursion over the window primes
    P_1 < ... < P_R, table indices lo_idx..rhat_idx, around p_k = P_K, one at
    a time: row[r] is the step list [(m, node), ...] of H(j, P_r; m) on
    [0, M], empty where no m is feasible.  The offset o of row j of a
    landau.gfunction._Window is r = j + o."""
    K = pk_idx - lo_idx + 1
    R = rhat_idx - lo_idx + 1
    P = [0] + [table.prime(lo_idx + i) for i in range(R)]
    unit = [(0, None)]
    prev = None
    for j in range(1, R - K + 1):
        top = table.prime(pk_idx + j)
        row = [[] for _ in range(R + 1)]
        for r in range(j, min(K + j, R) + 1):
            below = unit if j == 1 else prev[r - 1]
            row[r] = _merge_min(row[r - 1], _scale_shift(below, P[r], top - P[r], M))
        yield row
        prev = row


def h_window_steps(table, pk_idx, lo_idx, rhat_idx, M):
    """H(R-K, P_R; m) on [0, M] for the window primes P_1 < ... < P_R,
    table indices lo_idx..rhat_idx, around p_k = P_K: the breakpoints and
    each segment's ascending prime tuple."""
    last = deque(h_window_rows(table, pk_idx, lo_idx, rhat_idx, M), maxlen=1)[0]
    steps = last[rhat_idx - lo_idx + 1]
    assert steps and steps[0][0] == 0, "H has no feasible value at m=0"
    return [m for m, _ in steps], [_node_primes(node) for _, node in steps]


def entry_steps(entry):
    """An entry's breakpoints and its segments' ascending prime tuples, as
    h_window_steps gives them, from the checked read of every column: a
    segment starts where the set differs from the column before."""
    ms, sets = [], []
    tops = entry.Pl[entry.K :]
    for c in range(entry.cap // 2 + 1):
        qs, Qs = entry.read(c)
        out = set(Qs)
        chain = tuple(qs + [p for p in tops if p not in out])
        if not sets or chain != sets[-1]:
            ms.append(2 * c)
            sets.append(chain)
    return ms, sets


def confirm_segments(table, pk_idx, steps, rhat_idx, cap):
    """Largest prime needed so that the truncated window over the primes up
    to table index rhat_idx, whose step function is steps, is provably exact
    on all of [0, cap]; 0 when already confirmed."""
    p_k = table.prime(pk_idx)
    pk1 = table.prime(pk_idx + 1)
    p_rhat = table.prime(rhat_idx)
    need = 0
    ms, sets = steps
    num = math.prod(table.primes[pk_idx:rhat_idx].tolist())
    for i in range(len(ms)):
        m_hi = min(ms[i + 1] - 1 if i + 1 < len(ms) else cap, cap)
        if ms[i] > cap:
            break
        den = math.prod(map(int, sets[i]))  # Python ints: an int64 product would wrap
        if num == den:
            # no beneficial swap seen: genuine only while m < first gap
            if m_hi >= pk1 - p_k:
                need = max(need, p_k + m_hi)
            continue
        # exact: P_Rhat > min(p_k + m, m*num/(num - den)) must hold at m_hi
        bound1 = p_k + m_hi
        ok = p_rhat > bound1 or p_rhat * (num - den) > m_hi * num
        if not ok:
            if bound1 * (num - den) > m_hi * num:
                need_i = m_hi * num // (num - den) + 1
            else:
                need_i = bound1
            need = max(need, need_i)
    return need

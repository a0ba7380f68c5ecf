"""Steps 5 and 6: normalized-prefix candidates, their mutual elimination by
sandwich bounds, exact suffix evaluation, and the final maximum g(n).

Each plain prefix delta from D(B) is normalized by appending the primes just
above p_k (or peeling the top of N) so that what remains of g(n) is a
balanced fraction counted by G(p_{k+w}, n - l(N*Pi)).  The cumulative prime
sums pin w to at most a couple of values per delta; cheap two-sided bounds
on G then eliminate most candidates before the expensive exact evaluation.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np
from mpmath import mp, mpf

from . import arith
from .arith import PrimeFraction, log_int
from .benefit import BenefitTables, Bound, PrefixSet, _walk_fraction, bound_loop
from .errors import (
    BoundFailureError,
    CapacityError,
    InvariantViolation,
    PrefixGapError,
)
from .gfunction import GEngine, g_ceiling, g_floor
from .oracle import g_list_merge_prune
from .primes import DEFAULT_MAX_LIMIT, PrimeTable, auto_limit
from .superchampion import SuperchampionContext, build_e2_table, find_context

# the benefit method is known to fail for a handful of n below this; the
# baseline oracle is authoritative (and cheap) there
ORACLE_FALLBACK_MAX_N = 2485


@dataclass
class NormalizedCandidate:
    delta: PrimeFraction          # the plain prefix it came from
    omega: int
    Pi: PrimeFraction
    dell_Pi: int                  # l(N*Pi) - l(N)
    ben_Pi: mpf
    m_suffix: int                 # n - l(N*Pi)
    base_prime: int               # p_{k+omega}
    lower: Fraction               # Pi * g_floor <= Pi * G(base_prime, m_suffix)
    upper: Fraction               # Pi * g_ceiling >= Pi * G(base_prime, m_suffix)


def normalized_candidates(ctx, bound, d_set, n, tables):
    """All (delta, omega) pairs whose walk sum lands in the admissible window
    and whose continuation prime stays at or above t1, in D order with omega
    descending; d_set is a PrefixSet.

    With hi = n - l(N) - dell(delta) and i = k + omega, the walk sum is
    S_omega = CS[i-1] - CS[k-1] for either sign of omega, so a candidate's
    pairs fill one index range [low, top]: S_omega <= hi up to top, and from
    low on the weak window hi - S_omega <= B/(1 - rho/t1) and p_{i+1} >= t1,
    which holds from i = pi(ceil(t1) - 1) on.  Every sum and prime is an
    integer, so the floor or ceiling of each bound decides its test exactly.
    Both windows are read through bound.fits: hi - S_omega = m lies in the
    weak window when fits(m, B), in the sharpened one when
    fits(m, B - ben(N*Pi)).
    """
    t = ctx.table
    cs = t.cumulative
    k = ctx.k
    s_k = int(cs[k - 1])
    weak = bound.weak_window()
    r1 = bound.primes_below_t1()  # >= 2, as t1 > rho > 3
    gap_min = int(mp.ceil(ctx.sqrt_x1))
    hi = (n - ctx.ellN) - d_set.dell
    top = np.searchsorted(cs, s_k + hi, side="right")
    if np.any(top[hi >= 0] == len(cs)):
        raise CapacityError("champion walk reaches the end of the prime table")
    low = np.maximum(np.searchsorted(cs, s_k + hi - weak, side="left") + 1, r1)
    out = []
    for j in np.flatnonzero(low <= top).tolist():
        delta, c = PrimeFraction(d_set.fac[j]), int(hi[j])
        ben = tables.ben_of(delta.factors)
        for i in range(int(top[j]), int(low[j]) - 1, -1):
            w = i - k
            m_suffix = c - (int(cs[i - 1]) - s_k)
            ben_pi = ben + tables.walk_ben(w)
            # sharpened window: (hi - S_w)*(1 - rho/t1) <= B - ben(N*Pi)
            if not bound.fits(m_suffix, bound.B - ben_pi):
                continue
            next_p = t.prime(i + 1)
            if next_p - m_suffix < gap_min:
                raise PrefixGapError(
                    "candidate at omega=%d has p_{k+w+1}-m = %d below sqrt(x1)=%s"
                    % (w, next_p - m_suffix, mp.nstr(ctx.sqrt_x1, 10))
                )
            Pi = _walk_fraction(ctx, delta, w)
            base = t.prime(i)
            pi = Pi.fraction()
            out.append(
                NormalizedCandidate(
                    delta=delta,
                    omega=w,
                    Pi=Pi,
                    dell_Pi=int(d_set.dell[j]) + c - m_suffix,
                    ben_Pi=ben_pi,
                    m_suffix=m_suffix,
                    base_prime=base,
                    lower=pi * g_floor(t, base, next_p, m_suffix),
                    upper=pi * g_ceiling(next_p, m_suffix),
                )
            )
    if not out:
        raise InvariantViolation(
            "no normalized candidate at n=%d; the true prefix must qualify" % n
        )
    return out


def fight(cands, ctx):
    """Keep only candidates whose upper sandwich bound reaches the best lower
    bound, both exact fractions."""
    best = max(c.lower for c in cands)
    return [c for c in cands if c.upper >= best]


@dataclass
class LandauResult:
    """g(n) as champion times correction, with its exact cost; log10_g, to
    30 digits, is computed on first access.  A result of the benefit method
    also carries what each stage handed on: the settled Bound, D(B), the
    normalized candidates, the survivors of fight and the number of
    candidates evaluated; they are None for an n the oracle serves, and
    results compare without them."""

    n: int
    correction: PrimeFraction
    ell_g: int
    champion: Optional[object] = None       # None when served by the oracle
    context: Optional[SuperchampionContext] = None
    from_oracle: bool = False
    bound: Optional[Bound] = field(default=None, compare=False)
    d_set: Optional[PrefixSet] = field(default=None, compare=False)
    candidates: Optional[list] = field(default=None, compare=False)
    survivors: Optional[list] = field(default=None, compare=False)
    evaluated: Optional[int] = field(default=None, compare=False)

    @cached_property
    def log10_g(self):
        return self.log_g() / log_int(10)

    def log_g(self):
        if self.champion is None:
            return self.correction.log
        return self.champion.log + self.correction.log

    @cached_property
    def _approx_log(self):
        """(v, err): log g(n) as a float, the champion's float log plus the
        correction's sum of e*log p, with |v - log g(n)| <= err counting
        the difference its caller compares v by (arith's docstring)."""
        v, err = self.champion.approx_log() if self.champion is not None else (0.0, 0.0)
        terms = [e * math.log(p) for p, e in self.correction.factors]
        size = abs(v) + sum(map(abs, terms))
        return v + sum(terms), err + arith.rounding_error(size, len(terms) + 5)

    def _log_g_sign(self, bound_f, bound_err, bound):
        """Sign of log g(n) - b for a bound b given as a float bound_f within
        bound_err of it and as bound(), its mpf value: the floats decide
        beyond their errors, log_g() - bound() inside them."""
        v, err = self._approx_log
        return arith.guarded_sign(v - bound_f, err + bound_err, lambda: self.log_g() - bound())

    def max_prime_factor(self):
        best = max((p for p, e in self.correction.factors if e > 0), default=1)
        if self.champion is not None:
            t = self.champion.table
            idx = self.champion.k
            while idx >= 1:
                p = t.prime(idx)
                if self.champion.alpha(p) + self.correction.exponent(p) > 0:
                    best = max(best, p)
                    break
                idx -= 1
        return best

    def to_int(self, digit_budget=10**7):
        budget = digit_budget * math.log(10)
        if self._log_g_sign(budget, arith.rounding_error(budget, 5),
                            lambda: digit_budget * log_int(10)) > 0:
            raise CapacityError("g(n) has more than %d digits" % digit_budget)
        num = self.correction.numerator()
        den = self.correction.denominator()
        if self.champion is not None:
            num *= self.champion.to_int(digit_budget + 100)
        if num % den:
            raise InvariantViolation("correction denominator does not divide N")
        return num // den

    def check_bounds(self):
        """The effective two-sided bounds on log g(n) and its largest prime,
        each formed in float with its rounding bound (arith's docstring) and
        in mpf only where a comparison falls inside it."""
        n = self.n
        if n < 4:
            return
        log_n = math.log(n)
        log_log = math.log(log_n)
        root = math.sqrt(n * log_n)
        if n >= 906 and self._log_g_sign(
                root, arith.rounding_error(root, 6), lambda: _bounds_mpf(n)[0]) < 0:
            raise InvariantViolation("log g(n) below sqrt(n log n) at n=%d" % n)
        maj = root * (1 + (log_log - 0.975) / (2 * log_n))
        maj_size = root * (1 + (abs(log_log) + 1.975) / (2 * log_n))
        if self._log_g_sign(maj, arith.rounding_error(maj_size, 9),
                            lambda: _bounds_mpf(n)[1]) > 0:
            raise InvariantViolation("log g(n) above its effective majorant at n=%d" % n)
        if n >= 5:
            p = self.max_prime_factor()
            cap = 1.328 * root
            if arith.guarded_sign(p - cap, arith.rounding_error(cap, 8),
                                  lambda: p - mpf("1.328") * _bounds_mpf(n)[0]) > 0:
                raise InvariantViolation("largest prime factor bound violated at n=%d" % n)


def _bounds_mpf(n):
    """sqrt(n log n) and the majorant of log g(n), in mpf."""
    log_n = mp.log(n)
    root = mp.sqrt(n * log_n)
    return root, root * (1 + (mp.log(log_n) - mpf("0.975")) / (2 * log_n))


class Solver:
    """Wires the prime table, event table, caches and the pipeline together.

    One Solver instance amortizes everything reusable across calls: contexts,
    their benefit tables and candidate sets, per-prime G tables, and the
    small-n oracle.  The sieve is sized by auto_limit and doubled whenever a
    read runs past it, unless sieve_limit fixes it.
    """

    def __init__(self, limit_hint=None, cache_dir=None, sieve_limit=None):
        self.cache_dir = cache_dir
        self.sieve_limit = sieve_limit
        self.table = None
        self.engine = None
        self._e2 = None
        self._covered = -1  # every n up to this has its sieve and event table
        self._ctx_cache = []
        self._ctx_prec = None
        self._oracle = None
        self._oracle_limit = -1
        if limit_hint is not None:
            self._growing(lambda: self._ensure(limit_hint))

    # -- infrastructure -----------------------------------------------------

    def _ensure(self, n):
        if n <= self._covered:
            return
        # a growth at least doubles the coverage, so ascending n rebuild
        # O(log n) times
        cover = n if self.table is None else max(n, 2 * self._covered)
        limit = self.sieve_limit or auto_limit(cover)
        if self.table is None or self.table.limit < limit:
            self._sieve(limit)
        if cover >= 7:
            try:
                self._e2 = build_e2_table(max(cover, 10**4), self.table)
            except CapacityError:
                # _growing grows a sieve; a fixed one may not hold twice the n
                if self.sieve_limit is None or cover == n:
                    raise
                cover = n
                self._e2 = build_e2_table(max(cover, 10**4), self.table)
            self._covered = cover

    def _sieve(self, limit):
        self.table = PrimeTable.build(limit, cache_dir=self.cache_dir)
        self.engine = GEngine(self.table)
        self._ctx_cache = []

    def _grow(self):
        """Sieve to at least twice the limit after a read past the table;
        False when a fixed sieve_limit or the sieve's budget forbids it."""
        if self.sieve_limit is not None or self.table.limit >= DEFAULT_MAX_LIMIT:
            return False
        self._sieve(min(2 * self.table.limit, DEFAULT_MAX_LIMIT))
        return True

    def oracle_value(self, n):
        if self._oracle is None or self._oracle_limit < n:
            lim = max(n, ORACLE_FALLBACK_MAX_N)
            self._oracle = g_list_merge_prune(lim)
            self._oracle_limit = lim
        return self._oracle.query(n)

    def context(self, n):
        """The bracket of n and its BenefitTables."""
        self._ensure(n)
        if self._ctx_prec != mp.prec:  # contexts hold mpf values of one precision
            self._ctx_cache, self._ctx_prec = [], mp.prec
        for tables in self._ctx_cache:
            if tables.ctx.covers(n):
                return tables.ctx, tables
        tables = BenefitTables(find_context(n, self.table, self._e2))
        self._ctx_cache.append(tables)
        if len(self._ctx_cache) > 8:
            self._ctx_cache.pop(0)
        return tables.ctx, tables

    # -- the pipeline --------------------------------------------------------

    def compute(self, n):
        if n < 0:
            raise ValueError("n must be >= 0")
        if n < 7:
            return self._from_oracle(n)
        try:
            return self._growing(lambda: self._compute_fast(n))
        except (BoundFailureError, PrefixGapError):
            if n < ORACLE_FALLBACK_MAX_N:
                return self._from_oracle(n)
            raise

    def prefixes(self, n):
        """bound_loop's (Bound, D(B)) for n, with the sieve grown as
        compute grows it."""
        def step():
            ctx, tables = self.context(n)
            return bound_loop(ctx, n, tables)
        return self._growing(step)

    def _growing(self, step):
        """step(), started over with a grown sieve after each read past it."""
        while True:
            try:
                return step()
            except CapacityError:
                if not self._grow():
                    raise

    def _from_oracle(self, n):
        value = self.oracle_value(n)
        frac = PrimeFraction.from_int(value)
        res = LandauResult(
            n=n,
            correction=frac,
            ell_g=frac.ell,
            from_oracle=True,
        )
        res.check_bounds()
        return res

    def _compute_fast(self, n):
        ctx, tables = self.context(n)
        bound, d_set = bound_loop(ctx, n, tables)
        cands = normalized_candidates(ctx, bound, d_set, n, tables)
        survivors = fight(cands, ctx)
        order = sorted(survivors, key=lambda c: c.lower, reverse=True)
        best = best_f = best_cand = best_cost = None
        evaluated = 0
        for cand in order:
            if best is not None and cand.upper < best_f:
                continue
            frac = self.engine.g_fraction(cand.base_prime, cand.m_suffix)
            evaluated += 1
            if ctx.ellN + cand.dell_Pi + frac.ell > n:
                raise InvariantViolation("evaluated candidate exceeds the cost budget")
            value = cand.Pi.mul(frac)
            value_f = value.fraction()
            if best is None or value_f > best_f:
                best, best_f, best_cand, best_cost = value, value_f, cand, frac.ell
        if not best_cand.ben_Pi <= bound.B:
            raise InvariantViolation("winning candidate exceeds the benefit bound")
        res = LandauResult(
            n=n,
            correction=best,
            ell_g=ctx.ellN + best_cand.dell_Pi + best_cost,
            champion=ctx.N,
            context=ctx,
            bound=bound,
            d_set=d_set,
            candidates=cands,
            survivors=survivors,
            evaluated=evaluated,
        )
        res.check_bounds()
        return res


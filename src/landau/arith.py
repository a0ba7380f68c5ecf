"""Exact factored rationals, the additive prime-power cost l, and
float64 comparisons with an exact or high-precision fallback.

A PrimeFraction is a product prod p^e with signed exponents, always kept in
canonical form (sorted primes, no zero exponents).  l(p^e) = p^e for e > 0
and the cost of a fraction is l(num) - l(den), so l is additive over
coprime parts.  Two exact rationals compare as fractions.Fraction values
(PrimeFraction.fraction()); the comparisons below are of float64 logs.

Rounding error.  Each fast comparison (the G window's float logs, the float
build of D(B'), estimate_B and the trim of D(B'), the event table's slope
order and prime probes, the champion's slope tests, check_bounds, the reads
of t1 and the budget ladder) trusts a computed difference only beyond rounding_error and
settles the rest exactly.  Every one is in float64: rounding to nearest multiplies
by 1 + d, |d| <= u = 2^-53.  If each term t_i of v = sum t_i reaches the
computed value through at most s roundings (a library log, good to one ulp,
counts as two; each sum, difference, product or copy as one), then
|computed - v| <= s u / (1 - s u) * sum |t_i| <= 2 s u * size for s u <= 1/2
and size >= sum |t_i| (Higham, Accuracy and Stability of Numerical
Algorithms, lemma 3.1).  A comparison counts the difference of its sides as
one more step; beyond the bound that difference has its exact sign.  Steps
per caller: the G window j + 3 for two products of j window primes P less
their common p_k^j, each term log1p((P - p_k)/p_k) (the quotient, log1p,
j - 1 sums, difference), with size 2 j T where T bounds
|log1p((P - p_k)/p_k)| and |P - p_k|/P over the primes P_1..P_{K+j} that
row j reads: log1p passes the quotient's rounding on scaled by
|P - p_k|/P, up to p_k/P_1 at the smallest window prime P_1, which can
exceed the term itself; the G window's widening (_Window.need) reads
x = log(num/den) as the difference of two values of the last row J, so
within that row's guard, and tests q(1 - e^-x) > m for an integer q > m as
x > t = -log1p(-m/q): t takes the quotient m/q, whose rounding log1p passes
on scaled by m/(q - m), and log1p, and the comparison the difference, 4
steps of size |x| + t + m/(q - m), on top of row J's guard; the floor of
m/(1 - e^-x) is read from floats and kept only where both of its ends
pass that test, and G(p_k, d) < 1 + d/p_k is x < t at q = p_k + d, m = d;
a set read from the window has its float log within row J's guard of its
row value; D(B'), estimate_B and
the trim as below; the event table's slopes (q^j - q^{j-1})/log q, an exact integer
over a float log, 5 for each slope in their order (log, quotient,
difference, and the mpf slopes they must order alike), and its p/log p < rho
8 (log and quotient on each side, difference, and the mpf test's own
rounding); the champion's test p^j - p^{j-1} < rho log p for j >= 3 as the
float slope p^{j-1}(p - 1)/log p less the float copy of the mpf rho, j + 5
(p^{j-1} through j - 2 products from p, the product by p - 1, log and
quotient, the copy of rho, the difference and the mpf test's own rounding)
of size slope + rho; a champion's log, which check_bounds and the digit budgets
compare with an mpf bound, 2^11 + R + 11 for R exponent runs and the
half-width of an enclosure, as follows; and log g(n) adds the
correction's sum of e*log p over its f factors, each term through f + 5
(log, product, at most f - 1 sums, the sum with the champion's log, the
difference, the float size), which counts one more step for the champion's
terms too; check_bounds and the budget checks below.  guarded_sign is the
comparison these callers make, the G window's widening and line tests and
D(B')'s pair test among them, and guarded_order their sort.  Four sites
choose an index or a minimum, not a sign, and keep their own code:
_Window._settle redoes a running minimum on exact products, Bound.fits
reads one test at both ends of t1's bracket, and _rung and
superchampion._ratio_indices step an index through mpf tests; estimate_B
reads its least value in mpf over the floats near the least.

The champion's float log (Champion.approx_log) cuts each run into a head,
its primes of index below LOG_CHUNK = 2^16 (p <= 821,641), and blocks.  The
head takes np.log of products of W = 32 primes padded with 1.0, below
2^(31 W) = 2^992 as every prime lies below DEFAULT_MAX_LIMIT < 2^31; the
g - 1 roundings of a group of g exact primes move the log of its product by
at most (g - 1) u/(1 - u) < 1.45u g log 2, one 2u step of its sum of log p.
A block holds the c primes a <= ... <= b of indices [i, i + floor(i/256)),
with sum S (a difference of cumulative sums) and S - c a exact in int64.
log is concave, so it lies above its chord and, by Jensen, below its mean:
    L = c log a + (S - c a) log1p((b - a)/a)/(b - a) <= sum log p
      <= c log(S/c) = U
(the code divides by max(b - a, 1), for c = 1).  v adds (L + U)/2 to the
heads, and err adds (U - L)/2 to the rounding of the heads, L and U.  A
term takes at most 7 steps before its run's sum: in a head its product and
np.log; in L the quotient (b - a)/a, whose rounding log1p scales by
x/((1 + x) log1p x) <= 1, log1p, the quotient by b - a, the copy of
S - c a, the product and the sum with c log a; in U the copy of S, the
quotient by c, log (2u more, as S/c > e) and the product.  Then a run's
G <= 2^11 columns or B < 1,900 blocks are summed (i grows by a factor of at
least 1 + 2^-8 - 2^-16, from 2^16 to below pi(DEFAULT_MAX_LIMIT) < 10^8),
and the bounds' sum or difference, the exponent, at most R sums over runs,
the heads' sum with the blocks', the caller's difference and the float size
make 2^11 + R + 11 steps.  Per prime, (U - L)/c, log m less the chord at
m = S/c, is at most (b - a)^2/(8 a^2) as |log''| <= 1/a^2 on [a, b]; with
(b - a)/a at most 1.19 * 2^-8 on the 10^15 sieve, the half-width is at most
2^-18 per blocked prime and unit of exponent (tests/test_superchampion.py
asserts this cap).  err is 0.35, 3.7 and 11.4 at 10^12, 10^14 and 10^15,
over 6000 times below the majorant's margins there (3.1e3, 2.7e4, 7.8e4).

Bounds that depend on n alone.  check_bounds forms its bounds in float and
an mpf one only inside the comparison's guard, the float's error being
added to that of log g(n).  sqrt(n log n): the float of n, log, product
and square root (which halves the relative error it inherits), with the
difference, 6 steps.  1.328*sqrt(n log n) adds the copy of 1.328 and the
product: 8.  The majorant r*(1 + (log L - 0.975)/(2L)), L = log n,
r = sqrt(n log n): log L inherits log n's relative error, at most 3u, as
an absolute error, which the 1 in the size r*(1 + (|log L| + 1.975)/(2L))
covers; the errors sum to at most 15u times that size, difference
included: 9 steps (rounding_error counts 2u a step).
The digit budget d*log 10 of to_int: log, product, difference and the
mpf bound's rounding, 5.

t1, the root of f(t) = t - rho*log t + B (benefit.Bound.bracket).  f at a
float t: the copy of rho, log, product, the copy of B, two sums, the mpf
sign's rounding and the float size, 8 steps of size t + rho*|log t| + B.
Bound.fits decides m*(1 - rho/t1) <= b, for an integer m > 0 and an mpf b
(B for the weak window, B less a pair's mpf ben for the sharpened one), as
(m - m*q) - b at the bracket's ends lo and hi, q = rho/t: q takes two
steps (the copy of rho, the quotient), the product one, b's float copy one
and the mpf b's own rounding one, the two sums two and the float size one,
8 steps of size m + m*q + |b|, where q = rho/lo, the larger, serves both
ends.  Every read of either window is such a test, so one bound serves
both; a guard wider than a read needs can only send it to mpf.
bound_loop's ladder takes the ceiling of x = 4*log2(b/rho): the copies of
b and rho and their quotient move log2 by at most 4.4u, and log2 adds
2u*|log2|, so |x - 4*log2(b/rho)| <= rounding_error(4 + |x|, 3).

Sorting.  guarded_order takes floats v_i, each within its bound e_i of an
exact value, e_i counting the difference of two floats as one more step.
Two adjacent floats further apart than the sum of their bounds are in exact
order, and so is every pair across that gap, as long as v - e and v + e do
not fall as v grows: a constant bound, or one proportional to v >= 0, as
both callers have.  A run of closer neighbours is sorted exactly.

D(B') (benefit's docstring) keeps running float sums.  A float benp(p, g)
is d - float(rho)*(g*log p) with d = dell_pp exact: an integer below 2^53
converts exactly, a larger one in one rounding.  The product passes through
at most 4 roundings (log, g*log p, the copy of rho, the product) and the
difference adds one: 5 steps, size |d| + |rho g log p|.  The power event's
zero-cost step is 0.0, exact, of size 0.  A member with f factors has the
running ben 0.0 + c_1 + ... + c_f, whose first addition is exact, so each
term reaches it through at most f + 4 steps; its size is the running sum of
the c_i's sizes.  The admission excess (ben + c) - B' for one more c adds
two steps to those (c's own terms take 7, the float copy of B' 2), one
covers the mpf test's roundings (at most f + 6 at mp.prec, within one
float64 step while f + 6 <= 2^(mp.prec - 53), that is f < 2^17 - 6 at the
70 bits of MIN_PRECISION), and one the float size, itself a rounded sum:
f + 9 steps (9 for the member 1), size ben's + c's + B'.  The row filter
in front of it doubles the layer's largest such bound to cover its own
roundings.  The benp table ends a direction at the first benp > B1, and a
build's columns end before the first float benp beyond B': each compares
cost - b for b = B1 or B' in 8 steps (cost's 5, the difference, the float
size and the mpf benp's own rounding, which the B' cut, with no mpf test,
does not need; the copy of b takes 2), size cost's + b.  A member's running
log, the sum of g*log p over its factors, reaches its value through f + 2
steps (log, product, f - 1 additions); the mpf log the exact sort reads
adds one and the float size one, so each float log lies within
rounding_error(S, f + 4) of it, for S and f the layer's largest log
size and factor count; with the rounding of their difference,
rounding_error(S, f + 5) is each log's bound in guarded_order.
A member of D(B') keeps its running ben, the size of its terms and f, and
its mpf ben is the fold of the mpf benp over its factors.  bound_loop's
trim compares ben - B for the mpf bound B: the running sum's f + 4 steps,
one for the difference (the float copy of B takes 2), one for the mpf
fold's roundings and one for the float size: f + 7, size ben's + B.
estimate_B values a witness as (ben + walk) + slack from the running ben, a
float copy of the mpf walk sum and an exact integer slack: the running
sum's f + 4 steps, two for the additions, one for the mpf sums the value
stands for, two for adding and subtracting the bound before comparing, and
one for the float size: f + 10 (the walk sum's terms take 7), size ben's +
|walk| + |slack|.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf

DEFAULT_PRECISION = 30
MIN_PRECISION = 20

mp.dps = DEFAULT_PRECISION


def set_precision(digits):
    """Fix the global working precision (significant decimal digits).

    Clears the log cache; a Solver rebuilds its contexts at its next call,
    so no mpf value of the old precision is reused.
    """
    if digits < MIN_PRECISION:
        raise ValueError("working precision below %d digits is unsafe" % MIN_PRECISION)
    mp.dps = digits
    log_int.cache_clear()


@lru_cache(maxsize=1 << 14)
def log_int(n):
    """log n as an mpf, cached (used for primes and small constants)."""
    return mp.log(n)


def rounding_error(size, steps):
    """Bound on |computed - exact| for a float64 value whose terms have
    absolute values summing to at most `size` (a float or float array), each
    passing through at most `steps` roundings; derived in the module
    docstring."""
    return size * (2 * steps) / 2**53


def guarded_sign(d, err, exact_d):
    """Sign of a difference d computed with |error| <= err (err counting the
    difference as a step): d decides beyond err, and exact_d(), the
    difference computed exactly or at the working precision, inside it.
    For a float array d of any shape (err a float or an array) the signs,
    a float array of that shape: exact_d(i) gives the difference at each
    flat index i inside the bound."""
    if isinstance(d, np.ndarray):
        out, near = np.sign(d), np.abs(d) <= err
        if near.any():  # rare: skip np.flatnonzero's cost on the common empty case
            for i in np.flatnonzero(near).tolist():
                v = exact_d(i)
                out.flat[i] = (v > 0) - (v < 0)
        return out
    if abs(d) <= err:
        d = exact_d()
    return (d > 0) - (d < 0)


def guarded_order(values, err, exact_key):
    """Indices that sort the float array values, each within its bound err
    (a float or an array) of the exact value exact_key(i) orders: a stable
    float argsort, each run of neighbours no further apart than the sum of
    their bounds sorted by exact_key (the module docstring's Sorting)."""
    order = np.argsort(values, kind="stable")
    if np.ndim(err):
        err = err[order]
        err = err[:-1] + err[1:]
    else:
        err = 2 * err
    close = np.flatnonzero(np.diff(values[order]) <= err)
    if close.size:  # rare: skip np.split's cost on the common empty case
        for run in np.split(close, np.flatnonzero(np.diff(close) > 1) + 1):
            lo, hi = int(run[0]), int(run[-1]) + 2
            order[lo:hi] = sorted(order[lo:hi].tolist(), key=exact_key)
    return order


def log_product(values):
    """Sum of log over an int64 array (or a list of ints below 2^53):
    exact products of consecutive values, each closed once its factors' bit
    lengths reach 4096, so the mpf rounding error stays at a few ulps
    regardless of length.  The bit lengths are read a slice at a time."""
    total = mpf(0)
    chunk, used = 1, 0  # the open product and its factors' bit lengths
    step = 1 << 16
    for lo in range(0, len(values), step):
        a = np.asarray(values[lo : lo + step], dtype=np.int64)
        # frexp's exponent is the bit length of a value below 2^53
        cum = np.cumsum(np.frexp(a.astype(np.float64))[1], dtype=np.int64)
        start, base = 0, -used  # the open product holds cum[i] - base bits at i
        while True:
            end = int(np.searchsorted(cum, base + 4096, side="left"))
            if end == len(a):
                chunk *= math.prod(a[start:].tolist())
                used = int(cum[-1]) - base
                break
            total += mp.log(chunk * math.prod(a[start : end + 1].tolist()))
            chunk, start, base = 1, end + 1, int(cum[end])
    if chunk != 1:
        total += mp.log(chunk)
    return total


def ell_pp(p, e):
    """l contribution of p^e: p^e for e > 0, -p^(-e) for e < 0, 0 for e = 0."""
    if e > 0:
        return p**e
    if e < 0:
        return -(p ** (-e))
    return 0


def _tree_product(values):
    values = list(values)
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


class PrimeFraction:
    """An exact positive rational in factored form with cached l and log."""

    __slots__ = ("factors", "ell", "_log")

    def __init__(self, factors):
        # factors: tuple of (prime, nonzero exponent), primes strictly ascending
        self.factors = factors
        self.ell = sum(ell_pp(p, e) for p, e in factors)
        self._log = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_factors(cls, mapping):
        items = tuple(sorted((int(p), int(e)) for p, e in dict(mapping).items() if e))
        return cls(items)

    @classmethod
    def from_int(cls, n):
        """Factor a positive integer by trial division (small inputs only)."""
        if n <= 0:
            raise ValueError("PrimeFraction represents positive values")
        fac = []
        d = 2
        while d * d <= n:
            e = 0
            while n % d == 0:
                e += 1
                n //= d
            if e:
                fac.append((d, e))
            d += 1 if d == 2 else 2
        if n > 1:
            fac.append((n, 1))
        return cls(tuple(fac))

    # -- basic properties ----------------------------------------------------

    @property
    def log(self):
        if self._log is None:
            self._log = mp.fsum(e * log_int(p) for p, e in self.factors)
        return self._log

    def exponent(self, p):
        for q, e in self.factors:
            if q == p:
                return e
            if q > p:
                return 0
        return 0

    def is_one(self):
        return not self.factors

    def numerator(self):
        return _tree_product(p**e for p, e in self.factors if e > 0)

    def denominator(self):
        return _tree_product(p ** (-e) for p, e in self.factors if e < 0)

    def fraction(self):
        """The value as a fractions.Fraction, the type exact rationals compare in."""
        return Fraction(self.numerator(), self.denominator())

    # -- arithmetic ------------------------------------------------------------

    def mul(self, other):
        if other.is_one():
            return self
        if self.is_one():
            return other
        a, b = self.factors, other.factors
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i][0] < b[j][0]:
                out.append(a[i])
                i += 1
            elif a[i][0] > b[j][0]:
                out.append(b[j])
                j += 1
            else:
                e = a[i][1] + b[j][1]
                if e:
                    out.append((a[i][0], e))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return PrimeFraction(tuple(out))

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, PrimeFraction) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    # -- rendering -------------------------------------------------------------------

    def render(self, table=None):
        return render_factored(self.factors, table)

    def __repr__(self):
        return "PrimeFraction(%s)" % (self.render() or "1")


_ONE = PrimeFraction(())


def render_factored(factors, table=None):
    """Canonical text form: `2^9 * 3^6 * [11-41]^2 * [43-3923]`.

    Maximal runs of consecutive primes sharing an exponent are compressed to
    bracket ranges; this needs a prime table to certify adjacency, otherwise
    every factor is rendered alone.  Exponent 1 is omitted.
    """
    if not factors:
        return "1"
    parts = []
    i = 0
    while i < len(factors):
        p, e = factors[i]
        j = i
        if table is not None and p <= table.limit:
            while (
                j + 1 < len(factors)
                and factors[j + 1][1] == e
                and factors[j + 1][0] <= table.limit
                and factors[j + 1][0] == table.next_prime(factors[j][0])
            ):
                j += 1
        if j > i:
            base = "[%d-%d]" % (p, factors[j][0])
        else:
            base = str(p)
        parts.append(base if e == 1 else "%s^%d" % (base, e))
        i = j + 1
    return " * ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?:\[\s*(\d+)\s*-\s*(\d+)\s*\]|(\d+))\s*(?:\^\s*(-?\d+))?\s*$"
)


def parse_factored(text, table=None):
    """Parse the canonical rendering back into a PrimeFraction."""
    text = text.strip()
    if text == "1":
        return PrimeFraction.one()
    factors = {}
    for term in text.split("*"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError("cannot parse factor %r" % term)
        exp = int(m.group(4)) if m.group(4) else 1
        if m.group(3) is not None:
            ps = [int(m.group(3))]
        else:
            if table is None:
                raise ValueError("bracket ranges need a prime table to expand")
            lo, hi = int(m.group(1)), int(m.group(2))
            a = table.count_upto(lo - 1)
            b = table.count_upto(hi)
            ps = [table.prime(i) for i in range(a + 1, b + 1)]
            if not ps or ps[0] != lo or ps[-1] != hi:
                raise ValueError("range [%d-%d] does not start/end on primes" % (lo, hi))
        for p in ps:
            factors[p] = factors.get(p, 0) + exp
    return PrimeFraction.from_factors(factors)

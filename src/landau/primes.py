"""Prime generation, indexed access, navigation, range sums and maximal gaps.

The table is built once by a segmented sieve and is immutable afterwards;
every query is a binary search or an O(1) lookup, so a single table can be
shared freely between threads.
"""

import math
from operator import index

import numpy as np

from . import cache
from .errors import CapacityError

SEGMENT = 1 << 19  # odd numbers per sieve segment: 2^20 numbers, a 512 KB mask
GAP_CHUNK = 1 << 16
# S(2e9) ~ 9.3e16 < 2^62, inside the check PrimeTable makes on its
# cumulative sums; the cap also bounds memory to a few GB of int64 arrays.
DEFAULT_MAX_LIMIT = 2_000_000_000


def _simple_sieve(limit):
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def _segmented_primes(limit):
    """All primes <= limit, sieved segment by segment into one array sized by
    pi(x) < 1.25506 x / log x (Rosser and Schoenfeld, x > 1), trimmed once.

    Only odd numbers are sieved: mask index i stands for 2i + 1, and 2 is
    written first.  An odd prime p crosses off every p-th index from that of
    p^2, and each base prime's next index is carried from one segment to
    the next."""
    base = _simple_sieve(math.isqrt(limit) + 1)[1:].tolist()
    nxt = [p * p // 2 for p in base]  # index of the next odd multiple to cross off
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    out[0] = 2
    count = 1
    size = (limit + 1) // 2  # indices of the odd numbers <= limit
    mask = np.empty(min(SEGMENT, size), dtype=bool)
    active = 0  # base primes whose square lies below the segment's end
    lo = 0
    while lo < size:
        hi = min(lo + SEGMENT, size)
        seg = mask[: hi - lo]
        seg[:] = True
        if lo == 0:
            seg[0] = False  # 1
        while active < len(base) and nxt[active] < hi:
            active += 1
        for k in range(active):
            s, p = nxt[k], base[k]
            if s < hi:
                seg[s - lo :: p] = False
                nxt[k] = s + ((hi - 1 - s) // p + 1) * p
        found = np.flatnonzero(seg)
        found *= 2
        found += 2 * lo + 1
        out[count : count + len(found)] = found
        count += len(found)
        lo = hi
    out.resize(count, refcheck=False)  # no view of `out` exists
    return out


def _gap_records(primes):
    """The primes ending a gap larger than every gap before it, and those
    gaps; read in chunks, so no temporary as long as the table is held."""
    ends, gaps = [], []
    best = 0
    for lo in range(1, len(primes), GAP_CHUNK):
        d = np.diff(primes[lo - 1 : lo + GAP_CHUNK])
        run = np.maximum(np.maximum.accumulate(d), best)
        rec = np.flatnonzero(d > np.r_[best, run[:-1]])
        ends.append(primes[lo + rec])
        gaps.append(d[rec])
        best = int(run[-1])
    if not ends:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return np.concatenate(ends), np.concatenate(gaps)


class PrimeTable:
    """All primes <= limit with cumulative sums and the record points of
    Delta(x) = max_{p_j <= x} (p_j - p_{j-1}): each prime ending a gap larger
    than every gap before it, and that gap.

    Queries take integers only (operator.index): numpy would search a float
    in a float64 copy of the whole table."""

    def __init__(self, limit, primes):
        self.limit = int(limit)
        self.primes = primes
        self.record_primes, self.record_gaps = _gap_records(primes)
        # Cramer-style sanity bound, known to hold for all x <= 8e16
        if not all(
            g <= 0.93 * math.log(p) ** 2
            for p, g in zip(self.record_primes.tolist(), self.record_gaps.tolist())
            if p > 10  # below that (log p)^2 is tiny and the bound is vacuous anyway
        ):
            raise AssertionError("prime gap exceeded 0.93 (log x)^2 below %d" % self.limit)
        self.cumulative = np.cumsum(primes)
        if len(primes) and int(self.cumulative[-1]) >= (1 << 62):
            raise CapacityError("cumulative prime sums would overflow int64")
        for a in (self.primes, self.cumulative):
            a.flags.writeable = False

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, limit, cache_dir=None):
        """Sieve all primes <= limit, reusing/refreshing the disk cache if given."""
        if limit < 3:
            raise ValueError("limit must be >= 3")
        if limit > DEFAULT_MAX_LIMIT:
            raise CapacityError(
                "sieve limit %d exceeds configured budget %d" % (limit, DEFAULT_MAX_LIMIT)
            )
        if cache_dir is not None:
            primes = cache.load(cache_dir, limit)
            if primes is not None:
                # a copy, so a small table does not keep a large file's array alive
                return cls(limit, primes[: int(np.searchsorted(primes, limit, side="right"))].copy())
        table = cls(limit, _segmented_primes(limit))
        if cache_dir is not None:
            cache.save(cache_dir, limit, table.primes)
        return table

    # -- indexed access (1-based, p_1 = 2) ---------------------------------

    def __len__(self):
        return len(self.primes)

    def _beyond(self, what):
        return CapacityError("%s is beyond the sieve limit %d" % (what, self.limit))

    def prime(self, i):
        """p_i, 1-based."""
        if i < 1:
            raise IndexError("prime index %d out of range" % i)
        if i > len(self.primes):
            raise self._beyond("prime index %d" % i)
        return int(self.primes[i - 1])

    def rank(self, p):
        """Index i with p_i = p; raises if p is not prime or out of range."""
        p = index(p)
        if p > self.limit:
            raise self._beyond("%d" % p)
        i = int(np.searchsorted(self.primes, p, side="left"))
        if i >= len(self.primes) or int(self.primes[i]) != p:
            raise ValueError("%d is not a prime in the table" % p)
        return i + 1

    def count_upto(self, x):
        """Number of the table's primes <= x: pi(x) for x <= limit."""
        return int(np.searchsorted(self.primes, index(x), side="right"))

    def is_prime(self, x):
        x = index(x)
        if x > self.limit:
            raise self._beyond("%d" % x)
        i = int(np.searchsorted(self.primes, x, side="left"))
        return i < len(self.primes) and int(self.primes[i]) == x

    # -- navigation ---------------------------------------------------------

    def next_prime(self, x):
        """Smallest prime > x (must exist within the table)."""
        x = index(x)
        if x < 1:
            raise ValueError("next_prime requires x >= 1")
        i = int(np.searchsorted(self.primes, x, side="right"))
        if i >= len(self.primes):
            raise self._beyond("the prime after %d" % x)
        return int(self.primes[i])

    # -- sums ---------------------------------------------------------------

    def sum_prime_range(self, a_index, b_index):
        """Exact p_a + p_{a+1} + ... + p_b (1-based, inclusive)."""
        if not 1 <= a_index <= b_index:
            raise IndexError("prime index range [%d, %d] out of range" % (a_index, b_index))
        if b_index > len(self.primes):
            raise self._beyond("prime index %d" % b_index)
        s = int(self.cumulative[b_index - 1])
        if a_index >= 2:
            s -= int(self.cumulative[a_index - 2])
        return s

    # -- gaps ----------------------------------------------------------------

    def max_gap_upto(self, x):
        """Delta(x), the largest gap between consecutive primes p_j <= x."""
        x = index(x)
        if x > self.limit:
            raise self._beyond("%d" % x)
        if x < 3:
            raise ValueError("Delta(x) is defined for x >= 3")
        i = int(np.searchsorted(self.record_primes, x, side="right"))
        if i == 0:
            raise ValueError("no prime gap at or below %d" % x)
        return int(self.record_gaps[i - 1])


def auto_limit(n):
    """Sieve limit for the reads of g(n) and of the event table Solver
    builds to l = max(n, 10^4), from x with x^2 / (2 log x) = l:

    - p_k < x: the primes of the champion sum to at most l, and the primes
      up to x sum to more than x^2 / (2 log x) for x > 347 (checked to 10^8;
      the sum is x^2 / (2 log x) (1 + 1 / (2 log x) + ...)).  p_k is
      0.93-0.98 x for n in [3000, 10^12].
    - The event table ends at the first exponent bump past l.  Bumps to
      exponent 2 at consecutive primes q ~ x_2 ~ sqrt(p/2) lie about
      4 q (q' - q) <= 0.66 sqrt(p) log^2 p apart in p, as prime gaps stay
      below 0.93 log^2 q: sqrt(x) log^2 x above x.
    - G reads p + M for M up to 255 beyond the larger of SMALL_M_CUTOFF
      (3000) and 9/2 of delta1's ceiling 10.2 log^2 p + 2: 46 log^2 x plus
      3300.  The walks above p_k stay within a few primes of it.

    A read past the sieve raises CapacityError and Solver grows the table,
    so a short estimate costs time, never an answer.
    """
    x = sum_root(max(n, 10**4))
    return int(x + (math.sqrt(x) + 46) * math.log(x) ** 2) + 3300


def sum_root(ell):
    """The x > e with x^2 / (2 log x) = ell >= 7, near the largest prime of
    a champion of cost ell."""
    x = math.sqrt(ell * math.log(ell))
    for _ in range(30):  # x -> sqrt(2 l log x) contracts to the root
        x = math.sqrt(2 * ell * math.log(x))
    return x

"""Prime generation, indexed access, navigation, range sums and maximal gaps.

The table is built once by a segmented sieve and is immutable afterwards;
every query is a binary search or an O(1) lookup, so a single table can be
shared freely between threads.
"""

import math

import numpy as np

from . import cache
from .errors import CapacityError

SEGMENT = 1 << 20
# S(4e8) < 2^63 comfortably; the cap below keeps cumulative sums in int64
# with a wide margin and bounds memory to a few GB of int64 arrays.
DEFAULT_MAX_LIMIT = 2_000_000_000


def _simple_sieve(limit):
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def _segmented_primes(limit):
    base = _simple_sieve(math.isqrt(limit) + 1)
    parts = []
    lo = 0
    while lo <= limit:
        hi = min(lo + SEGMENT, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            mask[:2] = False
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        parts.append((np.flatnonzero(mask) + lo).astype(np.int64))
        lo = hi
    return np.concatenate(parts)


class GapTable:
    """Record points of Delta(x) = max_{p_j <= x} (p_j - p_{j-1})."""

    def __init__(self, record_primes, record_gaps):
        self.record_primes = record_primes  # prime ending each record gap
        self.record_gaps = record_gaps      # the corresponding gap value

    def max_gap_upto(self, x):
        if x < 3:
            raise ValueError("Delta(x) is defined for x >= 3")
        i = int(np.searchsorted(self.record_primes, x, side="right"))
        if i == 0:
            raise ValueError("no prime gap at or below %d" % x)
        return int(self.record_gaps[i - 1])


class PrimeTable:
    """All primes <= limit with cumulative sums and the gap record table."""

    def __init__(self, limit, primes):
        self.limit = int(limit)
        self.primes = primes
        self.cumulative = np.cumsum(primes)
        if len(primes) and int(self.cumulative[-1]) >= (1 << 62):
            raise CapacityError("cumulative prime sums would overflow int64")
        d = np.diff(primes)
        if len(d):
            running = np.maximum.accumulate(d)
            rec = np.flatnonzero(np.r_[True, running[1:] > running[:-1]])
            self.gaps = GapTable(primes[rec + 1].copy(), d[rec].copy())
            # Cramer-style sanity bound, known to hold for all x <= 8e16
            lim = float(self.gaps.record_primes[-1])
            if not all(
                g <= 0.93 * math.log(p) ** 2
                for p, g in zip(self.gaps.record_primes.tolist(), self.gaps.record_gaps.tolist())
                if p > 10  # below that (log p)^2 is tiny and the bound is vacuous anyway
            ):
                raise AssertionError("prime gap exceeded 0.93 (log x)^2 below %s" % lim)
        else:
            self.gaps = GapTable(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
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

    def prime(self, i):
        """p_i, 1-based."""
        if not 1 <= i <= len(self.primes):
            raise IndexError("prime index %d out of range" % i)
        return int(self.primes[i - 1])

    def rank(self, p):
        """Index i with p_i = p; raises if p is not prime or out of range."""
        i = int(np.searchsorted(self.primes, p, side="left"))
        if i >= len(self.primes) or int(self.primes[i]) != p:
            raise ValueError("%d is not a prime in the table" % p)
        return i + 1

    def count_upto(self, x):
        """pi(x): number of primes <= x."""
        return int(np.searchsorted(self.primes, x, side="right"))

    def is_prime(self, x):
        if x > self.limit:
            raise CapacityError("%d beyond sieve limit %d" % (x, self.limit))
        i = int(np.searchsorted(self.primes, x, side="left"))
        return i < len(self.primes) and int(self.primes[i]) == x

    # -- navigation ---------------------------------------------------------

    def next_prime(self, x):
        """Smallest prime > x (must exist within the table)."""
        if x < 1:
            raise ValueError("next_prime requires x >= 1")
        i = int(np.searchsorted(self.primes, x, side="right"))
        if i >= len(self.primes):
            raise CapacityError("no prime <= %d exceeds %d" % (self.limit, x))
        return int(self.primes[i])

    # -- sums ---------------------------------------------------------------

    def sum_prime_range(self, a_index, b_index):
        """Exact p_a + p_{a+1} + ... + p_b (1-based, inclusive)."""
        if not 1 <= a_index <= b_index <= len(self.primes):
            raise IndexError("prime index range [%d, %d] out of range" % (a_index, b_index))
        s = int(self.cumulative[b_index - 1])
        if a_index >= 2:
            s -= int(self.cumulative[a_index - 2])
        return s

    # -- gaps ----------------------------------------------------------------

    def max_gap_upto(self, x):
        """Delta(x), the largest gap between consecutive primes p_j <= x."""
        if x > self.limit:
            raise CapacityError("%d beyond sieve limit %d" % (x, self.limit))
        return self.gaps.max_gap_upto(x)


def auto_limit(n):
    """Sieve limit covering everything needed to compute g(n).

    2.7*sqrt(n log n) covers the largest-prime bound 1.328*sqrt(n log n) with
    slack for window widening above p_k; the additive margin keeps tiny n
    workable.
    """
    if n < 100:
        return 10**6
    return int(2.7 * math.sqrt(n * math.log(n))) + 10**6

"""The baseline champion list: g(n) for every n <= N at small scale.

A merge-and-prune construction over primes.  It serves the few small n the
benefit method cannot, and is the ground truth the fast single-n path is
checked against.
"""

import heapq
import math
from bisect import bisect_right

import numpy as np

from .errors import CapacityError, InvariantViolation
from . import primes as primes_mod

LIST_MAX_N = 10**6


def _pmax(N):
    # Largest prime factor of g(n) is <= 1.328*sqrt(n log n) for n >= 5;
    # take 3 as a floor so tiny tables still see {2, 3}.
    if N < 3:
        return 2
    return max(3, int(1.328 * math.sqrt(N * math.log(N))))


class ChampionList:
    """Ordered pairs (M_i, l_i), both strictly increasing; g(n) = M_i for
    l_i <= n < l_{i+1}."""

    def __init__(self, values, ells):
        self.values = values
        self.ells = ells

    def query(self, n):
        i = bisect_right(self.ells, n)
        if i == 0:
            raise ValueError("n below table start")
        return self.values[i - 1]

    def check(self):
        if self.values[0] != 1 or self.ells[0] != 0:
            raise InvariantViolation("champion list must start at (1, 0)")
        for i in range(1, len(self.values)):
            if not (self.values[i] > self.values[i - 1] and self.ells[i] > self.ells[i - 1]):
                raise InvariantViolation("champion list not doubly increasing at %d" % i)

    def __len__(self):
        return len(self.values)


def undominated(ell):
    """Mask of the entries, in ascending value, that no larger entry beats.

    A value M1 cannot be g(n) when some M2 > M1 has l(M2) <= l(M1), and by
    the domination lemma delta1 cannot be the prefix of g(n) when some
    delta2 > delta1 has l(N delta2) <= l(N delta1): entry i stays iff its
    cost is below every later one.
    """
    keep = np.ones(len(ell), dtype=bool)
    keep[:-1] = ell[:-1] < np.minimum.accumulate(ell[::-1])[::-1][1:]
    return keep


def g_list_merge_prune(N, max_prime=None):
    """Champion-list construction: merge in one prime at a time, prune
    dominated entries (smaller value at equal-or-higher cost)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > LIST_MAX_N:
        raise CapacityError("champion list for N=%d exceeds budget %d" % (N, LIST_MAX_N))
    if max_prime is None:
        max_prime = _pmax(N)
    pairs = [(1, 0)]
    for p in primes_mod._simple_sieve(max(max_prime, 2)).tolist():
        if p > N:
            break
        streams = []
        q = p
        k = 1
        while q <= N:
            streams.append([(v * q, l + q) for v, l in pairs if l + q <= N])
            q *= p
            k += 1
        merged = list(heapq.merge(pairs, *streams))
        keep = undominated(np.array([l for _, l in merged], dtype=np.int64))
        pairs = [pair for pair, k in zip(merged, keep.tolist()) if k]
    values, ells = zip(*pairs)
    lst = ChampionList(list(values), list(ells))
    lst.check()
    return lst


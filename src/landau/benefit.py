"""Benefit arithmetic and plain-prefix candidate sets.

ben(M) = l(M) - l(N) - rho*log(M/N) >= 0 measures how far M sits above the
champion hull at slope rho; it is additive over coprime parts, so a
candidate's benefit accumulates prime by prime.  The candidate set D(B')
holds every fraction on primes < sqrt(x1) that could be the small-prime part
of g(n) while ben g(n) <= B'; dominated candidates (smaller value, no
cheaper cost) are pruned by the champion-list oracle's rule,
oracle.undominated.

D(B') is built on float64 arrays, one prime layer at a time.  A member
of a layer is a column: its dell as int64, and running float sums of its
ben and of its log, each with the sum of its terms' absolute values; with
the member's factor count these bound the sums' rounding errors (arith's
docstring derives the bounds).  Its factor tuple is the only Python object.
A layer forms its new members' numeric columns (the parent and gamma, dell,
ben, log, their sizes and the count) first, sorts and prunes them, and
only then makes factor tuples, for the new members that survived; the
sort's exact key builds a tuple on demand for the rare close run.  The float
benp(p, gamma) is the exact dell_pp less float(rho)*(gamma*log p), read
from BenefitTables' table.  A (member, gamma) pair is admitted or refused
by arith.guarded_sign on the float excess ben + benp - B'; inside its
bound the sign of benp - (B' - ben) in mpf, the exact loop's test
benp > B' - ben, decides, on the mpf ben of that member.  In each
direction a member's gammas end at the first one refused, as in the exact
loop.  A layer is sorted by arith.guarded_order:
by its float logs, and by the mpf logs where the floats are too close to
tell (the rule is in arith's docstring).  Domination compares dell exactly
(every |dell| stays below B' + rho*|log delta|, far from 2^63).  D(B') is
the last layer's arrays, a PrefixSet, and the exact loop's set entry for
entry.  A member's mpf ben is formed only where a float cannot decide: at a
near tie of the admission test, of estimate_B's minimum or of bound_loop's
trim, for a member normalized_candidates walks, and for landau prefixes.
It is BenefitTables.ben_of, the left fold of benp over the member's factors
in ascending prime order, which is the exact loop's chain cand.ben + cost
bit for bit.

The benp table.  N is an l-superchampion at slope rho, so ben >= 0 for
every fraction: benp(p, gamma) is convex in gamma, as l(p^e) is convex in e
and rho*gamma*log p is linear, and its minimum is benp(p, 0) = 0, so it
does not fall as |gamma| grows in either direction; a member's ben, a sum
of benps, is >= 0 too.  So a gamma whose benp exceeds B' ends every
member's run in its direction, and the exact loop, stopping at the first
gamma over budget, never looks past it.  BenefitTables tabulates, once per
context, every small prime's float benp for gamma = -1, ..., -alpha_p and
then 1, 2, ...: each direction ends at -alpha_p or at its first entry whose
benp exceeds B1 (the float decides beyond its bound, the mpf benp inside
it).  A budget B' lies below B1, so no member passes that entry.  A
build's columns for p are its entries before the first whose float cost
exceeds B' beyond its bound: that step's benp exceeds B', so the cut needs
no mpf; an entry inside the bound stays a column and the pair test decides
it.

Which primes a build visits.  The exact loop tries every prime below
sqrt(x1).  A layer passes to the pair test only the members whose float ben
is at most the row bound b_f - c + s, c the least float cost of the first
steps benp(p, -1) and benp(p, 1) and s twice the pair bound at the build's
largest ben size and factor count so far; a member it drops extends by no
gamma of p.  BenefitTables holds c and the first steps' largest size per
small prime as arrays, read off its table's entries at gamma = -1 and 1.
So p extends nothing when the least float ben of the layer exceeds the
bound.  The empty member is in every layer with ben exactly 0.0: a fraction
above 1 has dell > 0, as its ben >= 0, and so cannot dominate it.  The test
reads the build's state only through that least ben, the largest size and
the largest count, and as rounding to nearest is monotone it passes for
more primes as the size and count grow and as the least ben falls.  A build
runs its layers over the primes that pass at the empty set's state, each
still filtered row by row, and then tests every prime at the state it ended
in, with the least ben over every member it made.  A prime it skipped that
fails there failed at each state the build passed through, so the exact
loop skips it too; should a skipped prime pass, the build runs again over
both.  Under arith.rounding_error = inf every prime passes at once.

bound_loop's budget ladder.  A restart's budget B is rounded up to the
least rung rho*2^(i/4) at or above it that lies below B1 (where there is
none, the budget stays B), and each rung's D(R) is kept in
BenefitTables.dsets, so the n of a bracket share a few sets.  The first
round's budget, rho up to n = 10^10 and rho/2 beyond, is a rung itself, so
a context keeps at most ceil(4*log2(B1/rho)) + 4 sets; B1/rho is about 3
near 10^5.  Domination does not depend on the budget, and that makes the
ladder sound.  A round that settles, B <= R, finds the least witness value
over all prefixes, whatever R is: a witness's value is its member's ben
plus a walk benefit and a slack that are >= 0, so a prefix of smaller value
has ben below B and lies in D(R), unless a larger prefix of no greater l
beats it; that one's witness, with at least as much cost left for its
walk, is larger and of smaller value still.  So B and its witness are
those of the exact-budget loop.  D(R) trimmed to ben <= B is D(B) less the
members that a larger prefix of no greater l, of ben in (B, R], beats, and
none of those can be the prefix of g(n).  Every member it keeps is in D(B):
its partial prefixes have ben <= B too, as benp >= 0.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from mpmath import mp, mpf

from . import arith
from .arith import PrimeFraction, ell_pp, log_int
from .errors import BoundFailureError, CapacityError, InvariantViolation
from .oracle import undominated
from .superchampion import newton_from_above


def dell_pp(p, alpha, gamma):
    """l(p^(alpha+gamma)) - l(p^alpha)."""
    return ell_pp(p, alpha + gamma) - ell_pp(p, alpha)


@dataclass(eq=False)
class PrefixSet:
    """D(B') in ascending value, one array entry per member: its factor
    tuple, its dell as int64, and the build's running float ben with the
    size and factor count that bound its rounding (arith's docstring).  The
    member's mpf ben is BenefitTables.ben_of(fac[i]), formed where read."""

    fac: np.ndarray       # object array of factor tuples
    dell: np.ndarray
    ben: np.ndarray
    ben_size: np.ndarray
    nf: np.ndarray

    def __len__(self):
        return len(self.dell)

    def arrays(self):
        return self.fac, self.dell, self.ben, self.ben_size, self.nf

    def select(self, keep):
        return PrefixSet(*(a[keep] for a in self.arrays()))


class GammaColumns:
    """benp(p, gamma) in float for the small primes p, entry by entry: each
    prime's gamma = -1, -2, ... and then 1, 2, ..., prime i's entries at
    start[i]:start[i + 1], so a direction starts where |gamma| is 1.  cost
    is the exact dell_pp less float(rho)*(gamma*log p) and size the sum of
    its terms' absolute values.  What a member gains by an entry: steps
    stacks cost, size, gamma*log p and its absolute value, counts dell_pp,
    one factor and a zero (a new member keeps its parent's tuple index)."""

    __slots__ = ("prime", "gamma", "steps", "counts", "start")

    def __init__(self, prime, gamma, steps, counts, sp_count):
        self.prime, self.gamma, self.steps, self.counts = prime, gamma, steps, counts
        self.start = np.searchsorted(prime, np.arange(sp_count + 1))

    cost = property(lambda self: self.steps[0])
    size = property(lambda self: self.steps[1])

    def cut(self, b_f):
        """The columns of a build at the budget B' (b_f its float copy): in
        each direction the entries before the first whose float cost exceeds
        B' beyond its rounding bound (arith's docstring)."""
        over = self.cost - b_f > arith.rounding_error(self.size + b_f, 8)
        seen = np.cumsum(over)
        first = np.flatnonzero(np.abs(self.gamma) == 1)  # where a direction starts
        keep = seen == np.repeat(seen[first] - over[first], np.diff(first, append=len(over)))
        return GammaColumns(self.prime[keep], self.gamma[keep], self.steps[:, keep],
                            self.counts[:, keep], len(self.start) - 1)


class BenefitTables:
    """Per-context cache: small-prime benefits ben(N p^gamma), exact and in
    float, the prefix sums of single-prime
    benefits along the walk above/below p_k, and the candidate sets D(B')
    built for a first-round budget or a rung of bound_loop's ladder, by
    budget.

    The small primes, those below sqrt(x1), are a slice of the table, and
    alpha holds their exponents in N.  columns is their float benp table (the
    module docstring).  first_cost and first_size hold, per small prime, the
    least float cost and the largest size of its entries at gamma = -1 and
    1: a member whose ben leaves less than that cost extends by no gamma of
    p (N holds every prime below sqrt(x1), so -1 is open)."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.sp_count = ctx.table.count_upto(int(mp.floor(ctx.sqrt_x1)))
        self.primes = ctx.table.primes[: self.sp_count]
        self._sp = self.primes.tolist()  # for _alpha's bisect
        runs = ctx.N.runs  # by index from 1, so each run cut at sp_count
        self.alpha = np.repeat([j for j, _, _ in runs],
                               [max(0, min(hi, self.sp_count) - lo + 1) for _, lo, hi in runs])
        self._benp = {}
        self.columns = self._benp_table()
        first = np.abs(self.columns.gamma) == 1  # gamma = -1, then 1, per prime
        self.first_cost = self.columns.cost[first].reshape(-1, 2).min(axis=1)
        self.first_size = self.columns.size[first].reshape(-1, 2).max(axis=1)
        self._walk, self._low = [mpf(0)], 0  # walk_ben(w) at index w - _low
        self._walk_f = np.zeros(1)  # its float copies
        self.dsets = {}

    def _benp_table(self):
        """The GammaColumns of every small prime up to B1: gamma = -1, ...,
        -alpha_p at once, each direction's run kept up to its first entry
        over B1, and then gamma = 1, 2, ... round by round over the primes
        still open.  dell_pp stays far below 2^63: a positive entry follows
        one of benp <= B1 < x1, whose power of p lies within a few x1, and
        p < sqrt(x1) < 2^16."""
        p, a, rho, b1 = self.primes, self.alpha, self.ctx.rho, self.ctx.B1
        pa, log_p = p**a, np.fromiter(map(math.log, self._sp), float, len(p))
        rho_f, b1_f = float(rho.value), float(b1)

        def entries(rows, gamma):  # the entries' columns, and which exceed B1
            e = a[rows] + gamma
            d = np.where(e > 0, p[rows] ** e, 0) - pa[rows]  # l(p^0) is 0, not 1
            glog = gamma * log_p[rows]
            r = rho_f * glog
            cost, size = d - r, np.abs(d) + np.abs(r)
            if rho.is_power_event:
                zero = (p[rows] == rho.q) & (gamma == 1)
                cost[zero] = size[zero] = 0.0  # as in benp
            over = arith.guarded_sign(cost - b1_f, arith.rounding_error(size + b1_f, 8), lambda i: (
                self.benp(self._sp[rows[i]], int(gamma[i])) - b1)) > 0
            return [rows, gamma, cost, size, glog, d], over

        start = np.cumsum(a) - a  # of each prime's run of negative entries
        rows = np.repeat(np.arange(len(p)), a)
        neg, over = entries(rows, start[rows] - np.arange(len(rows)) - 1)  # -1, -2, ...
        before = np.cumsum(over) - over  # entries over B1 before each
        parts = [[c[before == before[start[rows]]] for c in neg]]
        rows, gamma = np.arange(len(p)), np.ones(len(p), np.int64)
        while rows.size:
            part, over = entries(rows, gamma)
            parts.append(part)
            rows, gamma = rows[~over], gamma[~over] + 1
        prime, gamma, cost, size, glog, d = map(np.concatenate, zip(*parts))
        order = np.lexsort((np.abs(gamma), gamma > 0, prime))
        steps = np.array([cost, size, glog, np.abs(glog)])[:, order]
        counts = np.array([d, np.ones_like(d), np.zeros_like(d)])[:, order]
        return GammaColumns(prime[order], gamma[order], steps, counts, len(p))

    def _alpha(self, p):
        """Exponent in N of the small prime p."""
        i = bisect_left(self._sp, p)
        if i == self.sp_count or self._sp[i] != p:
            raise ValueError("%d is not a prime below sqrt(x1)" % p)
        return int(self.alpha[i])

    def benp(self, p, gamma):
        """ben restricted to one prime p < sqrt(x1): change its exponent in N
        by gamma (>= -alpha_p)."""
        key = (p, gamma)
        v = self._benp.get(key)
        if v is None:
            alpha = self._alpha(p)
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

    def ben_of(self, factors):
        """ben(N*delta) in mpf for delta's factor tuple: benp summed in
        ascending prime order from mpf(0), the exact loop's chain
        cand.ben + cost bit for bit."""
        return sum((self.benp(p, g) for p, g in factors), mpf(0))

    def walk_ben(self, w):
        """The sum of ben(N p_{k+i}) for i = 1..w when w >= 0 (primes
        appended above p_k), of ben(N / p_{k-i}) for i = 0..-w-1 when w < 0
        (primes peeled off the top), added one prime at a time from 0."""
        ctx, sums = self.ctx, self._walk
        t, rv = ctx.table, ctx.rho.value
        while w - self._low >= len(sums):
            i = self._low + len(sums)
            p = t.prime(ctx.k + i)
            if i == 1 and not ctx.rho.is_power_event and p == ctx.rho.q:
                term = mpf(0)  # appending p_{k+1} is the zero-benefit champion step
            else:
                term = p - rv * log_int(p)
            sums.append(sums[-1] + term)
        while w < self._low:
            p = t.prime(ctx.k + self._low)
            sums.insert(0, sums[0] + rv * log_int(p) - p)
            self._low -= 1
        return sums[w - self._low]

    def walk_ben_f(self, omega):
        """Float copies of walk_ben over an int array omega."""
        self.walk_ben(int(omega.min()))
        self.walk_ben(int(omega.max()))
        if len(self._walk_f) != len(self._walk):
            self._walk_f = np.array([float(v) for v in self._walk])
        return self._walk_f[omega - self._low]


def build_prefix_sets(ctx, b_prime, tables):
    """The candidate set D(B'): all undominated prefix fractions with benefit
    at most B', built one prime at a time with pruning at each step, as a
    PrefixSet: the last layer's arrays, one row per member.

    The layers run over the small primes whose row bound the least float
    ben of the build can meet: at the empty set's state first, then at the
    state the build ended in, until that adds no prime (the module
    docstring).
    """
    if b_prime >= ctx.B1:
        raise BoundFailureError(
            "prefix budget %s is not below B1=%s" % (mp.nstr(b_prime, 10), mp.nstr(ctx.B1, 10))
        )
    if b_prime < 0:
        raise ValueError("budget must be non-negative")
    b_f = float(b_prime)
    d, visit = None, np.zeros(tables.sp_count, dtype=bool)
    ben_min, size_max, nf_max = 0.0, 0.0, 0  # the empty set's
    while True:
        more = (ben_min <= _row_bound(tables, b_f, size_max, nf_max)) & ~visit
        if d is not None and not more.any():
            return d
        visit |= more
        d, (ben_min, size_max, nf_max) = _layers(b_prime, b_f, tables, np.flatnonzero(visit))


def _row_bound(tables, b_f, size_max, nf_max, i=slice(None)):
    """The float ben above which a member extends by no gamma of the small
    primes i, for a build's largest ben size and factor count so far: twice
    the pair bound covers the roundings of this filter.  It does not fall as
    they grow, since rounding to nearest is monotone."""
    slack = 2 * arith.rounding_error(size_max + tables.first_size[i] + b_f, nf_max + 9)
    return b_f - tables.first_cost[i] + slack


def _layers(b_prime, b_f, tables, visit):
    """The layers of D(B') over the small primes of index visit: the last
    layer's PrefixSet, and the build's state (ben_min, size_max, nf_max):
    the least float ben, the largest ben size and the largest factor count
    of every member it made.

    A layer's members are the columns of two arrays: run holds the running
    float ben, its size, the running float log and its size, and ints the
    dell, the factor count and the index of the factor tuple in fac.  A new
    member holds its parent's index until it survives its layer's prune;
    then fac gains its tuple.  Columns are gathered with np.take, several
    times faster than fancy indexing along the second axis."""
    fac = [()]
    run, ints = np.zeros((4, 1)), np.zeros((3, 1), dtype=np.int64)
    ben_min = size_max = log_size_max = 0.0
    nf_max = 0
    cols = tables.columns.cut(b_f)
    for i in visit.tolist():
        rows = np.flatnonzero(run[0] <= _row_bound(tables, b_f, size_max, nf_max, i))
        if not rows.size:
            continue
        p = int(tables.primes[i])
        lo, hi = cols.start[i : i + 2].tolist()
        gammas = cols.gamma[lo:hi].tolist()
        ok = _admitted(p, gammas, cols.steps[:2, lo:hi], np.take(run[:2], rows, axis=1),
                       np.take(ints[1], rows), lambda r: fac[ints[2, rows[r]]],
                       b_prime, b_f, tables)
        # gamma by gamma, each over its parents in order: sorted runs of logs
        j, at = np.divmod(np.flatnonzero(ok), len(rows))
        if not at.size:
            continue
        par = rows[at]
        m = run.shape[1]
        new = np.take(run, par, axis=1) + np.take(cols.steps, lo + j, axis=1)
        new_ints = np.take(ints, par, axis=1) + np.take(cols.counts, lo + j, axis=1)
        ben_min = min(ben_min, float(new[0].min()))
        _, top, _, log_top = new.max(axis=1).tolist()
        size_max, log_size_max = max(size_max, top), max(log_size_max, log_top)
        nf_max = max(nf_max, int(new_ints[1].max()))
        run, ints = np.concatenate((run, new), axis=1), np.concatenate((ints, new_ints), axis=1)
        ext = [((p, g),) for g in gammas]
        factors_of = lambda q: fac[ints[2, q]] + (ext[j[q - m]] if q >= m else ())
        # the exact loop appends each member's extensions after it
        appended = lambda q: (q, 0) if q < m else (int(par[q - m]), 1 + int(j[q - m]))
        order = arith.guarded_order(
            run[2], arith.rounding_error(log_size_max, nf_max + 5),
            lambda q: (PrimeFraction(factors_of(q)).log, appended(q)))
        order = order[undominated(np.take(ints[0], order))]
        run, ints = np.take(run, order, axis=1), np.take(ints, order, axis=1)
        fresh = np.flatnonzero(order >= m)  # the new members that survive
        n_fac = len(fac)
        parents, steps = ints[2, fresh].tolist(), j[order[fresh] - m].tolist()
        fac.extend(fac[a] + ext[b] for a, b in zip(parents, steps))
        ints[2, fresh] = np.arange(n_fac, len(fac))
    tuples = np.fromiter(map(fac.__getitem__, ints[2].tolist()), dtype=object,
                         count=run.shape[1])
    # copies, so a kept set does not keep the rows it no longer reads
    d = PrefixSet(tuples, *(a.copy() for a in (ints[0], run[0], run[1], ints[1])))
    return d, (ben_min, size_max, nf_max)


def _admitted(p, gammas, steps, run, nf, factors, b_prime, b_f, tables):
    """Mask over p's columns x members, for the columns' gammas and their
    float costs and sizes (steps) and the members of a layer that may extend
    (run holds their float bens and sizes, nf their factor counts and
    factors(r) member r's factor tuple), of the (gamma, member) pairs the
    exact loop admits: in each direction the gammas before the first whose
    benp exceeds B' - ben.  arith.guarded_sign decides every pair at once:
    the float excess ben + benp - B' beyond its rounding bound, and inside
    it benp - (B' - ben) in mpf, whose sign is the exact loop's test, as
    mpf subtraction keeps the sign."""
    excess = steps[0][:, None] + run[0] - b_f
    err = arith.rounding_error(steps[1][:, None] + run[1] + abs(b_f), nf + 9)
    width, room = excess.shape[1], {}  # B' - ben by member, formed once

    def exact(i):
        k, r = divmod(i, width)
        if r not in room:
            room[r] = b_prime - tables.ben_of(factors(r))
        return tables.benp(p, gammas[k]) - room[r]

    ok = arith.guarded_sign(excess, err, exact) <= 0
    for k in range(1, len(ok)):  # each direction ends at its first refusal
        if abs(gammas[k]) != 1:
            ok[k] &= ok[k - 1]
    return ok


class Bound:
    """A benefit bound B of one n, as estimate_B finds it, with its witness
    and t1, the root of t - rho*log t + B in (rho, x1].

    The witness is N*delta_omega for the member delta of D(B'), given by its
    factor tuple, and the walk omega; its PrimeFraction is built where read.
    t1 is read through a float bracket (lo, hi), certified on its first
    read, and the mpf t1 is solved on its first read, which only a read the
    bracket leaves open makes: a round of bound_loop that does not settle
    pays for neither.  f(t) = t - rho*log t + B is negative exactly between
    its two roots, t1 the larger: Newton's method in float from x1 finds t1
    to a few ulps, the ends lie 2^-40 of it to either side, and
    arith.guarded_sign decides the sign of f at each (arith's docstring), so
    f(lo) < 0 < f(hi) puts t1 strictly between them."""

    def __init__(self, ctx, B, member, omega):
        self.ctx, self.B, self.member, self.omega = ctx, B, member, omega

    @cached_property
    def witness(self):
        """The correction M/N achieving the bound."""
        return _walk_fraction(self.ctx, PrimeFraction(self.member), self.omega)

    @cached_property
    def bracket(self):
        """Floats lo < hi with t1 strictly between them, or None."""
        rho, B = self.ctx.rho.value, self.B
        rho_f, b_f = float(rho), float(B)
        t = float(self.ctx.x1)
        for _ in range(50):
            step = (t - rho_f * math.log(t) + b_f) / (1 - rho_f / t)
            t -= step
            if abs(step) <= t * 2**-50:
                break

        def sign(x):
            log_x = math.log(x)
            return arith.guarded_sign(
                x - rho_f * log_x + b_f, arith.rounding_error(x + rho_f * abs(log_x) + b_f, 8),
                lambda: x - rho * mp.log(x) + B)

        lo, hi = t * (1 - 2**-40), t * (1 + 2**-40)
        return (lo, hi) if sign(lo) < 0 < sign(hi) else None

    @cached_property
    def t1(self):
        """t1 in mpf.  x1 solves x = rho*log x, so f is B >= 0 at x1, and
        it is convex and increasing on (rho, x1]: Newton's method from x1."""
        rho = self.ctx.rho.value
        return newton_from_above(lambda t: (t - rho * mp.log(t) + self.B, 1 - rho / t),
                                 self.ctx.x1)

    @cached_property
    def _q(self):  # rho/t at the bracket's ends lo and hi
        return tuple(float(self.ctx.rho.value) / x for x in self.bracket)

    @cached_property
    def _denom(self):  # 1 - rho/t1 in mpf
        d = 1 - self.ctx.rho.value / self.t1
        if d <= 0:
            raise InvariantViolation("t1 at or below rho")
        return d

    def primes_below_t1(self):
        """The number of primes p < t1, that is below ceil(t1): the
        bracket's ends decide ceil(t1) when their ceilings agree."""
        if self.bracket:
            lo, hi = map(math.ceil, self.bracket)
            if lo == hi:
                return self.ctx.table.count_upto(lo - 1)
        return self.ctx.table.count_upto(int(mp.ceil(self.t1)) - 1)

    def fits(self, m, b):
        """m*(1 - rho/t1) <= b, for an integer m >= 0 and an mpf b.

        1 - rho/t grows with t, so m*(1 - rho/hi) <= b decides True and
        m*(1 - rho/lo) > b decides False, each beyond its rounding bound
        (arith's docstring); inside it, the mpf t1 decides.  m = 0 is
        decided by the sign of b."""
        if not m:
            return b >= 0
        if self.bracket:
            q_lo, q_hi = self._q
            b_f = float(b)
            err = arith.rounding_error(m + m * q_lo + abs(b_f), 8)
            if m - m * q_hi - b_f < -err:
                return True
            if m - m * q_lo - b_f > err:
                return False
        return m <= b / self._denom

    def weak_window(self):
        """The largest m with fits(m, B): a float guess moved by fits, which
        does not hold again once it fails as m grows."""
        q = self._q[1] if self.bracket else float(self.ctx.rho.value / self.t1)
        m = math.floor(float(self.B) / (1 - q))
        while m and not self.fits(m, self.B):
            m -= 1
        while self.fits(m + 1, self.B):
            m += 1
        return m


def estimate_B(ctx, d_set, n, tables):
    """Upper bound B >= ben g(n) + n - l(g(n)) from the best witness
    N*delta_omega with the candidates' primes extended along the champion
    walk, as a Bound.

    d_set is a PrefixSet.  Every walk is found at once and every witness
    valued in float from the member's running float ben; the mpf value,
    which is the bound, is computed for the candidates within the rounding
    bound of the float minimum, and the first exact minimum wins.
    """
    if not d_set:
        raise InvariantViolation("empty candidate set")
    cs = ctx.table.cumulative
    k = ctx.k
    s_k = int(cs[k - 1])
    c = (n - ctx.ellN) - d_set.dell
    up = c >= 0
    # one past the walk: the first CS > s_k + c when appending p_{k+1}, ...,
    # the first CS >= s_k + c when peeling p_k, p_{k-1}, ... until the cost
    # drops below n; so omega = idx - k and S_omega = CS[idx - 1] - s_k
    idx = np.searchsorted(cs, s_k + c + up, side="left")
    if np.any(idx[up] == len(cs)):
        raise CapacityError("champion walk reaches the end of the prime table")
    # a peel must leave the primes below sqrt(x1): forget the candidate
    keep = np.flatnonzero(up | (idx >= tables.sp_count))
    if not keep.size:
        raise BoundFailureError("no candidate admits a witness with l <= n")
    idx = idx[keep]
    omega = idx - k
    slack = c[keep] - (cs[idx - 1] - s_k)  # n - l(N delta_omega)
    walk_f = tables.walk_ben_f(omega)
    value = d_set.ben[keep] + walk_f + slack
    err = arith.rounding_error(d_set.ben_size[keep] + np.abs(walk_f) + np.abs(slack),
                               d_set.nf[keep] + 10)
    best = None
    for i in np.flatnonzero(value - err <= np.min(value + err)).tolist():
        v = tables.ben_of(d_set.fac[keep[i]]) + tables.walk_ben(int(omega[i])) + int(slack[i])
        if best is None or v < best:
            best, best_i = v, i
    if best >= ctx.B1:
        raise BoundFailureError(
            "benefit bound %s reached B1=%s" % (mp.nstr(best, 10), mp.nstr(ctx.B1, 10))
        )
    return Bound(ctx, best, d_set.fac[keep[best_i]], int(omega[best_i]))


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


def bound_loop(ctx, n, tables):
    """Iterate D(B') -> B until B <= B', then trim D to benefit <= B: the
    settled Bound and D(B).  The trim reads each member's running float ben,
    and its mpf ben only within the float's rounding bound of B.

    B is always a valid bound; a second round only enlarges the candidate
    pool, so the loop settles after at most one restart in practice.  A
    restart's budget is the least rung of the ladder at or above B (the
    module docstring); the first round's D(B') and each rung's are kept in
    tables.dsets for the other n of the bracket.
    """
    b_prime, keep = initial_budget(ctx, n), True
    for _ in range(8):
        if b_prime >= ctx.B1:
            raise BoundFailureError(
                "budget %s reached B1=%s" % (mp.nstr(b_prime, 10), mp.nstr(ctx.B1, 10))
            )
        d_set = tables.dsets.get(b_prime)
        if d_set is None:
            d_set = build_prefix_sets(ctx, b_prime, tables)
            if keep:
                tables.dsets[b_prime] = d_set
        res = estimate_B(ctx, d_set, n, tables)
        if res.B <= b_prime:
            if res.B < b_prime:
                d_set = _trim(d_set, res.B, tables)
            return res, d_set
        rung = _rung(ctx, res.B)
        b_prime, keep = (res.B, False) if rung is None else (rung, True)
    raise InvariantViolation("benefit bound loop failed to settle")


def _rung(ctx, b):
    """The least rung rho*2^(i/4) >= b, for b > 0, or None when it is not
    below B1.  i is the ceiling of x = 4*log2(b/rho), read off the float x
    beyond its rounding bound (arith's docstring) and settled on mpf rungs
    inside it."""
    rho = ctx.rho.value
    rung = lambda i: rho * mpf(2) ** (mpf(i) / 4)
    x = 4 * math.log2(float(b) / float(rho))
    i = math.ceil(x)
    if min(i - x, x + 1 - i) <= arith.rounding_error(4 + abs(x), 3):
        while rung(i - 1) >= b:
            i -= 1
        while rung(i) < b:
            i += 1
    r = rung(i)
    return r if r < ctx.B1 else None


def _trim(d_set, B, tables):
    """The members with ben <= B: the float difference ben - B decides
    beyond its rounding bound (arith's docstring), the mpf ben inside it."""
    b_f = float(B)
    sign = arith.guarded_sign(d_set.ben - b_f,
                              arith.rounding_error(d_set.ben_size + abs(b_f), d_set.nf + 7),
                              lambda i: tables.ben_of(d_set.fac[i]) - B)
    return d_set.select(sign <= 0)

import itertools
import json
import math
import os
import random

import numpy as np
import pytest
from mpmath import mp

from landau import arith, gfunction
from landau.errors import InvariantViolation
from landau.arith import PrimeFraction
from landau.gfunction import TRIAL_WIDTH, GEngine, _UptoEntry, _Window, check_fraction
from landau.primes import PrimeTable, _simple_sieve, auto_limit
from landau.superchampion import build_e2_table, find_context

from oracles import (confirm_segments, delta1_reference, entry_steps, g_small, h_window_rows,
                     h_window_steps, line_test_signs)

POOL_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "pool.json")


@pytest.fixture(scope="module")
def engine(table1m):
    return GEngine(table1m)


def test_known_values(engine):
    f = g_small(engine, 103, 22)[22]
    assert f.factors == ((97, -1), (101, -1), (107, 1), (113, 1))
    f = g_small(engine, 107, 12)[12]
    assert f.factors == ((97, -1), (109, 1))
    assert engine.g_fraction(103, 22) == PrimeFraction.from_factors(
        {107: 1, 113: 1, 101: -1, 97: -1})


def test_below_first_gap_is_one(engine):
    assert engine.g_fraction(7, 3).is_one()
    assert engine.g_fraction(3923, 5).is_one()


def test_odd_budget_equals_even(engine):
    r = g_small(engine, 997, 200)
    for m in range(1, 200, 2):
        assert r[m] == r[m - 1]


def test_nondecreasing_and_cost(engine):
    r = g_small(engine, 997, 300)
    prev = None
    for m in range(0, 301):
        f = r[m]
        assert f.ell <= m
        v = (f.numerator(), f.denominator())
        if prev is not None:
            assert v[0] * prev[1] >= prev[0] * v[1]
        prev = v


def brute_G(table, pk, m):
    pk_idx = table.rank(pk)
    lows = [table.prime(i) for i in range(2, pk_idx + 1)][::-1]
    highs = []
    i = pk_idx + 1
    while table.prime(i) <= pk + m:
        highs.append(table.prime(i))
        i += 1
    best = (1, 1)
    for s in range(1, min(len(lows), len(highs)) + 1):
        feasible_any = False
        for Q in itertools.combinations(highs, s):
            if sum(Q) - sum(lows[:s]) > m:
                continue
            feasible_any = True
            for q in itertools.combinations(lows, s):
                if sum(Q) - sum(q) <= m and all(
                    a > b for a, b in zip(sorted(Q), sorted(q))
                ):
                    num = den = 1
                    for x in Q:
                        num *= x
                    for x in q:
                        den *= x
                    if num * best[1] > best[0] * den:
                        best = (num, den)
        if not feasible_any:
            break
    return best


def test_bruteforce_equivalence(engine, table1m):
    _check_against_bruteforce(engine, table1m)


def test_forced_exact_matches_bruteforce(table1m, forced_exact):
    # every float-log comparison of the window recursion decided exactly
    _check_against_bruteforce(GEngine(table1m), table1m)


def _check_against_bruteforce(engine, table):
    for pk in (13, 31, 103):
        cap = min(60, table.next_prime(pk) - 3)
        r = g_small(engine, pk, cap)
        for m in range(0, cap + 1):
            want = brute_G(table, pk, m)
            assert (r[m].numerator(), r[m].denominator()) == want
            f = engine.g_fraction(pk, m)
            assert (f.numerator(), f.denominator()) == want


def test_widen_matches_full_window(engine, table1m):
    # g_fraction's confirmed truncated window against the full window
    rng = random.Random(43)
    primes = [table1m.prime(i) for i in range(3, table1m.count_upto(1000) + 1)]
    for pk in rng.sample(primes, 30):
        cap = min(200, table1m.next_prime(pk) - 3)
        full = g_small(engine, pk, cap)
        for m in rng.sample(range(cap + 1), 12):
            assert engine.g_fraction(pk, m) == full[m]


def _entry(table, pk_idx, lo_idx, rhat_idx, M):
    """The table of the window over table indices lo_idx..rhat_idx, grown
    to its last row."""
    window = _Window(table, pk_idx, lo_idx, rhat_idx, M)
    window.grow(rhat_idx)
    return _UptoEntry(pk_idx, M, window)


def _counted_walks(monkeypatch):
    """The columns _UptoEntry.walk is asked for, in order."""
    walks = []
    walk = _UptoEntry.walk

    def counted(self, c):
        walks.append(c)
        return walk(self, c)

    monkeypatch.setattr(_UptoEntry, "walk", counted)
    return walks


def test_widen_example_uses_narrow_window():
    t = PrimeTable.build(200000)
    eng = GEngine(t)
    pk_idx = t.rank(150989)
    entry = eng._g_upto(pk_idx, 1200)
    # the full window up to p_k + cap holds 115 primes above p_k; the
    # largest-prime bound certifies the first 35 suffice on all of [0, cap]
    assert entry.cap == 1280
    assert t.count_upto(150989 + entry.cap) - pk_idx == 115
    assert entry.rhat_idx - pk_idx == 35
    full = g_small(eng, 150989, 1200)
    assert [eng._extract(entry, m) for m in range(1201)] == full
    assert eng.g_fraction(150989, 1200) == full[1200]


def test_widening_continues_the_trial_rows(monkeypatch):
    # the trial's 10 rows are the first 10 of the 35-row window, so widening
    # appends 25 rows, one guard each, where starting over made 45
    t = PrimeTable.build(200000)
    eng = GEngine(t)
    pk_idx = t.rank(150989)
    guards = []
    rounding_error = arith.rounding_error

    def counted(size, steps):
        guards.append(steps)
        return rounding_error(size, steps)

    monkeypatch.setattr(arith, "rounding_error", counted)
    entry = eng._g_upto(pk_idx, 1200)
    assert entry.cap == 1280 and entry.rhat_idx - pk_idx == 35
    assert len(guards) == 35
    lo_idx = eng._low_idx(t.next_prime(150989), 1280)
    assert entry_steps(entry) == h_window_steps(t, pk_idx, lo_idx, pk_idx + 35, 1280)


def test_one_walk_per_table(monkeypatch):
    # the rows decide the widening from 10 to 35 rows, and no column is
    # walked back until it is read
    t = PrimeTable.build(200000)
    eng = GEngine(t)
    pk_idx = t.rank(150989)
    walks = _counted_walks(monkeypatch)
    entry = eng._g_upto(pk_idx, 1200)
    assert walks == [] and entry.rhat_idx == pk_idx + 35
    lo_idx = eng._low_idx(t.next_prime(150989), 1280)
    assert entry_steps(entry) == h_window_steps(t, pk_idx, lo_idx, pk_idx + 35, 1280)
    assert walks == list(range(641))


def test_extend_refuses_a_column_short_of_its_primes(table1m):
    # the last column's bits of the last row cleared at every offset: that
    # column never takes its J-th prime and its read runs off the row
    # still owing it
    eng = GEngine(table1m)
    pk_idx = table1m.rank(7919)
    lo_idx = eng._low_idx(table1m.next_prime(7919), 256)
    window = _Window(table1m, pk_idx, lo_idx, pk_idx + 12, 256)
    window.grow(pk_idx + 12)
    c = window.H - 1
    window.bits[12, :, c >> 3] &= np.uint8(~(1 << (7 - (c & 7))) & 0xFF)
    entry = _UptoEntry(pk_idx, 256, window)
    with pytest.raises(InvariantViolation, match="other than 12 primes"):
        eng._extract(entry, 2 * c)


def test_one_g_fraction_makes_one_segment_fraction(table1m, monkeypatch):
    # a fresh engine's table keeps the final window's J + 1 rows of bits
    # and K + J primes; one g_fraction walks back the one column it reads
    # and caches that column's fraction alone
    eng = GEngine(table1m)
    walks = _counted_walks(monkeypatch)
    eng.g_fraction(150989, 1201)
    (entry,) = eng._upto.values()
    J = entry.rhat_idx - entry.pk_idx
    assert entry.bits.shape[0] == J + 1 and len(entry.Pl) == entry.K + J
    assert walks == [600] and list(entry.fracs) == [600]
    assert eng.g_fraction(150989, 1200) == eng._extract(entry, 1201) and walks == [600]


def _need_cases(table, count):
    """(p_k index, cap, the trial and a wider top index, window) for seeded
    p_k, each window over the primes up to p_k + cap."""
    eng = GEngine(table)
    rng = random.Random(59)
    idx = range(table.count_upto(5000), table.count_upto(900000))
    for pk_idx in rng.sample(idx, count):
        cap = rng.randrange(256, 1281)
        lo_idx = eng._low_idx(table.prime(pk_idx + 1), cap)
        top = eng._full_top_idx(pk_idx, cap)
        widths = (TRIAL_WIDTH, TRIAL_WIDTH + rng.randrange(5, 25))
        yield pk_idx, cap, [min(pk_idx + w, top) for w in widths], _Window(
            table, pk_idx, lo_idx, top, cap)


def _check_need(table, count, monkeypatch):
    """need against the reference over the walked steps at the trial and a
    wider width; the number of columns need settled on exact products."""
    exact_cols = []
    exact = _Window._exact

    def counted(self, j, o, i):
        exact_cols.append(i)
        return exact(self, j, o, i)

    for pk_idx, cap, tops, window in _need_cases(table, count):
        for rhat_idx in tops:
            window.grow(rhat_idx)
            steps = entry_steps(_UptoEntry(pk_idx, cap, window))
            with monkeypatch.context() as m:
                m.setattr(_Window, "_exact", counted)
                got = window.need(cap)
            assert got == confirm_segments(table, pk_idx, steps, rhat_idx, cap), (
                table.prime(pk_idx), cap, rhat_idx - pk_idx)
    return len(exact_cols)


def test_need_matches_reference(table1m, monkeypatch):
    # the widening decided from the last row's floats: the float path alone
    # decides every column of these windows
    assert _check_need(table1m, 30, monkeypatch) == 0


def test_need_matches_reference_under_forced_exact(table1m, forced_exact, monkeypatch):
    # with an infinite guard every column that can reach the largest need
    # takes the exact path; the rows settle every column, so fewer p_k
    assert _check_need(table1m, 8, monkeypatch) > 0


def test_need_holds_within_the_guard(table1m, monkeypatch):
    # need is the reference's value for any last row whose floats lie
    # within its guard: under a coarse bound, every column of the last row
    # but the top set's moves by up to 0.9 of that guard
    monkeypatch.setattr(arith, "rounding_error", lambda size, steps: size * steps * 2.0**-30)
    rng = np.random.default_rng(61)
    for pk_idx, cap, tops, window in _need_cases(table1m, 10):
        for rhat_idx in tops:
            window.grow(rhat_idx)
            steps = entry_steps(_UptoEntry(pk_idx, cap, window))
            row = window.row[window.K]
            kept = row.copy()
            row[1:] += rng.uniform(-0.9, 0.9, len(row) - 1) * window.guard
            assert window.need(cap) == confirm_segments(table1m, pk_idx, steps, rhat_idx, cap)
            row[:] = kept


@pytest.mark.parametrize("off", [-1, 1])
def test_need_takes_the_exact_floor(table1m, monkeypatch, off):
    # a float floor of m/f one too low or one too high fails one end of its
    # two-sided check at every column that reads it, so need takes the
    # exact floor there
    floor, read = np.floor, []

    def planted(a):
        read.append(len(a))
        return floor(a) + off

    for pk_idx, cap, tops, window in _need_cases(table1m, 10):
        for rhat_idx in tops:
            window.grow(rhat_idx)
            steps = entry_steps(_UptoEntry(pk_idx, cap, window))
            with monkeypatch.context() as m:
                m.setattr(np, "floor", planted)
                got = window.need(cap)
            assert got == confirm_segments(table1m, pk_idx, steps, rhat_idx, cap)
    assert sum(read) > 0


def test_band_matches_reference_under_forced_exact(table1m, forced_exact):
    # with an infinite guard every column holding a finite candidate is
    # settled on exact products over the band [lo_j, K]; here the band
    # starts past offsets with no feasible value from row 2 on
    t = table1m
    eng = GEngine(t)
    pk_idx = t.rank(7919)
    lo_idx = eng._low_idx(t.next_prime(7919), 1200)
    K = pk_idx - lo_idx + 1
    empty = [sum(not row[j + o] for o in range(K + 1))
             for j, row in enumerate(h_window_rows(t, pk_idx, lo_idx, pk_idx + 40, 1200), 1)]
    assert empty[0] == 0 and all(e > 0 for e in empty[1:])
    entry = _entry(t, pk_idx, lo_idx, pk_idx + 40, 1200)
    assert entry_steps(entry) == h_window_steps(t, pk_idx, lo_idx, pk_idx + 40, 1200)


def test_extract_checks_the_cost_against_the_segment_start(table1m, monkeypatch):
    # a column whose set differs from the column's before starts a
    # segment, and its set costs exactly 2c; that set read one column to
    # the left is one step over that column's budget
    eng = GEngine(table1m)
    entry = eng._g_upto(table1m.rank(150989), 1200)
    ms, _ = entry_steps(entry)
    assert len(ms) > 100 and [eng._extract(entry, m).ell for m in ms] == ms
    c = ms[len(ms) // 2] // 2
    walk = _UptoEntry.walk
    monkeypatch.setattr(_UptoEntry, "walk", lambda self, i: walk(self, c if i == c - 1 else i))
    entry.fracs.clear()
    with pytest.raises(InvariantViolation, match="cost"):
        eng._extract(entry, 2 * c - 2)


@pytest.mark.parametrize("width", [10, 35])
def test_window_matches_reference_150989(width):
    # the G(150989, 2593) window of n = 10^9 at cap 2816: 1401 steps
    t = PrimeTable.build(200000)
    eng = GEngine(t)
    pk_idx = t.rank(150989)
    lo_idx = eng._low_idx(t.next_prime(150989), 2816)
    entry = _entry(t, pk_idx, lo_idx, pk_idx + width, 2816)
    assert entry_steps(entry) == h_window_steps(t, pk_idx, lo_idx, pk_idx + width, 2816)


def test_window_matches_reference_at_1e14():
    # the widened window at n = 103613071095758 (p_k = 60041573, cap 768,
    # 40 primes at or below p_k, 45 above): logs of whole products, with a
    # guard sized by log P, tie within it here about 7,000 times, where the
    # offset logs tie nowhere
    lo, hi = 60041573 - 2000, 60041573 + 2000
    sieve = np.ones(hi - lo, dtype=bool)
    for p in _simple_sieve(math.isqrt(hi)).tolist():
        sieve[(-lo) % p :: p] = False
    t = PrimeTable(hi - 1, np.flatnonzero(sieve) + lo)  # local prime indices
    eng = GEngine(t)
    pk_idx = t.rank(60041573)
    lo_idx = eng._low_idx(t.next_prime(60041573), 768)
    assert pk_idx - lo_idx + 1 == 40
    entry = _entry(t, pk_idx, lo_idx, pk_idx + 45, 768)
    assert entry_steps(entry) == h_window_steps(t, pk_idx, lo_idx, pk_idx + 45, 768)


def test_sandwich_invariant(engine, table1m):
    rng = random.Random(47)
    for _ in range(60):
        pk = table1m.prime(rng.randint(3, 1000))
        pk1 = table1m.next_prime(pk)
        m = rng.randint(0, min(400, pk1 - 3))
        f = engine.g_fraction(pk, m)
        num, den = f.numerator(), f.denominator()
        q = table1m.next_prime(pk1 - m - 1)
        if q <= pk:
            assert num * q >= den * pk1
        assert num * (pk1 - m) <= den * pk1
        assert f.ell <= m
        # the two bounds from ratios of extreme terms
        if not f.is_one():
            S, Q_s, q_s = f.ell, f.factors[-1][0], f.factors[0][0]
            assert num * (Q_s - S) <= den * Q_s  # F <= Q_s/(Q_s - S)
            assert mp.log(num) - mp.log(den) <= mp.mpf(S) / q_s


def test_delta1_basics(engine, table1m):
    d1 = engine.delta1(10007)
    assert d1 % 2 == 0 and d1 >= table1m.max_gap_upto(10007)
    for p in (9973, 99991, 899981):
        d = engine.delta1(p)
        assert d % 2 == 0
        assert d <= 2.55 * math.log(p) ** 2


def test_delta1_cache_stays_within_its_cap(table1m):
    # more primes than the cache keeps: it never holds more than its cap,
    # and an evicted prime's delta1 is computed again to the same value
    eng = GEngine(table1m)
    primes = table1m.primes[2 : gfunction.DELTA1_ENTRIES + 12].tolist()  # 5, 7, ...
    first = {}
    for p in primes:
        first[p] = eng.delta1(p)
        assert len(eng._delta1) <= gfunction.DELTA1_ENTRIES
    assert primes[0] not in eng._delta1
    assert eng.delta1(primes[0]) == first[primes[0]]


def _upto_entries(eng):
    return {k: (e.cap, e.rhat_idx) + entry_steps(e) for k, e in eng._upto.items()}


def _delta1_matches_the_reference(table, primes):
    # each on a fresh engine: the same values, from the same G tables
    for p in primes:
        eng, ref = GEngine(table), GEngine(table)
        assert eng.delta1(p) == delta1_reference(ref, p), p
        assert _upto_entries(eng) == _upto_entries(ref), p


def _seeded_primes(table, count, seed):
    rng = random.Random(seed)
    return [table.next_prime(rng.randrange(5, 10**6 - 3000)) for _ in range(count)]


def test_delta1_matches_the_reference_at_seeded_primes(table1m):
    _delta1_matches_the_reference(table1m, _seeded_primes(table1m, 200, 23))


def test_delta1_matches_the_reference_under_forced_exact(table1m, forced_exact):
    _delta1_matches_the_reference(table1m, _seeded_primes(table1m, 20, 29))


@pytest.fixture(scope="module")
def cold_pool_pk1():
    """The table of the cold-1e14 benchmark pool and p_{k+1} of each of its
    n's contexts."""
    with open(POOL_PATH) as f:
        pool = sorted(map(int, json.load(f)["cold-1e14"]["cost_s"]))
    table = PrimeTable.build(auto_limit(pool[-1]))
    e2 = build_e2_table(pool[-1] + 10, table)
    return table, sorted({table.next_prime(find_context(n, table, e2).p_k) for n in pool})


def test_delta1_matches_the_reference_at_the_cold_pool(cold_pool_pk1):
    table, primes = cold_pool_pk1
    assert len(primes) >= 30
    _delta1_matches_the_reference(table, primes)


def test_delta1_matches_the_reference_at_the_cold_pool_under_forced_exact(cold_pool_pk1,
                                                                         forced_exact):
    table, primes = cold_pool_pk1
    _delta1_matches_the_reference(table, primes[::8])


def test_line_test_decides_as_the_integers(cold_pool_pk1, monkeypatch):
    # delta1's tables at seeded primes from 10^5 to the cold-1e14 pool's
    # largest p_{k+1}, and at the pool's own: every column up to cap is
    # decided as the integers decide it, with the sign 0 exactly where G
    # lies on the line, as a single swap of p_k for the prime p_k + d
    # does, and the floats leave a column open exactly there; under an
    # infinite guard every column is open and settles on the integers, to
    # the same delta1 values and signs (at a third of the primes: the window
    # rows settle every column too)
    table, pool = cold_pool_pk1
    rng = random.Random(67)
    primes = [table.next_prime(int(10 ** rng.uniform(5, math.log10(pool[-1])))) for _ in range(12)]
    primes += pool[::2]
    values, signs, opened = line_test_signs(table, primes)
    assert sum(map(len, signs)) > 5000
    assert all((s == 0) == on_line for of_p in signs for s, on_line in of_p)
    assert opened == [[on_line for _, on_line in of_p] for of_p in signs]
    monkeypatch.setattr(arith, "rounding_error", lambda size, steps: math.inf)
    exact_values, exact_signs, exact_opened = line_test_signs(table, primes[::3])
    assert all(map(all, exact_opened))
    assert exact_values == values[::3] and exact_signs == signs[::3]


def _swap_top(chain, tops, prev):  # the least prime, a low one, for a top the set takes already
    taken = [q for q in chain if q in tops]
    return tuple(sorted(chain[1:] + (taken[0],))) if taken and chain[0] not in tops else None


def _previous_column(chain, tops, prev):  # a cheaper set, feasible but not optimal
    return prev if prev != chain else None


@pytest.mark.parametrize("plant, refusal", [
    (_swap_top, "unbalanced"),
    (lambda chain, tops, prev: (2,) + chain[1:], "bands"),
    (lambda chain, tops, prev: (3,) + chain[:-1] if chain[-1] in tops else None, "cost"),
    (_previous_column, "log"),
])
def test_delta1_refuses_a_corrupted_segment(table1m, monkeypatch, plant, refusal):
    # a column of the G table that g_fraction reads, planted with a set
    # that the read refuses, raises from g_fraction and not a value: three
    # sets check_fraction refuses, and one that passes it but lies off its
    # row's float log.  delta1 reads no set outside the float line test's
    # bound, so the plant sits where a read must walk
    p = 99991
    eng = GEngine(table1m)
    entry = eng._g_upto(table1m.rank(p), 256)
    tops = set(entry.Pl[entry.K :])
    sets = [tuple(entry.walk(c)) for c in range(entry.cap // 2 + 1)]
    gap = table1m.next_prime(p) - p
    c = next(c for c in range((gap + 1) // 2, len(sets)) if plant(sets[c], tops, sets[c - 1]))
    planted = plant(sets[c], tops, sets[c - 1])
    walk = _UptoEntry.walk
    monkeypatch.setattr(_UptoEntry, "walk",
                        lambda self, i: list(planted) if i == c else walk(self, i))
    with pytest.raises(InvariantViolation, match=refusal):
        eng.g_fraction(p, 2 * c)


def test_g_large_exact_prime_case(engine, table1m):
    # when p_{k+1} - m is prime and budget 0 works, the value is pinned
    pk = 99991
    pk1 = table1m.next_prime(pk)
    d1 = engine.delta1(pk1)
    m = None
    q = None
    for cand in range(9 * d1 // 2 + 1, 9 * d1 // 2 + 4000):
        if cand % 2 == 0 and table1m.is_prime(pk1 - cand):
            m, q = cand, pk1 - cand
            break
    f = engine.g_large(pk, m)
    assert f.factors == ((q, -1), (pk1, 1))


def test_g_large_agrees_with_small(engine):
    pk = 9973
    d1 = engine.delta1(engine.table.next_prime(pk))
    lo = -(-9 * d1 // 2)
    r = g_small(engine, pk, 1200)
    for m in range(lo + (lo & 1), 1201, 2):
        assert engine.g_large(pk, m) == r[m]


def test_g_large_rejects_small_m(engine):
    with pytest.raises(ValueError):
        engine.g_large(9973, 10)


def test_gfraction_check():
    def check(factors, p_k, m):
        check_fraction(PrimeFraction.from_factors(factors), p_k, m)

    with pytest.raises(InvariantViolation):
        check({11: 1, 13: 1, 7: -1}, 7, 100)
    with pytest.raises(InvariantViolation):
        check({11: 1, 13: -1}, 7, 100)
    with pytest.raises(InvariantViolation):  # a q taken twice
        check({11: 1, 13: 1, 7: -2}, 7, 100)
    with pytest.raises(InvariantViolation):
        check({11: 1, 13: 1, 7: -1, 5: -1}, 7, 11)
    check({11: 1, 13: 1, 7: -1, 5: -1}, 7, 100)


def test_domain_errors(engine, table1m):
    pk1 = table1m.next_prime(9973)
    with pytest.raises(ValueError):
        engine.g_fraction(9973, pk1 - 2)
    with pytest.raises(ValueError):
        engine.g_fraction(9973, -1)

import math
import random
import tracemalloc

import pytest
from mpmath import mp, mpf

from landau import arith, superchampion
from landau.arith import log_int
from landau.errors import CapacityError
from landau.oracle import g_list_merge_prune
from landau.primes import PrimeTable, auto_limit
from landau.superchampion import (
    LOG_CHUNK,
    LOG_GROUP,
    Champion,
    Rho,
    _run_ends,
    _solve_x1,
    _solve_x2,
    b1,
    build_e2_table,
    find_context,
)

from conftest import extended
from oracles import e2_table_heap, run_ends, threshold_champion, xj_thresholds

COLD_N = 103613071095758  # an n of the cold benchmark workload

FIG2 = [(1, 0), (3, 3), (6, 5), (12, 7), (60, 12), (420, 19), (4620, 30), (60060, 43)]


@pytest.fixture(scope="module")
def e2_1e5(table1m):
    return build_e2_table(10**5, table1m)


def test_e2_first_rows(e2_1e5):
    rows = [(e.q, e.j, e.p, e.ell) for e in e2_1e5]
    assert rows[0] == (2, 2, 3, 7)
    assert rows[4] == (5, 2, 47, 368)
    assert rows[10] == (3, 4, 271, 7453)


def test_e2_table_needs_a_prime_past_its_fence(table1m):
    # the fence entry's p is 587: a sieve holding a prime above it builds
    # the table, and a sieve ending at 587 raises
    fresh = build_e2_table(20000, table1m)
    assert fresh[-1].p == 587
    assert build_e2_table(20000, PrimeTable.build(600)) == fresh
    with pytest.raises(CapacityError):
        build_e2_table(20000, PrimeTable.build(588))


def test_find_context_small(table1m, e2_1e5):
    ctx = find_context(12, table1m, e2_1e5)
    assert ctx.N.to_int() == 60 and ctx.ellN == 12
    assert mpf(5) / mp.log(5) <= ctx.rho.value <= mpf(7) / mp.log(7)
    ctx = find_context(43, table1m, e2_1e5)
    assert ctx.N.to_int() == 60060 and ctx.ellN == 43
    ctx = find_context(7, table1m, e2_1e5)
    assert ctx.N.to_int() == 12 and ctx.ellN == 7


def test_find_context_1e6(table1m):
    e2 = build_e2_table(10**6, table1m)
    ctx = find_context(10**6, table1m, e2)
    assert ctx.ellN == 998093
    assert ctx.N.render() == "2^9 * 3^6 * 5^4 * 7^3 * [11-41]^2 * [43-3923]"


def test_find_context_needs_bracket(table1m, e2_1e5):
    with pytest.raises(CapacityError):
        find_context(10**9, table1m, e2_1e5)
    with pytest.raises(ValueError):
        find_context(6, table1m, e2_1e5)


def test_champion_bracket_invariants(table1m, e2_1e5):
    rng = random.Random(3)
    for n in rng.sample(range(7, 10**5), 40):
        ctx = find_context(n, table1m, e2_1e5)
        assert ctx.ellN <= n < ctx.ell_nplus
        assert ctx.p_k < ctx.x1 <= table1m.next_prime(ctx.p_k)
        assert 2 < ctx.x2 < ctx.sqrt_x1 < ctx.rho.value < ctx.x1
        assert ctx.B1 > 0
        _alpha_matches_thresholds(ctx)


def _alpha_matches_thresholds(ctx):
    """Every prime up to the first past x_1 has the exponent the threshold
    formula gives: the number of the reference's x_j above it.  Each x_j is
    read once, as the number of primes below it."""
    t = ctx.N.table
    primes = t.primes[: ctx.k + 1].tolist()
    want = [0] * len(primes)
    for x in xj_thresholds(ctx.rho):
        for i in range(min(_primes_below(t, x), len(primes))):
            want[i] += 1
    got = [ctx.N.alpha(p) for p in primes]
    assert got == want, next(p for p, a, b in zip(primes, got, want) if a != b)


def _primes_below(t, x):
    """The number of primes p with x.greater_than_int(p): a count up to
    the floor of x, settled in mpf at its boundary primes alone."""
    c = t.count_upto(x.exact - 1 if x.exact is not None else int(mp.floor(x.value)))
    while c and not x.greater_than_int(t.prime(c)):
        c -= 1
    while x.greater_than_int(t.prime(c + 1)):
        c += 1
    return c


def test_alpha_matches_thresholds_at_scale(table1m):
    e2 = build_e2_table(10**9, table1m)
    for n in (10**6, 10**9):
        _alpha_matches_thresholds(find_context(n, table1m, e2))
    table = PrimeTable.build(auto_limit(10**12))
    _alpha_matches_thresholds(find_context(10**12, table, build_e2_table(10**12, table)))
    # a power-event slope: rho = (q^j - q^(j-1))/log q with j >= 2
    ctx = next(c for c in (find_context(e.ell, table1m, e2) for e in e2[1:] if e.j >= 2)
               if c.rho.j >= 2)
    _alpha_matches_thresholds(ctx)


def test_xj_thresholds():
    xs = xj_thresholds(Rho(5, 1))
    assert xs[0].exact == 5
    assert xs[1].value > 2
    xs = xj_thresholds(Rho(7, 1))
    assert xs[0].exact == 7
    N = threshold_champion(PrimeTable.build(100), xs)
    assert N.to_int() == 60  # the champion just below the slope 7/log 7
    with pytest.raises(ValueError):
        xj_thresholds(Rho(3, 1))


def test_xj_residuals(table1m):
    for rho in (Rho(3929, 1), Rho(3, 4), Rho(150991, 1)):
        xs = xj_thresholds(rho)
        for j, x in enumerate(xs, start=1):
            if x.exact is not None:
                continue
            if j == 1:
                resid = abs(x.value / mp.log(x.value) - rho.value)
            else:
                resid = abs((x.value**j - x.value ** (j - 1)) / mp.log(x.value) - rho.value)
            assert resid <= mpf(10) ** (-20) * rho.value


def test_b1_examples():
    assert abs(b1(mpf(25), mpf("4.2")) - mpf("7.5")) < mpf("1e-20")
    assert abs(b1(mpf(100), mpf(3)) - 3) < mpf("1e-20")


def test_champion_equals_g_of_its_cost(table1m, e2_1e5):
    lst = g_list_merge_prune(10**4)
    for m, l in FIG2:
        assert lst.query(l) == m
    # every champion cost <= 1e4 is a fixed point of g
    n = 7
    while n < 10**4:
        ctx = find_context(n, table1m, e2_1e5)
        assert lst.query(ctx.ellN) == ctx.N.to_int()
        n = ctx.ell_nplus


def test_divisibility_chain(table1m, e2_1e5):
    # consecutive champions differ by one prime, exponents non-increasing
    prev_ctx = None
    n = 7
    while n < 3000:
        ctx = find_context(n, table1m, e2_1e5)
        if prev_ctx is not None:
            a, b = prev_ctx.N.to_int(), ctx.N.to_int()
            assert b % a == 0
            q = b // a
            assert table1m.is_prime(q)
        prev_ctx = ctx
        alphas = [ctx.N.alpha(table1m.prime(i)) for i in range(1, ctx.k + 1)]
        assert alphas == sorted(alphas, reverse=True)
        assert all(a >= 1 for a in alphas)
        n = ctx.ell_nplus


def test_first_ten_thousand_champions_chain():
    # enumerate the first 1e4 champion steps: each multiplies in one prime
    # (a fresh exponent-1 prime between events, the event's q at an event)
    table = PrimeTable.build(3 * 10**5)
    e2 = build_e2_table(5 * 10**8, table)
    steps = []  # (ell_after, q, new_exponent)
    ei = 0
    ell = 3
    steps.append((3, 3, 1))
    p_idx = 2
    while len(steps) < 10**4:
        e = e2[ei]
        nxt = table.rank(e.p)
        while p_idx < nxt and len(steps) < 10**4:
            p_idx += 1
            p = table.prime(p_idx)
            ell += p
            steps.append((ell, p, 1))
        if len(steps) >= 10**4:
            break
        ell += e.q**e.j - e.q ** (e.j - 1) + (2 if (e.q, e.j) == (2, 2) else 0)
        steps.append((ell, e.q, e.j))
        assert ell == e.ell
        ei += 1
    # sampled exact verification: consecutive champions differ by that prime
    rng = random.Random(5)
    for i in rng.sample(range(3, len(steps) - 1), 40):
        ell_lo, _, _ = steps[i]
        ell_hi, q, j = steps[i + 1]
        if ell_lo < 7:
            continue
        a = find_context(ell_lo, table, e2)
        b = find_context(ell_hi, table, e2)
        assert a.ellN == ell_lo and b.ellN == ell_hi
        assert b.N.alpha(q) == j and a.N.alpha(q) == j - 1
        for p in (2, 3, 5, 101, 1009):
            if p != q:
                assert a.N.alpha(p) == b.N.alpha(p)


def test_event_table_leaves_probe_logs_out_of_the_cache(table1m, monkeypatch):
    # the searches for each event's last exponent-1 prime probe primes once;
    # only the slopes' own primes q belong in the log cache, also when every
    # probe is decided by mp.log
    e2 = build_e2_table(10**9, table1m)
    seeded = table1m.count_upto(max(e.q for e in e2)) + 1  # one seeded beyond
    monkeypatch.setattr(arith, "rounding_error", lambda size, steps: math.inf)
    log_int.cache_clear()
    assert build_e2_table(10**9, table1m) == e2
    assert log_int.cache_info().currsize <= seeded < 100


CRITERION_CHAMPIONS = {
    10**6: "2^9 * 3^6 * 5^4 * 7^3 * [11-41]^2 * [43-3923]",
    10**9: "2^14 * 3^9 * 5^6 * 7^5 * [11-13]^4 * [17-31]^3 * [37-263]^2 * [269-150989]",
    10**12: "2^18 * 3^12 * 5^8 * 7^6 * [11-13]^5 * [17-31]^4 * [37-113]^3 * [127-1613]^2"
            " * [1619-5476469]",
}


def test_thresholds_newton_from_above(monkeypatch):
    # x_1 starts at 2 rho log rho and x_2 at or below x_1; every root takes
    # at most 10 logs (the bisection it replaced took over 80), a context
    # solves x_1 and x_2 alone, each unless it is the slope's own prime, and
    # the champions at the criterion points stay
    from landau import superchampion

    log, solve = type(mp).log, superchampion.newton_from_above
    calls, per_root = [], []

    def counting_log(mpctx, *args, **kwargs):
        calls.append(args)
        return log(mpctx, *args, **kwargs)

    def counted(f, x):
        before = len(calls)
        root = solve(f, x)
        per_root.append(len(calls) - before)
        return root

    table = PrimeTable.build(auto_limit(10**12))
    e2 = build_e2_table(10**12, table)
    monkeypatch.setattr(type(mp), "log", counting_log)
    monkeypatch.setattr(superchampion, "newton_from_above", counted)
    for n, render in CRITERION_CHAMPIONS.items():
        before = len(per_root)
        ctx = find_context(n, table, e2)
        assert ctx.N.render() == render
        assert len(per_root) - before == (ctx.rho.j != 1) + (ctx.rho.j != 2)
    assert max(per_root) <= 10


def _matches_reference(ctx):
    """ctx's runs are those of the champion whose run j ends below the
    reference's x_j, and x1, x2, B1 and sqrt_x1 are the reference's roots."""
    xs = xj_thresholds(ctx.rho)
    assert ctx.N.runs == threshold_champion(ctx.table, xs).runs, ctx.rho
    x1, x2 = xs[0].value, xs[1].value
    assert (ctx.x1, ctx.x2, ctx.B1, ctx.sqrt_x1) == (x1, x2, b1(x1, x2), mp.sqrt(x1)), ctx.rho


def _event_slope_n(e2):
    """For each event but the first, the n whose context has the event's
    slope: the cost of the champion just below it.  The first slope,
    (2^2 - 2)/log 2, is below 5/log 5."""
    return [e.ell - (e.q**e.j - e.q ** (e.j - 1)) for e in e2[1:]]


def _matches_reference_at_event_slopes(e2, table):
    for e, n in zip(e2[1:], _event_slope_n(e2)):
        ctx = find_context(n, table, e2)
        assert (ctx.rho.q, ctx.rho.j) == (e.q, e.j)
        _matches_reference(ctx)


def _seeded_n(count):
    rng = random.Random(21)
    return [int(10 ** rng.uniform(3, 12)) for _ in range(count)]


def test_runs_match_the_reference_at_event_slopes(table1m, e2_1e9):
    _matches_reference_at_event_slopes(e2_1e9, table1m)


def test_runs_match_the_reference_on_seeded_n(tables_by_scale, e2_1e12):
    table = tables_by_scale[10**12]
    for n in _seeded_n(200):
        _matches_reference(find_context(n, table, e2_1e12))


def test_runs_match_the_reference_under_forced_exact(tables_by_scale, e2_1e12, table1m, e2_1e9,
                                                      forced_exact, monkeypatch):
    # with no float slope trusted, every slope test of j >= 3 is settled in
    # mpf; each context makes one but the event (2, 3), whose run 3 is its own
    calls = []
    probe = superchampion._slope_below
    monkeypatch.setattr(superchampion, "_slope_below",
                        lambda *a: calls.append(a) or probe(*a))
    went = {}
    cases = [(n, tables_by_scale[10**12], e2_1e12) for n in _seeded_n(200)[::10]]
    cases += [(n, table1m, e2_1e9) for n in _event_slope_n(e2_1e9[:40])]
    for n, table, e2 in cases:
        before = len(calls)
        ctx = find_context(n, table, e2)
        went[ctx.rho.q, ctx.rho.j] = len(calls) > before
        _matches_reference(ctx)
    assert len(went) == 20 + 39
    assert [rho for rho, mpf_ran in went.items() if not mpf_ran] == [(2, 3)]


def _planted(value):
    """A slope of the given value that is no event: no run ends at a prime
    of its own."""
    rho = Rho(2, 0)
    rho._value = value
    return rho


@pytest.mark.parametrize("side", [1, -1])
def test_slope_test_settles_a_planted_near_tie(table1m, monkeypatch, side):
    # rho within 2^-60 of 59's slope at j = 3, (59^3 - 59^2)/log 59, far
    # inside the float test's rounding bound: the mpf test decides, and 59
    # has exponent 3 exactly when rho lies above its slope
    calls = []
    probe = superchampion._slope_below
    monkeypatch.setattr(superchampion, "_slope_below",
                        lambda *a: calls.append(a[0]) or probe(*a))
    rho = _planted(mpf(59**3 - 59**2) / mp.log(59) * (1 + side * mpf(2) ** -60))
    x1 = _solve_x1(rho)
    ends = _run_ends(table1m, rho, x1, _solve_x2(rho, x1))
    assert 59 in calls
    assert ends[2] == table1m.rank(59) - (side < 0)
    assert ends == run_ends(threshold_champion(table1m, xj_thresholds(rho)))


@pytest.fixture(scope="module")
def e2_1e9(table1m):
    return build_e2_table(10**9, table1m)


@pytest.fixture(scope="module")
def e2_1e12(tables_by_scale):
    return build_e2_table(10**12, tables_by_scale[10**12])


@pytest.fixture(scope="module")
def tables_by_scale(table1m):
    return {10**6: table1m, 10**12: PrimeTable.build(auto_limit(10**12)),
            COLD_N: PrimeTable.build(auto_limit(COLD_N))}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("ell_limit, scale", [
    # 7, 10 and 100 take the first events, where p / log p falls from 2 to 3
    # and the (2, 2) slope equals the prime 2's slope 2 / log 2
    (7, 10**6), (10, 10**6), (100, 10**6), (10**4, 10**6), (10**9, 10**6),
    (10**12, 10**12), (COLD_N, COLD_N)])
def test_event_table_matches_the_heap_merge(tables_by_scale, request, exact, ell_limit, scale):
    if exact:  # every slope run and every prime probe settled in mpf
        request.getfixturevalue("forced_exact")
    table = tables_by_scale[scale]
    assert build_e2_table(ell_limit, table) == e2_table_heap(ell_limit, table)


def test_event_table_raises_where_the_heap_merge_raises():
    # Solver grows its sieve on the CapacityError, so both builds must run
    # out of primes at the same event
    def outcome(build, ell_limit, table):
        try:
            return build(ell_limit, table)
        except CapacityError:
            return "past the sieve"

    for limit in (3, 5, 30, 100, 588, 600, 5000):
        table = PrimeTable.build(limit)
        for ell_limit in (7, 100, 20000, 10**6):
            assert (outcome(build_e2_table, ell_limit, table)
                    == outcome(e2_table_heap, ell_limit, table)), (limit, ell_limit)


def test_event_table_doubles_a_short_slope_bound(table1m, monkeypatch):
    bounds = []

    def short(ell_limit):
        bounds.append(ell_limit)
        return 3.0  # below every slope but the (2, 2) one

    fresh = build_e2_table(10**6, table1m)
    monkeypatch.setattr(superchampion, "_slope_bound", short)
    assert build_e2_table(10**6, table1m) == fresh and bounds == [10**6]


def test_event_table_peak_memory_is_a_fraction_of_the_table():
    # the build reads the primes through views and small index arrays; a
    # float searchsorted needle would copy the whole table to float64
    t = PrimeTable.build(10**7)
    tracemalloc.start()
    try:
        build_e2_table(10**12, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t.primes.nbytes / 8, (peak, t.primes.nbytes)


@extended
def test_event_table_matches_the_heap_merge_1e15():
    table = PrimeTable.build(auto_limit(10**15))
    e2 = build_e2_table(10**15, table)
    assert len(e2) == 1339 and e2 == e2_table_heap(10**15, table)


@extended
def test_runs_match_the_reference_at_event_slopes_1e15():
    table = PrimeTable.build(auto_limit(10**15))
    e2 = build_e2_table(10**15, table)
    assert len(e2) == 1339
    _matches_reference_at_event_slopes(e2, table)


def _approx_log_within_its_bound(champion):
    v, err = champion.approx_log()
    assert abs(mpf(v) - champion.log) <= err, (champion, v, err)
    # and the bound is tight: the rounding of 2^11 + R + 11 steps over at most
    # twice v, plus 2^-18 per blocked prime and unit of its exponent, the cap
    # on the chord-Jensen half-width that arith's docstring derives
    blocked = sum(j * max(0, hi - max(lo - 1, LOG_CHUNK)) for j, lo, hi in champion.runs)
    cap = arith.rounding_error(2 * v, LOG_CHUNK // LOG_GROUP + len(champion.runs) + 11)
    assert err <= cap + blocked * 2.0**-18, (champion, err, cap, blocked)


def test_approx_log_within_its_bound(tables_by_scale, e2_1e9, e2_1e12, table1m):
    # the float log against the mpf log, at champions of every scale (the
    # 10^12 one's exponent-1 run crosses the head), at a power-event slope,
    # and at runs cut at every kind of length: shorter than a group, a
    # multiple of it, neither, past LOG_CHUNK with a short group at the end
    # of the head, starting past LOG_CHUNK, and ending in a block of one
    # prime (blocks [2^16, 2^16 + 256) and [2^16 + 256, 2^16 + 257))
    table12 = tables_by_scale[10**12]
    power = next(c for c in (find_context(n, table1m, e2_1e9) for n in _event_slope_n(e2_1e9))
                 if c.rho.j >= 2)
    champions = [find_context(10**6, table1m, e2_1e9).N, find_context(10**9, table1m, e2_1e9).N,
                 find_context(10**12, table12, e2_1e12).N, power.N]
    assert any(hi - lo + 1 > LOG_CHUNK for c in champions for _, lo, hi in c.runs)
    assert champions[2].runs[-1][1] <= LOG_CHUNK < champions[2].k
    for ends in ([5], [LOG_GROUP], [37], [100, 40, 7, 3],
                 [LOG_CHUNK + 2 * LOG_GROUP + 34, 2 * LOG_GROUP + 1],
                 [LOG_CHUNK + 500, LOG_CHUNK + 3], [LOG_CHUNK + 257]):
        champions.append(Champion(table1m, ends))
    lengths = {hi - lo + 1 for c in champions[4:] for _, lo, hi in c.runs}
    assert {5, 3, LOG_GROUP, 37, 33, 2 * LOG_GROUP + 1, LOG_CHUNK + 33} <= lengths
    assert champions[-2].runs == [(2, 1, LOG_CHUNK + 3), (1, LOG_CHUNK + 4, LOG_CHUNK + 500)]
    for champion in champions:
        _approx_log_within_its_bound(champion)


@extended
def test_approx_log_within_its_bound_1e15():
    table = PrimeTable.build(auto_limit(10**15))
    _approx_log_within_its_bound(find_context(10**15, table, build_e2_table(10**15 + 10, table)).N)

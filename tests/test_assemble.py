import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from landau.arith import DEFAULT_PRECISION, PrimeFraction, set_precision
from landau import assemble
from landau.assemble import Solver, fight, normalized_candidates
from landau.benefit import BenefitTables, Bound, initial_budget
from landau.errors import CapacityError, InvariantViolation, PrefixGapError
from landau.gfunction import g_floor
from landau.oracle import g_list_merge_prune
from landau.superchampion import Champion

from conftest import extended
from oracles import mpf_bound, normalized_candidates_loop


@pytest.fixture(scope="module")
def solver():
    return Solver(limit_hint=2 * 10**6)


def test_matches_oracle_to_3000(solver):
    lst = g_list_merge_prune(3000)
    for n in range(3000):
        assert solver.compute(n).to_int() == lst.query(n)


def test_small_n_served_by_oracle(solver):
    for n, want in ((0, 1), (1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 6)):
        res = solver.compute(n)
        assert res.from_oracle and res.to_int() == want


def test_oracle_fallback_confined_below_166(solver):
    fallback = [n for n in range(7, 2485) if solver.compute(n).from_oracle]
    assert fallback, "some tiny n are known to defeat the benefit bound"
    assert max(fallback) <= 165


def test_golden_1e6(solver):
    res = solver.compute(10**6)
    assert res.context.ellN == 998093
    assert res.correction.factors == ((43, 1), (3847, -1), (3947, 1))
    assert res.ell_g == 999999
    assert solver.compute(10**6 - 1).correction == res.correction


def test_result_consistency(solver):
    rng = random.Random(53)
    lst = g_list_merge_prune(10**4)
    for n in rng.sample(range(7, 10**4), 60):
        res = solver.compute(n)
        assert res.to_int() == lst.query(n)
        assert res.ell_g <= n
        # the reported cost is the true additive cost of the value
        fac = {}
        if res.champion is not None:
            for p, j in res.champion.iter_factors():
                fac[p] = j
        for p, e in res.correction.factors:
            fac[p] = fac.get(p, 0) + e
        assert all(e >= 0 for e in fac.values())
        assert sum(p**e for p, e in fac.items() if e) == res.ell_g
        with mp.workdps(40):
            want = sum(e * mp.log(p) for p, e in fac.items()) / mp.log(10)
            assert abs(res.log10_g - want) < mpf(10) ** (-24) * max(1, want)


def test_max_prime_factor_skips_a_prime_the_correction_removes(solver):
    res = solver.compute(10**6)  # p_k = 3923
    assert res.max_prime_factor() == 3947
    removed = replace(res, correction=PrimeFraction.from_factors({2: 1, 3923: -1}))
    assert removed.max_prime_factor() == 3919


def test_champion_fixed_points(table1m):
    solver = Solver(limit_hint=10**6)
    from landau.superchampion import build_e2_table

    e2 = build_e2_table(10**6, table1m)
    rng = random.Random(59)
    ells = [e.ell for e in e2 if 7 <= e.ell <= 10**6]
    for l in rng.sample(ells, 12):
        res = solver.compute(l)
        assert res.correction.is_one()
        assert res.ell_g == l == res.context.ellN


def test_monotone_spot_check(solver):
    rng = random.Random(61)
    prev = None
    for n in range(55000, 56000):
        res = solver.compute(n)
        v = res.correction  # same champion across this stretch or compare ints
        if prev is not None:
            assert res.to_int() >= prev
        prev = res.to_int()


def test_fight_single_candidate_passthrough(solver):
    res = solver.compute(10**6)
    if len(res.candidates) == 1:
        assert res.survivors == res.candidates
    only = [res.candidates[0]]
    assert fight(only, res.context) == only


def test_fight_eliminates_strictly_dominated(solver):
    # across windows of n, every surviving candidate's upper bound reaches
    # the best lower bound, and the evaluated maximum is among survivors
    for n in list(range(999990, 10**6 + 10)) + list(range(998500, 998600)):
        res = solver.compute(n)
        assert 1 <= len(res.survivors) <= len(res.candidates)
        best_low = max(c.lower for c in res.survivors)
        for c in res.survivors:
            assert c.upper >= best_low
        _check_survivors_exactly(res)


def _check_survivors_exactly(res):
    # each candidate's bounds are Pi * g_floor and Pi * g_ceiling, and a
    # candidate survives iff its upper bound reaches the best lower bound
    t = res.context.table
    for c in res.candidates:
        pi = Fraction(c.Pi.numerator(), c.Pi.denominator())
        pk1 = t.next_prime(c.base_prime)
        assert c.lower == pi * g_floor(t, c.base_prime, pk1, c.m_suffix)
        assert c.upper == pi * Fraction(pk1, pk1 - c.m_suffix) >= c.lower
    best = max(c.lower for c in res.candidates)
    assert res.survivors == [c for c in res.candidates if c.upper >= best]


def test_normalized_candidates_examples(solver):
    res = solver.compute(998555)
    got = sorted(c.Pi.render() or "1" for c in res.candidates)
    assert got == sorted(["1", "41^-1 * 43", "2^-1 * 5^-1 * 11"])


def _pairs(walk, ctx, bound, d_set, n, tables):
    """walk's (delta, omega, m_suffix, Pi) list, or the type of its error."""
    try:
        return [(c.delta, c.omega, c.m_suffix, c.Pi)
                for c in walk(ctx, bound, d_set, n, tables)]
    except (CapacityError, InvariantViolation, PrefixGapError) as e:
        return type(e)


def _same_pairs(ctx, bound, d_set, n, tables):
    got = _pairs(normalized_candidates, ctx, bound, d_set, n, tables)
    assert got == _pairs(normalized_candidates_loop, ctx, bound, d_set, n, tables), n
    return got


def _prefix_runs(solver, ns):
    """(ctx, bound, D(B), n, tables) for each n."""
    out = []
    for n in ns:
        bound, d_set = solver.prefixes(n)
        ctx, tables = solver.context(n)
        out.append((ctx, bound, d_set, n, tables))
    return out


@pytest.fixture(scope="module")
def crit7_runs(solver):
    return _prefix_runs(solver, range(998001, 10**6 + 1))


def test_normalized_candidates_match_the_loop(solver, crit7_runs):
    runs = _prefix_runs(Solver(limit_hint=151000), range(150001, 151001)) + crit7_runs
    assert sum(len(_same_pairs(*run)) for run in runs) == 1074 + 2549  # pairs per window
    rng = random.Random(113)
    for scale in (10**9, 10**12):
        ns = [scale + rng.randrange(10**6) for _ in range(4)]
        for run in _prefix_runs(Solver(limit_hint=max(ns)), ns):
            assert isinstance(_same_pairs(*run), list)
    n = 103613071095758  # from the cold-1e14 bench pool
    (run,) = _prefix_runs(Solver(limit_hint=n), [n])
    assert isinstance(_same_pairs(*run), list)


def test_normalized_candidates_match_the_loop_where_t1_binds(crit7_runs):
    # t1 at a prime near p_k, and just above and below it: the floor on
    # p_{k+omega+1} >= t1 cuts the walk, which the real t1 never does
    binds = 0
    for ctx, bound, d_set, n, tables in crit7_runs[::50]:
        real = _same_pairs(ctx, bound, d_set, n, tables)
        for i in range(ctx.k - 1, ctx.k + 3):
            p = ctx.table.prime(i)
            for t1 in (p - mpf(2) ** -60 * p, mpf(p), p + mpf(2) ** -60 * p):
                stub = mpf_bound(bound, t1=t1)
                got = _same_pairs(ctx, stub, d_set, n, tables)
                binds += got != real
    assert binds > 0


def test_normalized_candidates_match_the_loop_at_the_weak_window_edge(crit7_runs):
    # B placed so that hi - S_omega = floor(W), W = B/(1 - rho/t1), for a
    # pair the sharpened window keeps: the weak window's lowest pair
    edges = 0
    for ctx, bound, d_set, n, tables in crit7_runs[::20]:
        denom = 1 - ctx.rho.value / bound.t1
        for c in normalized_candidates(ctx, bound, d_set, n, tables):
            if c.ben_Pi < denom / 2:
                stub = mpf_bound(bound, B=(c.m_suffix + mpf(1) / 2) * denom + c.ben_Pi,
                                 t1=bound.t1)
                got = _same_pairs(ctx, stub, d_set, n, tables)
                assert (c.delta, c.omega, c.m_suffix, c.Pi) in got
                edges += 1
    assert edges > 0
    # a member whose ben is far below zero, which no D(B) holds: the
    # sharpened window is then wider than the weak one, which decides alone
    kept = 0
    for ctx, bound, d_set, n, tables in crit7_runs[::20]:
        top = d_set.select([-1])
        low = tables.ben_of(top.fac[0]) - 10 * ctx.p_k
        stub = BenefitTables(ctx)
        stub.ben_of = lambda f: low
        kept += isinstance(_same_pairs(ctx, bound, top, n, stub), list)
    assert kept > 0


def test_candidate_count_fig4_row_1e6(solver):
    res = solver.compute(10**6 + 366)
    assert len(res.d_set) == 51
    ratio = res.bound.B / res.context.rho.value
    assert abs(ratio - mpf("0.9186")) < mpf("0.005") * mpf("0.9186")


def test_compute_g_one_shot():
    res = Solver(limit_hint=420).compute(420)
    assert res.to_int() == g_list_merge_prune(420).query(420)


def test_rejects_negative():
    with pytest.raises(ValueError):
        Solver(limit_hint=100).compute(-1)


def test_ascending_n_rebuild_geometrically(tmp_path, monkeypatch):
    # each growth at least doubles the covered n, so 50 ascending n over
    # [2e4, 7e4) build the event table 3 times, not 50; under a fixed sieve
    # limit too, where 20 n over [2e4, 4e4) build it twice
    from landau import assemble

    real = assemble.build_e2_table
    e2_builds = []

    def counting(ell_limit, table):
        e2_builds.append(ell_limit)
        return real(ell_limit, table)

    monkeypatch.setattr(assemble, "build_e2_table", counting)
    solver = Solver(cache_dir=str(tmp_path))
    tables = []
    ns = range(20000, 70000, 1000)
    lst = g_list_merge_prune(ns[-1])
    for n in ns:
        assert solver.compute(n).to_int() == lst.query(n)
        if not tables or solver.table is not tables[-1]:
            tables.append(solver.table)
    assert e2_builds == [20000, 40000, 80000]
    assert len(tables) == 3
    assert [f.name for f in tmp_path.iterdir()] == ["sieve.npz"]

    e2_builds.clear()
    solver = Solver(sieve_limit=2 * 10**6)
    for n in range(20000, 40000, 1000):
        assert solver.compute(n).to_int() == lst.query(n)
    assert e2_builds == [20000, 40000]


def test_fixed_sieve_limit_too_small_to_double():
    # the event table for twice the covered n needs primes past this sieve
    # once n passes ~291000: it is then built for n itself
    solver = Solver(sieve_limit=3000)
    for n, covered in ((200000, 200000), (300000, 400000), (450000, 450000), (500000, 500000)):
        assert solver.compute(n).correction == Solver().compute(n).correction
        assert solver._covered == covered


def test_precision_change_rebuilds_contexts():
    # a Solver reused across set_precision gives what a fresh one gives
    reused = Solver(limit_hint=2 * 10**6)
    ns = (10**6, 998555)
    try:
        for digits in (30, 60, DEFAULT_PRECISION):
            set_precision(digits)
            fresh = Solver(limit_hint=2 * 10**6)
            for n in ns:
                assert reused.compute(n).log10_g == fresh.compute(n).log10_g
    finally:
        set_precision(DEFAULT_PRECISION)


def test_forced_exact_matches_oracle(forced_exact, champion_list):
    # every fast comparison decided by its exact fallback
    solver = Solver(limit_hint=2 * 10**6)
    for n in range(99800, 10**5 + 1):
        assert solver.compute(n).to_int() == champion_list.query(n)
    assert solver.compute(10**6).correction.factors == ((43, 1), (3847, -1), (3947, 1))
    for n in range(998500, 998600):  # 61 of these n have 2 or 3 candidates
        _check_survivors_exactly(solver.compute(n))


# a warm window of sweep-1e5, and n near 10^6: 998093 = l(N) has B = 0, and
# at 998003 the witness's own pair has m = 0 and ben(N*Pi) = B; then two n
# of distinct-1e9, each on a fresh Solver
FLOAT_EXACT_NS = list(range(150001, 151001)) + [998003, 998093, 10**6 - 1, 10**6, 10**6 + 366]
FLOAT_EXACT_COLD = [10**9, 1000064448]


def _choices():
    """Per n of FLOAT_EXACT_NS, on one warm Solver, and of FLOAT_EXACT_COLD:
    g(n), B, the witness, the (delta, omega, m_suffix) of the candidates and
    of the survivors, and the number evaluated."""
    warm = Solver(limit_hint=10**6 + 366)
    runs = [(warm, n) for n in FLOAT_EXACT_NS] + [(Solver(limit_hint=n), n) for n in FLOAT_EXACT_COLD]
    pairs = lambda cands: [(c.delta, c.omega, c.m_suffix) for c in cands]
    out = []
    for solver, n in runs:
        res = solver.compute(n)
        out.append((n, res.correction, res.bound.B, res.bound.witness,
                    pairs(res.candidates), pairs(res.survivors), res.evaluated))
    return out


@pytest.fixture(scope="module")
def float_choices():
    """_choices on the float paths, and the verdicts that Bound.fits gave
    for m > 0 on the bounds whose mpf t1 was never solved."""
    verdicts = []
    fits = Bound.fits

    def recording(bound, m, b):
        out = fits(bound, m, b)
        if m:
            verdicts.append((bound, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Bound, "fits", recording)
        choices = _choices()
    return choices, {out for bound, out in verdicts if "t1" not in bound.__dict__}


def test_float_paths_choose_what_the_exact_paths_choose(float_choices, forced_exact):
    # with every rounding bound infinite, each read the floats decided (the
    # D(B') build, estimate_B, the trim, the bracket's two ends in fits,
    # check_bounds) is decided exactly, and every choice is the same
    choices, float_verdicts = float_choices
    assert float_verdicts == {True, False}  # both ends of fits decided in floats
    assert _choices() == choices


def test_g_cache_stays_within_its_cap(monkeypatch, champion_list):
    # n spread over [10^4, 10^5) read more per-prime G tables than the cache
    # keeps; the evicted ones are rebuilt and every answer stays the oracle's
    from landau import gfunction

    built = set()

    class Recording(gfunction._UptoEntry):
        def __init__(self, pk_idx, *args):
            built.add(pk_idx)
            super().__init__(pk_idx, *args)

    monkeypatch.setattr(gfunction, "_UptoEntry", Recording)
    solver = Solver(limit_hint=10**5)
    rng = random.Random(5)
    for n in (rng.randrange(10**4, 10**5) for _ in range(300)):
        assert solver.compute(n).to_int() == champion_list.query(n)
        assert len(solver.engine._upto) <= gfunction.UPTO_ENTRIES
    assert len(built) > gfunction.UPTO_ENTRIES


def _outcome(res):
    return (res.correction, res.ell_g, res.evaluated,
            [(c.Pi, c.m_suffix, c.lower, c.upper) for c in res.survivors])


def test_results_do_not_depend_on_call_history(champion_list):
    # n out of order through one Solver: far more brackets and per-prime G
    # tables than its caches keep, so both evict; each answer equals the
    # oracle's, and a fresh Solver's candidates and evaluations
    rng = random.Random(15)
    ns = rng.sample(range(2485, 10**5 + 1), 400)
    solver = Solver()
    for i, n in enumerate(ns):
        res = solver.compute(n)
        assert res.to_int() == champion_list.query(n), n
        if i % 8 == 0:
            assert _outcome(res) == _outcome(Solver().compute(n)), n


def test_short_sieve_grows_to_the_default_answer(monkeypatch):
    # an automatic limit far too short: every read past it grows the sieve
    # (at least doubling it) until the run fits, and the answer is the default's
    from landau import assemble

    want = {n: Solver(limit_hint=n).compute(n) for n in (10**6, 10**9)}
    monkeypatch.setattr(assemble, "auto_limit", lambda n: 1000)
    for n, res in want.items():
        solver = Solver(limit_hint=n)
        got = solver.compute(n)
        assert (got.correction, got.ell_g, got.context.ellN) == (
            res.correction, res.ell_g, res.context.ellN)
        assert solver.table.limit in {1000 * 2**i for i in range(1, 12)}


def test_fixed_short_sieve_limit_never_changes_the_answer():
    # a fixed sieve_limit is a hard cap: at every short cap the run either
    # raises CapacityError or returns the default's answer
    n = 10**6
    want = Solver(limit_hint=n).compute(n).correction
    outcomes = set()
    for cap in range(3900, 5200, 37):
        try:
            got = Solver(sieve_limit=cap).compute(n).correction
        except CapacityError:
            outcomes.add("capacity")
            continue
        assert got == want, cap
        outcomes.add("answer")
    assert outcomes == {"capacity", "answer"}


class _CountingLog:
    """Champion.log, counting its evaluations."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = Champion.log.fget

        def log(champion):
            self.calls += 1
            return real(champion)

        monkeypatch.setattr(Champion, "log", property(log))


def test_cold_compute_and_to_int_skip_the_exact_champion_log(monkeypatch):
    spy = _CountingLog(monkeypatch)
    res = Solver(limit_hint=10**6).compute(10**6)
    assert res.to_int() % 3947 == 0
    assert spy.calls == 0
    # log10_g is computed on access, from the exact log
    assert mp.nstr(res.log10_g, 25) == "1699.395237142470003972748"
    assert spy.calls == 1


def _skips_the_exact_champion_log(monkeypatch, ns):
    # compute's check_bounds and the champion's digit budget decide on the
    # float log, its blocks' enclosure included, with no exact log
    spy = _CountingLog(monkeypatch)
    for n in ns:
        res = Solver(limit_hint=n).compute(n)
        with pytest.raises(CapacityError):
            res.champion.to_int(digit_budget=1000)
    assert spy.calls == 0


def test_compute_and_to_int_skip_the_exact_champion_log_1e12(monkeypatch):
    _skips_the_exact_champion_log(monkeypatch, [10**12])


@extended
def test_compute_and_to_int_skip_the_exact_champion_log_1e15(monkeypatch):
    # the 10^15 golden and five n of the cold benchmark pool near 10^14
    _skips_the_exact_champion_log(monkeypatch, [10**15, 100132841509487, 101286958684663,
                                                102845161009768, 103613071095758,
                                                104759925815269])


def test_check_bounds_exact_path_same_verdict(forced_exact, monkeypatch):
    spy = _CountingLog(monkeypatch)
    solver = Solver(limit_hint=10**6)
    for n in (2485, 55555, 10**6):
        res = solver.compute(n)  # runs check_bounds, every comparison exactly
        res.check_bounds()
    assert spy.calls == 3 * 2 * 2  # both log bounds, in compute and again


class _Placed:
    """A champion whose float log is placed at `v` with error `err` and
    whose exact log is `log`; everything else is the real champion's."""

    def __init__(self, champion, v, err, log):
        self._champion = champion
        self._approx = (v, err)
        self.exact_reads = 0
        self._log = log

    def approx_log(self):
        return self._approx

    @property
    def log(self):
        self.exact_reads += 1
        return self._log

    def __getattr__(self, name):
        return getattr(self._champion, name)


def test_result_inside_the_guard_of_the_majorant_goes_exact():
    # the float log of g(n) sits half its error below the majorant and the
    # exact log a quarter above it: only the exact path sees the violation
    n = 10**6
    res = Solver(limit_hint=n).compute(n)
    root = mp.sqrt(n * mp.log(n))
    maj = root * (1 + (mp.log(mp.log(n)) - mpf("0.975")) / (2 * mp.log(n)))
    corr = res.correction.log
    err = 1e-6 * float(maj)
    placed = _Placed(res.champion, float(maj - corr) - err / 2, err,
                     maj - corr + mpf(err) / 4)
    with pytest.raises(InvariantViolation, match="majorant"):
        replace(res, champion=placed).check_bounds()
    assert placed.exact_reads == 1
    # outside the guard the float decides alone
    placed = _Placed(res.champion, float(maj - corr) - 2 * err, err, maj - corr + err)
    replace(res, champion=placed).check_bounds()
    assert placed.exact_reads == 0


@pytest.fixture(scope="module")
def t1_contexts(solver):
    """The contexts of 10^6, 10^9 and 10^12."""
    out = [solver.context(10**6)[0]]
    for n in (10**9, 10**12):
        out.append(Solver(limit_hint=n).context(n)[0])
    return out


def _t1_cases(t1_contexts):
    """(ctx, B, the float-bracketed bound, the bound read in mpf alone) for
    a spread of B in [rho/2, B1)."""
    for ctx in t1_contexts:
        lo = ctx.rho.value / 2
        for i in range(12):
            B = lo + (ctx.B1 - lo) * mpf(i) / 12
            fast = Bound(ctx, B, (), 0)
            yield ctx, B, fast, mpf_bound(fast)


def test_t1_bracket_holds_the_mpf_root(t1_contexts):
    for ctx, B, fast, slow in _t1_cases(t1_contexts):
        lo, hi = fast.bracket
        assert lo < slow.t1 < hi
        assert "t1" not in fast.__dict__


def test_t1_reads_from_the_bracket_match_the_mpf_root(t1_contexts):
    # the primes below t1, the weak window and fits(m, b) at both ends,
    # for b placed about the edge m*(1 - rho/t1) = b: the bracket decides
    # them all but the nearest, and agrees with the mpf t1
    near = 0
    for ctx, B, fast, slow in _t1_cases(t1_contexts):
        weak = slow.weak_window()
        assert (fast.primes_below_t1(), fast.weak_window()) == (slow.primes_below_t1(), weak)
        assert weak * (1 - ctx.rho.value / slow.t1) <= B < (weak + 1) * (1 - ctx.rho.value / slow.t1)
        denom = 1 - ctx.rho.value / slow.t1
        for m in (1, 2, 17, 400, weak):
            for off in (-1, -mpf(10) ** -6, mpf(10) ** -6, 1):
                b = m * denom + off * B
                assert fast.fits(m, b) == slow.fits(m, b) == (off > 0)
        assert "t1" not in fast.__dict__
        for m in (1, weak):
            for off in (-mpf(2) ** -70, mpf(2) ** -70):
                b = m * denom + off * B
                assert fast.fits(m, b) == slow.fits(m, b)
                near += "t1" in fast.__dict__
    assert near > 0


def test_fits_inside_a_tight_bracket_goes_exact(t1_contexts):
    # a bracket of the two floats next to the mpf t1: at b within 2^-70 of
    # the edge m*(1 - rho/t1) = b the floats at either end lie within their
    # rounding bound of b, so fits reads the mpf t1 and agrees with it
    for ctx, B, _, slow in _t1_cases(t1_contexts):
        t = float(slow.t1)
        lo = t if mpf(t) < slow.t1 else math.nextafter(t, 0)
        hi = t if mpf(t) > slow.t1 else math.nextafter(t, math.inf)
        denom = 1 - ctx.rho.value / slow.t1
        for m in (1, 2, 17, 400, slow.weak_window()):
            for off in (-mpf(2) ** -70, mpf(2) ** -70):
                tight = Bound(ctx, B, (), 0)
                tight.bracket = (lo, hi)
                b = m * denom + off * B
                assert tight.fits(m, b) == (off > 0), (m, off)
                assert "t1" in tight.__dict__


def test_t1_bracket_straddling_its_ceiling_goes_exact(solver):
    # a bracket around t1 that holds the integer ceil(t1): the number of
    # primes below t1 is left to the mpf t1, solved once for every read
    n = 10**6
    bound, d_set = solver.prefixes(n)
    ctx, tables = solver.context(n)
    t1 = mpf_bound(bound).t1
    top = int(mp.ceil(t1))
    planted = Bound(ctx, bound.B, bound.member, bound.omega)
    planted.bracket = (float(t1) - 1, top + 0.5)
    assert math.ceil(planted.bracket[0]) != math.ceil(planted.bracket[1])
    assert "t1" not in planted.__dict__
    assert planted.primes_below_t1() == ctx.table.count_upto(top - 1)
    assert planted.__dict__["t1"] == t1  # solved by that read
    got = normalized_candidates(ctx, planted, d_set, n, tables)
    want = normalized_candidates(ctx, mpf_bound(bound), d_set, n, tables)
    assert [(c.delta, c.omega, c.m_suffix) for c in got] == [
        (c.delta, c.omega, c.m_suffix) for c in want]


def test_result_inside_the_guard_of_the_minorant_goes_exact():
    # the float log of g(n) sits half its error above sqrt(n log n) and the
    # exact log a quarter below it: only the exact path sees the violation
    n = 10**6
    res = Solver(limit_hint=n).compute(n)
    root = mp.sqrt(n * mp.log(n))
    corr = res.correction.log
    err = 1e-6 * float(root)
    placed = _Placed(res.champion, float(root - corr) + err / 2, err,
                     root - corr - mpf(err) / 4)
    with pytest.raises(InvariantViolation, match="below sqrt"):
        replace(res, champion=placed).check_bounds()
    assert placed.exact_reads == 1
    # outside the guard the float decides alone
    placed = _Placed(res.champion, float(root - corr) + 2 * err, err, root - corr - err)
    replace(res, champion=placed).check_bounds()
    assert placed.exact_reads == 0


def test_largest_prime_inside_the_guard_goes_exact(monkeypatch):
    # a largest prime factor planted on the floats next to 1.328*sqrt(n log n):
    # its float difference with the float bound is a few ulps, inside the
    # guard, and the mpf bound decides; a planted value further off is
    # decided by the float alone
    n = 10**6
    res = Solver(limit_hint=n).compute(n)
    cap = mpf("1.328") * mp.sqrt(n * mp.log(n))
    c = float(cap)
    above = c if mpf(c) > cap else math.nextafter(c, math.inf)
    below = c if mpf(c) < cap else math.nextafter(c, -math.inf)
    reads = []
    exact = assemble._bounds_mpf
    monkeypatch.setattr(assemble, "_bounds_mpf", lambda n: reads.append(n) or exact(n))

    def check(p):
        planted = replace(res)
        planted.max_prime_factor = lambda: p
        reads.clear()
        try:
            planted.check_bounds()
        except InvariantViolation as e:
            assert "largest prime" in str(e)
            return True, len(reads)
        return False, len(reads)

    assert check(above) == (True, 1)
    assert check(below) == (False, 1)
    assert check(c * (1 + 1e-9)) == (True, 0)
    assert check(c * (1 - 1e-9)) == (False, 0)


def test_warm_sweep_keeps_one_candidate_set_per_rung(champion_list):
    # restarts build D(B') at the rung of the ladder above their own B;
    # the first-round set and the rung sets are stored for the rest of the
    # bracket, at most one per rung below B1
    solver = Solver(limit_hint=151000)
    for n in range(150001, 151001):
        assert solver.compute(n).to_int() == champion_list.query(n)
    assert solver._ctx_cache
    for tables in solver._ctx_cache:
        ctx = tables.ctx
        rho = ctx.rho.value
        first = {initial_budget(ctx, n) for n in range(150001, 151001) if ctx.covers(n)}
        rungs = {rho * mpf(2) ** (mpf(i) / 4) for i in range(-4, 40)}
        assert all(b in first or (b in rungs and b < ctx.B1) for b in tables.dsets)
        assert 1 < len(tables.dsets) <= math.ceil(4 * math.log2(ctx.B1 / rho)) + 1

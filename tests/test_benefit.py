import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from landau import arith, benefit
from landau.arith import PrimeFraction
from landau.benefit import (
    BenefitTables,
    Bound,
    bound_loop,
    build_prefix_sets,
    dell_pp,
    estimate_B,
    initial_budget,
)
from landau.errors import BoundFailureError, CapacityError, InvariantViolation
from landau.oracle import undominated
from landau.primes import PrimeTable, auto_limit
from landau.superchampion import build_e2_table, find_context

from conftest import extended
from oracles import (
    Prefix,
    _prune_mpf,
    ben,
    bound_loop_exact,
    estimate_B_mpf,
    g_table_dp,
    members,
    prefix_sets_mpf,
    run_ends,
    small_primes,
)


@pytest.fixture(scope="module")
def ctx1e6(table1m):
    e2 = build_e2_table(2 * 10**6, table1m)
    return find_context(10**6, table1m, e2)


@pytest.fixture(scope="module")
def tables1e6(ctx1e6):
    return BenefitTables(ctx1e6)


def test_ben_trivial(ctx1e6, tables1e6):
    assert ben(PrimeFraction.one(), tables1e6) == 0


def test_ben_additive_coprime(ctx1e6, tables1e6):
    rng = random.Random(31)
    sp = small_primes(ctx1e6)
    for _ in range(100):
        ps = rng.sample(sp, 4)
        d1 = PrimeFraction.from_factors({ps[0]: 1, ps[1]: -1})
        d2 = PrimeFraction.from_factors({ps[2]: 2, ps[3]: -1})
        lhs = ben(d1.mul(d2), tables1e6)
        rhs = ben(d1, tables1e6) + ben(d2, tables1e6)
        assert abs(lhs - rhs) <= mpf(10) ** (-mp.dps + 5) * max(1, abs(rhs))


def test_ben_monotone_in_prime_power(ctx1e6, tables1e6):
    for p in (2, 3, 41):
        prev = mpf(0)
        for gamma in range(0, 6):
            b = tables1e6.benp(p, gamma)
            assert b >= prev
            prev = b
        prev = mpf(0)
        alpha = ctx1e6.N.alpha(p)
        for gamma in range(-1, -alpha - 1, -1):
            b = tables1e6.benp(p, gamma)
            assert b >= prev
            prev = b
    assert all(tables1e6.benp(p, 1) >= 0 for p in small_primes(ctx1e6))


def test_ben_rejects_deep_division(ctx1e6, tables1e6):
    alpha = ctx1e6.N.alpha(43)
    with pytest.raises(ValueError):
        tables1e6.benp(43, -alpha - 1)
    with pytest.raises(ValueError):
        ben(PrimeFraction.from_factors({4001: 1}), tables1e6)


def test_zero_budget_keeps_only_identity(ctx1e6, tables1e6):
    d = build_prefix_sets(ctx1e6, mpf(0), tables1e6)
    assert len(d) == 1 and d.fac[0] == ()


def test_budget_at_b1_refused(ctx1e6, tables1e6):
    with pytest.raises(BoundFailureError):
        build_prefix_sets(ctx1e6, ctx1e6.B1, tables1e6)


def test_prune_soundness(ctx1e6, tables1e6):
    dell = build_prefix_sets(ctx1e6, ctx1e6.rho.value, tables1e6).dell.tolist()
    for i in range(len(dell)):
        for j in range(i + 1, len(dell)):
            assert dell[i] < dell[j]  # larger value must cost strictly more


def test_dell_matches_direct_recomputation(ctx1e6, tables1e6):
    d = build_prefix_sets(ctx1e6, ctx1e6.rho.value, tables1e6)
    rng = random.Random(37)
    for cand in rng.sample(members(d, tables1e6), 20):
        dell = sum(dell_pp(p, ctx1e6.N.alpha(p), e) for p, e in cand.delta.factors)
        assert dell == cand.dell
        recomputed = cand.dell - ctx1e6.rho.value * cand.delta.log
        assert abs(recomputed - cand.ben) <= mpf(10) ** (-mp.dps + 6) * max(1, abs(cand.ben))


def test_candidate_counts_and_bound_regression(table1m, monkeypatch):
    n = 1000064448
    from landau.primes import PrimeTable, auto_limit

    t = PrimeTable.build(auto_limit(n))
    e2 = build_e2_table(n + 10, t)
    ctx = find_context(n, t, e2)
    tables = BenefitTables(ctx)
    rho = ctx.rho.value
    d6 = build_prefix_sets(ctx, mpf("0.6") * rho, tables)
    assert len(d6) == 76
    res6 = estimate_B(ctx, d6, n, tables)
    assert abs(res6.B / rho - mpf("1.104")) < mpf("0.005") * mpf("1.104")
    d10 = build_prefix_sets(ctx, rho, tables)
    assert len(d10) == 194
    # restart path: B' = 0.6 rho climbs to ~1.104 rho, settles at ~1.055 rho
    with monkeypatch.context() as m:
        m.setattr(benefit, "initial_budget", lambda ctx, n: mpf("0.6") * rho)
        res, d_final = bound_loop(ctx, n, tables)
    assert abs(res.B / rho - mpf("1.055")) < mpf("0.005") * mpf("1.055")
    assert len(d_final) == 212
    res2, d_final2 = bound_loop(ctx, n, tables)
    assert abs(res2.B - res.B) < mpf("1e-15") * res.B
    assert len(d_final2) == 212


def test_estimate_example_1000366(table1m):
    n = 1000366
    e2 = build_e2_table(2 * 10**6, table1m)
    ctx = find_context(n, table1m, e2)
    tables = BenefitTables(ctx)
    res, _ = bound_loop(ctx, n, tables)
    assert abs(res.B - mpf("436.04")) < mpf("0.005") * mpf("436.04")
    # rho < t1 < x1 and rho*log(t1) - t1 = B
    assert ctx.rho.value < res.t1 <= ctx.x1
    assert abs(ctx.rho.value * mp.log(res.t1) - res.t1 - res.B) < mpf(10) ** (-15)
    # the bound overshoots the true value ben g(n) + n - l(g(n)) ~ 406.1 a bit
    from landau.assemble import Solver

    r = Solver(limit_hint=n).compute(n)
    truth = sum(
        tables.benp(p, e) if p < ctx.sqrt_x1
        else (e * (p - ctx.rho.value * mp.log(p)))
        for p, e in r.correction.factors
    ) + n - r.ell_g
    assert abs(truth - mpf("406.1")) < mpf("0.5")
    assert res.B >= truth


def test_bound_nonnegative_and_witness(ctx1e6, tables1e6):
    for n in (998093, 999000, 10**6):
        d = build_prefix_sets(ctx1e6, initial_budget(ctx1e6, n), tables1e6)
        res = estimate_B(ctx1e6, d, n, tables1e6)
        assert res.B >= 0
        wit_dell = sum(
            dell_pp(p, ctx1e6.N.alpha(p), e) for p, e in res.witness.factors
        )
        assert ctx1e6.ellN + wit_dell <= n


def test_candidate_set_contains_true_prefix():
    # factor g(n) from the dp oracle; its small-prime part relative to the
    # champion must appear in the final candidate set, for every n <= 1e4
    from landau.assemble import Solver

    solver = Solver(limit_hint=10**4)
    dp = g_table_dp(10**4)
    for n in range(7, 10**4 + 1):
        res = solver.compute(n)
        if res.d_set is None:
            continue  # oracle fallback: no candidate set exists
        ctx = res.context
        fac = dp.factors(n)
        sqrt_x1 = ctx.sqrt_x1
        prefix = {}
        for p in ctx.table.primes.tolist():
            if p >= sqrt_x1:
                break
            e = fac.get(p, 0) - ctx.N.alpha(p)
            if e:
                prefix[p] = e
        want = tuple(sorted(prefix.items()))
        assert want in res.d_set.fac.tolist(), (
            "true prefix %r missing from D(B) at n=%d" % (want, n))


def test_prefix_chain_monotone(ctx1e6, tables1e6):
    # benefits of successive prefixes of a value never decrease
    dp = g_table_dp(2000)
    e2 = build_e2_table(3000, ctx1e6.table)
    rng = random.Random(41)
    for n in rng.sample(range(200, 2000), 25):
        ctx = find_context(n, ctx1e6.table, e2)
        tables = BenefitTables(ctx)
        fac = dp.factors(n)
        run = mpf(0)
        prev = mpf(0)
        for p in small_primes(ctx):
            e = fac.get(p, 0) - ctx.N.alpha(p)
            run += tables.benp(p, e)
            assert run >= prev - mpf(10) ** (-mp.dps + 6)
            prev = run


def _context(n):
    t = PrimeTable.build(auto_limit(n))
    ctx = find_context(n, t, build_e2_table(n + 10, t))
    return ctx, BenefitTables(ctx)


def _entries(cands):
    return [(c.delta.factors, c.dell, c.ben) for c in cands]


def _same_as_mpf_reference(ctx, b_prime, tables):
    """build_prefix_sets equals the mpf-only reference entry by entry, in
    order, with bit-identical benefits, and each member's running float ben
    lies within its stated bound of its mpf ben; returns the reference set."""
    got = build_prefix_sets(ctx, b_prime, tables)
    want = prefix_sets_mpf(ctx, b_prime, tables)
    assert _entries(members(got, tables)) == _entries(want), "D(B') differs from the mpf reference"
    # f + 4 steps for the running sum, one for the mpf fold, one for the
    # float size, and two for the float copy of the mpf ben and the difference
    assert np.all(np.abs(got.ben - [float(c.ben) for c in want])
                  <= arith.rounding_error(got.ben_size, got.nf + 8))
    return want


@pytest.fixture(scope="module")
def ctx1e9():
    return _context(1000064448)


def test_prefix_sets_match_mpf_at_criterion_points(ctx1e9, ctx1e6, tables1e6):
    ctx, tables = ctx1e9
    rho = ctx.rho.value
    assert len(_same_as_mpf_reference(ctx, mpf("0.6") * rho, tables)) == 76
    assert len(_same_as_mpf_reference(ctx, rho, tables)) == 194
    _same_as_mpf_reference(ctx1e6, initial_budget(ctx1e6, 10**6), tables1e6)


def test_prefix_sets_match_mpf_at_1e12():
    ctx, tables = _context(10**12)
    assert len(_same_as_mpf_reference(ctx, initial_budget(ctx, 10**12), tables)) == 910


def test_prefix_sets_match_mpf_at_random_n():
    rng = random.Random(53)
    for _ in range(8):
        n = int(10 ** rng.uniform(4, 12))
        ctx, tables = _context(n)
        b = initial_budget(ctx, n)
        _same_as_mpf_reference(ctx, b, tables)
        _same_as_mpf_reference(ctx, b * mpf("1.5"), tables)


def test_prefix_sets_match_mpf_at_boundary_budgets(ctx1e6, tables1e6):
    # B' equal to a member's benefit: that member's last step costs exactly
    # its remaining budget, inside the float margin, so the exact loop
    # decides.  With a zero margin, float rounding drops some of these.
    d = prefix_sets_mpf(ctx1e6, ctx1e6.rho.value, tables1e6)
    for c in d:
        if len(c.delta.factors) >= 2:
            got = _same_as_mpf_reference(ctx1e6, c.ben, tables1e6)
            assert any(g.delta == c.delta for g in got)


def test_prefix_sets_match_mpf_at_cold_1e14():
    n = 103613071095758  # from the cold-1e14 bench pool
    ctx, tables = _context(n)
    assert len(_same_as_mpf_reference(ctx, initial_budget(ctx, n), tables)) == 2630


@extended
def test_prefix_sets_match_mpf_at_1e15():
    # beyond the goldens, the only check of the float build at this scale
    ctx, tables = _context(10**15)
    assert len(_same_as_mpf_reference(ctx, initial_budget(ctx, 10**15), tables)) == 7443


def test_prefix_sets_match_mpf_at_a_restart_budget(ctx1e9):
    # the B that estimate_B returns above B' is the next round's budget
    ctx, tables = ctx1e9
    b = mpf("0.6") * ctx.rho.value
    res = estimate_B(ctx, build_prefix_sets(ctx, b, tables), 1000064448, tables)
    assert res.B > b
    assert len(_same_as_mpf_reference(ctx, res.B, tables)) == 224


def _entry(tables, p, gamma):
    """The index of benp(p, gamma) in tables' float benp table."""
    i = small_primes(tables.ctx).index(p)
    lo, hi = tables.columns.start[i : i + 2].tolist()
    return lo + tables.columns.gamma[lo:hi].tolist().index(gamma)


def test_pair_inside_the_ben_guard_goes_exact(ctx1e6):
    # a member's last (member, gamma) pair: the mpf test admits it at the
    # budget B' = its ben, and the float cost of that gamma is planted in the
    # table so that the float excess sits half the pair's rounding bound over
    # budget; only the exact path keeps the member
    probe = BenefitTables(ctx1e6)
    ref = prefix_sets_mpf(ctx1e6, ctx1e6.rho.value, probe)
    cand = next(c for c in ref if len(c.delta.factors) >= 2)
    *parent, (p, gamma) = cand.delta.factors
    cost, size = probe.columns.cost, probe.columns.size
    ben_f = size_f = 0.0  # the parent's running float sums, as the build makes them
    for q, e in parent:
        ben_f += cost[_entry(probe, q, e)]
        size_f += size[_entry(probe, q, e)]
    k = _entry(probe, p, gamma)
    b_f = float(cand.ben)
    err = arith.rounding_error(size_f + size[k] + b_f, len(parent) + 9)
    placed = b_f - ben_f + err / 2
    assert 0 < ben_f + placed - b_f <= err
    stub = BenefitTables(ctx1e6)
    stub.columns.cost[k] = placed
    # the placed cost is off its bound, so only the entries are compared
    got = members(build_prefix_sets(ctx1e6, cand.ben, stub), stub)
    assert _entries(got) == _entries(prefix_sets_mpf(ctx1e6, cand.ben, stub))
    assert any(c.delta == cand.delta for c in got)


def _same_as_estimate_mpf(ctx, d_set, n, tables):
    got = estimate_B(ctx, d_set, n, tables)
    want = estimate_B_mpf(ctx, d_set, n, tables)
    assert (got.B, got.witness) == (want.B, want.witness), n
    return got


@pytest.fixture(scope="module")
def estimate_cases(ctx1e9):
    """(ctx, D(B'), n, tables) at 200 seeded n in [10^5, 2*10^5), their
    restart sets, and at the 10^9 and 10^12 contexts."""
    from landau.assemble import Solver

    solver = Solver(limit_hint=2 * 10**5)
    rng = random.Random(71)
    cases = []
    for n in sorted(rng.sample(range(10**5, 2 * 10**5), 200)):
        ctx, tables = solver.context(n)
        b = initial_budget(ctx, n)
        if b not in tables.dsets:
            tables.dsets[b] = build_prefix_sets(ctx, b, tables)
        cases.append((ctx, tables.dsets[b], n, tables))
        res = estimate_B(ctx, tables.dsets[b], n, tables)
        if res.B > b:
            cases.append((ctx, build_prefix_sets(ctx, res.B, tables), n, tables))
    assert len(cases) > 200  # some restart
    ctx, tables = ctx1e9
    for b in (mpf("0.6") * ctx.rho.value, ctx.rho.value):
        cases.append((ctx, build_prefix_sets(ctx, b, tables), 1000064448, tables))
    ctx, tables = _context(10**12)
    cases.append((ctx, build_prefix_sets(ctx, initial_budget(ctx, 10**12), tables), 10**12, tables))
    return cases


def test_estimate_B_matches_mpf(estimate_cases):
    for case in estimate_cases:
        _same_as_estimate_mpf(*case)


def test_estimate_B_exact_fallbacks_match_mpf(estimate_cases, forced_exact):
    # every candidate's witness is valued in mpf
    for case in estimate_cases:
        _same_as_estimate_mpf(*case)


def test_witness_inside_the_guard_goes_exact(ctx1e6, tables1e6):
    # a clone of the winning candidate, dearer in mpf but a few ulps cheaper
    # in float: only the exact path keeps the winner
    n = 10**6
    d = build_prefix_sets(ctx1e6, initial_budget(ctx1e6, n), tables1e6)
    want = estimate_B_mpf(ctx1e6, d, n, tables1e6)
    small = tuple(f for f in want.witness.factors if f[0] < ctx1e6.sqrt_x1)
    fac = d.fac.tolist()
    win = fac.index(small)
    # the clone is another member given the winner's dell, size and count
    pair = d.select([win - 1 if win else 1, win])
    for a in (pair.dell, pair.ben_size, pair.nf):
        a[0] = a[1]
    pair.ben[0] = pair.ben[1] - 4 * float(want.B) / 2**53
    win_ben = tables1e6.ben_of(small)
    clone_ben = win_ben + mpf(2) ** -80 * (1 + abs(win_ben))
    stub = BenefitTables(ctx1e6)
    stub.ben_of = lambda f: clone_ben if f == pair.fac[0] else tables1e6.ben_of(f)
    got = estimate_B(ctx1e6, pair, n, stub)
    assert (got.B, got.witness) == (want.B, want.witness)


def test_trim_inside_the_guard_goes_exact(ctx1e6, tables1e6):
    # two members whose float ben is the float of B, one just above B in
    # mpf and one just below: only the exact path keeps exactly the second
    B = ctx1e6.rho.value
    eps = mpf(2) ** -80 * B
    pair = build_prefix_sets(ctx1e6, B, tables1e6).select([1, 2])
    pair.ben[:] = pair.ben_size[:] = float(B)
    pair.nf[:] = 1
    assert float(B + eps) == float(B - eps) == pair.ben[0]
    above, below = pair.fac.tolist()
    stub = BenefitTables(ctx1e6)
    stub.ben_of = {above: B + eps, below: B - eps}.__getitem__
    assert benefit._trim(pair, B, stub).fac.tolist() == [below]


def test_undominated_matches_stack_prune():
    # entry i survives iff its dell is below every later one, ties included
    rng = random.Random(61)
    for size in range(1, 40):
        dell = [rng.randrange(-6, 6) for _ in range(size)]
        # distinct bens tell apart the entries of equal dell
        cands = [Prefix(PrimeFraction.one(), mpf(i), v) for i, v in enumerate(dell)]
        keep = undominated(np.array(dell, dtype=np.int64))
        assert [c for c, k in zip(cands, keep) if k] == _prune_mpf(cands)


def test_prefix_sets_exact_fallbacks_match_mpf(ctx1e9, forced_exact):
    # every candidate runs the exact loop and every layer the mpf sort
    ctx, tables = ctx1e9
    assert len(_same_as_mpf_reference(ctx, ctx.rho.value, tables)) == 194


def test_near_pairs_after_a_refusal_leave_the_mpf_set(ctx1e9, monkeypatch):
    # under a wide bound some pairs inside it follow a refusal in their
    # direction: the pair test decides them in mpf too, and the refusal
    # before them drops them, so D(B') is still the mpf set
    monkeypatch.setattr(arith, "rounding_error", lambda size, steps: size * steps * 2.0**-5)
    after = []
    admitted = benefit._admitted

    def spy(p, gammas, steps, run, nf, factors, b_prime, b_f, tables):
        ok = admitted(p, gammas, steps, run, nf, factors, b_prime, b_f, tables)
        near = np.abs(steps[0][:, None] + run[0] - b_f) <= arith.rounding_error(
            steps[1][:, None] + run[1] + abs(b_f), nf + 9)
        after.extend(int((near[k] & ~ok[k - 1]).sum())
                     for k in range(1, len(ok)) if abs(gammas[k]) != 1)
        return ok

    monkeypatch.setattr(benefit, "_admitted", spy)
    ctx = ctx1e9[0]
    assert len(_same_as_mpf_reference(ctx, ctx.rho.value, BenefitTables(ctx))) == 194
    assert sum(after) > 0


def test_walk_ben_sums_the_walk_prime_by_prime(ctx1e6, ctx1e9):
    # ben(N p_{k+i}) added going up and ben(N / p_{k-i}) going down, one
    # prime at a time from 0, bit for bit, whichever end is read first;
    # the float copies follow the sums as they grow
    for ctx in (ctx1e6, ctx1e9[0]):
        t, k, rho = ctx.table, ctx.k, ctx.rho
        up, down = [mpf(0)], [mpf(0)]
        for i in range(1, 9):
            p = t.prime(k + i)
            up.append(up[-1] + (mpf(0) if rho.j == 1 and p == rho.q else p - rho.value * mp.log(p)))
            p = t.prime(k - i + 1)
            down.append(down[-1] + rho.value * mp.log(p) - p)
        for order in (range(-8, 9), range(8, -9, -1)):
            tables = BenefitTables(ctx)
            assert tables.walk_ben_f(np.array([0, 2])).tolist() == [0.0, float(up[2])]
            want = [up[w] if w >= 0 else down[-w] for w in order]
            assert [tables.walk_ben(w) for w in order] == want
            assert tables.walk_ben_f(np.array(order)).tolist() == [float(v) for v in want]


def test_small_prime_arrays_match_the_champion(ctx1e6, ctx1e9, table1m):
    # the per-context arrays against the champion read prime by prime: the
    # primes below sqrt(x1), Champion.alpha at each, and the float benp
    # table: every entry within its bound of the mpf benp, each direction
    # ending at -alpha_p or at its first mpf benp above B1, and the first
    # steps read off its entries at -1 and 1, at a power-event slope too
    e2 = build_e2_table(10**9, table1m)
    power = next(c for c in (find_context(e.ell, table1m, e2) for e in e2[1:] if e.j >= 2)
                 if c.rho.j >= 2)
    assert power.rho.q in small_primes(power)  # its zero-cost step is a first step
    for ctx in (ctx1e6, ctx1e9[0], _context(10**12)[0], power):
        tables = BenefitTables(ctx)
        ps = small_primes(ctx)
        assert tables.primes.tolist() == ps
        assert tables.alpha.tolist() == [ctx.N.alpha(p) for p in ps]
        cols, steps = tables.columns, []
        for i, p in enumerate(ps):
            lo, hi = cols.start[i : i + 2].tolist()
            gammas = cols.gamma[lo:hi].tolist()
            neg, pos = [g for g in gammas if g < 0], [g for g in gammas if g > 0]
            assert gammas == neg + pos
            for run, sign, end in ((neg, -1, -ctx.N.alpha(p)), (pos, 1, None)):
                assert run == [sign * (k + 1) for k in range(len(run))]
                bens = [tables.benp(p, g) for g in run]
                assert all(b <= ctx.B1 for b in bens[:-1])
                assert run[-1] == end or bens[-1] > ctx.B1
            for k in range(lo, hi):  # 5 steps and the mpf benp's own rounding
                exact = tables.benp(p, int(cols.gamma[k]))
                assert abs(mpf(cols.cost[k]) - exact) <= arith.rounding_error(cols.size[k], 6)
            steps.append([(cols.cost[lo + gammas.index(g)], cols.size[lo + gammas.index(g)])
                          for g in (-1, 1)])
        assert tables.first_cost.tolist() == [min(a[0], b[0]) for a, b in steps]
        assert tables.first_size.tolist() == [max(a[1], b[1]) for a, b in steps]


@pytest.fixture
def visits(monkeypatch):
    """The small-prime indices that each pass of build_prefix_sets visits,
    one list per pass, for the builds that follow."""
    out = []
    layers = benefit._layers
    monkeypatch.setattr(benefit, "_layers", lambda b_prime, b_f, tables, visit: (
        out.append(visit.tolist()) or layers(b_prime, b_f, tables, visit)))
    return out


def _nudged(x, k):
    """The float k ulps from float(x), upward for k > 0, as an mpf."""
    y = float(x)
    for _ in range(abs(k)):
        y = math.nextafter(y, math.copysign(math.inf, k))
    return mpf(y)


# (context, prime) whose first step is the budget: the cheapest at 10^6, a
# middle one, and at 10^9 the prime 2 and a prime where 1024 ulps below
# the step the first pass misses a prime the build's final state reaches
EDGE_PLANTS = (("1e6", 43), ("1e6", 31), ("1e9", 2), ("1e9", 17))


def _edge_builds(ctx1e6, ctx1e9, visits, offsets):
    """Build D(B') with B' at each plant's mpf first step and the given
    float offsets from it, against the mpf reference; the prime is visited
    whenever that step is at most B'.  Returns the pass count of each
    build."""
    contexts = {"1e6": ctx1e6, "1e9": ctx1e9[0]}
    passes = []
    for name, p in EDGE_PLANTS:
        ctx = contexts[name]
        tables = BenefitTables(ctx)
        i = small_primes(ctx).index(p)
        step = min(tables.benp(p, -1), tables.benp(p, 1))
        for k in offsets:
            b = step if k is None else _nudged(step, k)
            visits.clear()
            _same_as_mpf_reference(ctx, b, tables)
            if step <= b:
                assert i in visits[-1], (name, p, k)
            assert set(visits[0]) <= set(visits[-1])
            passes.append(len(visits))
    return passes


def test_prefix_sets_at_a_first_step_budget(ctx1e6, ctx1e9, visits):
    passes = _edge_builds(ctx1e6, ctx1e9, visits, (None, 0, 1, -1, 2, -2, 3, -3, -1024))
    # one build's final state reached a prime its first pass skipped
    assert max(passes) == 2


def test_prefix_sets_at_a_first_step_budget_exact(ctx1e6, ctx1e9, visits, forced_exact):
    assert set(_edge_builds(ctx1e6, ctx1e9, visits, (None, 1, -1, -1024))) == {1}


def test_every_small_prime_visited_under_forced_exact(ctx1e9, visits, forced_exact):
    ctx, tables = ctx1e9
    build_prefix_sets(ctx, ctx.rho.value, tables)
    assert visits == [list(range(tables.sp_count))]


def test_t1_newton_from_x1(ctx1e6, monkeypatch):
    from landau.assemble import Solver

    n = 150000
    ctx, tables = Solver(limit_hint=n).context(n)
    res, _ = bound_loop(ctx, n, tables)
    log = type(mp).log
    calls = []

    def counting_log(mpctx, *args, **kwargs):
        calls.append(args)
        return log(mpctx, *args, **kwargs)

    assert "t1" not in res.__dict__  # bound_loop reads no t1
    with monkeypatch.context() as m:
        m.setattr(type(mp), "log", counting_log)
        t1 = res.t1
    assert len(calls) <= 8
    rho = ctx.rho.value
    assert rho < t1 <= ctx.x1
    assert abs(rho * mp.log(t1) - t1 - res.B) <= mpf(10) ** (-mp.dps + 5) * t1
    # at x1 the equation reads rho*log x1 - x1 = 0, so a negative B has no root
    with pytest.raises(InvariantViolation):
        Bound(ctx1e6, -ctx1e6.rho.value, (), 0).t1


def test_t1_solved_once_per_n(monkeypatch):
    # t1's float bracket is certified for the round that settles, not for
    # every round, the mpf t1 is solved only for a read the bracket leaves
    # open, and no witness fraction is built
    from landau.assemble import Solver

    solver = Solver(limit_hint=151000)
    rounds = []
    estimate = benefit.estimate_B

    def recording(*args):
        rounds.append(estimate(*args))
        return rounds[-1]

    monkeypatch.setattr(benefit, "estimate_B", recording)
    window = range(150001, 151001)
    for n in window:
        solver.compute(n)
    read = lambda name: sum(name in b.__dict__ for b in rounds)
    # some n need a second round, and still one bracket
    assert read("bracket") == len(window) < len(rounds)
    assert read("t1") < len(window) // 100
    assert read("witness") == 0


def _run(solver, n):
    """What compute hands on for n: B, the witness, D(B), the normalized
    candidates, the survivors and the evaluation count."""
    res = solver.compute(n)
    cand = lambda c: (c.delta, c.omega, c.m_suffix, c.Pi, c.ben_Pi, c.lower, c.upper)
    return (res.correction, res.bound.B, res.bound.witness, res.d_set.fac.tolist(),
            [cand(c) for c in res.candidates], [cand(c) for c in res.survivors],
            res.evaluated)


def test_ladder_matches_the_exact_budget_loop(monkeypatch):
    # a window that restarts often: the rung sets, trimmed to ben <= B,
    # hand on what D(B) built at B itself does
    import oracles
    from landau import assemble
    from landau.assemble import Solver

    build = benefit.build_prefix_sets
    window = range(150001, 150401)
    ref_builds, builds = [], []
    with monkeypatch.context() as m:
        m.setattr(assemble, "bound_loop", bound_loop_exact)
        m.setattr(oracles, "build_prefix_sets", lambda *a: ref_builds.append(a[1]) or build(*a))
        ref = Solver(limit_hint=window[-1])
        want = [_run(ref, n) for n in window]
    monkeypatch.setattr(benefit, "build_prefix_sets",
                        lambda *a: builds.append(a[1]) or build(*a))
    solver = Solver(limit_hint=window[-1])
    for n, w in zip(window, want):
        assert _run(solver, n) == w, n
    # each rung is built once; the reference builds a set per restart
    assert len(builds) == len(set(builds)) < 10 < 100 < len(ref_builds)


def test_walk_to_the_last_prime_raises_capacity_error(ctx1e6, tables1e6):
    # a table ending at the longest champion walk of n = 10^6 cannot tell
    # whether one more prime would fit; both walks must refuse it
    from dataclasses import replace

    from landau.assemble import normalized_candidates
    from landau.superchampion import Champion

    n = 10**6
    ctx = ctx1e6
    res, d_set = bound_loop(ctx, n, tables1e6)
    cs = ctx.table.cumulative
    s_k = int(cs[ctx.k - 1])
    end = max(int(np.searchsorted(cs, n - ctx.ellN - dell + s_k, side="right"))
              for dell in d_set.dell.tolist() if n - ctx.ellN - dell >= 0)
    short = PrimeTable.build(ctx.table.prime(end))
    assert len(short) == end
    cut = replace(ctx, N=Champion(short, run_ends(ctx.N)))
    with pytest.raises(CapacityError):
        estimate_B(cut, d_set, n, BenefitTables(cut))
    with pytest.raises(CapacityError):
        normalized_candidates(cut, res, d_set, n, BenefitTables(cut))
    # one prime more and both walks fit
    longer = replace(ctx, N=Champion(PrimeTable.build(ctx.table.prime(end + 1)),
                                      run_ends(ctx.N)))
    longer_tables = BenefitTables(longer)
    assert estimate_B(longer, d_set, n, longer_tables).B == estimate_B(ctx, d_set, n, tables1e6).B
    assert len(normalized_candidates(longer, res, d_set, n, longer_tables)) == len(
        normalized_candidates(ctx, res, d_set, n, tables1e6))

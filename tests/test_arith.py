import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from landau.arith import (
    PrimeFraction,
    ell_pp,
    guarded_order,
    guarded_sign,
    log_product,
    parse_factored,
    render_factored,
)
from landau.assemble import Solver
from landau.errors import CapacityError

from oracles import g_table_dp

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def rand_fraction(rng, max_primes=6, max_exp=4):
    fac = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, max_primes)):
        e = rng.randint(-max_exp, max_exp)
        if e:
            fac[p] = e
    return PrimeFraction.from_factors(fac)


def test_ell_examples():
    assert PrimeFraction.one().ell == 0
    assert PrimeFraction.from_int(12).ell == 7
    assert PrimeFraction.from_int(60060).ell == 43


def test_ell_signed():
    f = PrimeFraction.from_factors({43: 1, 3947: 1, 3847: -1})
    assert f.ell == 43 + 3947 - 3847


def test_mul_examples():
    a = PrimeFraction.from_factors({43: 1, 41: -1})
    b = PrimeFraction.from_factors({41: 1, 43: -1})
    assert a.mul(b).is_one()
    c = PrimeFraction.from_int(12).mul(PrimeFraction.from_int(3))
    assert c.factors == ((2, 2), (3, 2))
    assert c.ell == 13
    d = PrimeFraction.from_factors({43: 1, 3947: 1, 3847: -1})
    assert d.mul(PrimeFraction.from_int(3847)).factors == ((43, 1), (3947, 1))


def test_fraction_examples():
    a = PrimeFraction.from_factors({107: 1, 113: 1, 97: -1, 101: -1})
    b = PrimeFraction.from_factors({109: 1, 97: -1})
    assert a.fraction() == Fraction(107 * 113, 97 * 101) > b.fraction() == Fraction(109, 97)
    c = PrimeFraction.from_factors({11: 1, 10: 0, 2: -1, 5: -1})
    d = PrimeFraction.from_factors({43: 1, 41: -1})
    assert c.fraction() > d.fraction()  # 11*41 = 451 > 430 = 10*43
    assert PrimeFraction.one().fraction() == 1
    # 2048/2047 against 2049/2048: logs ~2.4e-7 apart
    e = PrimeFraction.from_factors({2: 11, 23: -1, 89: -1})
    f = PrimeFraction.from_factors({3: 1, 683: 1, 2: -11})
    assert (e.fraction(), f.fraction()) == (Fraction(2048, 2047), Fraction(2049, 2048))
    assert e.fraction() > f.fraction()


def test_fraction_random():
    # in lowest terms, with a product's value the product of the values
    rng = random.Random(7)
    fs = [rand_fraction(rng) for _ in range(200)]
    for _ in range(10**4):
        a, b = rng.choice(fs), rng.choice(fs)
        want = Fraction(a.numerator(), a.denominator())
        assert a.fraction() == want and a.fraction().denominator == a.denominator()
        assert a.mul(b).fraction() == want * b.fraction()


def _order(values, err, exact):
    """guarded_order of values against the exact keys, and the indices
    whose key it read."""
    read = set()

    def key(i):
        read.add(i)
        return exact[i]

    return guarded_order(np.array(values, dtype=float), err, key).tolist(), read


def test_guarded_sign_on_a_2d_array():
    # exactly the flat indices inside the bound (broadcast along the rows)
    # go to exact_d, and their exact signs land in place; the floats decide
    # the rest
    d = np.array([[0.5, -0.05, 2.0], [0.0, -3.0, 0.08]])
    exact, read = {1: 2, 3: -1, 5: 0}, []

    def exact_d(i):
        read.append(i)
        return exact[i]

    out = guarded_sign(d, np.array([0.1, 0.1, 0.1]), exact_d)
    assert read == [1, 3, 5]
    assert out.shape == (2, 3) and out.tolist() == [[1, 1, 1], [-1, -1, 0]]


def test_guarded_order():
    # each float within 0.5 of its exact value: a run at each end whose
    # floats are in the wrong order, and far-apart entries between them
    values = [1.3, 0.9, 5.0, 9.0, 14.0, 20.3, 19.9]
    exact = [Fraction(v) / 10 for v in (10, 12, 50, 90, 140, 200, 202)]
    assert _order(values, 0.5, exact) == ([0, 1, 2, 3, 4, 5, 6], {0, 1, 5, 6})
    # the same bounds as an array; zero bounds leave a close pair in float order
    err = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.5, 0.5])
    assert _order(values, err, exact) == ([0, 1, 2, 3, 4, 5, 6], {0, 1, 5, 6})
    assert _order([3.0001, 3.0], 0.0, [0, 1]) == ([1, 0], set())
    # a pair is close when its gap is at most the sum of its two bounds
    assert _order([1.45, 1.0], np.array([0.2, 0.25]), [0, 1]) == ([0, 1], {0, 1})
    assert _order([1.5, 1.0], np.array([0.25, 0.25]), [0, 1]) == ([0, 1], {0, 1})
    assert _order([1.55, 1.0], np.array([0.2, 0.25]), [0, 1]) == ([1, 0], set())
    assert _order([], 0.5, []) == _order([], np.array([]), []) == ([], set())
    assert _order([2.0], 0.5, [0]) == ([0], set())
    # an infinite bound, as under forced_exact, sorts everything exactly
    rng = random.Random(7)
    exact = list(range(40))
    rng.shuffle(exact)
    values = [rng.random() for _ in exact]
    got, read = _order(values, math.inf, exact)
    assert [exact[i] for i in got] == list(range(40)) and read == set(range(40))


def test_to_decimal():
    # an integer's value is its numerator; a result's expansion keeps to its budget
    twelve, third = PrimeFraction.from_int(12), PrimeFraction.from_factors({3: -1})
    assert (twelve.numerator(), twelve.denominator()) == (12, 1)
    assert PrimeFraction.from_int(210).numerator() == 210
    assert (third.numerator(), third.denominator()) == (1, 3)
    res = Solver(limit_hint=10**6).compute(10**6)  # g(10^6) has 1700 digits
    assert len(str(res.to_int())) == 1700
    with pytest.raises(CapacityError):
        res.to_int(digit_budget=10**3)


def test_to_decimal_g100(table1m):
    table = g_table_dp(100)
    assert table.value(100).numerator() == 232792560
    assert Solver(limit_hint=100).compute(100).to_int() == 232792560


def test_ell_additive_on_coprime():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_fraction(rng)
        b_fac = {p: e for p, e in rand_fraction(rng).factors if a.exponent(p) == 0}
        b = PrimeFraction.from_factors(b_fac)
        assert a.mul(b).ell == a.ell + b.ell


def test_cache_rebuild_consistency():
    rng = random.Random(13)
    for _ in range(200):
        f = rand_fraction(rng)
        g = PrimeFraction.from_factors(dict(f.factors))
        assert g.ell == f.ell
        assert g.ell == sum(ell_pp(p, e) for p, e in f.factors)
        with workdps(mp.dps + 10):
            precise = sum(e * mp.log(p) for p, e in f.factors) if f.factors else mpf(0)
        assert abs(f.log - precise) <= 2 * mpf(10) ** (-mp.dps + 1) * max(1, abs(precise))


def test_log_product_chunks():
    vals = list(range(2, 500))
    with workdps(mp.dps + 10):
        want = sum(mp.log(v) for v in vals)
    assert abs(log_product(vals) - want) < mpf(10) ** (-mp.dps + 3) * want


def _log_product_one_by_one(ints):
    # the chunking log_product keeps, one value at a time
    total, chunk, bits = mpf(0), 1, 0
    for v in ints:
        chunk *= v
        bits += v.bit_length()
        if bits >= 4096:
            total += mp.log(chunk)
            chunk, bits = 1, 0
    return total + mp.log(chunk) if chunk != 1 else total


def test_log_product_same_chunks_as_one_by_one(table1m):
    # the same exact products, so the same mpf sum bit for bit, across the
    # slices log_product reads its bit lengths in
    ps = table1m.primes
    for lo, hi in ((0, len(ps)), (5, 65536 + 200), (1000, 1001), (3, 3), (60000, 78000)):
        assert log_product(ps[lo:hi]) == _log_product_one_by_one(ps[lo:hi].tolist())
    powers = [2**40, 3, 2**52, 7] * 60  # bit lengths straddling 4096 at powers of two
    assert log_product(powers) == _log_product_one_by_one(powers)


def test_render_parse_roundtrip(table1m):
    rng = random.Random(17)
    for _ in range(10**4):
        f = rand_fraction(rng)
        assert parse_factored(f.render(table1m), table1m) == f
        assert parse_factored(f.render(), table1m) == f


def test_render_bracket_runs(table1m):
    f = PrimeFraction.from_factors({2: 9, 3: 6, 11: 2, 13: 2, 17: 2, 43: 1, 47: 1})
    assert f.render(table1m) == "2^9 * 3^6 * [11-17]^2 * [43-47]"
    assert render_factored((), table1m) == "1"


def test_parse_rejects_garbage(table1m):
    with pytest.raises(ValueError):
        parse_factored("2^", table1m)
    with pytest.raises(ValueError):
        parse_factored("[8-12]", table1m)

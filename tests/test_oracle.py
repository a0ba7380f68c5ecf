import math
import random

import pytest
from mpmath import mp

from landau.errors import CapacityError
from landau.oracle import ChampionList, g_list_merge_prune

from oracles import g_bruteforce, g_table_dp


@pytest.fixture(scope="module")
def dp300():
    return g_table_dp(300)


@pytest.fixture(scope="module")
def list300():
    return g_list_merge_prune(300)


def test_dp_examples(dp300):
    small = g_table_dp(7)
    assert small.int_value(5) == 6
    assert small.int_value(7) == 12
    assert g_table_dp(0).int_value(0) == 1
    assert g_table_dp(43).int_value(43) == 60060


def test_dp_capacity():
    with pytest.raises(CapacityError):
        g_table_dp(10**7)


def test_list_prefix_over_2_3():
    lst = g_list_merge_prune(8, max_prime=3)
    assert list(zip(lst.values, lst.ells)) == [
        (1, 0), (2, 2), (3, 3), (4, 4), (6, 5), (12, 7)]


def test_list_trivial():
    lst = g_list_merge_prune(0)
    assert list(zip(lst.values, lst.ells)) == [(1, 0)]


def test_list_matches_dp(dp300, list300):
    for n in range(301):
        assert list300.query(n) == dp300.int_value(n)


def test_bruteforce_examples():
    assert g_bruteforce(5).numerator() == 6
    assert g_bruteforce(19).numerator() == 420
    assert g_bruteforce(1).numerator() == 1
    with pytest.raises(CapacityError):
        g_bruteforce(65)


def test_three_way_agreement_to_64(dp300, list300):
    for n in range(65):
        b = g_bruteforce(n).numerator()
        assert b == dp300.int_value(n) == list300.query(n)


def test_monotone_and_cost(dp300):
    prev = 0
    for n in range(301):
        v = dp300.int_value(n)
        assert v >= prev
        prev = v
        assert sum(p**e for p, e in dp300.factors(n).items()) <= n


def test_any_feasible_m_below_g(dp300):
    rng = random.Random(23)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(10**3):
        fac = {}
        cost = 0
        for p in rng.sample(primes, rng.randint(1, 4)):
            e = rng.randint(1, 3)
            if cost + p**e <= 300:
                fac[p] = e
                cost += p**e
        m = 1
        for p, e in fac.items():
            m *= p**e
        assert m <= dp300.int_value(cost)


def test_effective_bounds_on_table():
    lst = g_list_merge_prune(10**4)
    for n in range(4, 10**4 + 1):
        v = lst.query(n)
        logv = math.lgamma(1)  # 0
        logv = math.log(v) if v < 10**300 else float(mp.log(v))
        root = math.sqrt(n * math.log(n))
        if n >= 906:
            assert logv >= root
        assert logv <= root * (1 + (math.log(math.log(n)) - 0.975) / (2 * math.log(n)))
        if n >= 5:
            assert max(p for p in _factor(v)) <= 1.328 * root


def _factor(v):
    out = []
    d = 2
    while d * d <= v:
        while v % d == 0:
            out.append(d)
            v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def test_champion_list_check_rejects_bad():
    from landau.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        ChampionList([1, 3, 2], [0, 3, 4]).check()
    with pytest.raises(InvariantViolation):
        ChampionList([2, 3], [2, 3]).check()

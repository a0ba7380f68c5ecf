import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import landau
from landau import cache, primes
from landau.errors import CapacityError
from landau.primes import DEFAULT_MAX_LIMIT, PrimeTable, auto_limit

from conftest import extended
from oracles import segmented_primes_all

COLD_N = 103613071095758  # an n of the cold benchmark workload


def test_build_small():
    t = PrimeTable.build(10)
    assert t.primes.tolist() == [2, 3, 5, 7]


def test_prime_count_1e6(table1m):
    assert table1m.count_upto(10**6) == 78498


def test_next_prime():
    t = PrimeTable.build(1000)
    assert t.next_prime(7) == 11
    assert t.next_prime(113) == 127
    assert t.next_prime(2) == 3
    with pytest.raises(CapacityError):
        t.next_prime(997)
    with pytest.raises(ValueError):
        t.next_prime(0)


def test_sum_prime_range():
    t = PrimeTable.build(1000)
    assert t.sum_prime_range(1, 4) == 17
    assert t.sum_prime_range(1, 10) == 129
    assert t.sum_prime_range(5, 5) == 11
    with pytest.raises(IndexError):
        t.sum_prime_range(0, 3)


def test_max_gap_values(table1m):
    assert table1m.max_gap_upto(100) == 8
    assert table1m.max_gap_upto(10**4) == 36
    assert table1m.max_gap_upto(10**6) == 114


def test_gap_bound_and_monotone(table1m):
    g = table1m
    assert all(
        gap <= 0.93 * math.log(p) ** 2
        for p, gap in zip(g.record_primes.tolist(), g.record_gaps.tolist())
        if p > 10
    )
    assert list(g.record_gaps) == sorted(g.record_gaps)


def test_navigation_roundtrip():
    t = PrimeTable.build(10**5)
    ps = t.primes.tolist()
    for p in ps[1:]:
        assert t.next_prime(p - 1) == p


def test_cumulative_matches_fold(table1m):
    ps = table1m.primes.tolist()
    acc = 0
    fold = []
    for p in ps:
        acc += p
        fold.append(acc)
    assert fold == table1m.cumulative.tolist()


def test_capacity_budget():
    with pytest.raises(CapacityError):
        PrimeTable.build(DEFAULT_MAX_LIMIT + 1)  # refused before any sieving


def test_rank_and_is_prime():
    t = PrimeTable.build(100)
    assert t.rank(2) == 1 and t.rank(97) == 25
    assert t.prime(25) == 97
    assert t.is_prime(89) and not t.is_prime(91)
    with pytest.raises(ValueError):
        t.rank(91)


def test_disk_cache_roundtrip(tmp_path):
    d = str(tmp_path)
    t1 = PrimeTable.build(10**4, cache_dir=d)
    t2 = PrimeTable.build(10**4, cache_dir=d)
    assert t1.primes.tolist() == t2.primes.tolist()
    # smaller request slices the cached table
    t3 = PrimeTable.build(5000, cache_dir=d)
    assert t3.limit == 5000 and t3.primes[-1] <= 5000
    assert t3.count_upto(5000) == t1.count_upto(5000)
    assert t3.primes.base is None  # a copy: the file's whole array is not kept alive
    # larger request rebuilds
    t4 = PrimeTable.build(2 * 10**4, cache_dir=d)
    assert t4.primes.tolist() == PrimeTable.build(2 * 10**4).primes.tolist()
    # corrupted cache falls back to a rebuild
    path = cache.path(d)
    with open(path, "wb") as f:
        f.write(b"garbage")
    t5 = PrimeTable.build(10**4, cache_dir=d)
    assert t5.primes.tolist() == t1.primes.tolist()


@pytest.mark.parametrize("damage", ["cut", "flip", "version"])
def test_sieve_cache_damaged_file_rebuilt(tmp_path, monkeypatch, damage):
    d = str(tmp_path)
    path = cache.path(d)
    with monkeypatch.context() as m:
        if damage == "version":
            m.setattr(cache, "VERSION", cache.VERSION + 1)
        fresh = PrimeTable.build(10**4, cache_dir=d)
    if damage == "cut":
        os.truncate(path, os.path.getsize(path) - 1)
    if damage == "flip":  # 9973 becomes 9972, still ascending; only the CRC can tell
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[data.index((9973).to_bytes(8, "little"))] ^= 1
        with open(path, "wb") as f:
            f.write(data)
    assert cache.load(d, 10**4) is None
    assert PrimeTable.build(10**4, cache_dir=d).primes.tolist() == fresh.primes.tolist()
    assert cache.load(d, 10**4) is not None  # the rebuild replaced the file


BUILD_200_SIEVES = """
import sys
from landau.primes import PrimeTable

for limit in range(10**4, 2 * 10**5, 950):
    PrimeTable.build(limit, cache_dir=sys.argv[1])
"""


def test_sieve_cache_shared_by_two_processes(tmp_path):
    # both sieve the same ascending limits at the same pace, so their saves
    # overlap; each must write through a temp file of its own
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(landau.__file__)))
    procs = [
        subprocess.Popen([sys.executable, "-c", BUILD_200_SIEVES, str(tmp_path)],
                         env=env, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    errors = [proc.communicate(timeout=300)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], errors
    assert os.listdir(tmp_path) == ["sieve.npz"]
    last = range(10**4, 2 * 10**5, 950)[-1]
    assert cache.load(str(tmp_path), last).tolist() == PrimeTable.build(last).primes.tolist()


def test_auto_limit_covers_the_reads(monkeypatch):
    # a cold compute at the automatic limit never reads past its sieve, so
    # it never grows the table
    from landau.assemble import Solver

    grown = []
    monkeypatch.setattr(Solver, "_grow", lambda self: grown.append(self) or False)
    rng = random.Random(67)
    ns = [10**4, 10**6, 10**9, 10**12] + [int(10 ** rng.uniform(4, 12)) for _ in range(12)]
    for n in ns:
        solver = Solver(limit_hint=n)
        res = solver.compute(n)
        assert solver.table.limit == auto_limit(n) and not grown, n
        assert res.context.p_k < auto_limit(n)


def test_reads_past_the_table_raise_capacity_error():
    t = PrimeTable.build(100)  # 25 primes, the last 97
    assert t.prime(25) == 97 and t.count_upto(100) == 25 and t.sum_prime_range(1, 25) == 1060
    for read in (lambda: t.prime(26), lambda: t.rank(101),
                 lambda: t.sum_prime_range(20, 26), lambda: t.next_prime(97),
                 lambda: t.is_prime(101), lambda: t.max_gap_upto(101)):
        with pytest.raises(CapacityError):
            read()
    with pytest.raises(IndexError):  # below the table is a caller's error
        t.prime(0)


def test_build_peak_memory_stays_near_what_the_table_keeps():
    # one array filled segment by segment and trimmed once, and gap records
    # read in chunks: no second full-length copy of the primes is held
    tracemalloc.start()
    try:
        t = PrimeTable.build(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (t.primes, t.cumulative, t.record_primes, t.record_gaps))
    assert peak <= 1.5 * kept, (peak, kept)
    assert len(t) == 664579 and t.max_gap_upto(10**7) == 154


def test_gap_records_across_chunks(monkeypatch, table1m):
    # chunk boundaries anywhere leave the records as one pass finds them
    d = np.diff(table1m.primes)
    run = np.maximum.accumulate(d)
    rec = np.flatnonzero(np.r_[True, run[1:] > run[:-1]])
    for chunk in (1, 2, 3, 1000, 1 << 20):
        monkeypatch.setattr(primes, "GAP_CHUNK", chunk)
        ends, gaps = primes._gap_records(table1m.primes[:20000])
        keep = rec[rec + 1 < 20000]
        assert ends.tolist() == table1m.primes[keep + 1].tolist()
        assert gaps.tolist() == d[keep].tolist()


def test_immutability(table1m):
    with pytest.raises(ValueError):
        table1m.primes[0] = 1


EDGE = 2 * primes.SEGMENT  # the first number of the second segment


@pytest.mark.parametrize("limit", [3, 4, 5, 8, 9, 10, 11, 25, 49,
                                   EDGE - 1, EDGE, EDGE + 1, EDGE + 2, 10**6,
                                   auto_limit(10**12), auto_limit(COLD_N)])
def test_odd_sieve_matches_the_all_numbers_sieve(limit):
    assert np.array_equal(primes._segmented_primes(limit), segmented_primes_all(limit))


def test_odd_sieve_with_squares_on_segment_edges(monkeypatch):
    # with 12 odd numbers a segment, every p^2 >= 25 starts one: p^2 = 1 mod 24
    monkeypatch.setattr(primes, "SEGMENT", 12)
    for limit in (23, 24, 25, 26, 47, 49, 50, 1000, 10**4 + 1):
        assert np.array_equal(primes._segmented_primes(limit), segmented_primes_all(limit))


@extended
def test_odd_sieve_matches_the_all_numbers_sieve_1e15():
    limit = auto_limit(10**15)
    assert np.array_equal(primes._segmented_primes(limit), segmented_primes_all(limit))


def test_queries_take_integers_only():
    # a float needle would make numpy search a float64 copy of the table
    t = PrimeTable.build(100)
    for query in (t.count_upto, t.next_prime, t.is_prime, t.rank, t.max_gap_upto):
        with pytest.raises(TypeError):
            query(7.0)
    assert t.count_upto(np.int64(7)) == 4 and t.rank(np.int64(7)) == 4

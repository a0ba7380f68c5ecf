import json

import pytest
from mpmath import mp, workdps

from landau import assemble, cli, gfunction
from landau.arith import PrimeFraction, parse_factored
from landau.errors import (
    BoundFailureError,
    CapacityError,
    Delta1CeilingError,
    InvariantViolation,
    PrefixGapError,
)
from landau.primes import PrimeTable

from oracles import prefix_sets_mpf


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_compute_digits(capsys):
    rc, out, _ = run_cli(capsys, "compute", "5", "--format", "digits")
    assert rc == 0 and out.strip() == "6"
    rc, out, _ = run_cli(capsys, "compute", "19", "--format", "digits")
    assert rc == 0 and out.strip() == "420"


def test_compute_factored_1e6(capsys):
    rc, out, _ = run_cli(capsys, "compute", "1000000")
    assert rc == 0
    assert "N = 2^9 * 3^6 * 5^4 * 7^3 * [11-41]^2 * [43-3923]" in out
    assert "ell(N) = 998093" in out
    assert "g(n) = (43 * 3947) / (3847) * N" in out


def test_compute_cache_dir_holds_only_the_sieve(capsys, tmp_path):
    for _ in range(2):  # a cold run, then one served by the file
        rc, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "compute", "1000000")
        assert rc == 0 and "g(n) = (43 * 3947) / (3847) * N" in out
        assert [f.name for f in tmp_path.iterdir()] == ["sieve.npz"]


def test_compute_json_schema_and_log(capsys):
    rc, out, _ = run_cli(capsys, "compute", "1000000", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {
        "n", "rho", "ellN", "N_brackets", "correction_num", "correction_den",
        "ell_g", "log10_g",
    }
    assert payload["ellN"] == 998093
    assert payload["correction_num"] == str(43 * 3947)
    assert payload["correction_den"] == "3847"
    # log10_g agrees with an independent recomputation from the rendering
    table = PrimeTable.build(10**4)
    N = parse_factored(payload["N_brackets"], table)
    with workdps(45):
        log10 = (
            N.log
            + mp.log(int(payload["correction_num"]))
            - mp.log(int(payload["correction_den"]))
        ) / mp.log(10)
        assert mp.nstr(log10, 25) == payload["log10_g"]


def test_table_rows(capsys):
    rc, out, _ = run_cli(capsys, "table", "0", "7", "--format", "digits")
    assert rc == 0
    vals = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert vals == [1, 1, 2, 3, 4, 6, 6, 12]
    rc, out, _ = run_cli(capsys, "table", "5", "5", "--format", "digits")
    assert out.strip() == "5\t6"


def test_table_constant_middle_part(capsys):
    rc, out, _ = run_cli(capsys, "table", "31000", "31005")
    assert rc == 0
    table = PrimeTable.build(10**4)
    middles = []
    for line in out.strip().splitlines():
        f = parse_factored(line.split("\t")[1], table)
        middles.append(tuple((p, e) for p, e in f.factors if 19 <= p <= 509))
    assert len(set(middles)) == 1
    assert all(e == 1 for p, e in middles[0])
    assert len(middles[0]) == table.count_upto(509) - table.count_upto(18)


def test_table_range_guard(capsys):
    rc, _, err = run_cli(capsys, "table", "0", "2000000")
    assert rc == cli.EXIT_CAPACITY


def test_verify_ok(capsys):
    rc, out, _ = run_cli(capsys, "verify", "2000")
    assert rc == 0
    assert out.strip() == "1994/1994 OK"


def test_verify_detects_injected_fault(capsys, monkeypatch):
    from landau import assemble

    real = assemble.Solver.compute

    def faulty(self, n):
        res = real(self, n)
        if n == 1234:
            res.correction = res.correction.mul(PrimeFraction(((2, 1),)))
        return res

    monkeypatch.setattr(assemble.Solver, "compute", faulty)
    rc, out, _ = run_cli(capsys, "verify", "1500")
    assert rc == cli.EXIT_FAIL
    assert "MISMATCH at n=1234" in out


def test_gfun(capsys):
    rc, out, _ = run_cli(capsys, "gfun", "103", "22")
    assert rc == 0
    assert out == ("G(103, 22) = (107*113) / (101*97)\n"
                   "cost = 22\n"
                   "algorithm: windowed min-product recursion\n")
    # the large-m reduction, with p_{k+1} cancelled and with it kept
    rc, out, _ = run_cli(capsys, "gfun", "9973", "3000")
    assert rc == 0
    assert out == ("G(9973, 3000) = (10009) / (7013)\n"
                   "cost = 2996\n"
                   "algorithm: large-m reduction\n")
    rc, out, _ = run_cli(capsys, "gfun", "999983", "4000")
    assert rc == 0
    assert out == ("G(999983, 4000) = (1000003*1000037) / (999931*996109)\n"
                   "cost = 4000\n"
                   "algorithm: large-m reduction\n")


def test_superchampion_cmd(capsys):
    rc, out, _ = run_cli(capsys, "superchampion", "43")
    assert rc == 0
    assert "ell(N) = 43" in out and "2^2 * [3-13]" in out


def test_prefixes_cmd(capsys):
    # each line after the header is a member of the mpf reference D(B'),
    # at the first round's budget and trimmed to ben <= B, in order
    from landau.assemble import Solver
    from landau.benefit import initial_budget

    for n in (998555, 1000366):
        rc, out, _ = run_cli(capsys, "prefixes", str(n))
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# n = %d " % n)
        solver = Solver(limit_hint=n)
        bound, _ = solver.prefixes(n)
        ctx, tables = solver.context(n)
        b_prime = initial_budget(ctx, n)
        assert bound.B <= b_prime  # the first round settles
        want = ["%s %s %d" % (c.delta.render(), mp.nstr(c.ben, 15), c.dell)
                for c in prefix_sets_mpf(ctx, b_prime, tables) if c.ben <= bound.B]
        assert lines[1:] == want and "1 0.0 0" in want


def test_prefixes_grow_a_short_sieve(capsys, monkeypatch):
    # as compute does, prefixes grows an automatic sieve limit that falls
    # short, and starts over after a read past the sieve in the bound loop
    from landau import assemble, benefit

    want = run_cli(capsys, "prefixes", "1000000")
    assert want[0] == 0
    monkeypatch.setattr(assemble, "auto_limit", lambda n: 1000)
    assert run_cli(capsys, "prefixes", "1000000") == want
    limits = []

    def short_once(ctx, n, tables):
        limits.append(ctx.table.limit)
        if len(limits) == 1:
            raise CapacityError("stub: a read past the sieve")
        return bound_loop(ctx, n, tables)

    bound_loop = benefit.bound_loop
    monkeypatch.setattr(benefit, "bound_loop", short_once)
    monkeypatch.setattr(assemble, "bound_loop", short_once)
    assert run_cli(capsys, "prefixes", "1000000") == want
    assert len(limits) == 2 and limits[1] >= 2 * limits[0]


def test_superchampion_grows_a_short_sieve(capsys, monkeypatch):
    # superchampion grows a short automatic sieve as compute and prefixes
    # do, and starts over after a read past the sieve in the bracket lookup
    from landau import assemble

    want = run_cli(capsys, "superchampion", "1000000")
    assert want[0] == 0
    monkeypatch.setattr(assemble, "auto_limit", lambda n: 1000)
    assert run_cli(capsys, "superchampion", "1000000") == want
    limits = []

    def short_once(n, table, e2):
        limits.append(table.limit)
        if len(limits) == 1:
            raise CapacityError("stub: a read past the sieve")
        return find_context(n, table, e2)

    find_context = assemble.find_context
    monkeypatch.setattr(assemble, "find_context", short_once)
    assert run_cli(capsys, "superchampion", "1000000") == want
    assert len(limits) == 2 and limits[1] >= 2 * limits[0]


def test_precision_guard(capsys):
    rc, _, err = run_cli(capsys, "--precision", "10", "compute", "100")
    assert rc == cli.EXIT_FAIL


def test_config_validation(capsys):
    rc, _, err = run_cli(capsys, "--precision", "19", "compute", "100")
    assert rc == cli.EXIT_FAIL and "precision" in err
    rc, _, err = run_cli(capsys, "--digit-budget", "10", "compute", "100")
    assert rc == cli.EXIT_FAIL and "digit budget" in err


def test_compute_log_digits_unchanged(capsys):
    # the 25-digit log10 g(n) the CLI printed while compute still evaluated
    # the exact champion log on every call
    for n, want in (("1000000", "1699.395237142470003972748"),
                    ("1000000000", "65536.24744176646897076518")):
        rc, out, _ = run_cli(capsys, "compute", n, "--format", "log")
        assert rc == 0 and out.strip() == want
        rc, out, _ = run_cli(capsys, "compute", n)
        assert "log10(g(n)) = %s" % want in out


def test_compute_short_fixed_sieve_limit_exits_capacity(capsys):
    # --sieve-limit is a hard cap: too short for n, the run refuses
    rc, out, err = run_cli(capsys, "--sieve-limit", "3000", "compute", "1000000")
    assert rc == cli.EXIT_CAPACITY and out == "" and "sieve limit 3000" in err


def _raises(error):
    def planted(*args, **kwargs):
        raise error("planted")
    return planted


@pytest.mark.parametrize("owner, name, error, code, message", [
    (assemble, "bound_loop", BoundFailureError, 2, "bound failure: planted"),
    (assemble, "normalized_candidates", PrefixGapError, 3, "prefix gap violation: planted"),
    (gfunction.GEngine, "delta1", Delta1CeilingError, 5, "delta1 ceiling: planted"),
])
def test_compute_exit_codes_of_the_unproven_inequalities(capsys, monkeypatch, owner, name, error,
                                                         code, message):
    # each failure planted where compute meets it: the benefit bound, the
    # continuation gap of a normalized candidate, and delta1's ceiling, read
    # by every G evaluation once the large-m cutoff is 0
    monkeypatch.setattr(owner, name, _raises(error))
    monkeypatch.setattr(gfunction, "SMALL_M_CUTOFF", 0)
    rc, out, err = run_cli(capsys, "compute", "1000000")
    assert (rc, out) == (code, "") and message in err


def test_compute_invariant_violation_exits_1(capsys, monkeypatch):
    # any other package error leaves main as exit 1 with its message, not
    # as a traceback
    monkeypatch.setattr(gfunction.GEngine, "g_fraction", _raises(InvariantViolation))
    rc, out, err = run_cli(capsys, "compute", "1000000")
    assert (rc, out) == (1, "") and "invariant violation: planted" in err

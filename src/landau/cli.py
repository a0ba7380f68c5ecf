"""Command-line front end: compute, table, verify, gfun, superchampion,
prefixes.  Exit codes: 0 success, 1 generic failure, verify mismatch or
invariant violation, 2 benefit-bound failure, 3 prefix-gap violation,
4 capacity, 5 delta1 ceiling."""

import argparse
import json
import os
import sys

from mpmath import mp

from . import arith
from .arith import PrimeFraction, set_precision
from .assemble import Solver
from .errors import (
    BoundFailureError,
    CapacityError,
    Delta1CeilingError,
    LandauError,
    PrefixGapError,
)
from .gfunction import GEngine
from .oracle import g_list_merge_prune
from .primes import PrimeTable

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BOUND = 2
EXIT_PREFIX_GAP = 3
EXIT_CAPACITY = 4
EXIT_DELTA1 = 5

SOFT_N_CEILING = 10**15  # beyond this, delta1 existence is only conjectural


def _fraction_strs(frac, table=None):
    num = {p: e for p, e in frac.factors if e > 0}
    den = {p: -e for p, e in frac.factors if e < 0}
    num_s = arith.render_factored(tuple(sorted(num.items())), table) if num else "1"
    den_s = arith.render_factored(tuple(sorted(den.items())), table) if den else ""
    return num_s, den_s


def cmd_compute(args):
    n = args.n
    if n > SOFT_N_CEILING:
        print(
            "warning: n > 10^15; the large-budget search is only conjecturally complete",
            file=sys.stderr,
        )
    solver = Solver(limit_hint=n, cache_dir=args.cache_dir, sieve_limit=args.sieve_limit)
    result = solver.compute(n)
    table = solver.table
    if args.format == "digits":
        print(result.to_int(args.digit_budget))
        return EXIT_OK
    if args.format == "log":
        print(mp.nstr(result.log10_g, 25))
        return EXIT_OK
    if args.format == "json":
        num, den = result.correction.numerator(), result.correction.denominator()
        payload = {
            "n": n,
            "rho": mp.nstr(result.context.rho.value, 25) if result.context is not None else None,
            "ellN": result.context.ellN if result.context is not None else None,
            "N_brackets": result.champion.render() if result.champion is not None else "1",
            "correction_num": str(num),
            "correction_den": str(den),
            "ell_g": result.ell_g,
            "log10_g": mp.nstr(result.log10_g, 25),
        }
        print(json.dumps(payload))
        return EXIT_OK
    # factored
    print("n = %d" % n)
    if result.champion is not None:
        num_s, den_s = _fraction_strs(result.correction, table)
        print("N = %s" % result.champion.render())
        print("ell(N) = %d" % result.context.ellN)
        if result.correction.is_one():
            print("g(n) = N")
        elif den_s:
            print("g(n) = (%s) / (%s) * N" % (num_s, den_s))
        else:
            print("g(n) = (%s) * N" % num_s)
    else:
        print("g(n) = %s" % (result.correction.render(table) or "1"))
    print("ell(g(n)) = %d" % result.ell_g)
    print("log10(g(n)) = %s" % mp.nstr(result.log10_g, 25))
    return EXIT_OK


def cmd_table(args):
    a, b = args.a, args.b
    if not 0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    if b - a > 200_000:
        raise CapacityError("range too large; stream at most 200000 rows")
    lst = g_list_merge_prune(b)
    table = None
    if args.format == "factored":
        table = PrimeTable.build(max(10, int(2 * b**0.7) + 10))
    for n in range(a, b + 1):
        v = lst.query(n)
        if args.format == "digits":
            print("%d\t%d" % (n, v))
        else:
            print("%d\t%s" % (n, PrimeFraction.from_int(v).render(table) or "1"))
    return EXIT_OK


def cmd_verify(args):
    max_n = args.max_n
    if max_n > 5 * 10**5:
        raise CapacityError("verify beyond 5*10^5 is impractical; use the acceptance suite")
    solver = Solver(limit_hint=max_n, cache_dir=args.cache_dir, sieve_limit=args.sieve_limit)
    lst = g_list_merge_prune(max_n)
    checked = 0
    for n in range(7, max_n + 1):
        got = solver.compute(n).to_int(args.digit_budget)
        want = lst.query(n)
        if got != want:
            print("MISMATCH at n=%d" % n)
            print("  fast path: %s" % PrimeFraction.from_int(got).render())
            print("  oracle:    %s" % PrimeFraction.from_int(want).render())
            return EXIT_FAIL
        checked += 1
    print("%d/%d OK" % (checked, checked))
    return EXIT_OK


def cmd_gfun(args):
    if args.p < 3 or args.m < 0:
        raise ValueError("need a prime p >= 3 and m >= 0")
    table = PrimeTable.build(args.sieve_limit or args.p + args.m + 10**6,
                             cache_dir=args.cache_dir)
    engine = GEngine(table)
    frac = engine.g_fraction(args.p, args.m)
    if frac.is_one():  # exactly when m is below the first gap p_{k+1} - p_k
        algo = "below the first gap: G = 1"
        print("G(%d, %d) = 1" % (args.p, args.m))
    else:
        algo = ("large-m reduction" if engine.uses_large_m(args.p, args.m)
                else "windowed min-product recursion")
        Qs = [str(p) for p, e in frac.factors if e > 0]
        qs = [str(p) for p, e in reversed(frac.factors) if e < 0]
        print("G(%d, %d) = (%s) / (%s)" % (args.p, args.m, "*".join(Qs), "*".join(qs)))
    print("cost = %d" % frac.ell)
    print("algorithm: %s" % algo)
    return EXIT_OK


def cmd_superchampion(args):
    solver = Solver(limit_hint=args.n, cache_dir=args.cache_dir, sieve_limit=args.sieve_limit)
    ctx, _ = solver._growing(lambda: solver.context(args.n))
    print("n = %d" % args.n)
    print("rho = %s  (%r)" % (mp.nstr(ctx.rho.value, 25), ctx.rho))
    print("N = %s" % ctx.N.render())
    print("ell(N) = %d" % ctx.ellN)
    print("ell(N') = %d" % ctx.ell_nplus)
    print("p_k = %d" % ctx.p_k)
    print("x1 = %s" % mp.nstr(ctx.x1, 25))
    print("x2 = %s" % mp.nstr(ctx.x2, 25))
    print("B1 = %s" % mp.nstr(ctx.B1, 25))
    return EXIT_OK


def cmd_prefixes(args):
    solver = Solver(limit_hint=args.n, cache_dir=args.cache_dir, sieve_limit=args.sieve_limit)
    bound, d_set = solver.prefixes(args.n)
    _, tables = solver.context(args.n)
    print("# n = %d  B = %s  t1 = %s  count = %d"
          % (args.n, mp.nstr(bound.B, 15), mp.nstr(bound.t1, 15), len(d_set)))
    for fac, dell in zip(d_set.fac.tolist(), d_set.dell.tolist()):
        print("%s %s %d" % (arith.render_factored(fac), mp.nstr(tables.ben_of(fac), 15), dell))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="landau",
        description="Exact computation of Landau's function g(n) in factored form.",
    )
    ap.add_argument("--precision", type=int, default=arith.DEFAULT_PRECISION,
                    help="working precision in decimal digits (>= %d, default %d)"
                    % (arith.MIN_PRECISION, arith.DEFAULT_PRECISION))
    ap.add_argument("--cache-dir", default=os.environ.get("LANDAU_CACHE_DIR"),
                    help="directory for the sieve cache (or $LANDAU_CACHE_DIR)")
    ap.add_argument("--sieve-limit", type=int, default=None,
                    help="fix the sieve limit: a hard cap, where the default is "
                    "sized to n and grown as needed")
    ap.add_argument("--digit-budget", type=int, default=10**7,
                    help="refuse decimal expansions beyond this many digits")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute g(n) for one n")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("factored", "digits", "log", "json"),
                   default="factored")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="stream g(n) for a <= n <= b via the list oracle")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--format", choices=("factored", "digits"), default="factored")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="compare the fast path against the oracle")
    p.add_argument("max_n", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gfun", help="evaluate the balanced-fraction maximum G(p, m)")
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_gfun)

    p = sub.add_parser("superchampion", help="show the champion bracket for n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_superchampion)

    p = sub.add_parser("prefixes", help="dump the candidate set D(B) for n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_prefixes)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.digit_budget < 10**3:
            raise ValueError("digit budget below 1000 is not useful")
        if args.precision != mp.dps:
            set_precision(args.precision)
        return args.func(args)
    except BoundFailureError as e:
        print("bound failure: %s" % e, file=sys.stderr)
        return EXIT_BOUND
    except PrefixGapError as e:
        print("prefix gap violation: %s" % e, file=sys.stderr)
        return EXIT_PREFIX_GAP
    except CapacityError as e:
        print("capacity: %s" % e, file=sys.stderr)
        return EXIT_CAPACITY
    except Delta1CeilingError as e:
        print("delta1 ceiling: %s" % e, file=sys.stderr)
        return EXIT_DELTA1
    except LandauError as e:
        print("invariant violation: %s" % e, file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, IndexError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

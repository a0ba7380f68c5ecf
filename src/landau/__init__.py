"""Exact computation of Landau's function g(n), the maximal order of a
permutation on n letters, in factored form for n up to 10^15."""

from .arith import PrimeFraction, parse_factored, render_factored, set_precision
from .assemble import LandauResult, Solver
from .errors import (
    BoundFailureError,
    CapacityError,
    Delta1CeilingError,
    InvariantViolation,
    LandauError,
    PrefixGapError,
)
from .gfunction import GEngine
from .oracle import g_list_merge_prune
from .primes import PrimeTable
from .superchampion import build_e2_table, find_context

__version__ = "0.1.0"

__all__ = [
    "BoundFailureError",
    "CapacityError",
    "Delta1CeilingError",
    "GEngine",
    "InvariantViolation",
    "LandauError",
    "LandauResult",
    "PrefixGapError",
    "PrimeFraction",
    "PrimeTable",
    "Solver",
    "build_e2_table",
    "find_context",
    "g_list_merge_prune",
    "parse_factored",
    "render_factored",
    "set_precision",
]

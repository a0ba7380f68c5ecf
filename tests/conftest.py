import math
import os

import pytest

from landau import arith
from landau.oracle import g_list_merge_prune
from landau.primes import PrimeTable

EXTENDED = os.environ.get("LANDAU_EXTENDED") == "1"

extended = pytest.mark.skipif(
    not EXTENDED, reason="extended test; set LANDAU_EXTENDED=1 to run"
)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("landau-cache"))


@pytest.fixture(scope="session")
def table1m():
    return PrimeTable.build(10**6)


@pytest.fixture(scope="session")
def champion_list():
    """g(n) for every n <= 151000 from the merge-and-prune list, built once
    for the tests that read it below 10^5 and in [150001, 151000]."""
    return g_list_merge_prune(151000)


@pytest.fixture
def forced_exact(monkeypatch):
    """Every fast comparison undecided: with an infinite rounding bound each
    caller of arith.rounding_error takes its exact fallback."""
    monkeypatch.setattr(arith, "rounding_error", lambda size, steps: math.inf)

"""The answers digest of same_results.py against the committed one, on
the float paths and with every comparison exact."""

from conftest import extended
from same_results import committed_answers, digests


@extended
def test_same_answers():
    assert digests()[0] == committed_answers()


@extended
def test_same_answers_under_forced_exact(forced_exact):
    assert digests()[0] == committed_answers()

"""Acceptance battery: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``sympext check``).
The tolerances live in sympext.checks; expensive runs are shared through
the memoized helpers there.
"""
import pytest

from sympext import checks

NAMES = {
    1: "omega-scan error table",
    2: "delta-scan error table",
    3: "symplecticity suite",
    4: "long-time energy comparison",
    5: "copy-binding scaling",
    6: "oracle integrity",
    7: "section ordering under restraint",
    8: "mode-system conservation and ergodicity",
    9: "mode cascade onset",
    10: "empirical order certification",
    11: "geodesic conservation properties",
}


@pytest.mark.parametrize("number", sorted(checks.CRITERIA))
def test_criterion(number):
    result = checks.CRITERIA[number]()
    print(result.line())
    assert result.passed, result.line()

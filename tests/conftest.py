"""Shared pytest plumbing: the acceptance result ledger and the
MacWilliams transform.

Acceptance tests append one line per criterion; the terminal-summary hook
replays them after the run so the pass/fail ledger is visible even under
output capture.
"""

import math

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def _macwilliams(A, n, q, k, w_max):
    """B_1..B_w_max of the dual from the weight distribution A (A[0] = 1),
    with exact Krawtchouk sums: q^k B_j = sum_i A_i K_j(i)."""
    def krawtchouk(j, i):
        return sum((-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
                   for s in range(j + 1))
    out = {}
    for j in range(1, w_max + 1):
        total = sum(a * krawtchouk(j, i) for i, a in A.items())
        assert total % q ** k == 0
        out[j] = total // q ** k
    return out


@pytest.fixture(scope="session")
def macwilliams():
    """The dual counts from a full weight distribution, a route that
    shares no code with the support search."""
    return _macwilliams


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

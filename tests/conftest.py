"""Shared pytest plumbing.

The acceptance gate in test_acceptance.py tags each test with the number of
the criterion it checks; a terminal-summary hook prints one PASS/FAIL line
per criterion so the gate's verdict is readable without scrolling.  The
envelope_conditions fixture is the grid check shared by the analysis tests
and criterion 6.  The sample_identities and tap_identities fixtures check
the two UEP identities, on frames.sample_bank's arrays and on a bank's
shipped taps.
"""

import re

import numpy as np
import pytest

from pseudosplines import frames
from pseudosplines.symbol import eval_p

CRITERIA = {
    1: "partition of unity: min equals the closed-form bound, max equals 1, full order sweep",
    2: "p-form equivalence and q' against finite differences, 1000 randomized cases",
    3: "cascade L2 monotonicity, convergence, B-spline oracle, refinement residual",
    4: "filter-bank row and half-shift identities within 1e-10 for every order",
    5: "discrete Parseval and perfect reconstruction on random signals",
    6: "regularity and approximation: fits and closed forms for real and complex orders",
    7: "lowpass arctan condition, positive floor, and pointwise ordering",
    8: "real shifts: phase identity, unchanged reports, unchanged bank identities",
    9: "CLI determinism, exit-code table, and order-constraint rejection",
}


def _envelope_conditions(order, points: int = 4096) -> bool:
    """Grid check of the two envelope inequalities behind the decay bound.

    (a) |p(x)| <= |p(3/4)| on [0, 3/4]; (b) |p(x) p(4x(1-x))| <= |p(3/4)|^2
    on [3/4, 1]; both with 1e-12 slack on a uniform x-grid.
    """
    p34 = abs(eval_p(order, 0.75))
    xs_a = np.linspace(0.0, 0.75, points)
    ok_a = bool(np.all(np.abs(eval_p(order, xs_a)) <= p34 + 1e-12))
    xs_b = np.linspace(0.75, 1.0, points)
    inner = np.clip(4.0 * xs_b * (1.0 - xs_b), 0.0, 1.0)
    ok_b = bool(np.all(np.abs(eval_p(order, xs_b) * eval_p(order, inner)) <= p34 * p34 + 1e-12))
    return ok_a and ok_b


@pytest.fixture
def envelope_conditions():
    return _envelope_conditions


def _sample_identities(symbols) -> tuple[float, float]:
    """(diagonal, offdiagonal): max |sum_n |H_n|^2 - 1| and
    max |sum_n H_n(gamma) conj(H_n(gamma + 1/2))| over sampled H0..H3."""
    diag = sum(np.abs(h) ** 2 for h in symbols)
    off = sum(h * np.conj(np.roll(h, -(len(h) // 2))) for h in symbols)
    return float(np.max(np.abs(diag - 1.0))), float(np.max(np.abs(off)))


def _tap_identities(bank) -> tuple[float, float]:
    """frames.uep_errors of the bank's taps, asserted within the proven
    bounds: the off-diagonal sum cancels to rounding, and each band's
    dropped taps, of l1 norm t, move H_n by at most t at any gamma, so the
    diagonal by at most 2 t + t^2.  Returns both defects."""
    diag, off = frames.uep_errors(bank)
    tails = [bank.coeffs[n].tail_l1 for n in range(4)]
    assert off <= 1e-13, off
    assert diag <= sum(2.0 * t + t * t for t in tails) + 1e-13, (diag, tails)
    return diag, off


# session-scoped, so that hypothesis tests can take them too
@pytest.fixture(scope="session")
def sample_identities():
    return _sample_identities


@pytest.fixture(scope="session")
def tap_identities():
    return _tap_identities


_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance-gate test tied to a numbered criterion")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.failed:
        _outcomes[number] = "FAIL"
    elif report.skipped:
        _outcomes.setdefault(number, "SKIP")
    elif report.when == "call":
        _outcomes.setdefault(number, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        status = _outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(f"[criterion {number}] {status} - {CRITERIA[number]}")

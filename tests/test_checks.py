"""The verification suites underlying the verify command."""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pseudosplines import cli, frames
from pseudosplines.analysis import lowpass_condition
from pseudosplines.checks import (
    CheckResult,
    run_all,
    run_cascade_checks,
    run_frames_checks,
    run_symbol_checks,
)
from pseudosplines.errors import ToleranceError
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid, max_ell

# the orders of the verify_sweep benchmark workload
VERIFY_SWEEP = [*cli._parse_orders(cli.DEFAULT_SWEEP), PseudoSplineOrder(2.0, 1, shift=0.5)]


def test_check_result_semantics():
    good = CheckResult("x", observed=1e-12, limit=1e-10)
    bad = CheckResult("x", observed=1e-8, limit=1e-10)
    assert good.passed and not bad.passed
    assert good.margin == pytest.approx(1e-10 - 1e-12)
    d = good.to_dict()
    assert d["name"] == "x" and d["passed"] is True


def test_sized_bank_grid_is_the_least_that_meets_eps():
    for order in VERIFY_SWEEP:
        results, n = run_frames_checks(order, signals=5)
        assert all(r.passed for r in results), (order.label(), [r for r in results if not r.passed])
        if n > 64:
            with pytest.raises(ToleranceError):
                frames.build_bank(order, TorusGrid(n // 2))


def test_symbol_suite_passes_for_representative_orders():
    for z, ell, u in [(1.0, 0, 0.0), (2.7, 1, 0.0), (3.2 + 1.0j, 3, 0.0), (1.5, 1, 0.5)]:
        results = run_symbol_checks(PseudoSplineOrder(z, ell, shift=u), resolution=1024)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_symbol_suite_includes_the_phase_check_only_when_shifted():
    names = {r.name for r in run_symbol_checks(PseudoSplineOrder(1.5, 1, shift=0.5), resolution=256)}
    assert "shift_phase_identity" in names
    names = {r.name for r in run_symbol_checks(PseudoSplineOrder(1.5, 1), resolution=256)}
    assert "shift_phase_identity" not in names


def test_cascade_suite_passes():
    results = run_cascade_checks(PseudoSplineOrder(1.5, 1), levels=16, window=32.0, step=1.0 / 32)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_frames_suite_passes():
    results, n = run_frames_checks(PseudoSplineOrder(2.0, 1), resolution=1024, signals=10)
    assert n == 1024
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_a_cascade_cut_short_fails_its_checks():
    results = run_cascade_checks(PseudoSplineOrder(1.0, 0), levels=3)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["refinement_residual", "final_sup_change"]


def test_run_all_reports_three_suites():
    out, frames_resolution = run_all(
        PseudoSplineOrder(1.0, 0),
        symbol_resolution=256,
        frames_resolution=512,
        levels=18,
        window=16.0,
        step=1.0 / 16,
        signals=5,
        signal_length=256,
    )
    assert frames_resolution == 512
    assert set(out) == {"symbol", "cascade", "frames"}
    for results in out.values():
        assert results and all(r.passed for r in results)


# Every order of this box that the constructor and the arctan condition
# accept passes the frames suite at its sized grid, or needs more than the
# automatic grid's 2^18 points; (1.044+8.21i, 0) needs all of them.
@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(min_value=1.0, max_value=8.0),
    beta=st.floats(min_value=-10.0, max_value=10.0),
    ell_fraction=st.floats(min_value=0.0, max_value=1.0),
    shift=st.one_of(st.just(0.0), st.floats(min_value=-4.0, max_value=4.0)),
)
@example(alpha=1.044, beta=8.21, ell_fraction=0.0, shift=0.0)
def test_frames_suite_passes_or_names_the_cap_across_the_box(alpha, beta, ell_fraction, shift):
    order = PseudoSplineOrder(complex(alpha, beta), int(ell_fraction * max_ell(alpha)), shift=shift)
    assume(lowpass_condition(order)[0])
    try:
        results, _ = run_frames_checks(order, signals=5)
    except ToleranceError as exc:
        assert "2^18" in str(exc)
        return
    assert all(r.passed for r in results), (order.label(), [r for r in results if not r.passed])

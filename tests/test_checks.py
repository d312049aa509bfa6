"""The verification suites underlying the verify command."""

import pytest

from pseudosplines.checks import (
    CheckResult,
    default_bank_resolution,
    run_all,
    run_cascade_checks,
    run_frames_checks,
    run_symbol_checks,
)
from pseudosplines.symbol import PseudoSplineOrder


def test_check_result_semantics():
    good = CheckResult("x", observed=1e-12, limit=1e-10)
    bad = CheckResult("x", observed=1e-8, limit=1e-10)
    assert good.passed and not bad.passed
    assert good.margin == pytest.approx(1e-10 - 1e-12)
    d = good.to_dict()
    assert d["name"] == "x" and d["passed"] is True


def test_default_bank_resolution_depends_on_the_shift():
    assert default_bank_resolution(PseudoSplineOrder(1.5, 0)) == 8192
    assert default_bank_resolution(PseudoSplineOrder(1.5, 0, shift=2.0)) == 8192
    assert default_bank_resolution(PseudoSplineOrder(1.5, 0, shift=0.5)) == 16384


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
    results = run_frames_checks(PseudoSplineOrder(2.0, 1), resolution=1024, signals=10)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_a_cascade_cut_short_fails_its_checks():
    results = run_cascade_checks(PseudoSplineOrder(1.0, 0), levels=3)
    failed = [r.name for r in results if not r.passed]
    assert failed == ["refinement_residual", "final_sup_change"]


def test_run_all_reports_three_suites():
    out = run_all(
        PseudoSplineOrder(1.0, 0),
        symbol_resolution=256,
        frames_resolution=512,
        levels=18,
        window=16.0,
        step=1.0 / 16,
        signals=5,
        signal_length=256,
    )
    assert set(out) == {"symbol", "cascade", "frames"}
    for results in out.values():
        assert results and all(r.passed for r in results)

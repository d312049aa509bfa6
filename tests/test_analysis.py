"""Analytic exponents, the lowpass condition, and empirical fit validation."""

import json
import math

import numpy as np
import pytest

from pseudosplines import analysis
from pseudosplines.cascade import run_cascade
from pseudosplines.errors import ConditionError
from pseudosplines.serialize import dump_json
from pseudosplines.symbol import PseudoSplineOrder, kappa, max_ell, theta_bound

# complex orders that meet the lowpass condition, so full_report fits them
COMPLEX_FITTED = [(3.2 + 1.0j, 0), (3.2 + 1.0j, 1), (3.2 + 1.0j, 2), (3.2 + 1.0j, 3),
                  (2.0 + 1.0j, 1), (4.5 + 2.0j, 3), (1.0 + 5.0j, 0)]


# ---------------------------------------------------------------- lowpass condition


def test_lowpass_condition_trivial_for_real_orders():
    for z, ell in [(1.0, 0), (2.0, 1), (4.2, 3)]:
        ok, total = analysis.lowpass_condition(PseudoSplineOrder(z, ell))
        assert ok
        assert total == 0.0


def test_lowpass_condition_for_the_reference_complex_family():
    ok, total = analysis.lowpass_condition(PseudoSplineOrder(3.2 + 1.0j, 3))
    assert ok
    expected = sum(math.atan2(1.0, 3.2 + j) for j in range(4))
    assert total == pytest.approx(expected, abs=1e-14)
    assert total == pytest.approx(0.8865294603208078, abs=1e-12)
    assert abs(total) < math.pi / 2


def test_lowpass_condition_skips_the_sum_at_ell_zero():
    ok, total = analysis.lowpass_condition(PseudoSplineOrder(1.0 + 50.0j, 0))
    assert ok
    assert total == 0.0


def test_lowpass_condition_can_fail():
    ok, total = analysis.lowpass_condition(PseudoSplineOrder(1.5 + 8.0j, 1))
    assert not ok
    assert abs(total) >= math.pi / 2


# ---------------------------------------------------------------- lowpass floor


def test_lowpass_floor_for_the_linear_spline():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0))
    floor = analysis.lowpass_floor(profile)
    assert floor == pytest.approx((2.0 * math.sqrt(2.0) / math.pi) ** 2, abs=1e-9)
    assert floor > 0.0


def test_lowpass_floor_ordering_for_the_complex_family():
    base, _ = run_cascade(PseudoSplineOrder(3.2 + 1.0j, 0))
    higher, _ = run_cascade(PseudoSplineOrder(3.2 + 1.0j, 2))
    assert analysis.lowpass_floor(higher) > 0.0
    # |phi_hat| at ell=0 sits below the ell=2 profile on |gamma| <= 1/4
    sel = np.abs(higher.gammas) <= 0.25 + 1e-12
    assert np.all(np.abs(base.values[sel]) <= np.abs(higher.values[sel]) + 1e-9)


def test_lowpass_floor_rejects_violated_condition():
    profile, _ = run_cascade(
        PseudoSplineOrder(1.5 + 8.0j, 1), levels=12, window=16.0, step=1.0 / 16
    )
    with pytest.raises(ConditionError):
        analysis.lowpass_floor(profile)


# ---------------------------------------------------------------- closed forms


def test_kappa_values():
    assert kappa(PseudoSplineOrder(1.0, 0)) == 0.0
    assert kappa(PseudoSplineOrder(3.5, 0)) == 0.0
    assert kappa(PseudoSplineOrder(3.2 + 1.0j, 0)) == 0.0
    assert kappa(PseudoSplineOrder(2.0, 1)) == pytest.approx(math.log2(2.5), abs=1e-14)
    assert kappa(PseudoSplineOrder(3.0, 1)) == pytest.approx(math.log2(3.25), abs=1e-14)
    # p(x) = 1 + z x for ell = 1
    assert kappa(PseudoSplineOrder(3.2 + 1.0j, 1)) == pytest.approx(math.log2(abs(3.4 + 0.75j)), abs=1e-14)


def test_kappa_monotone_in_ell():
    for alpha in (2.0, 3.5, 4.2):
        values = [
            kappa(PseudoSplineOrder(alpha, ell))
            for ell in range(max_ell(alpha) + 1)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


def test_holder_exponent_values():
    assert analysis.holder_exponent(PseudoSplineOrder(1.0, 0)) == pytest.approx(1.0)
    assert analysis.holder_exponent(PseudoSplineOrder(2.0, 0)) == pytest.approx(3.0)
    assert analysis.holder_exponent(PseudoSplineOrder(2.0, 1)) == pytest.approx(
        3.0 - math.log2(2.5), abs=1e-14
    )
    # ell = 0 collapses to 2 alpha - 1
    for alpha in (1.0, 1.5, 2.7, 4.2):
        assert analysis.holder_exponent(PseudoSplineOrder(alpha, 0)) == pytest.approx(
            2.0 * alpha - 1.0, abs=1e-13
        )


def test_approximation_order_values():
    assert analysis.approximation_order(PseudoSplineOrder(1.0, 0)) == 2.0
    assert analysis.approximation_order(PseudoSplineOrder(2.0, 1)) == 4.0
    assert analysis.approximation_order(PseudoSplineOrder(3.5, 1)) == 4.0
    assert analysis.approximation_order(PseudoSplineOrder(3.5, 3)) == 7.0
    assert analysis.approximation_order(PseudoSplineOrder(3.2 + 1.0j, 3)) == 6.4


def test_L_conditions_hold_for_valid_orders(envelope_conditions):
    for z, ell in [(1.0, 0), (2.0, 1), (1.5, 1), (3.5, 2), (4.2, 3), *COMPLEX_FITTED]:
        assert envelope_conditions(PseudoSplineOrder(z, ell))


# ---------------------------------------------------------------- fits


def test_decay_fit_recovers_spline_envelopes():
    # wide window so the [16, 512] fit range is covered; the envelope fit
    # only needs a handful of points per period
    p1, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=640.0, step=1.0 / 16)
    assert analysis.fit_decay(p1)[0] == pytest.approx(-2.0, abs=0.1)
    p2, _ = run_cascade(PseudoSplineOrder(2.0, 0), window=640.0, step=1.0 / 16)
    assert analysis.fit_decay(p2)[0] == pytest.approx(-4.0, abs=0.1)


def test_decay_fit_respects_the_theoretical_bound():
    for z, ell in [(1.5, 1), (2.7, 2), (3.5, 3), *COMPLEX_FITTED]:
        order = PseudoSplineOrder(z, ell)
        profile, _ = run_cascade(order)
        bound = -(2.0 * order.alpha - kappa(order))
        assert analysis.fit_decay(profile)[0] <= bound + 0.2


def test_zero_order_fit_matches_the_flatness_order():
    assert analysis.fit_zero_order(PseudoSplineOrder(1.0, 0))[0] == pytest.approx(2.0, abs=0.02)
    assert analysis.fit_zero_order(PseudoSplineOrder(2.0, 1))[0] == pytest.approx(4.0, abs=0.05)
    assert analysis.fit_zero_order(PseudoSplineOrder(3.4, 2))[0] == pytest.approx(6.0, abs=0.05)
    assert analysis.fit_zero_order(PseudoSplineOrder(3.2 + 1.0j, 3))[0] == pytest.approx(8.0, abs=0.02)
    # the fit window [(5e-12 / C)^(1/10), 1e-2] is empty: the zero is too flat
    assert analysis.fit_zero_order(PseudoSplineOrder(5.0, 4)) is None


# ---------------------------------------------------------------- reports


def test_full_report_for_the_cubic_spline():
    report = analysis.full_report(PseudoSplineOrder(2.0, 0))
    assert report.theta == pytest.approx(0.125, abs=1e-14)
    assert report.kappa == 0.0
    assert report.holder_s == pytest.approx(3.0)
    assert report.approx_order == 2.0
    assert report.lowpass_ok
    assert report.lowpass_floor_c > 0.0
    assert report.fit_zero_order == pytest.approx(2.0, abs=0.05)
    assert report.fit_decay_exponent == pytest.approx(-4.0, abs=0.2)


def test_full_report_for_a_complex_order_omits_real_only_fields():
    # no field is real-only: a complex order meeting the condition gets them all
    order = PseudoSplineOrder(3.2 + 1.0j, 3)
    report = analysis.full_report(order)
    assert report.lowpass_ok
    assert report.theta == pytest.approx(theta_bound(order))
    assert report.kappa == kappa(order)
    assert report.holder_s == pytest.approx(6.4 - kappa(order) - 1.0, abs=1e-14)
    assert report.approx_order == 6.4
    d = report.to_dict()
    for name in ("kappa", "holder_s", "approx_order", "fit_decay_exponent", "fit_zero_order", "lowpass_floor_c"):
        assert name in d
    assert d["lowpass_arctan_sum"]["value"] == pytest.approx(0.8865294603208078, abs=1e-12)


def test_report_fields_carry_provenance():
    d = analysis.full_report(PseudoSplineOrder(2.0, 1)).to_dict()
    assert d["kappa"]["provenance"] == "closed-form"
    assert d["fit_decay_exponent"]["provenance"] == "fitted"
    assert "residual" in d["fit_decay_exponent"]
    assert d["lowpass_floor_c"]["provenance"] == "grid-minimum"
    assert json.loads(dump_json(d)) == d


def test_reports_are_shift_invariant():
    plain = analysis.full_report(PseudoSplineOrder(1.5, 1)).to_dict()
    shifted = analysis.full_report(PseudoSplineOrder(1.5, 1, shift=2.0)).to_dict()
    assert plain.pop("order") != shifted.pop("order")
    assert plain == shifted


def test_full_report_without_fits_is_fast_and_partial():
    report = analysis.full_report(PseudoSplineOrder(4.2, 3), with_fits=False)
    assert report.fit_decay_exponent is None
    assert report.fit_zero_order is None
    assert report.kappa is not None

"""Refinement symbol: binomials, order validation, closed forms, partition bounds, shifts."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from pseudosplines.analysis import lowpass_condition, require_frame
from pseudosplines.errors import ConditionError, OrderError, ResolutionError
from pseudosplines.frames import build_bank
from pseudosplines.symbol import (
    PseudoSplineOrder,
    TorusGrid,
    _binomial,
    _p_taylor,
    eval_H0,
    eval_p,
    eval_q,
    eval_q_prime,
    max_ell,
    partition_extrema,
    partition_values,
    sample_H0,
    theta_bound,
)

GRID = TorusGrid(4096)


# ---------------------------------------------------------------- binomials


def falling_factorial_quotient(a, k):
    num = 1.0 + 0.0j
    for j in range(k):
        num *= a - j
    return num / math.factorial(k)


def test_binomial_integer_values():
    assert _binomial(5, 2) == 10
    assert _binomial(6, 0) == 1
    assert _binomial(2, 3) == 0
    # past 32 factors an integer a < k still hits an exact zero factor
    assert _binomial(4.0, 34) == 0
    assert _binomial(40.0, 34) == pytest.approx(scipy.special.binom(40, 34), rel=1e-12)


def test_binomial_matches_scipy_for_real_orders():
    rng = np.random.default_rng(13)
    for a in rng.uniform(0.3, 9.0, 50):
        for k in (0, 1, 2, 3, 5, 8):
            ref = scipy.special.binom(a, k)
            assert _binomial(a, k).real == pytest.approx(ref, rel=1e-12)
            assert abs(_binomial(a, k).imag) < 1e-13


@settings(deadline=None, max_examples=200)
@given(
    st.complex_numbers(max_magnitude=400.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=32),
)
def test_binomial_is_the_plain_product_up_to_32_factors(a, k):
    assert _binomial(a, k) == falling_factorial_quotient(complex(a), k)


@pytest.mark.parametrize(
    "a", [0.37, 17.25, 123.456, 299.9, 3.2 + 1.0j, 150.5 - 75.25j, 212.1 + 212.1j, 0.5 - 300.0j]
)
def test_binomial_matches_exact_rationals(a):
    # exact binom(a, k) of the float a, by the ratio recurrence in Fractions
    a = complex(a)
    re, im = Fraction(a.real), Fraction(a.imag)
    exact_re, exact_im = Fraction(1), Fraction(0)
    for k in range(251):
        exact = complex(float(exact_re), float(exact_im))
        assert abs(_binomial(a, k) - exact) <= 1e-14 * abs(exact), k
        fr, fi = re - k, im
        exact_re, exact_im = (
            (exact_re * fr - exact_im * fi) / (k + 1),
            (exact_re * fi + exact_im * fr) / (k + 1),
        )


def test_binomial_tiny_real_argument():
    a = 3.6e-248
    assert _binomial(a, 33) == pytest.approx(a / 33.0, rel=1e-12)


def test_binomial_overflow_is_an_order_error():
    # binom(2000, 1000) ~ 2e600; the message names a and k
    with pytest.raises(OrderError, match=r"a = \(2000\+0j\), k = 1000"):
        _binomial(2000.0, 1000)
    # a plain product over k! would overflow here; the ratio factors do not
    order = PseudoSplineOrder(322.2, 166)
    assert np.all(np.isfinite(order.definition_coefficients()))
    assert np.all(np.isfinite(order.taylor_coefficients()))


@settings(deadline=None, max_examples=100)
@given(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=15.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=40),
)
def test_binomial_pascal_recurrence(a, k):
    lhs = _binomial(a, k)
    rhs = _binomial(a - 1, k - 1) + _binomial(a - 1, k)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------- orders


def test_order_accepts_standard_range():
    for z, ell in [(1.0, 0), (1.5, 1), (2.0, 1), (3.5, 3), (4.2, 3), (3.2 + 1.0j, 2)]:
        order = PseudoSplineOrder(z, ell)
        assert order.alpha == pytest.approx(complex(z).real)
        assert order.shift == 0.0
        assert not order.extended


def test_order_tolerates_one_step_past_the_bound():
    # the reference complex family is exercised one step past floor(alpha-1/2);
    # the constructor admits that step and flags it
    order = PseudoSplineOrder(3.2 + 1.0j, 3)
    assert max_ell(order.alpha) == 2
    assert order.extended


@pytest.mark.parametrize(
    "z, ell",
    [(2.0, 3), (1.0, 2), (0.9, 0), (2.0, -1), (1.5 + 0.5j, 4)],
)
def test_order_rejects_out_of_range(z, ell):
    with pytest.raises(OrderError):
        PseudoSplineOrder(z, ell)


def test_order_rejection_quotes_the_constraint():
    with pytest.raises(OrderError, match=r"floor\(alpha - 1/2\) = 1"):
        PseudoSplineOrder(2.0, 3)


def test_grid_rejects_bad_resolution():
    with pytest.raises(ResolutionError):
        TorusGrid(3)
    with pytest.raises(ResolutionError):
        TorusGrid(0)


# ---------------------------------------------------------------- closed forms


def test_H0_is_cos_squared_for_the_linear_spline():
    order = PseudoSplineOrder(1.0, 0)
    gam = np.linspace(-0.5, 0.5, 101)
    vals = eval_H0(order, gam)
    assert np.abs(vals - np.cos(np.pi * gam) ** 2).max() < 1e-14


def test_H0_matches_binomial_filter_for_integer_orders():
    # (z=2, ell=0) is the length-5 binomial lowpass [1,4,6,4,1]/16
    order = PseudoSplineOrder(2.0, 0)
    gam = GRID.gamma
    taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    ref = sum(c * np.exp(2j * np.pi * k * gam) for k, c in zip(range(-2, 3), taps))
    assert np.abs(eval_H0(order, gam) - ref).max() < 1e-13


def test_H0_endpoint_values():
    for z, ell in [(1.0, 0), (2.5, 1), (3.2 + 1.0j, 2)]:
        order = PseudoSplineOrder(z, ell)
        assert eval_H0(order, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(eval_H0(order, 0.5)) < 1e-14
        assert abs(eval_H0(order, -0.5)) < 1e-14


def test_p_forms_agree_at_a_complex_order():
    order = PseudoSplineOrder(3.2 + 1.0j, 2)
    x = 0.3
    d = eval_p(order, x, form="definition")
    t = eval_p(order, x, form="taylor")
    assert abs(d - t) <= 1e-12 * max(abs(t), 1.0)


def test_p_form_equivalence_randomized():
    rng = np.random.default_rng(21)
    for _ in range(200):
        z = rng.uniform(1.0, 5.0) + 1j * rng.uniform(-2.0, 2.0) * rng.integers(0, 2)
        ell = int(rng.integers(0, max_ell(z.real) + 1))
        order = PseudoSplineOrder(z, ell)
        x = rng.uniform(0.0, 1.0, 7)
        d = np.asarray(eval_p(order, x, form="definition"))
        t = np.asarray(eval_p(order, x, form="taylor"))
        assert np.abs(d - t).max() <= 1e-12 * max(np.abs(t).max(), 1.0)


def test_q_prime_matches_finite_differences():
    order = PseudoSplineOrder(3.2 + 1.0j, 1)
    x, h = 0.4, 1e-6
    fd = (eval_q(order, x + h) - eval_q(order, x - h)) / (2.0 * h)
    qp = eval_q_prime(order, x)
    assert abs(qp - fd) <= 1e-6 * max(abs(qp), 1.0)


def test_q_boundary_values():
    for z, ell in [(1.5, 1), (2.0, 1), (3.2 + 1.0j, 2)]:
        order = PseudoSplineOrder(z, ell)
        assert eval_q(order, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(eval_q(order, 1.0)) < 1e-14


@pytest.mark.parametrize("z, ell", [(1.0, 0), (2.5, 1), (3.2 + 1.0j, 2), (4.2, 3), (6.0 - 4.0j, 1)])
def test_the_symbol_vanishes_exactly_where_x_is_one_without_warnings(z, ell):
    # x = sin^2(pi gamma) = 1 at gamma = +-1/2, +-3/2, where log1p(-x) = -inf
    order = PseudoSplineOrder(z, ell)
    gammas = [0.5, -0.5, 1.5, -1.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for g in gammas:
            assert eval_H0(order, g) == 0.0
        assert eval_q(order, 1.0) == 0.0
        assert np.array_equal(eval_H0(order, np.array(gammas + [0.0])), [0, 0, 0, 0, 1])
        assert np.array_equal(eval_q(order, np.array([1.0, 0.0, 1.0])), [0, 1, 0])


def q_gather_scatter(order, x):
    """q evaluated only at x < 1 and scattered into zeros: the evaluation
    that the one-pass symbol._q replaced, which must agree with it bit for bit."""
    p = _p_taylor(order, x)
    out = np.zeros(x.shape, dtype=complex)
    interior = x < 1.0
    out[interior] = np.exp(order.z * np.log1p(-x[interior])) * p[interior]
    return out


@pytest.mark.parametrize(
    "z, ell, shift", [(1.0, 0, 0.0), (1.5, 1, 0.0), (3.2 + 1.0j, 3, 0.0), (4.2, 3, 0.0), (2.0, 1, 0.5), (8.0 - 10.0j, 7, 0.0)]
)
def test_torus_samples_equal_the_gather_scatter_evaluation_bit_for_bit(z, ell, shift):
    order = PseudoSplineOrder(z, ell, shift)
    grid = TorusGrid(1024)
    x = np.sin(np.pi * grid.gamma) ** 2
    assert x[0] == 1.0  # the grid holds gamma = -1/2
    want = q_gather_scatter(order, x)
    if shift != 0.0:
        want = want * np.exp(-2j * np.pi * shift * grid.gamma)
    assert sample_H0(order, grid).tobytes() == want.tobytes()


def test_q_taylor_flatness_near_zero():
    # 1 - q vanishes to order ell+1 in x; checked as a log-log slope
    for z, ell in [(1.5, 1), (3.5, 2), (3.5, 3), (4.2, 3), (3.2 + 1.0j, 3)]:
        order = PseudoSplineOrder(z, ell)
        x = np.logspace(-4, -2, 60)
        d = np.abs(np.asarray(eval_q(order, x)) - 1.0)
        slope = np.polyfit(np.log(x), np.log(d), 1)[0]
        assert slope >= ell + 1 - 0.05, (z, ell, slope)


# ---------------------------------------------------------------- theta and the partition


def test_theta_closed_form_values():
    assert theta_bound(PseudoSplineOrder(1.0, 0)) == pytest.approx(0.5, abs=1e-15)
    assert theta_bound(PseudoSplineOrder(2.0, 0)) == pytest.approx(0.125, abs=1e-15)
    assert theta_bound(PseudoSplineOrder(2.0, 1)) == pytest.approx(0.5, abs=1e-15)


def test_theta_in_unit_interval_across_orders():
    for z, ell in [(1.0, 0), (1.5, 0), (2.7, 2), (3.2 + 1.0j, 3), (4.2, 3)]:
        th = theta_bound(PseudoSplineOrder(z, ell))
        assert 0.0 < th <= 1.0


def test_partition_extrema_for_the_linear_spline():
    ext = partition_extrema(PseudoSplineOrder(1.0, 0), GRID)
    assert ext.min == pytest.approx(0.5, abs=1e-12)
    assert abs(ext.argmin) == pytest.approx(0.25, abs=1e-12)
    assert ext.max == pytest.approx(1.0, abs=1e-13)
    # the max is attained at both 0 and -1/2 on the full grid
    s = partition_values(sample_H0(PseudoSplineOrder(1.0, 0), GRID))
    assert s[GRID.resolution // 2] == pytest.approx(1.0, abs=1e-13)


def test_partition_values_match_pointwise_definition():
    order = PseudoSplineOrder(2.7, 1)
    grid = TorusGrid(256)
    vals = partition_values(sample_H0(order, grid))
    gam = grid.gamma
    direct = np.abs(eval_H0(order, gam)) ** 2 + np.abs(eval_H0(order, gam + 0.5)) ** 2
    assert np.abs(vals - direct).max() < 1e-13


def test_partition_bounds_hold_for_extended_orders():
    # one step past the nominal ell bound, the bounds still hold to rounding
    for z in (3.2 + 1.0j, 4.2):
        order = PseudoSplineOrder(z, 3)
        ext = partition_extrema(order, GRID)
        assert abs(ext.min - theta_bound(order)) < 1e-10
        assert abs(ext.max - 1.0) < 1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.integers(min_value=0, max_value=4),
)
def test_partition_bounds_property(alpha, beta, ell_pick):
    z = complex(alpha, beta)
    ell = min(ell_pick, max_ell(alpha))
    order = PseudoSplineOrder(z, ell)
    if not lowpass_condition(order)[0]:
        # the bounds are not guaranteed here, and the frame gate refuses it
        with pytest.raises(ConditionError, match="arctan sum"):
            require_frame(order)
        return
    grid = TorusGrid(256)
    ext = partition_extrema(order, grid)
    th = theta_bound(order)
    assert ext.min >= th - 1e-10
    assert ext.max <= 1.0 + 1e-10
    assert np.abs(sample_H0(order, grid)).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("z, ell", [(1.5 + 2j, 1), (6 + 9j, 4)])
def test_orders_off_the_lowpass_condition_get_no_bank(z, ell):
    # inside the ell bound, yet the partition exceeds 1
    order = PseudoSplineOrder(z, ell)
    assert partition_extrema(order, TorusGrid(4096)).max > 1.0 + 1e-3
    with pytest.raises(ConditionError, match=r"arctan sum .* outside \(-pi/2, pi/2\)"):
        build_bank(order, TorusGrid(256))


# ---------------------------------------------------------------- shifts


@pytest.mark.parametrize("u", [-1.0, 0.5, 2.0])
def test_shift_is_a_pure_phase(u):
    base = PseudoSplineOrder(2.7, 1)
    shifted = PseudoSplineOrder(2.7, 1, shift=u)
    gam = GRID.gamma
    lhs = np.asarray(eval_H0(shifted, gam))
    rhs = np.exp(-2j * np.pi * u * gam) * np.asarray(eval_H0(base, gam))
    assert np.abs(lhs - rhs).max() < 1e-13


def test_shift_leaves_the_partition_unchanged():
    base = PseudoSplineOrder(1.5, 1)
    shifted = PseudoSplineOrder(1.5, 1, shift=0.5)
    pb = partition_values(sample_H0(base, TorusGrid(512)))
    ps = partition_values(sample_H0(shifted, TorusGrid(512)))
    assert np.abs(pb - ps).max() < 1e-13


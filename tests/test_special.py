"""Complex log-Gamma and generalized binomials."""

import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from pseudosplines.errors import DomainError, PoleError
from pseudosplines.special import complex_binomial, log_gamma


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert cmath.exp(log_gamma(5.0)).real == pytest.approx(24.0, rel=1e-13)
    assert cmath.exp(log_gamma(0.5)).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    # Gamma(1/2 + i) has a textbook modulus: sqrt(pi / cosh(pi))
    g = cmath.exp(log_gamma(0.5 + 1.0j))
    assert abs(g) == pytest.approx(math.sqrt(math.pi / math.cosh(math.pi)), rel=1e-12)


def test_log_gamma_matches_scipy_oracle():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 30.0, 400) + 1j * rng.uniform(-20.0, 20.0, 400)
    ours = np.array([log_gamma(w) for w in pts])
    ref = scipy.special.loggamma(pts)
    rel = np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)
    assert rel.max() < 1e-12


def test_log_gamma_left_half_plane_via_reflection():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-8.3, -0.2, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
    # keep away from the poles on the negative real axis
    pts = pts[np.abs(pts.real - np.round(pts.real)) > 0.05]
    ours = np.array([log_gamma(w) for w in pts])
    ref = scipy.special.loggamma(pts)
    assert np.abs(np.exp(ours) - np.exp(ref)).max() / np.abs(np.exp(ref)).max() < 1e-10


@pytest.mark.parametrize("w", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(w):
    with pytest.raises(PoleError):
        log_gamma(w)


@settings(deadline=None, max_examples=150)
@given(
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=20.0, allow_nan=False, allow_infinity=False
    )
)
def test_gamma_recurrence(w):
    # Gamma(w+1) = w Gamma(w); avoid the pole line
    if abs(w.imag) < 1e-3 and abs(w.real - round(w.real)) < 1e-3:
        return
    lhs = cmath.exp(log_gamma(w + 1.0))
    rhs = w * cmath.exp(log_gamma(w))
    assert cmath.isclose(lhs, rhs, rel_tol=1e-10)


def test_binomial_integer_values():
    assert complex_binomial(5, 2) == 10
    assert complex_binomial(6, 0) == 1
    assert complex_binomial(2, 3) == 0
    # k > 32 exercises the pole fallback: a - k + 1 <= 0 with integer a
    assert complex_binomial(4.0, 34) == 0
    assert complex_binomial(40.0, 34) == pytest.approx(scipy.special.binom(40, 34), rel=1e-12)


def test_binomial_matches_scipy_for_real_orders():
    rng = np.random.default_rng(13)
    for a in rng.uniform(0.3, 9.0, 50):
        for k in (0, 1, 2, 3, 5, 8):
            ref = scipy.special.binom(a, k)
            assert complex_binomial(a, k).real == pytest.approx(ref, rel=1e-12)
            assert abs(complex_binomial(a, k).imag) < 1e-13


def test_binomial_complex_against_product():
    a = 3.2 + 1.0j
    for k in range(9):
        prod = 1.0 + 0.0j
        for j in range(k):
            prod *= a - j
        prod /= math.factorial(k)
        assert cmath.isclose(complex_binomial(a, k), prod, rel_tol=1e-13, abs_tol=1e-13)


def test_binomial_large_k_matches_log_gamma_route():
    # both branches must agree where both are defined
    a = 70.5 + 2.0j
    direct = cmath.exp(log_gamma(a + 1) - log_gamma(41.0) - log_gamma(a - 39.0))
    assert cmath.isclose(complex_binomial(a, 40), direct, rel_tol=1e-11)


def test_binomial_tiny_real_argument():
    # a - k + 1 rounds onto a Gamma pole here; the real-axis product route
    # must absorb it instead of raising
    a = 3.6e-248
    assert complex_binomial(a, 33) == pytest.approx(a / 33.0, rel=1e-12)


def test_binomial_rejects_bad_index():
    with pytest.raises(DomainError):
        complex_binomial(2.5, -1)
    with pytest.raises(DomainError):
        complex_binomial(2.5, 1.5)


@settings(deadline=None, max_examples=100)
@given(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=15.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=40),
)
def test_binomial_pascal_recurrence(a, k):
    if a.imag != 0.0 and abs(a.imag) < 1e-3:
        # within ~1e-3 of an off-axis Gamma pole the log route loses
        # conditioning; documented as outside the accuracy contract
        assume(abs(a.real - round(a.real)) + abs(a.imag) > 1e-3)
    lhs = complex_binomial(a, k)
    rhs = complex_binomial(a - 1, k - 1) + complex_binomial(a - 1, k)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


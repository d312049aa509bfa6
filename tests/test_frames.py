"""Framelet bank: the two filter identities, coefficients, transforms, PR."""

import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings, strategies as st

from pseudosplines import frames
from pseudosplines.analysis import lowpass_condition
from pseudosplines.cascade import Profile, run_cascade, to_time_domain
from pseudosplines.errors import (
    ConsistencyError,
    DomainError,
    GridCompatibilityError,
    ResolutionError,
    ToleranceError,
)
from pseudosplines.serialize import dump_json
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid, max_ell, sample_H0, theta_bound


def make_bank(z, ell, shift=0.0, resolution=None, eps=1e-10):
    order = PseudoSplineOrder(z, ell, shift=shift)
    grid = None if resolution is None else TorusGrid(resolution)
    return frames.build_bank(order, grid, truncation_eps=eps)


BANK_1_0 = make_bank(1.0, 0, resolution=1024)
BANK_15_0 = make_bank(1.5, 0, resolution=2048)
BANK_2_0 = make_bank(2.0, 0, resolution=1024)


# ---------------------------------------------------------------- eta and sigma


def test_eta_closed_form_for_the_linear_spline():
    order = PseudoSplineOrder(1.0, 0)
    assert frames.eval_eta(order, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert frames.eval_eta(order, 0.125) == pytest.approx(0.25, abs=1e-14)
    assert frames.eval_eta(order, 0.25) == pytest.approx(1.0 - theta_bound(order), abs=1e-13)


def test_eta_range_and_minimum_location():
    for z, ell in [(1.5, 0), (2.0, 1), (3.2 + 1.0j, 2)]:
        order = PseudoSplineOrder(z, ell)
        gam = np.linspace(-0.5, 0.5, 257)
        eta = np.asarray([frames.eval_eta(order, g) for g in gam])
        assert eta.min() >= 0.0
        assert eta.max() <= 1.0 - theta_bound(order) + 1e-12
        assert frames.eval_eta(order, 0.25) == pytest.approx(1.0 - theta_bound(order), abs=1e-12)


def test_sigma_squares_to_eta():
    # sigma carries the factored-root phase, so only its modulus is pinned:
    # |sigma|^2 = eta everywhere, with an (ell+1)-fold zero at the origin
    order = PseudoSplineOrder(1.0, 0)
    assert abs(frames.eval_sigma(order, 0.0)) < 1e-14
    assert abs(frames.eval_sigma(order, 0.125)) == pytest.approx(0.5, abs=1e-14)
    gam = np.linspace(-0.5, 0.5, 101)
    for z, ell in [(1.5, 0), (2.7, 2)]:
        o = PseudoSplineOrder(z, ell)
        sig = np.asarray([frames.eval_sigma(o, g) for g in gam])
        eta = np.asarray([frames.eval_eta(o, g) for g in gam])
        assert np.abs(np.abs(sig) ** 2 - eta).max() < 1e-12


def mp_ratio(z, ell, x, mpmath):
    """R = eta / (4 x (1-x))^{ell+1} from the direct formula at 200 digits."""
    z, x = mpmath.mpc(z.real, z.imag), mpmath.mpf(x)

    def abs_q_squared(y):
        p = mpmath.fsum(mpmath.binomial(z - 1 + k, k) * y**k for k in range(ell + 1))
        return abs((1 - y) ** z * p) ** 2

    with mpmath.workdps(200):
        eta = 1 - abs_q_squared(x) - abs_q_squared(1 - x)
        return float(eta / (4 * x * (1 - x)) ** (ell + 1))


@pytest.mark.parametrize(
    "z, ell",
    [
        (200, 0), (150, 30), (50, 10), (80, 5), (3.2 + 1j, 2), (3.2 + 1j, 3), (20, 5),
        (1.5, 0), (1 + 50j, 0), (1, 0), (2, 1), (4.2, 3), (8 + 10j, 7), (3 + 9j, 2),
    ],
)
def test_ratio_near_the_zeros_matches_an_extended_precision_oracle(z, ell):
    # below the series cutoff R comes from 1 - q(x) = I_x(ell+1, z) and must
    # keep full relative precision, large Re z included
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-6, 0.0499, 12)
    got = frames._ratio_series(PseudoSplineOrder(z, ell), xs)
    want = np.array([mp_ratio(complex(z), ell, x, mpmath) for x in xs])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


@settings(deadline=None, max_examples=60)
@given(
    alpha=st.floats(min_value=1.0, max_value=200.0),
    beta=st.floats(min_value=-10.0, max_value=10.0),
    ell_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_sigma_is_a_root_of_eta_across_the_accepted_domain(alpha, beta, ell_fraction):
    order = PseudoSplineOrder(complex(alpha, beta), int(ell_fraction * max_ell(alpha)))
    assume(lowpass_condition(order)[0])
    gamma = TorusGrid(8192).gamma
    sigma = frames.eval_sigma(order, gamma)
    eta = frames.eval_eta(order, gamma)
    assert np.all(np.isfinite(sigma))
    # 1e-14 of sup eta, plus the direct formula's rounding of x = sin^2(pi
    # gamma) near gamma = +-1/2 (amplified by d|q|^2/dx ~ 2 alpha) and the
    # ell+1 roundings of sigma's factor power
    tol = 1e-14 * eta.max() + (2.0 * alpha + order.ell + 1) * np.finfo(float).eps
    assert np.max(np.abs(np.abs(sigma) ** 2 - eta)) <= tol
    zeros = frames.eval_sigma(order, np.array([0.0, 0.5, -0.5]))
    assert zeros[0] == 0.0
    assert np.all(np.abs(zeros) ** 2 <= tol)


# ---------------------------------------------------------------- the bank


def test_bank_highpass_closed_form_for_the_linear_spline():
    gam = BANK_1_0.grid.gamma
    h1 = frames.sample_bank(BANK_1_0.order, BANK_1_0.grid)[1].values
    ref = np.exp(2j * np.pi * gam) * np.sin(np.pi * gam) ** 2
    assert np.abs(h1 - ref).max() < 1e-13
    # the shipped taps -1/4, 1/2, -1/4 at k = 0, 1, 2
    c = BANK_1_0.coeffs[1]
    assert np.array_equal(c.ks, [0, 1, 2])
    taps = np.exp(2j * np.pi * np.outer(gam, c.ks)) @ c.values
    assert np.abs(taps - ref).max() < 1e-13


def test_bank_identities_across_orders(sample_identities, tap_identities):
    for bank in (BANK_1_0, BANK_15_0, BANK_2_0, make_bank(3.2 + 1.0j, 3, resolution=2048)):
        diag, off = sample_identities(frames.sample_bank(bank.order, bank.grid))
        assert diag < 1e-10
        assert off < 1e-10
        tap_identities(bank)


# rounding of max P - 1 from the H0 samples against -min eta from sigma's
# two branches: at most 1.1e-15 over 1848 random orders of this domain on
# TorusGrid(1024)
PARTITION_BAND = 1e-12


@settings(deadline=None, max_examples=80)
@given(
    alpha=st.floats(min_value=1.0, max_value=8.0),
    beta=st.floats(min_value=-10.0, max_value=10.0),
    ell_fraction=st.floats(min_value=0.0, max_value=1.0),
)
@example(alpha=1.0, beta=0.0, ell_fraction=1.0)  # (1, 1)
@example(alpha=2.5, beta=0.0, ell_fraction=1.0)  # (2.5, 3)
@example(alpha=1.0, beta=0.5, ell_fraction=1.0)  # (1+0.5i, 1)
def test_sample_bank_raises_exactly_past_the_partition_bound(
    alpha, beta, ell_fraction, sample_identities, tap_identities
):
    top = max_ell(alpha) + 1
    order = PseudoSplineOrder(complex(alpha, beta), min(int(ell_fraction * (top + 1)), top))
    assume(lowpass_condition(order)[0])
    grid = TorusGrid(1024)
    h0 = sample_H0(order, grid).values
    excess = np.max(np.abs(h0) ** 2 + np.abs(np.roll(h0, grid.resolution // 2)) ** 2) - 1.0
    try:
        symbols = frames.sample_bank(order, grid)
    except ConsistencyError:
        assert excess > 1e-9 - PARTITION_BAND
        return
    assert excess <= 1e-9 + PARTITION_BAND
    assert max(sample_identities(symbols)) < 1e-10
    try:
        bank = frames.build_bank(order, grid)
    except ToleranceError:  # a fractional tail past |k| = 256
        return
    tap_identities(bank)


def test_bank_requires_a_reasonable_grid():
    with pytest.raises(ResolutionError):
        frames.build_bank(PseudoSplineOrder(1.0, 0), TorusGrid(32))


def test_vanishing_means_on_the_grid():
    for bank in (BANK_15_0, BANK_2_0):
        symbols = frames.sample_bank(bank.order, bank.grid)
        zero = bank.grid.resolution // 2
        for n in (1, 2, 3):
            assert abs(symbols[n].values[zero]) < 1e-12
            # the shipped band's sum is its dropped taps' sum
            c = bank.coeffs[n]
            assert abs(np.sum(c.values)) <= c.tail_l1 + 1e-13


# ---------------------------------------------------------------- coefficients


def test_lowpass_taps_for_the_linear_spline():
    c = BANK_1_0.coeffs[0]
    assert c.support_radius == 1
    expected = {-1: 0.25, 0: 0.5, 1: 0.25}
    for k, v in zip(c.ks, c.values):
        assert v == pytest.approx(expected[int(k)], abs=1e-15)


def test_lowpass_taps_for_the_cubic_spline():
    c = BANK_2_0.coeffs[0]
    assert c.support_radius == 2
    taps = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    assert np.abs(np.asarray(c.values).real - taps).max() < 1e-14
    assert np.abs(np.asarray(c.values).imag).max() < 1e-15


def closed_form_integral(w, nu):
    """c(w, nu) = int_{-1/2}^{1/2} (cos^2 pi g)^w e^{-2 pi i nu g} dg
    = Gamma(2w+1) / (4^w Gamma(w+1+nu) Gamma(w+1-nu)) for Re w > -1/2
    (Gradshteyn and Ryzhik 3.631.9), elementwise in nu.  Where a Gamma of
    the denominator has a pole (integer w and nu), log-gamma gives NaN and
    1/Gamma = rgamma is 0: that tap is exactly 0."""
    a, b = w + 1 + nu, w + 1 - nu
    logs = scipy.special.loggamma(2 * w + 1) - w * math.log(4.0)
    logs = logs - scipy.special.loggamma(a) - scipy.special.loggamma(b)
    pole = np.isnan(logs)
    assert np.all(scipy.special.rgamma(a[pole]) * scipy.special.rgamma(b[pole]) == 0)
    return np.where(pole, 0.0, np.exp(np.where(pole, 0.0, logs)))


def closed_form_lowpass(order, ks, n):
    """Band 0's coefficients at ks on an n-point grid from the closed form,
    and the sum of the moduli of their terms, the scale of its rounding.

    q(x) = sum_j b_j y^{z+j} with y = cos^2 pi g = 1 - x, so
    h0_k = sum_j b_j c(z + j, k + u) for the shift u; the grid's DFT reads
    the aliased sum over k + m n, of which m = -2..2 is kept.
    """
    t = order.taylor_coefficients()
    b = [sum(t[k] * math.comb(k, j) * (-1) ** j for k in range(j, order.ell + 1)) for j in range(order.ell + 1)]
    taps, sizes = np.zeros(len(ks), dtype=complex), np.zeros(len(ks))
    for m in range(-2, 3):
        nu = ks + m * n + order.shift + 0j
        for j, bj in enumerate(b):
            term = bj * closed_form_integral(order.z + j, nu)
            taps += term
            sizes += np.abs(term)
    return taps, sizes


# An oracle that shares no code with build_bank: every accepted order of the
# box of test_checks.py that meets the arctan condition and fits the
# automatic grid.  Bands 0 and 1 (h1_k = -(-1)^k conj(h0_{1-k})) lie within
# 1e-13 of the closed form's largest sum of term moduli, at least 1.
@settings(deadline=None, max_examples=25)
@given(
    alpha=st.floats(min_value=1.0, max_value=8.0),
    beta=st.floats(min_value=-10.0, max_value=10.0),
    ell_fraction=st.floats(min_value=0.0, max_value=1.0),
    shift=st.one_of(st.just(0.0), st.floats(min_value=-4.0, max_value=4.0)),
)
@example(alpha=1.5, beta=0.0, ell_fraction=0.0, shift=0.0)
@example(alpha=2.0, beta=0.0, ell_fraction=1.0, shift=0.5)
@example(alpha=3.2, beta=1.0, ell_fraction=1.0, shift=-3.25)
@example(alpha=4.0, beta=0.0, ell_fraction=1.0, shift=2.0)
@example(alpha=8.0, beta=-10.0, ell_fraction=1.0, shift=0.0)
@example(alpha=1.044, beta=8.21, ell_fraction=0.0, shift=0.0)
def test_lowpass_and_mirrored_taps_match_their_closed_form(alpha, beta, ell_fraction, shift):
    order = PseudoSplineOrder(complex(alpha, beta), int(ell_fraction * max_ell(alpha)), shift=shift)
    assume(lowpass_condition(order)[0])
    try:
        bank = frames.build_bank(order)
    except ToleranceError as exc:
        assert "2^18" in str(exc)
        return
    n = bank.grid.resolution
    c0, c1 = bank.coeffs[0], bank.coeffs[1]
    want0, sizes0 = closed_form_lowpass(order, c0.ks.astype(float), n)
    mirror, sizes1 = closed_form_lowpass(order, (1 - c1.ks).astype(float), n)
    want1 = np.where(c1.ks % 2 == 0, -1.0, 1.0) * np.conj(mirror)
    for got, want, sizes in ((c0.values, want0, sizes0), (c1.values, want1, sizes1)):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(sizes)))


def test_highpass_taps_mirror_the_lowpass():
    # H1(g) = e^{2 pi i g} conj H0(g + 1/2) maps taps k -> conj at 1-k with
    # alternating sign, and H3(g) = e^{2 pi i g} H2(g) moves them to k+1:
    # every tap, tails included
    for bank in (BANK_1_0, BANK_15_0, make_bank(3.2 + 1.0j, 2, shift=-0.5)):
        c0, c1, c2, c3 = (bank.coeffs[n] for n in range(4))
        assert np.array_equal(c1.ks, 1 - c0.ks[::-1])
        assert np.array_equal(c1.values, (-1.0) ** (1 - c1.ks) * np.conj(c0.values[::-1]))
        assert np.array_equal(c3.ks, c2.ks + 1)
        assert np.array_equal(c3.values, c2.values)
        for derived, partner in ((c1, c0), (c3, c2)):
            assert (derived.tail_norm, derived.tail_l1, derived.aliasing_estimate) == (
                partner.tail_norm, partner.tail_l1, partner.aliasing_estimate
            )


def test_sigma_bands_live_on_even_taps():
    # |sigma|^2 = eta is 1/2-periodic, so bands 2 and 3 only carry even k
    # (band 3 before its unit phase shift)
    c2 = BANK_2_0.coeffs[2]
    for k, v in zip(c2.ks, c2.values):
        if int(k) % 2 != 0:
            assert abs(v) < 1e-13


def test_coefficient_parseval():
    for bank in (BANK_15_0, BANK_2_0):
        symbols = frames.sample_bank(bank.order, bank.grid)
        for n in range(4):
            c = bank.coeffs[n]
            h = symbols[n].values
            lhs = float(np.sum(np.abs(np.asarray(c.values)) ** 2))
            rhs = float(np.mean(np.abs(h) ** 2))
            assert lhs == pytest.approx(rhs, abs=1e-8)
            # the kept and the dropped taps hold all the energy
            assert lhs + c.tail_norm**2 == pytest.approx(rhs, abs=1e-14)


def test_truncation_tails_are_recorded_and_small():
    bank = make_bank(1.5, 1, resolution=4096)
    for n in range(4):
        assert 0.0 <= bank.coeffs[n].tail_norm <= 1e-10
        assert bank.coeffs[n].tail_norm <= bank.coeffs[n].tail_l1
    assert bank.truncation_eps == 1e-10


def test_taps_stop_at_a_quarter_of_the_grid():
    # bands 0 and 2 are cut at |k| <= N // 4; bands 1 and 3, derived from
    # them, reach one tap further
    quarter = BANK_15_0.grid.resolution // 4
    assert max(BANK_15_0.coeffs[n].support_radius for n in (0, 2)) <= quarter
    assert BANK_15_0.max_support_radius() <= quarter + 1
    # the (1.5, 0) tails decay like k^-5: at N = 256 the radius 64 leaves 6.2e-08
    with pytest.raises(ToleranceError, match=r"band 0: discarded-tail norm 6\.200e-08 at \|k\| <= 64 "):
        frames.build_bank(BANK_15_0.order, TorusGrid(256))


def test_a_shift_past_the_automatic_grid_cap_raises_before_sampling(monkeypatch):
    def sample_bank(*args):
        raise AssertionError("sample_bank was called")

    monkeypatch.setattr(frames, "sample_bank", sample_bank)
    with pytest.raises(ToleranceError, match=r"\|u\| = 1e\+06; the automatic bank grid stops at 2\^18 = 262144 points"):
        frames.build_bank(PseudoSplineOrder(2.0, 1, shift=1e6))


# ---------------------------------------------------------------- framelets


def test_framelet_hats_vanish_at_the_origin():
    profile, _ = run_cascade(PseudoSplineOrder(1.5, 0))
    for n in (1, 2, 3):
        values = frames.framelet_hat(profile, n).values
        assert abs(values[len(values) // 2]) < 1e-12


def test_framelet_hat_value_for_the_linear_spline():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0))
    psi_hat = frames.framelet_hat(profile, 1)
    (at_one,) = np.nonzero(psi_hat.points == 1.0)[0]
    assert abs(psi_hat.values[at_one]) == pytest.approx((2.0 / math.pi) ** 2, abs=1e-8)


@pytest.mark.parametrize(
    "z, ell, shift", [(3.2 + 1.0j, ell, 0.0) for ell in range(4)] + [(1.5, 0, 0.0), (2.0, 1, 0.5)]
)
def test_framelet_hats_are_the_sampled_symbols_times_phi_hat(z, ell, shift):
    order = PseudoSplineOrder(z, ell, shift=shift)
    half, _ = run_cascade(order, window=4.0, step=1.0 / 128)
    symbols = frames.sample_bank(order, TorusGrid(8192))
    # the grid index of the torus point of each gamma/2 = k / 128
    index = np.round((half.points + 0.5) * 8192).astype(int) % 8192
    for n in (1, 2, 3):
        psi_hat = frames.framelet_hat(half, n)
        expected = symbols[n].values[index] * half.values
        assert np.array_equal(psi_hat.points, 2.0 * half.points)
        assert np.max(np.abs(psi_hat.values - expected)) <= 1e-14 * np.max(np.abs(expected))


def exact_hat_profile(order, half_width=2.0, step=0.25):
    n = int(round(half_width / step))
    ts = (np.arange(2 * n + 1) - n) * step
    values = np.clip(1.0 - np.abs(ts), 0.0, None).astype(complex)
    return Profile(order, half_width, step, values)


def test_framelet_time_piecewise_linear_wavelet():
    phi = exact_hat_profile(PseudoSplineOrder(1.0, 0))
    psi1 = frames.framelet_time(BANK_1_0, phi, 1)
    at = {round(t, 6): v for t, v in zip(psi1.points, psi1.values)}
    # 2 sum_k c_{k,1} hat(2t + k) with taps (-1/4, 1/2, -1/4) at k = 0, 1, 2
    assert at[-1.0].real == pytest.approx(-0.5, abs=1e-12)
    assert at[-0.5].real == pytest.approx(1.0, abs=1e-12)
    assert at[0.0].real == pytest.approx(-0.5, abs=1e-12)
    assert at[0.5].real == pytest.approx(0.0, abs=1e-12)
    assert abs(at[1.5]) < 1e-12


def test_framelet_time_agrees_with_the_frequency_construction():
    # build psi1 from exact triangle samples, transform it numerically, and
    # compare with the product-form frequency construction
    phi = exact_hat_profile(PseudoSplineOrder(1.0, 0), half_width=2.0, step=1.0 / 64)
    psi1 = frames.framelet_time(BANK_1_0, phi, 1)
    # every g / 2 below is a multiple of 1/80
    half, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=2.0, step=1.0 / 80)
    psi_hat = frames.framelet_hat(half, 1)
    for g in (0.25, 0.5, 1.0, 1.7, 3.0):
        direct = np.sum(psi1.values * np.exp(-2j * np.pi * g * psi1.points)) * psi1.step
        nearest = np.argmin(np.abs(psi_hat.points - g))
        assert abs(psi_hat.points[nearest] - g) < 1e-12
        assert abs(direct - psi_hat.values[nearest]) < 2e-3


def test_framelet_time_means_vanish():
    profile, _ = run_cascade(PseudoSplineOrder(1.5, 0), window=128.0)
    phi = to_time_domain(profile, half_width=8.0, step=1.0 / 32, tolerance=1e-2)
    for n in (1, 2, 3):
        psi = frames.framelet_time(BANK_15_0, phi, n)
        assert abs(np.sum(psi.values) * psi.step) < 1e-3


def test_framelet_time_band_two_is_real_for_real_orders():
    profile, _ = run_cascade(PseudoSplineOrder(1.5, 0), window=128.0)
    phi = to_time_domain(profile, half_width=8.0, step=1.0 / 32, tolerance=1e-2)
    psi2 = frames.framelet_time(BANK_15_0, phi, 2)
    assert np.abs(psi2.values.imag).max() < 1e-9


def test_framelet_time_tail_estimate_bounds_the_dropped_taps():
    # psi from the shipped taps against psi from all N sampled coefficients.
    # A constant phi is the worst case: where every dropped tap lands in its
    # range, the two differ by twice the dropped taps' sum, which reaches
    # 2 tail_l1 sup|phi| when they share one phase, as band 1's do at (1.5, 0)
    bank = BANK_15_0
    phi = Profile(bank.order, 1024.0, 0.5, np.ones(4097))
    n_pts = bank.grid.resolution
    ks = np.arange(-n_pts // 2, n_pts // 2)
    errors = {}
    for n, symbol in zip((1, 2, 3), frames.sample_bank(bank.order, bank.grid)[1:]):
        values = np.fft.fftshift(np.fft.fft(symbol.values)) / n_pts * (-1.0) ** ks
        full = frames.FilterCoefficients(-n_pts // 2, values, tail_norm=0.0, tail_l1=0.0, aliasing_estimate=0.0)
        psi = frames.framelet_time(bank, phi, n)
        exact = frames.framelet_time(dataclasses.replace(bank, coeffs={**bank.coeffs, n: full}), phi, n)
        errors[n] = float(np.max(np.abs(psi.values - exact.values)))
        assert psi.tail_estimate == 2.0 * bank.coeffs[n].tail_l1
        assert errors[n] <= psi.tail_estimate + 1e-13
    # the bound is tight, and 24 times the old l2 estimate, which bounds no point
    assert errors[1] > 0.99 * 2.0 * bank.coeffs[1].tail_l1
    assert errors[1] > 10.0 * 2.0 * bank.coeffs[1].tail_norm


def test_framelet_time_needs_a_compatible_grid():
    order = PseudoSplineOrder(1.0, 0)
    bad = exact_hat_profile(order, half_width=2.0, step=1.0 / 3)
    with pytest.raises(GridCompatibilityError):
        frames.framelet_time(BANK_1_0, bad, 1)
    with pytest.raises(DomainError):
        frames.framelet_time(BANK_1_0, exact_hat_profile(order), 0)


# ---------------------------------------------------------------- transforms


def test_zero_signal_produces_zero_subbands():
    sig = frames.PeriodicSignal(np.zeros(64))
    for sub in frames.analyze(BANK_15_0, sig):
        assert np.abs(sub).max() == 0.0


def test_impulse_response_is_the_conjugated_decimated_filter():
    length = 64
    impulse = np.zeros(length)
    impulse[0] = 1.0
    subs = frames.analyze(BANK_1_0, frames.PeriodicSignal(impulse))
    m = np.arange(length // 2)
    for n in range(4):
        wrapped = BANK_1_0.coeffs[n].wrapped(length)
        expected = math.sqrt(2.0) * np.conj(wrapped[(-2 * m) % length])
        assert np.abs(subs[n] - expected).max() < 1e-12


def test_signal_validation():
    with pytest.raises(ResolutionError):
        frames.PeriodicSignal(np.zeros(6))
    with pytest.raises(ResolutionError):
        frames.PeriodicSignal(np.zeros((4, 4)))
    assert frames.PeriodicSignal(np.ones(8)).energy() == pytest.approx(8.0)


def test_energy_identity_on_random_signals():
    rng = np.random.default_rng(41)
    for bank in (BANK_15_0, make_bank(3.2 + 1.0j, 2, resolution=2048)):
        for _ in range(5):
            f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
            sig = frames.PeriodicSignal(f)
            subs = frames.analyze(bank, sig)
            total = sum(float(np.sum(np.abs(s) ** 2)) for s in subs)
            assert abs(total - sig.energy()) <= 1e-8 * sig.energy()


def test_perfect_reconstruction_one_level():
    rng = np.random.default_rng(42)
    f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    sig = frames.PeriodicSignal(f)
    for bank, tol in ((BANK_15_0, 1e-6), (BANK_2_0, 1e-12)):
        out = frames.synthesize(bank, frames.analyze(bank, sig))
        err = np.abs(out.samples - sig.samples).max() / np.abs(sig.samples).max()
        assert err < tol


def test_perfect_reconstruction_multilevel():
    rng = np.random.default_rng(43)
    f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    sig = frames.PeriodicSignal(f)
    details, approx = frames.analyze_multilevel(BANK_15_0, sig, 3)
    assert len(details) == 3
    assert len(approx) == 128
    out = frames.synthesize_multilevel(BANK_15_0, details, approx)
    rel = float(np.linalg.norm(out.samples - sig.samples) / np.linalg.norm(sig.samples))
    assert rel < 1e-5


def test_multilevel_guards():
    sig = frames.PeriodicSignal(np.ones(16))
    with pytest.raises(ResolutionError):
        frames.analyze_multilevel(BANK_15_0, sig, 4)
    with pytest.raises(DomainError):
        frames.analyze_multilevel(BANK_15_0, sig, 0)


@pytest.mark.parametrize("length, levels", [(4, 1), (8, 2), (16, 3)])
def test_multilevel_runs_down_to_two_samples_per_subband(length, levels):
    rng = np.random.default_rng(length)
    sig = frames.PeriodicSignal(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    details, approx = frames.analyze_multilevel(BANK_15_0, sig, levels)
    assert len(approx) == 2 and all(len(s) == 2 for s in details[-1])
    if levels == 1:
        one = frames.analyze(BANK_15_0, sig)
        assert all(np.array_equal(a, b) for a, b in zip(one, [approx, *details[0]]))
    back = frames.synthesize_multilevel(BANK_15_0, details, approx).samples
    assert np.linalg.norm(back - sig.samples) <= 1e-9 * np.linalg.norm(sig.samples)


def test_synthesize_validates_subband_shapes():
    subs = frames.analyze(BANK_15_0, frames.PeriodicSignal(np.ones(64)))
    with pytest.raises(GridCompatibilityError):
        frames.synthesize(BANK_15_0, subs[:3])
    with pytest.raises(GridCompatibilityError):
        frames.synthesize(BANK_15_0, [subs[0], subs[1], subs[2], subs[3][:16]])


def direct_analysis(bank, x):
    """subband_n[m] = sqrt(2) sum_k conj(c_k) x[(2m + k) mod N], summed tap by tap."""
    length = len(x)
    m = np.arange(length // 2)[:, None]
    return [
        math.sqrt(2.0) * np.sum(np.conj(c.values) * x[(2 * m + c.ks) % length], axis=1)
        for c in (bank.coeffs[n] for n in range(4))
    ]


def direct_synthesis(bank, subbands):
    """The adjoint of direct_analysis: x[(2m + k) mod N] += sqrt(2) c_k subband_n[m]."""
    length = 2 * len(subbands[0])
    m = np.arange(length // 2)[:, None]
    out = np.zeros(length, dtype=complex)
    for n, sub in enumerate(subbands):
        c = bank.coeffs[n]
        np.add.at(out, (2 * m + c.ks) % length, math.sqrt(2.0) * sub[:, None] * c.values)
    return out


BANK_32_2 = make_bank(3.2 + 1.0j, 2, resolution=2048)


@pytest.mark.parametrize("length", [16, 64, 4096])
@pytest.mark.parametrize("bank", [BANK_15_0, BANK_32_2], ids=["1.5,0", "3.2+1i,2"])
def test_analysis_matches_direct_circular_correlation(bank, length):
    # BANK_15_0's taps reach |k| = 401 and 3.2+1i's |k| = 62: both wrap at 16 and 64
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    got = frames.analyze(bank, frames.PeriodicSignal(x))
    for n, ref in enumerate(direct_analysis(bank, x)):
        bound = 1e-13 * np.abs(x).max() * bank.coeffs[n].sum_abs()
        assert np.abs(got[n] - ref).max() <= bound
    back = frames.synthesize(bank, got).samples
    assert np.abs(back - direct_synthesis(bank, got)).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("length, levels", [(64, 1), (64, 4), (4096, 5)])
def test_multilevel_matches_the_recursive_direct_reference(length, levels):
    rng = np.random.default_rng(levels)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    details, approx = frames.analyze_multilevel(BANK_32_2, frames.PeriodicSignal(x), levels)
    ref = x
    for level in range(levels):
        ref, *ref_details = direct_analysis(BANK_32_2, ref)
        for got, want in zip(details[level], ref_details):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert np.linalg.norm(approx - ref) <= 1e-13 * np.linalg.norm(ref)
    back = frames.synthesize_multilevel(BANK_32_2, details, approx).samples
    assert back.dtype == complex and back.shape == (length,) and not back.flags.writeable
    want = approx
    for level_details in reversed(details):
        want = direct_synthesis(BANK_32_2, [want, *level_details])
    assert np.linalg.norm(back - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(3, 256), (2, 2, 256), (3, 4096)])
def test_a_batched_transform_equals_per_row_calls(shape):
    rng = np.random.default_rng(46)
    batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    details, approx, back = frames._round_trip(BANK_32_2, batch, 3)
    for index in np.ndindex(shape[:-1]):
        row_details, row_approx = frames.analyze_multilevel(
            BANK_32_2, frames.PeriodicSignal(batch[index]), 3
        )
        for got_level, want_level in zip(details, row_details):
            for got, want in zip(got_level, want_level):
                assert np.abs(got[index] - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(approx[index] - row_approx).max() <= 1e-14 * np.abs(row_approx).max()
        row_back = frames.synthesize_multilevel(BANK_32_2, row_details, row_approx).samples
        assert np.abs(back[index] - row_back).max() <= 1e-14 * np.abs(row_back).max()


def folded_ffts(bank, length):
    """The reference spectra: one full-length FFT of each band's folded taps."""
    return np.array([np.fft.fft(bank.coeffs[n].wrapped(length)) for n in range(4)])


def shifted_folded_ffts(bank, length, start):
    """folded_ffts of the taps moved `start` places back: c_k at k - start."""
    # the phases reduced mod length in integers first, so they stay exact
    return folded_ffts(bank, length) * np.exp(2j * np.pi * (start * np.arange(length) % length) / length)


@pytest.mark.parametrize("length", [4, 16, 64, 1024, 2**16])
@pytest.mark.parametrize("bank", [BANK_15_0, BANK_32_2], ids=["1.5,0", "3.2+1i,2"])
def test_tap_spectra_match_the_folded_ffts(bank, length):
    # unshifted, as a one-block level takes them, they are the folded FFTs
    # bit for bit; shifted to the span's first offset, as the blocks take
    # them, they carry the shift's phase (BANK_15_0's 803 offsets wrap below 1024)
    coeffs = [bank.coeffs[n] for n in range(4)]
    assert np.array_equal(frames._tap_spectra(coeffs, length, 0), folded_ffts(bank, length))
    lo = min(c.offset for c in coeffs)
    got = frames._tap_spectra(coeffs, length, lo)
    ref = shifted_folded_ffts(bank, length, lo)
    for n in range(4):
        assert np.abs(got[n] - ref[n]).max() <= 1e-13 * np.abs(ref[n]).max()


@pytest.mark.parametrize("levels", [1, 3, 5])
def test_tap_spectra_are_built_once_per_call(monkeypatch, levels):
    # every multi-block level shares one set of block spectra, and each
    # one-block level has its own: BANK_15_0's blocks of 2 x 1024 outputs
    # make every level of 1024 samples one block; BANK_32_2's of 2 x 512
    # take 4096 and 2048 samples in blocks of 1152 points
    calls = []
    original = frames._tap_spectra

    def counting(coeffs, length, start):
        calls.append((length, start))
        return original(coeffs, length, start)

    monkeypatch.setattr(frames, "_tap_spectra", counting)
    one_block = {1: [], 3: [(1024, 0)], 5: [(1024, 0), (512, 0), (256, 0)]}[levels]
    expected = {
        1024: [(1024 >> j, 0) for j in range(levels)],
        4096: [(1152, -62)] + one_block,
    }
    for bank, length in ((BANK_15_0, 1024), (BANK_32_2, 4096)):
        sig = frames.PeriodicSignal(np.arange(float(length)))
        details, approx = frames.analyze_multilevel(bank, sig, levels)
        assert calls == expected[length]
        calls.clear()
        frames.synthesize_multilevel(bank, details, approx)
        assert calls == expected[length]
        calls.clear()


def full_fft_analysis(spectra, samples, levels):
    """Analysis with one full-length FFT in, each level folding the halves
    of the spectrum, and one inverse FFT per subband out."""
    a_hat = np.fft.fft(samples, axis=-1)
    details = []
    for j in range(levels):
        taps = spectra[:, :: 2**j]
        h = a_hat.shape[-1] // 2
        bands = [
            (a_hat[..., :h] * np.conj(s[:h]) + a_hat[..., h:] * np.conj(s[h:])) * (math.sqrt(2.0) / 2.0)
            for s in taps
        ]
        details.append([np.fft.ifft(b, axis=-1) for b in bands[1:]])
        a_hat = bands[0]
    return details, np.fft.ifft(a_hat, axis=-1)


def full_fft_synthesis(spectra, details, approx):
    """The inverse of full_fft_analysis, ended by one full-length inverse FFT."""
    spectrum = np.fft.fft(approx, axis=-1)
    for j in range(len(details) - 1, -1, -1):
        stack = np.stack([spectrum, *(np.fft.fft(d, axis=-1) for d in details[j])])
        stack = np.concatenate((stack, stack), axis=-1)
        spectrum = np.einsum("n...i,ni->...i", stack, spectra[:, :: 2**j]) * math.sqrt(2.0)
    return np.fft.ifft(spectrum, axis=-1)


@pytest.mark.parametrize(
    "shape, levels",
    [((4,), 1), ((8,), 1), ((8,), 2)]
    + [(shape, levels) for shape in ((1024,), (2**16,), (50, 1024)) for levels in range(1, 6)],
)
def test_radix2_ends_match_the_full_length_ffts(shape, levels):
    # named for the radix-2 end FFTs that the block engine replaced; the
    # contract is the same: the engine matches the full-length FFT oracles
    # BANK_32_2's 125 offsets take blocks of 2 x 512 outputs and FFTs of
    # 1152 points, so 2^16 samples run 64 blocks at level 0 and 1024
    # samples, like the frames check's batch, one block; BANK_15_0's 803
    # take 2 x 1024 outputs in FFTs of 2880 points, and wrap at 1024
    rng = np.random.default_rng([shape[-1], levels])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(got, want):
        scale = np.abs(want).max(axis=-1)
        return bool(np.all(np.abs(got - want).max(axis=-1) <= 1e-14 * scale))

    for bank in (BANK_15_0, BANK_32_2):
        spectra = folded_ffts(bank, shape[-1])
        details, approx, back = frames._round_trip(bank, x, levels)
        ref_details, ref_approx = full_fft_analysis(spectra, x, levels)
        for level, ref_level in zip(details, ref_details):
            assert all(close(got, want) for got, want in zip(level, ref_level))
        assert close(approx, ref_approx)
        assert close(back, full_fft_synthesis(spectra, details, approx))


def coefficient_bank(lo, width, seed):
    """A coefficient-only bank whose four bands span exactly lo..lo+width-1:
    band 0 covers the whole span, bands 1-3 random runs inside it."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for n in range(4):
        start = 0 if n == 0 else int(rng.integers(0, width))
        size = width if n == 0 else int(rng.integers(1, width - start + 1))
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coeffs[n] = frames.FilterCoefficients(
            offset=lo + start, values=values, tail_norm=0.0, tail_l1=0.0, aliasing_estimate=0.0
        )
    return frames.FrameletBank(order=PseudoSplineOrder(1.5, 0), grid=TorusGrid(64), coeffs=coeffs, truncation_eps=1e-10)


@settings(deadline=None, max_examples=60)
@given(
    log_length=st.integers(min_value=2, max_value=12),
    width=st.one_of(st.integers(min_value=1, max_value=300), st.sampled_from([2**k for k in range(10)])),
    lo=st.integers(min_value=-400, max_value=400),
    start=st.integers(min_value=-400, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(log_length=2, width=300, lo=-299, start=-299, seed=3)  # W > L: the taps wrap
def test_tap_spectra_match_the_folded_ffts_for_any_support(log_length, width, lo, start, seed):
    bank = coefficient_bank(lo, width, seed)
    length = 2**log_length
    got = frames._tap_spectra([bank.coeffs[n] for n in range(4)], length, start)
    ref = shifted_folded_ffts(bank, length, start)
    for n in range(4):
        assert np.abs(got[n] - ref[n]).max() <= 1e-13 * np.abs(ref[n]).max()


@settings(deadline=None, max_examples=40)
@given(
    log_length=st.integers(min_value=2, max_value=12),
    width=st.one_of(st.integers(min_value=1, max_value=300), st.sampled_from([2**k for k in range(10)])),
    lo=st.integers(min_value=-400, max_value=400),
    batch=st.sampled_from([(), (3,), (2, 2)]),
    levels=st.integers(min_value=1, max_value=11),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(log_length=12, width=128, lo=-64, batch=(), levels=3, seed=0)  # pad == W, 4 blocks
@example(log_length=12, width=256, lo=400, batch=(2, 2), levels=2, seed=1)  # pad == W, all k > 0
@example(log_length=11, width=300, lo=-400, batch=(3,), levels=1, seed=2)  # 2 blocks, all k < 0
@example(log_length=12, width=512, lo=-255, batch=(), levels=2, seed=3)  # B = W = 512, pad == W
@example(log_length=2, width=300, lo=-299, batch=(3,), levels=1, seed=4)  # W > N: the taps wrap
def test_each_level_matches_direct_correlation_for_any_support(log_length, width, lo, batch, levels, seed):
    # the engine's levels one at a time, each against the direct oracles on
    # its own input, and the multilevel round trip bit for bit against them
    bank = coefficient_bank(lo, width, seed)
    length = 2**log_length
    levels = min(levels, log_length - 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(batch + (length,)) + 1j * rng.standard_normal(batch + (length,))
    details, approx, back = frames._round_trip(bank, x, levels)
    sums = [bank.coeffs[n].sum_abs() for n in range(4)]
    plan = frames._levels(bank, length, levels)
    lows = [x]
    for j, level in enumerate(plan):
        (got_details,), low = frames._analysis([level], lows[-1])
        assert all(np.array_equal(a, b) for a, b in zip(got_details, details[j]))
        for index in np.ndindex(batch):
            scale = 1e-13 * math.sqrt(2.0) * np.abs(lows[-1][index]).max()
            got = [low[index], *(band[index] for band in got_details)]
            for n, want in enumerate(direct_analysis(bank, lows[-1][index])):
                assert np.abs(got[n] - want).max() <= scale * sums[n]
        lows.append(low)
    assert np.array_equal(lows[-1], approx)
    out = approx
    for j in reversed(range(levels)):
        subbands = [out, *details[j]]
        out = frames._synthesis([plan[j]], [details[j]], subbands[0])
        for index in np.ndindex(batch):
            want = direct_synthesis(bank, [s[index] for s in subbands])
            bound = 1e-13 * math.sqrt(2.0) * sum(t * np.abs(s[index]).max() for t, s in zip(sums, subbands))
            assert np.abs(out[index] - want).max() <= bound
    assert np.array_equal(out, back)


def test_tasks_run_on_both_threads():
    # each task waits (at most 30 s) until tasks have run on two threads
    ran_on = set()
    both = threading.Event()

    def task():
        ran_on.add(threading.get_ident())
        if len(ran_on) == 2:
            both.set()
        both.wait(30)

    frames._run_tasks([task] * 8)
    assert threading.get_ident() in ran_on and len(ran_on) == 2


def test_a_lone_task_runs_on_the_calling_thread_without_the_worker(monkeypatch):
    monkeypatch.setattr(frames, "_executor", None)
    ran_on = []
    frames._run_tasks([lambda: ran_on.append(threading.get_ident())])
    assert ran_on == [threading.get_ident()]
    error = ValueError("the task's own error")

    def failing():
        raise error

    with pytest.raises(ValueError) as info:
        frames._run_tasks(iter([failing]))
    assert info.value is error
    # a one-level round trip of one 1024-sample row is one task per direction
    x = np.random.default_rng(19).standard_normal(1024) + 0j
    _, _, back = frames._round_trip(BANK_32_2, x, 1)
    assert np.abs(back - x).max() <= 1e-9
    assert frames._executor is None


@pytest.mark.parametrize("failing", ["calling thread", "worker"])
def test_a_failing_task_is_raised_after_the_other_thread_has_finished(failing):
    # the first task that runs on the named thread raises; every other task
    # of the call, run before or after it, has finished when it is raised
    caller = threading.get_ident()
    raised, finished = [], []

    def task(k):
        time.sleep(0.02)
        if not raised and (threading.get_ident() == caller) == (failing == "calling thread"):
            raised.append(k)
            raise ValueError(k)
        time.sleep(0.02)
        finished.append(k)

    with pytest.raises(ValueError) as info:
        frames._run_tasks(partial(task, k) for k in range(8))
    assert raised == [info.value.args[0]]
    assert sorted(finished + raised) == list(range(8))


def test_no_task_runs_after_its_call_returns():
    finished = []

    def task(k):
        time.sleep(0.01)
        finished.append(k)

    frames._run_tasks(partial(task, k) for k in range(6))
    done = list(finished)
    time.sleep(0.05)
    assert sorted(done) == list(range(6)) and finished == done


def test_a_caller_does_not_wait_on_another_callers_tasks():
    # one caller's task holds the worker (for at most 10 s); a second
    # caller's transform returns meanwhile, as it cancels the worker's pass
    # over its tasks rather than waiting for the worker to reach it
    held, release, released = threading.Event(), threading.Event(), []

    def hold():
        if threading.current_thread() is first:
            held.wait(10)  # until the worker has taken the other task
        else:
            held.set()
            release.wait(10)
            released.append(True)

    first = threading.Thread(target=frames._run_tasks, args=([hold, hold],))
    first.start()
    try:
        assert held.wait(10), "the worker did not take a task within 10 s"
        # 4096 samples: the first level's 4 tasks go to the deque the worker
        # is asked to drain (a lone task would not reach it)
        sig = frames.PeriodicSignal(np.arange(4096.0))
        frames.analyze_multilevel(BANK_32_2, sig, 3)
        assert not released
    finally:
        release.set()
        first.join(30)
    assert not first.is_alive()


def test_a_transform_in_an_atexit_hook_runs_and_the_process_exits():
    # by the time atexit hooks run the executor takes no more work, so the
    # hook's transform runs on the calling thread alone
    script = (
        "import atexit\n"
        "import numpy as np\n"
        "from pseudosplines import frames\n"
        "from pseudosplines.symbol import PseudoSplineOrder, TorusGrid\n"
        "bank = frames.build_bank(PseudoSplineOrder(2.0, 0), TorusGrid(256))\n"
        "sig = frames.PeriodicSignal(np.arange(4096.0))\n"
        "want = frames.analyze_multilevel(bank, sig, 3)[1]\n"
        "def hook():\n"
        "    got = frames.analyze_multilevel(bank, sig, 3)[1]\n"
        "    print('equal' if np.array_equal(got, want) else 'differ', flush=True)\n"
        "atexit.register(hook)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frames.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "equal\n"


def test_round_trips_do_not_depend_on_scheduling():
    rng = np.random.default_rng(16)
    sig = frames.PeriodicSignal(rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16))
    runs = []
    for _ in range(2):
        details, approx = frames.analyze_multilevel(BANK_32_2, sig, 5)
        back = frames.synthesize_multilevel(BANK_32_2, details, approx).samples
        runs.append([*(band for level in details for band in level), approx, back])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_concurrent_callers_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often, racing to start the
    # executor; every round trip must still equal the serial one
    monkeypatch.setattr(frames, "_executor", None)
    rng = np.random.default_rng(18)
    # 4096 samples: levels of 4 and 2 tasks, which reach the worker
    signals = [frames.PeriodicSignal(rng.standard_normal(4096) + 0j) for _ in range(4)]

    def round_trip(sig):
        details, approx = frames.analyze_multilevel(BANK_32_2, sig, 3)
        return frames.synthesize_multilevel(BANK_32_2, details, approx).samples

    want = [round_trip(sig) for sig in signals]
    monkeypatch.setattr(frames, "_executor", None)
    got = {}

    def caller(k):
        got[k] = [round_trip(signals[k]) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(back, want[k]) for k in range(4) for back in got[k])


def test_engine_working_memory_is_pinned():
    # peaks in complex values per sample, buffers of both threads included:
    # the outputs (analysis: 1.5 N + 0.75 N + ... of details, and the last
    # level's input beside its outputs; synthesis: N of output and N/2 of
    # input) plus at most two tasks' scratch; tracemalloc sees numpy's
    # arrays but not pocketfft's own scratch buffers, so resident memory is
    # still judged by the benchmark
    n = 2**16
    rng = np.random.default_rng(17)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    plan = frames._levels(BANK_32_2, n, 5)
    peaks = []
    # the executor is started untraced
    details, approx = frames._analysis(plan, x)
    for run in (
        lambda: frames._analysis(plan, x),
        lambda: frames._synthesis(plan, details, approx),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / (16 * n))
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3.75 and peaks[1] <= 2.75, peaks


# 4096 samples: the first level is 4 blocks, so 4 tasks (a lone task runs
# on the calling thread and would not reach the worker)
_FOUR_TASKS = frames.PeriodicSignal(np.arange(4096.0))


def _transform_in_child(conn):
    forgotten = frames._executor is None
    _, approx = frames.analyze_multilevel(BANK_32_2, _FOUR_TASKS, 2)
    conn.send((forgotten, frames._executor is not None, approx))
    conn.close()


def test_a_forked_child_runs_transforms_on_its_own_worker():
    # the child inherits the parent's executor but not its thread, so it
    # forgets the executor and starts its own
    _, want = frames.analyze_multilevel(BANK_32_2, _FOUR_TASKS, 2)
    assert frames._executor is not None
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_transform_in_child, args=(there,))
    child.start()
    there.close()
    try:
        assert here.poll(30), "the forked child's transform did not return within 30 s"
        forgotten, started, got = here.recv()
        child.join(30)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert forgotten and started and np.array_equal(got, want)


def test_multilevel_synthesis_validates_subband_shapes():
    details, approx = frames.analyze_multilevel(BANK_15_0, frames.PeriodicSignal(np.ones(64)), 2)
    with pytest.raises(GridCompatibilityError):
        frames.synthesize_multilevel(BANK_15_0, [details[0], details[1][:2]], approx)
    with pytest.raises(GridCompatibilityError):
        frames.synthesize_multilevel(BANK_15_0, [details[1], details[0]], approx)


SIGNAL_64 = frames.PeriodicSignal(np.ones(64))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: frames.analyze_multilevel(BANK_15_0, SIGNAL_64, 2.0), DomainError),
        (lambda: frames.synthesize_multilevel(BANK_15_0, [], np.ones(16)), DomainError),
        (lambda: frames.synthesize(BANK_15_0, [np.ones(3)] * 4), ResolutionError),
        (lambda: frames.synthesize(BANK_15_0, [np.ones((2, 16))] * 4), ResolutionError),
        (lambda: frames.synthesize(BANK_15_0, [np.ones(16)] + [np.ones((16, 2))] * 3), GridCompatibilityError),
    ],
    ids=["float levels", "no details", "length 6", "2-D subbands", "2-D details"],
)
def test_multilevel_calls_reject_bad_input_before_the_engine_runs(monkeypatch, call, error):
    def engine(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(frames, "_levels", engine)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("levels", [0, -1, 2.0, "2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda levels: run_cascade(PseudoSplineOrder(1.5, 0), levels=levels, window=8.0, step=1.0 / 16),
        lambda levels: frames.analyze_multilevel(BANK_15_0, SIGNAL_64, levels),
    ],
    ids=["run_cascade", "analyze_multilevel"],
)
def test_level_counts_follow_one_rule(call, levels):
    with pytest.raises(DomainError, match="levels must be an integer >= 1"):
        call(levels)


# ---------------------------------------------------------------- serialization


def test_bank_json_round_trip_preserves_transforms():
    bank = BANK_15_0
    d = json.loads(dump_json(frames.bank_to_dict(bank)))
    loaded = frames.bank_from_dict(d)
    assert loaded.order == bank.order
    assert loaded.truncation_eps == bank.truncation_eps
    for n in range(4):
        assert np.array_equal(np.asarray(loaded.coeffs[n].values), np.asarray(bank.coeffs[n].values))
        assert np.array_equal(np.asarray(loaded.coeffs[n].ks), np.asarray(bank.coeffs[n].ks))
    rng = np.random.default_rng(44)
    f = rng.standard_normal(256)
    sig = frames.PeriodicSignal(f)
    a = frames.analyze(bank, sig)
    b = frames.analyze(loaded, sig)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("z, ell", [(3.2 + 1.0j, 2), (1.5, 0)])
def test_a_loaded_bank_is_the_bank_it_was_saved_from(z, ell):
    bank = make_bank(z, ell)
    loaded = frames.bank_from_dict(json.loads(dump_json(frames.bank_to_dict(bank))))
    assert type(loaded) is frames.FrameletBank
    assert (loaded.order, loaded.grid, loaded.truncation_eps) == (bank.order, bank.grid, bank.truncation_eps)
    for n in range(4):
        for field in dataclasses.fields(frames.FilterCoefficients):
            assert np.array_equal(getattr(loaded.coeffs[n], field.name), getattr(bank.coeffs[n], field.name))
    assert frames.uep_errors(loaded) == frames.uep_errors(bank)
    assert loaded.max_support_radius() == bank.max_support_radius()
    rng = np.random.default_rng(46)
    sig = frames.PeriodicSignal(rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    results = []
    for b in (bank, loaded):
        details, approx = frames.analyze_multilevel(b, sig, 3)
        results.append([*(band for level in details for band in level), approx,
                        frames.synthesize_multilevel(b, details, approx).samples])
    assert all(np.array_equal(x, y) for x, y in zip(*results))


# ---------------------------------------------------------------- shifted banks


def test_shifted_bank_keeps_the_identities(sample_identities, tap_identities):
    bank = make_bank(1.5, 1, shift=0.5)
    diag, off = sample_identities(frames.sample_bank(bank.order, bank.grid))
    assert diag < 1e-10
    assert off < 1e-10
    tap_identities(bank)
    rng = np.random.default_rng(45)
    f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    sig = frames.PeriodicSignal(f)
    out = frames.synthesize(bank, frames.analyze(bank, sig))
    rel = float(np.linalg.norm(out.samples - sig.samples) / np.linalg.norm(sig.samples))
    assert rel < 1e-6


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    sig = frames.PeriodicSignal(f)
    out = frames.synthesize(BANK_15_0, frames.analyze(BANK_15_0, sig))
    rel = float(np.linalg.norm(out.samples - sig.samples) / np.linalg.norm(sig.samples))
    assert rel < 1e-9

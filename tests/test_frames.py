"""Framelet bank: the two filter identities, coefficients, transforms, PR."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudosplines import frames
from pseudosplines.cascade import TimeProfile, run_cascade, to_time_domain
from pseudosplines.checks import default_bank_resolution
from pseudosplines.errors import (
    ConsistencyError,
    DomainError,
    GridCompatibilityError,
    ResolutionError,
    WindowError,
)
from pseudosplines.serialize import dump_json
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid, theta_bound


def make_bank(z, ell, shift=0.0, resolution=None, eps=1e-10):
    order = PseudoSplineOrder(z, ell, shift=shift)
    res = default_bank_resolution(order) if resolution is None else resolution
    return frames.build_bank(order, TorusGrid(res), truncation_eps=eps)


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


# ---------------------------------------------------------------- the bank


def test_bank_highpass_closed_form_for_the_linear_spline():
    gam = BANK_1_0.grid.gamma
    h1 = BANK_1_0.symbol(1).values
    ref = np.exp(2j * np.pi * gam) * np.sin(np.pi * gam) ** 2
    assert np.abs(h1 - ref).max() < 1e-13


def test_bank_identities_across_orders():
    for bank in (BANK_1_0, BANK_15_0, BANK_2_0, make_bank(3.2 + 1.0j, 3, resolution=2048)):
        diag, off = frames.uep_errors(bank)
        assert diag < 1e-10
        assert off < 1e-10
        assert bank.uep_diagonal_error == diag
        assert bank.uep_offdiagonal_error == off


def test_bank_requires_a_reasonable_grid():
    with pytest.raises(ResolutionError):
        frames.build_bank(PseudoSplineOrder(1.0, 0), TorusGrid(32))


def test_vanishing_means_on_the_grid():
    for bank in (BANK_15_0, BANK_2_0):
        zero = bank.grid.resolution // 2
        for n in (1, 2, 3):
            assert abs(bank.symbol(n).values[zero]) < 1e-12


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


def test_highpass_taps_mirror_the_lowpass():
    # H1(g) = e^{2 pi i g} conj H0(g + 1/2) maps taps k -> conj at 1-k with
    # alternating sign
    c0 = dict(zip((int(k) for k in BANK_15_0.coeffs[0].ks), BANK_15_0.coeffs[0].values))
    c1 = dict(zip((int(k) for k in BANK_15_0.coeffs[1].ks), BANK_15_0.coeffs[1].values))
    checked = 0
    for k, v in c1.items():
        if 1 - k in c0:
            assert v == pytest.approx((-1.0) ** (1 - k) * np.conj(c0[1 - k]), abs=1e-13)
            checked += 1
        else:
            # tap whose mirror was truncated; bounded by the truncated tail
            assert abs(v) < 2e-5
    assert checked >= len(c1) - 2


def test_sigma_bands_live_on_even_taps():
    # |sigma|^2 = eta is 1/2-periodic, so bands 2 and 3 only carry even k
    # (band 3 before its unit phase shift)
    c2 = BANK_2_0.coeffs[2]
    for k, v in zip(c2.ks, c2.values):
        if int(k) % 2 != 0:
            assert abs(v) < 1e-13


def test_coefficient_parseval():
    for bank in (BANK_15_0, BANK_2_0):
        for n in range(4):
            c = bank.coeffs[n]
            h = bank.symbol(n).values
            lhs = float(np.sum(np.abs(np.asarray(c.values)) ** 2))
            rhs = float(np.mean(np.abs(h) ** 2))
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_truncation_tails_are_recorded_and_small():
    bank = make_bank(1.5, 1, resolution=4096)
    for n in range(4):
        assert 0.0 <= bank.coeffs[n].tail_norm <= 1e-10
    assert bank.truncation_eps == 1e-10


def test_extract_coeffs_respects_max_k():
    with pytest.raises(ResolutionError):
        frames.build_bank(BANK_15_0.order, BANK_15_0.grid, max_k=BANK_15_0.grid.resolution)


# ---------------------------------------------------------------- framelets


def test_framelet_hats_vanish_at_the_origin():
    profile, _ = run_cascade(PseudoSplineOrder(1.5, 0))
    bank = BANK_15_0
    for n in (1, 2, 3):
        assert abs(frames.framelet_hat(bank, profile, n, 0.0)) < 1e-12


def test_framelet_hat_value_for_the_linear_spline():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0))
    val = frames.framelet_hat(BANK_1_0, profile, 1, 1.0)
    assert abs(val) == pytest.approx((2.0 / math.pi) ** 2, abs=1e-8)


def test_framelet_hat_window_guard():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=16.0, step=1.0 / 16)
    with pytest.raises(WindowError):
        frames.framelet_hat(BANK_1_0, profile, 1, 40.0)


def exact_hat_profile(order, half_width=2.0, step=0.25):
    n = int(round(half_width / step))
    ts = (np.arange(2 * n + 1) - n) * step
    values = np.clip(1.0 - np.abs(ts), 0.0, None).astype(complex)
    return TimeProfile(order, half_width, step, values, 0.0)


def test_framelet_time_piecewise_linear_wavelet():
    phi = exact_hat_profile(PseudoSplineOrder(1.0, 0))
    psi1 = frames.framelet_time(BANK_1_0, phi, 1)
    at = {round(t, 6): v for t, v in zip(psi1.ts, psi1.values)}
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
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0))
    for g in (0.25, 0.5, 1.0, 1.7, 3.0):
        direct = np.sum(psi1.values * np.exp(-2j * np.pi * g * psi1.ts)) * psi1.step
        assert abs(direct - frames.framelet_hat(BANK_1_0, profile, 1, g)) < 2e-3


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
    want = approx
    for level_details in reversed(details):
        want = direct_synthesis(BANK_32_2, [want, *level_details])
    assert np.linalg.norm(back - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(3, 256), (2, 2, 256)])
def test_a_batched_transform_equals_per_row_calls(shape):
    rng = np.random.default_rng(46)
    batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectra = frames._tap_spectra(BANK_32_2, shape[-1])
    details, approx = frames._analysis(spectra, batch, 3)
    back = frames._synthesis(spectra, details, approx)
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


@pytest.mark.parametrize("levels", [1, 3, 5])
def test_tap_spectra_are_built_once_per_call(monkeypatch, levels):
    calls = []
    original = frames.FilterCoefficients.wrapped

    def counting(self, length):
        calls.append(length)
        return original(self, length)

    monkeypatch.setattr(frames.FilterCoefficients, "wrapped", counting)
    sig = frames.PeriodicSignal(np.arange(1024.0))
    details, approx = frames.analyze_multilevel(BANK_15_0, sig, levels)
    assert calls == [1024] * 4
    calls.clear()
    frames.synthesize_multilevel(BANK_15_0, details, approx)
    assert calls == [1024] * 4


def test_multilevel_synthesis_validates_subband_shapes():
    details, approx = frames.analyze_multilevel(BANK_15_0, frames.PeriodicSignal(np.ones(64)), 2)
    with pytest.raises(GridCompatibilityError):
        frames.synthesize_multilevel(BANK_15_0, [details[0], details[1][:2]], approx)
    with pytest.raises(GridCompatibilityError):
        frames.synthesize_multilevel(BANK_15_0, [details[1], details[0]], approx)


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


def test_coefficient_only_bank_refuses_symbol_access():
    loaded = frames.bank_from_dict(frames.bank_to_dict(BANK_1_0))
    with pytest.raises(ConsistencyError):
        loaded.symbol(0)


# ---------------------------------------------------------------- shifted banks


def test_shifted_bank_keeps_the_identities():
    bank = make_bank(1.5, 1, shift=0.5)
    diag, off = frames.uep_errors(bank)
    assert diag < 1e-10
    assert off < 1e-10
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

"""Fourier-domain cascade: convergence, oracles, and time-domain inversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudosplines import cli
from pseudosplines.errors import GridCompatibilityError, ToleranceError
from pseudosplines.cascade import (
    cascade_step,
    fourier_to_time,
    initial_profile,
    refinement_residual,
    run_cascade,
    to_time_domain,
)
from pseudosplines.symbol import PseudoSplineOrder, max_ell


def sinc_sq(gamma, power):
    g = np.asarray(gamma, dtype=float)
    out = np.ones_like(g)
    nz = g != 0.0
    out[nz] = (np.sin(np.pi * g[nz]) / (np.pi * g[nz])) ** 2
    return out ** power


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
def test_integer_orders_converge_to_spline_transforms(z):
    profile, diag = run_cascade(PseudoSplineOrder(z, 0))
    assert diag.converged
    gam = profile.gammas
    box = np.abs(gam) <= 8.0
    err = np.abs(profile.values[box] - sinc_sq(gam[box], z)).max()
    assert err < 1e-8


def test_l2_sequence_is_monotone_and_bounded():
    for z, ell in [(1.0, 0), (1.5, 0), (2.0, 1), (3.2 + 1.0j, 2), (4.2, 3)]:
        _, diag = run_cascade(PseudoSplineOrder(z, ell))
        norms = np.asarray(diag.l2_norms)
        assert diag.l2_monotone
        assert np.all(np.diff(norms) <= 1e-10)
        assert norms.max() <= 1.0 + 1e-10


def test_profile_normalization_and_modulus_bound():
    profile, diag = run_cascade(PseudoSplineOrder(2.7, 1))
    assert profile.value_at_zero() == pytest.approx(1.0, abs=1e-13)
    assert np.abs(profile.values).max() <= 1.0 + 1e-12
    assert diag.converged_level <= 20
    assert diag.sup_changes[-1] <= 1e-10


def test_refinement_residual_after_convergence():
    for z, ell in [(1.5, 0), (2.0, 1), (3.2 + 1.0j, 3)]:
        profile, _ = run_cascade(PseudoSplineOrder(z, ell))
        assert refinement_residual(profile) < 1e-8


def test_cascade_step_increments_the_level():
    p0 = initial_profile(PseudoSplineOrder(1.5, 0), window=8.0, step=1.0 / 16)
    p1 = cascade_step(p0)
    assert p1.level_m == p0.level_m + 1
    assert p1.values.shape == p0.values.shape
    # one step must not move the origin value
    assert p1.value_at_zero() == pytest.approx(1.0, abs=1e-14)


def test_diagnostics_serialize_deterministically():
    _, diag = run_cascade(PseudoSplineOrder(1.5, 1), levels=12, window=16.0, step=1.0 / 16)
    assert diag.to_dict() == diag.to_dict()


def test_time_inversion_recovers_the_triangle():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=128.0)
    tp = to_time_domain(profile, half_width=2.0, step=1.0 / 32, tolerance=2e-3)
    hat = np.clip(1.0 - np.abs(tp.ts), 0.0, None)
    assert np.abs(tp.values.real - hat).max() < 1e-3
    assert np.abs(tp.values.imag).max() < 1e-9


def test_time_inversion_rejects_a_window_too_small_for_its_tolerance():
    # the triangle's transform decays like gamma**-2; at window 64 the
    # out-of-window mass estimate exceeds 2e-3, so inversion must refuse
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=64.0)
    with pytest.raises(ToleranceError):
        to_time_domain(profile, half_width=2.0, step=1.0 / 32, tolerance=2e-3)


def test_time_inversion_recovers_the_cubic_spline():
    profile, _ = run_cascade(PseudoSplineOrder(2.0, 0), window=128.0)
    tp = to_time_domain(profile, half_width=4.0, step=1.0 / 32, tolerance=1e-3)

    def b4(x):
        ax = np.abs(x)
        inner = (3.0 * ax**3 - 6.0 * ax**2 + 4.0) / 6.0
        outer = np.clip(2.0 - ax, 0.0, None) ** 3 / 6.0
        return np.where(ax <= 1.0, inner, outer)

    assert np.abs(tp.values.real - b4(tp.ts)).max() < 1e-7
    assert tp.tail_estimate < 1e-6


def test_time_inversion_translates_shifted_orders():
    base, _ = run_cascade(PseudoSplineOrder(2.0, 0), window=128.0)
    shifted, _ = run_cascade(PseudoSplineOrder(2.0, 0, shift=1.0), window=128.0)
    tb = to_time_domain(base, half_width=3.0, step=1.0 / 16, tolerance=1e-3)
    ts = to_time_domain(shifted, half_width=4.0, step=1.0 / 16, tolerance=1e-3)
    # phi_u(t) = phi(t - u): compare on the overlap of the two grids
    for t, v in zip(tb.ts, tb.values):
        j = np.argmin(np.abs(ts.ts - (t + 1.0)))
        assert abs(ts.values[j] - v) < 1e-7


def test_shifted_cascade_is_the_unshifted_one_times_the_exact_phase():
    base, base_diag = run_cascade(PseudoSplineOrder(2.0, 1))
    for u in (0.5, 0.3, 1e6):
        order = PseudoSplineOrder(2.0, 1, shift=u)
        profile, diag = run_cascade(order)
        assert profile.order == order
        assert np.array_equal(profile.values, np.exp(-2j * np.pi * u * base.gammas) * base.values)
        assert diag.to_dict() == base_diag.to_dict()
        assert refinement_residual(profile) < 1e-6


def dense_trapezoid(gammas, values, ts):
    """f(t_j) = sum_k w_k v_k exp(2 pi i gamma_k t_j) dgamma, term by term."""
    w = np.ones(len(gammas))
    w[0] = w[-1] = 0.5
    return np.exp(2j * np.pi * np.outer(ts, gammas)) @ (w * values * (gammas[1] - gammas[0]))


@pytest.mark.parametrize(
    "window, step, ts",
    [
        (64.0, 1.0 / 64, (np.arange(513) - 256) / 32),  # P = 2048 < 8193 samples
        (4.0, 1.0 / 16, (np.arange(129) - 64) / 64),  # P = 1024 > 129 samples
        (2.0, 1.0 / 4, (np.arange(161) - 80) / 8),  # P = 32: rows wrap, 2n+1 > P
        (16.0, 1.0 / 16, 0.3 + np.arange(100) / 32),  # nonzero, non-dyadic t0
        (16.0, 1.0 / 16, np.array([0.37])),  # one time sample
    ],
)
def test_fft_inversion_matches_the_dense_trapezoid_sum(window, step, ts):
    profile, _ = run_cascade(PseudoSplineOrder(3.2 + 1.0j, 2), window=window, step=step)
    dense = dense_trapezoid(profile.gammas, profile.values, ts)
    fast = fourier_to_time(profile.gammas, profile.values, ts)
    assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


def test_fft_inversion_rejects_incompatible_grids():
    profile, _ = run_cascade(PseudoSplineOrder(2.0, 0))
    with pytest.raises(GridCompatibilityError, match="must be an integer"):
        to_time_domain(profile, half_width=3.0, step=0.03, tolerance=1e-3)
    with pytest.raises(GridCompatibilityError, match="uniformly spaced"):
        fourier_to_time(profile.gammas, profile.values, np.array([0.0, 0.25, 0.75]))
    with pytest.raises(GridCompatibilityError, match="uniformly spaced"):
        fourier_to_time(profile.gammas**3, profile.values, np.array([0.0, 0.25]))


def test_cli_cascade_rejects_an_incompatible_time_step(tmp_path, capsys):
    rc = cli.main(["cascade", "--z", "2", "--ell", "0", "--time-half-width", "3", "--dt", "0.03",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert "must be an integer" in capsys.readouterr().err


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=1.0, max_value=4.0),
    st.integers(min_value=0, max_value=3),
)
def test_l2_monotone_property(alpha, ell_pick):
    order = PseudoSplineOrder(alpha, min(ell_pick, max_ell(alpha)))
    _, diag = run_cascade(order, levels=12, window=16.0, step=1.0 / 16)
    assert diag.l2_monotone
    assert max(diag.l2_norms) <= 1.0 + 1e-10

"""Fourier-domain cascade: convergence, oracles, and time-domain inversion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pseudosplines import cascade, cli
from pseudosplines.errors import GridCompatibilityError, ToleranceError
from pseudosplines.cascade import (
    CascadeDiagnostics,
    fourier_to_time,
    refinement_residual,
    run_cascade,
    to_time_domain,
)
from pseudosplines.symbol import PseudoSplineOrder, eval_H0, max_ell


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
    gam = profile.points
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
    assert profile.values[len(profile.values) // 2] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(profile.values).max() <= 1.0 + 1e-12
    assert diag.converged_level <= 20
    assert diag.sup_changes[-1] <= 1e-10


def test_refinement_residual_after_convergence():
    for z, ell in [(1.5, 0), (2.0, 1), (3.2 + 1.0j, 3)]:
        profile, _ = run_cascade(PseudoSplineOrder(z, ell))
        assert refinement_residual(profile) < 1e-8


def test_cascade_step_increments_the_level():
    p1, diag = run_cascade(PseudoSplineOrder(1.5, 0), levels=1, window=8.0, step=1.0 / 16)
    assert diag.levels == 1
    assert p1.values.shape == (2 * 128 + 1,)
    # one step must not move the origin value
    assert p1.values[len(p1.values) // 2] == pytest.approx(1.0, abs=1e-14)


def test_diagnostics_serialize_deterministically():
    _, diag = run_cascade(PseudoSplineOrder(1.5, 1), levels=12, window=16.0, step=1.0 / 16)
    assert diag.to_dict() == diag.to_dict()


def test_time_inversion_recovers_the_triangle():
    profile, _ = run_cascade(PseudoSplineOrder(1.0, 0), window=128.0)
    tp = to_time_domain(profile, half_width=2.0, step=1.0 / 32, tolerance=2e-3)
    hat = np.clip(1.0 - np.abs(tp.points), 0.0, None)
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

    assert np.abs(tp.values.real - b4(tp.points)).max() < 1e-7
    assert tp.tail_estimate < 1e-6


def test_time_inversion_translates_shifted_orders():
    base, _ = run_cascade(PseudoSplineOrder(2.0, 0), window=128.0)
    shifted, _ = run_cascade(PseudoSplineOrder(2.0, 0, shift=1.0), window=128.0)
    tb = to_time_domain(base, half_width=3.0, step=1.0 / 16, tolerance=1e-3)
    ts = to_time_domain(shifted, half_width=4.0, step=1.0 / 16, tolerance=1e-3)
    # phi_u(t) = phi(t - u): compare on the overlap of the two grids
    for t, v in zip(tb.points, tb.values):
        j = np.argmin(np.abs(ts.points - (t + 1.0)))
        assert abs(ts.values[j] - v) < 1e-7


def test_shifted_cascade_is_the_unshifted_one_times_the_exact_phase():
    base, base_diag = run_cascade(PseudoSplineOrder(2.0, 1))
    for u in (0.5, 0.3, 1e6):
        order = PseudoSplineOrder(2.0, 1, shift=u)
        profile, diag = run_cascade(order)
        assert profile.order == order
        assert np.array_equal(profile.values, np.exp(-2j * np.pi * u * base.points) * base.values)
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
    dense = dense_trapezoid(profile.points, profile.values, ts)
    fast = fourier_to_time(profile.points, profile.values, ts)
    assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()


def test_fft_inversion_rejects_incompatible_grids():
    profile, _ = run_cascade(PseudoSplineOrder(2.0, 0))
    with pytest.raises(GridCompatibilityError, match="must be an integer"):
        to_time_domain(profile, half_width=3.0, step=0.03, tolerance=1e-3)
    with pytest.raises(GridCompatibilityError, match="uniformly spaced"):
        fourier_to_time(profile.points, profile.values, np.array([0.0, 0.25, 0.75]))
    with pytest.raises(GridCompatibilityError, match="uniformly spaced"):
        fourier_to_time(profile.points**3, profile.values, np.array([0.0, 0.25]))


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


def full_grid_cascade(order, levels, window, step, sup_tolerance):
    """The cascade iterated on the full grid, with H0 evaluated at every 2^-m gamma_k.

    This is the loop run_cascade replaced by its half-grid iteration with
    dyadic reuse; the two must agree bit for bit.
    """
    count = int(round(window / step))
    g = (np.arange(2 * count + 1) - count) * step
    extent = float(np.max(g))
    diag = CascadeDiagnostics(levels=0, sup_tolerance=float(sup_tolerance))

    def mask(bound):
        return np.abs(g) <= bound + 1e-9 * step

    def l2(values, bound):
        sel = np.nonzero(mask(bound))[0]
        sq = np.abs(values[sel]) ** 2
        w = np.ones(len(sel))
        w[0] = 0.5
        w[-1] = 0.5
        return float(math.sqrt(np.sum(w * sq) * step))

    prev = mask(0.5).astype(complex)
    diag.l2_norms.append(l2(prev, 0.5))
    diag.max_modulus = float(np.max(np.abs(prev)))
    prod = np.ones(len(g), dtype=complex)
    for m in range(1, levels + 1):
        prod = prod * eval_H0(order.unshifted, g * 0.5**m)
        current = prod.copy()
        bound = min(2.0 ** (m - 1), extent)
        current[~mask(bound)] = 0.0
        diag.sup_changes.append(float(np.max(np.abs(current - prev))))
        diag.l2_norms.append(l2(current, bound))
        diag.max_modulus = max(diag.max_modulus, float(np.max(np.abs(current))))
        diag.levels = m
        prev = current
        if diag.sup_changes[-1] < sup_tolerance:
            diag.converged = True
            diag.converged_level = m
            break
    if not diag.converged and len(diag.sup_changes) >= 4:
        tail = diag.sup_changes[-4:]
        if all(b >= a for a, b in zip(tail[:-1], tail[1:])):
            diag.warning = (
                "sup-norm change did not decrease over the last 3 levels; "
                "the iteration has not settled at this grid"
            )
    if order.shift != 0.0:
        current = current * np.exp(-2j * np.pi * order.shift * g)
    return current, diag


# odd M = 3 and even M = 256
GRIDS = [(3.0, 1.0), (16.0, 1.0 / 16)]
# (levels, sup_tolerance): one level, the default stop, and a cap whose
# zero tolerance runs on until the sup changes stop decreasing (warning path)
STOPS = [(1, 1e-10), (24, 1e-10), (60, 0.0)]


@settings(deadline=None, max_examples=60)
@given(
    st.floats(min_value=1.0, max_value=8.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=0, max_value=7),
    st.one_of(st.just(0.0), st.floats(min_value=-4.0, max_value=4.0), st.just(1e6)),
    st.sampled_from(GRIDS),
    st.sampled_from(STOPS),
)
@example(3.2, 1.0, 2, 0.5, GRIDS[1], STOPS[2])
@example(8.0, -10.0, 7, 1e6, GRIDS[0], STOPS[0])
def test_half_grid_cascade_equals_the_full_grid_loop(alpha, beta, ell_pick, shift, grid, stop):
    order = PseudoSplineOrder(complex(alpha, beta), ell_pick % (max_ell(alpha) + 1), shift)
    (window, step), (levels, tol) = grid, stop
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        profile, diag = run_cascade(order, levels=levels, window=window, step=step, sup_tolerance=tol)
    values, ref = full_grid_cascade(order, levels, window, step, tol)
    assert np.array_equal(profile.values, values)
    assert diag.to_dict() == ref.to_dict()


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"window": 3.0, "step": 1.0, "levels": 60, "sup_tolerance": 0.0},
        {"window": 16.0, "step": 1.0 / 16, "levels": 1},
        {"window": 4.0, "step": 1.0 / 8},
    ],
)
def test_each_dilated_symbol_point_is_evaluated_once(kwargs, monkeypatch):
    seen = []

    def counting(order, gamma):
        seen.append(np.size(gamma))
        return eval_H0(order, gamma)

    monkeypatch.setattr(cascade, "eval_H0", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        profile, diag = run_cascade(PseudoSplineOrder(3.2 + 1.0j, 2, shift=0.5), **kwargs)
    m = (len(profile.values) - 1) // 2
    assert len(seen) == diag.levels
    assert sum(seen) == (m + 1) + (diag.levels - 1) * ((m + 1) // 2)

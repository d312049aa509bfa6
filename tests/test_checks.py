"""The verification suites underlying the verify command."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pseudosplines import checks, cli, frames
from pseudosplines.analysis import lowpass_condition
from pseudosplines.checks import (
    CheckResult,
    run_all,
    run_cascade_checks,
    run_frames_checks,
    run_symbol_checks,
)
from pseudosplines.errors import ToleranceError
from pseudosplines.symbol import PseudoSplineOrder, TorusGrid, max_ell, partition_extrema

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
        results, n = run_frames_checks(order)
        assert all(r.passed for r in results), (order.label(), [r for r in results if not r.passed])
        if n > 64:
            with pytest.raises(ToleranceError):
                frames.build_bank(order, TorusGrid(n // 2))


def test_symbol_suite_passes_for_representative_orders():
    for z, ell, u in [(1.0, 0, 0.0), (2.7, 1, 0.0), (3.2 + 1.0j, 3, 0.0), (1.5, 1, 0.5)]:
        results = run_symbol_checks(PseudoSplineOrder(z, ell, shift=u), resolution=1024)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_cascade_suite_passes():
    results = run_cascade_checks(PseudoSplineOrder(1.5, 1), levels=16, window=32.0, step=1.0 / 32)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_frames_suite_passes():
    results, n = run_frames_checks(PseudoSplineOrder(2.0, 1), resolution=1024)
    assert n == 1024
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@pytest.mark.parametrize(
    "order, delta",
    [(PseudoSplineOrder(1.0, 0), 0.0), (PseudoSplineOrder(1.5, 0), 0.0), (PseudoSplineOrder(3.2 + 1.0j, 2), 0.0),
     (PseudoSplineOrder(2.0, 1, shift=0.5), 0.0), (PseudoSplineOrder(2.0, 1), 1e-6)],
    ids=lambda v: v.label() if isinstance(v, PseudoSplineOrder) else f"delta={v}",
)
def test_discrete_parseval_reads_the_exact_one_level_defect(monkeypatch, order, delta):
    # (1.5, 0)'s taps reach radius 402, so they wrap many times onto 64
    # points; the shipped taps cancel the cross sum O to rounding, so a
    # perturbed tap makes it count
    if delta:
        perturb_a_tap(monkeypatch, 0, delta)
    n = 64
    results, _ = run_frames_checks(order, signal_length=n)
    (defect,) = [r.observed for r in results if r.name == "discrete_parseval"]
    bank = frames.build_bank(order, None, 1e-10)
    # the 2x2 modulation matrices minus I, one per pair of DFT bins (w, w + n/2)
    spectra = frames._tap_spectra([bank.coeffs[b] for b in range(4)], n, 0)
    top, bottom = spectra[:, : n // 2], spectra[:, n // 2 :]
    m = np.empty((n // 2, 2, 2), dtype=complex)
    m[:, 0, 0] = np.sum(np.abs(top) ** 2, axis=0) - 1.0
    m[:, 1, 1] = np.sum(np.abs(bottom) ** 2, axis=0) - 1.0
    m[:, 0, 1] = np.sum(top * np.conj(bottom), axis=0)
    m[:, 1, 0] = np.conj(m[:, 0, 1])
    assert abs(defect - np.max(np.linalg.svd(m, compute_uv=False))) <= 1e-14
    # the dense one-level operator S - I, one round trip per unit vector
    eye = np.eye(n, dtype=complex)
    back = np.array([frames.synthesize(bank, frames.analyze(bank, frames.PeriodicSignal(e))).samples for e in eye])
    assert abs(defect - np.linalg.norm(back - eye, 2)) <= 1e-14


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
        results, _ = run_frames_checks(order)
    except ToleranceError as exc:
        assert "2^18" in str(exc)
        return
    assert all(r.passed for r in results), (order.label(), [r for r in results if not r.passed])


# ---------------------------------------------------------------- every check can fail
# Each test corrupts one check's input and sees that check fail, so no check
# passes by construction.  The corruptions need no order off the arctan
# condition.

ORDER = PseudoSplineOrder(2.0, 1)


def failed(results) -> list[str]:
    return [r.name for r in results if not r.passed]


@pytest.mark.parametrize("name, field, delta", [("partition_min_matches_theta", "min", 1e-9),
                                                ("partition_max_is_one", "max", 1e-11)])
def test_shifted_extrema_fail_their_partition_check(name, field, delta):
    ext = partition_extrema(ORDER, TorusGrid(256))
    shifted = ext._replace(**{field: getattr(ext, field) + delta})
    assert failed(run_symbol_checks(ORDER, 256, shifted)) == [name]


def test_a_scaled_definition_form_fails_p_form_equivalence(monkeypatch):
    eval_p = checks.eval_p

    def scaled(order, x, form="taylor"):
        p = eval_p(order, x, form=form)
        return p * (1.0 + 1e-6) if form == "definition" else p

    monkeypatch.setattr(checks, "eval_p", scaled)
    assert failed(run_symbol_checks(ORDER, 256)) == ["p_form_equivalence"]


def test_a_scaled_derivative_fails_q_prime_finite_difference(monkeypatch):
    # the check's relative limit is 1e-6, so a 1e-6 scaling would sit on it
    eval_q_prime = checks.eval_q_prime
    monkeypatch.setattr(checks, "eval_q_prime", lambda order, x: eval_q_prime(order, x) * (1.0 + 1e-5))
    assert failed(run_symbol_checks(ORDER, 256)) == ["q_prime_finite_difference"]


@pytest.mark.parametrize(
    "name, doctor",
    [
        ("l2_nonincreasing", lambda d: replace(d, l2_norms=[*d.l2_norms, d.l2_norms[-1] + 1e-9])),
        ("l2_bounded_by_one", lambda d: replace(d, l2_norms=[x + 1e-9 for x in d.l2_norms])),
        ("modulus_bounded_by_one", lambda d: replace(d, max_modulus=1.0 + 1e-11)),
        ("final_sup_change", lambda d: replace(d, sup_changes=[*d.sup_changes[:-1], 1e-7])),
    ],
)
def test_doctored_diagnostics_fail_their_cascade_check(monkeypatch, name, doctor):
    run_cascade = checks.run_cascade

    def doctored(*args, **kwargs):
        profile, diag = run_cascade(*args, **kwargs)
        return profile, doctor(diag)

    monkeypatch.setattr(checks, "run_cascade", doctored)
    assert failed(run_cascade_checks(ORDER, levels=16, window=32.0, step=1.0 / 32)) == [name]


def perturb_a_tap(monkeypatch, band: int, delta: float) -> None:
    """Make build_bank add delta to the middle tap of one band."""
    build_bank = frames.build_bank

    def perturbed(*args):
        bank = build_bank(*args)
        c = bank.coeffs[band]
        values = c.values.copy()
        values[len(values) // 2] += delta
        return replace(bank, coeffs={**bank.coeffs, band: replace(c, values=values)})

    monkeypatch.setattr(frames, "build_bank", perturbed)


@pytest.mark.parametrize(
    "name, band, delta",
    [
        ("uep_diagonal", 0, 1e-9),
        # small enough to keep the diagonal within its limit
        ("uep_offdiagonal", 0, 1e-12),
        ("vanishing_moments", 2, 1e-9),
        ("discrete_parseval", 0, 1e-6),
    ],
)
def test_a_perturbed_tap_fails_its_frames_check(monkeypatch, name, band, delta):
    perturb_a_tap(monkeypatch, band, delta)
    results, _ = run_frames_checks(ORDER)
    assert name in failed(results)


def test_a_perturbed_tap_leaves_perfect_reconstruction_passing(monkeypatch):
    # the engine runs the perturbed taps, whose defect the limit takes in
    perturb_a_tap(monkeypatch, 0, 1e-6)
    results, _ = run_frames_checks(ORDER)
    assert "discrete_parseval" in failed(results) and "perfect_reconstruction" not in failed(results)


def test_a_corrupted_engine_fails_perfect_reconstruction_alone(monkeypatch):
    # the linear spline's taps are finite, so its defect is at rounding and
    # a synthesis error of 1e-12, 1e4 times below the old fixed limit, shows
    synthesize = frames.synthesize

    def corrupted(bank, subbands):
        return frames.PeriodicSignal(synthesize(bank, subbands).samples * (1.0 + 1e-12))

    monkeypatch.setattr(frames, "synthesize", corrupted)
    results, _ = run_frames_checks(PseudoSplineOrder(1.0, 0))
    assert failed(results) == ["perfect_reconstruction"]


def test_a_scaled_sigma_fails_sigma_squared_equals_eta(monkeypatch):
    eval_sigma = frames.eval_sigma
    monkeypatch.setattr(frames, "eval_sigma", lambda order, gamma: eval_sigma(order, gamma) * (1.0 + 1e-6))
    results, _ = run_frames_checks(ORDER)
    assert "sigma_squared_equals_eta" in failed(results)

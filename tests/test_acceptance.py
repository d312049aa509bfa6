"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test name carries the criterion number; conftest.py prints one
PASS/FAIL line per criterion at the end of the run.  The order sweep and
all tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from pseudosplines import analysis, cli, frames
from pseudosplines.cascade import run_cascade, refinement_residual
from pseudosplines.symbol import (
    PseudoSplineOrder,
    TorusGrid,
    eval_H0,
    eval_p,
    eval_q,
    eval_q_prime,
    kappa,
    max_ell,
    partition_extrema,
    theta_bound,
)

pytestmark = pytest.mark.acceptance

SWEEP = [
    (1.0, 0), (1.5, 0), (2.0, 0), (2.0, 1),
    (3.5, 0), (3.5, 1), (3.5, 2), (3.5, 3),
    (3.2 + 1.0j, 0), (3.2 + 1.0j, 1), (3.2 + 1.0j, 2), (3.2 + 1.0j, 3),
    (4.2, 0), (4.2, 1), (4.2, 2), (4.2, 3),
]
ORDERS = [PseudoSplineOrder(z, ell) for z, ell in SWEEP]
IDS = [o.label() for o in ORDERS]
FRACTIONAL = [o for o in ORDERS if o.z.imag == 0.0]
# real orders and the complex orders meeting the lowpass condition
REGULAR = FRACTIONAL + [
    PseudoSplineOrder(z, ell)
    for z, ell in [(3.2 + 1.0j, 0), (3.2 + 1.0j, 1), (3.2 + 1.0j, 2), (3.2 + 1.0j, 3),
                   (2.0 + 1.0j, 1), (4.5 + 2.0j, 3), (1.0 + 5.0j, 0)]
]

_BANKS: dict = {}


def bank_for(order):
    if order not in _BANKS:
        _BANKS[order] = frames.build_bank(order)
    return _BANKS[order]


# criterion 1: partition extrema across the sweep on a 4096 grid


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
def test_criterion_1_partition_bounds(order):
    start = time.perf_counter()
    ext = partition_extrema(order, TorusGrid(4096))
    elapsed = time.perf_counter() - start
    assert abs(ext.min - theta_bound(order)) < 1e-10
    assert abs(ext.max - 1.0) < 1e-12
    assert elapsed < 1.0


# criterion 2: algebraic identities, 1000 randomized cases under a second


def test_criterion_2_p_and_q_identities():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for _ in range(1000):
        alpha = rng.uniform(1.0, 5.0)
        beta = rng.uniform(-2.0, 2.0) if rng.integers(0, 2) else 0.0
        order = PseudoSplineOrder(complex(alpha, beta), int(rng.integers(0, max_ell(alpha) + 1)))
        x = float(rng.uniform(0.0, 1.0))
        pd = eval_p(order, x, form="definition")
        pt = eval_p(order, x, form="taylor")
        assert abs(pd - pt) <= 1e-12 * max(abs(pt), 1.0)
        xq = float(rng.uniform(0.05, 0.95))
        h = 1e-6
        fd = (eval_q(order, xq + h) - eval_q(order, xq - h)) / (2.0 * h)
        qp = eval_q_prime(order, xq)
        assert abs(qp - fd) <= 1e-6 * max(abs(qp), 1.0)
    assert time.perf_counter() - start < 1.0


# criterion 3: cascade convergence and the integer-order oracle


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
def test_criterion_3_cascade_convergence(order):
    start = time.perf_counter()
    profile, diag = run_cascade(order, levels=24, window=64.0, step=1.0 / 64)
    elapsed = time.perf_counter() - start
    norms = np.asarray(diag.l2_norms)
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms.max() <= 1.0 + 1e-12
    assert refinement_residual(profile) < 1e-6
    assert elapsed < 10.0


@pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
def test_criterion_3_spline_oracle(z):
    profile, _ = run_cascade(PseudoSplineOrder(z, 0), levels=24, window=64.0, step=1.0 / 64)
    gam = profile.points
    keep = np.abs(gam) <= 8.0
    g = gam[keep]
    ref = np.ones_like(g)
    nz = g != 0.0
    ref[nz] = (np.sin(np.pi * g[nz]) / (np.pi * g[nz])) ** (2.0 * z)
    assert np.abs(profile.values[keep] - ref).max() < 1e-8


# criterion 4: the two filter-bank identities on the grid


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
def test_criterion_4_bank_identities(order):
    diag, off = frames.uep_errors(bank_for(order))
    assert diag < 1e-10
    assert off < 1e-10


# criterion 5: discrete Parseval and perfect reconstruction


@pytest.mark.parametrize("order", ORDERS, ids=IDS)
def test_criterion_5_parseval_and_reconstruction(order):
    bank = bank_for(order)
    integer_case = order.z.imag == 0.0 and order.z.real == int(order.z.real) and order.ell == 0
    tol = 1e-12 if integer_case else 1e-6
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    for _ in range(50):
        f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        sig = frames.PeriodicSignal(f)
        subs = frames.analyze(bank, sig)
        energy = sum(float(np.sum(np.abs(s) ** 2)) for s in subs)
        assert abs(energy - sig.energy()) <= 1e-6 * sig.energy()
        out = frames.synthesize(bank, subs)
        rel = float(np.linalg.norm(out.samples - sig.samples) / np.linalg.norm(sig.samples))
        assert rel < tol
    assert time.perf_counter() - start < 5.0


# criterion 6: regularity and approximation, real and complex orders


@pytest.mark.parametrize("order", REGULAR, ids=[o.label() for o in REGULAR])
def test_criterion_6_fits_and_conditions(order, envelope_conditions):
    assert envelope_conditions(order)
    assert analysis.fit_zero_order(order)[0] == pytest.approx(2.0 * (order.ell + 1), abs=0.05)
    profile, _ = run_cascade(order)
    bound = -(2.0 * order.alpha - kappa(order))
    assert analysis.fit_decay(profile)[0] <= bound + 0.2


def test_criterion_6_known_values():
    order = PseudoSplineOrder(2.0, 1)
    assert kappa(order) == pytest.approx(1.3219, abs=5e-4)
    assert analysis.holder_exponent(order) == pytest.approx(1.678, abs=5e-4)
    assert analysis.approximation_order(order) == 4.0


# criterion 7: lowpass condition and floor for the complex family


def test_criterion_7_lowpass_condition_and_floor():
    base_profile = None
    for ell in range(4):
        order = PseudoSplineOrder(3.2 + 1.0j, ell)
        ok, total = analysis.lowpass_condition(order)
        assert ok
        assert abs(total) < math.pi / 2
        profile, _ = run_cascade(order)
        assert analysis.lowpass_floor(profile) > 0.0
        if ell == 0:
            base_profile = profile
            sel = np.abs(profile.points) <= 0.25 + 1e-12
        else:
            # the ell = 0 modulus bounds the others below on |gamma| <= 1/4
            assert np.all(np.abs(base_profile.values[sel]) <= np.abs(profile.values[sel]) + 1e-9)
    assert total == pytest.approx(0.8868, abs=5e-4)


# criterion 8: real shifts


SHIFT_BASES = [(1.0, 0), (1.5, 1), (3.2 + 1.0j, 2)]


@pytest.mark.parametrize("u", [-1.0, 0.5, 2.0])
def test_criterion_8_phase_identity(u):
    grid = TorusGrid(4096)
    for z, ell in SHIFT_BASES:
        base = PseudoSplineOrder(z, ell)
        shifted = PseudoSplineOrder(z, ell, shift=u)
        gam = grid.gamma
        lhs = np.asarray(eval_H0(shifted, gam))
        rhs = np.exp(-2j * np.pi * u * gam) * np.asarray(eval_H0(base, gam))
        assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("u", [-1.0, 0.5, 2.0])
def test_criterion_8_reports_are_shift_invariant(u):
    for z, ell in SHIFT_BASES:
        plain = analysis.full_report(PseudoSplineOrder(z, ell)).to_dict()
        shifted = analysis.full_report(PseudoSplineOrder(z, ell, shift=u)).to_dict()
        plain.pop("order")
        shifted.pop("order")
        assert plain == shifted


@pytest.mark.parametrize("u", [-1.0, 0.5, 2.0])
def test_criterion_8_bank_identities_and_reconstruction(u):
    rng = np.random.default_rng(8)
    for z, ell in SHIFT_BASES:
        order = PseudoSplineOrder(z, ell, shift=u)
        bank = frames.build_bank(order)
        diag, off = frames.uep_errors(bank)
        assert diag < 1e-10
        assert off < 1e-10
        f = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        sig = frames.PeriodicSignal(f)
        subs = frames.analyze(bank, sig)
        energy = sum(float(np.sum(np.abs(s) ** 2)) for s in subs)
        assert abs(energy - sig.energy()) <= 1e-6 * sig.energy()
        out = frames.synthesize(bank, subs)
        rel = float(np.linalg.norm(out.samples - sig.samples) / np.linalg.norm(sig.samples))
        assert rel < 1e-6


# criterion 9: CLI contract


def test_criterion_9_cli_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for target in (a, b):
        assert cli.main(["analyze", "--z", "3.2+1i", "--ell", "2", "--out", str(target)]) == 0
        assert (
            cli.main(
                ["framelets", "--z", "1.5", "--ell", "0", "--grid", "2048", "--out", str(target)]
            )
            == 0
        )
    capsys.readouterr()
    for name in ("analyze_report.json", "bank.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_criterion_9_cli_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    # 0: success
    assert cli.main(["filter", "--z", "1", "--ell", "0", "--grid", "64", "--out", out]) == 0
    # 1: io error (missing input files)
    assert (
        cli.main(
            ["transform", "--bank", str(tmp_path / "missing.json"),
             "--input", str(tmp_path / "missing.csv"), "--out", out]
        )
        == 1
    )
    # 2: config error, quoting the constraint
    assert cli.main(["filter", "--z", "2", "--ell", "3", "--out", out]) == 2
    captured = capsys.readouterr()
    assert "floor(alpha - 1/2) = 1" in captured.err
    # 3: verification failure
    assert (
        cli.main(
            ["verify", "--z", "1", "--ell", "0", "--grid", "256", "--frames-grid", "512",
             "--signals", "5", "--levels", "3", "--out", out]
        )
        == 3
    )
    # 4: numerical tolerance
    assert (
        cli.main(
            ["cascade", "--z", "1", "--ell", "0", "--time-half-width", "2",
             "--time-tolerance", "1e-3", "--out", out]
        )
        == 4
    )
    capsys.readouterr()

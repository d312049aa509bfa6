"""Runnable verification suites with explicit margins.

Each check compares an observed deviation against a limit and records both,
so callers (tests, the `verify` CLI command) can print margins rather than
bare booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .analysis import lowpass_condition
from .cascade import refinement_residual, run_cascade
from .errors import DomainError, PseudoSplineError
from .symbol import (
    PartitionExtrema,
    PseudoSplineOrder,
    TorusGrid,
    eval_H0,
    eval_p,
    eval_q,
    eval_q_prime,
    lipschitz_check,
    partition_extrema,
    theta_bound,
)

__all__ = [
    "CheckResult",
    "run_symbol_checks",
    "run_cascade_checks",
    "run_frames_checks",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    limit: float
    error: PseudoSplineError | None = None

    @property
    def passed(self) -> bool:
        return self.observed <= self.limit

    @property
    def margin(self) -> float:
        return self.limit - self.observed

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "observed": self.observed,
            "limit": self.limit,
            "passed": self.passed,
            "margin": self.margin,
        }
        if self.error is not None:
            d["error"] = str(self.error)
        return d


def run_symbol_checks(
    order: PseudoSplineOrder,
    resolution: int = 4096,
    extrema: PartitionExtrema | None = None,
) -> list[CheckResult]:
    """The symbol suite; `extrema` is partition_extrema(order,
    TorusGrid(resolution)) if the caller has it already, else it is computed."""
    grid = TorusGrid(resolution)
    results: list[CheckResult] = []

    ext = partition_extrema(order, grid) if extrema is None else extrema
    theta = theta_bound(order)
    results.append(CheckResult("partition_min_matches_theta", abs(ext.min - theta), 1e-10))
    results.append(CheckResult("partition_max_is_one", abs(ext.max - 1.0), 1e-12))
    results.append(CheckResult("symbol_at_zero", abs(eval_H0(order, 0.0) - 1.0), 1e-13))

    xs = np.linspace(0.0, 1.0, 21)
    pd = np.asarray(eval_p(order, xs, form="definition"))
    pt = np.asarray(eval_p(order, xs, form="taylor"))
    scale = np.maximum(np.abs(pt), 1.0)
    results.append(CheckResult("p_form_equivalence", float(np.max(np.abs(pd - pt) / scale)), 1e-12))

    h = 1e-6
    xs_fd = np.linspace(0.1, 0.9, 9)
    exact = np.asarray(eval_q_prime(order, xs_fd))
    fd = (np.asarray(eval_q(order, xs_fd + h)) - np.asarray(eval_q(order, xs_fd - h))) / (2 * h)
    rel = np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-12)
    results.append(CheckResult("q_prime_finite_difference", float(np.max(rel)), 1e-6))

    if order.shift != 0.0:
        g = grid.gamma
        shifted = np.asarray(eval_H0(order, g))
        base = np.asarray(eval_H0(order.unshifted, g)) * np.exp(-2j * np.pi * order.shift * g)
        results.append(CheckResult("shift_phase_identity", float(np.max(np.abs(shifted - base))), 1e-13))

    results.append(CheckResult("lipschitz_constant_bounded", lipschitz_check(order, grid), 1e6))
    return results


def run_cascade_checks(
    order: PseudoSplineOrder,
    levels: int = 24,
    window: float = 64.0,
    step: float = 1.0 / 64.0,
) -> list[CheckResult]:
    profile, diag = run_cascade(order, levels=levels, window=window, step=step)
    return [
        CheckResult(
            "l2_nonincreasing",
            max([b - a for a, b in zip(diag.l2_norms[:-1], diag.l2_norms[1:])], default=0.0),
            1e-10,
        ),
        CheckResult("l2_bounded_by_one", max(diag.l2_norms) - 1.0, 1e-10),
        CheckResult("modulus_bounded_by_one", diag.max_modulus - 1.0, 1e-12),
        CheckResult("value_at_zero_is_one", abs(profile.value_at_zero() - 1.0), 1e-13),
        CheckResult("refinement_residual", refinement_residual(profile), 1e-6),
        CheckResult("final_sup_change", diag.sup_changes[-1], 1e-8),
    ]


def run_frames_checks(
    order: PseudoSplineOrder,
    resolution: int | None = None,
    truncation_eps: float = 1e-10,
    signals: int = 50,
    signal_length: int = 1024,
    seed: int = 7,
) -> tuple[list[CheckResult], int]:
    """The frames suite and its bank's resolution: TorusGrid(resolution), or
    the grid build_bank sizes to the order when resolution is None."""
    if signals < 1:
        raise DomainError(f"the frames suite needs at least 1 test signal, got {signals}")
    frames._require_length(signal_length)
    bank = frames.build_bank(order, None if resolution is None else TorusGrid(resolution), truncation_eps)
    diag, off = frames.uep_errors(bank)
    results = [
        CheckResult("uep_diagonal", diag, 1e-10),
        CheckResult("uep_offdiagonal", off, 1e-10),
    ]

    sigma = math.sqrt(2.0) * bank.symbol(2).values
    eta = np.asarray(frames.eval_eta(order, bank.grid.gamma))
    results.append(
        CheckResult("sigma_squared_equals_eta", float(np.max(np.abs(np.abs(sigma) ** 2 - eta))), 1e-12)
    )

    zero_index = bank.grid.resolution // 2
    moment = max(abs(complex(bank.symbol(n).values[zero_index])) for n in (1, 2, 3))
    results.append(CheckResult("vanishing_moments", moment, 1e-12))

    limit = max(1e-8, 10.0 * truncation_eps)
    # row i is standard_normal(n) + 1j * standard_normal(n), drawn in that
    # order; the rows run as one batch
    noise = np.random.default_rng(seed).standard_normal((signals, 2, signal_length))
    data = np.empty((signals, signal_length), dtype=complex)
    data.real = noise[:, 0]
    data.imag = noise[:, 1]
    details, approx, back = frames._round_trip(bank, data, 1)
    energies = sum(np.vecdot(band.view(float), band.view(float)) for band in (approx, *details[0]))
    inputs = np.vecdot(data.view(float), data.view(float))
    worst_energy = float(np.max(np.abs(energies - inputs) / inputs, initial=0.0))
    errors = np.linalg.norm(back - data, axis=-1) / np.sqrt(inputs)
    worst_roundtrip = float(np.max(errors, initial=0.0))
    results.append(CheckResult("discrete_parseval", worst_energy, limit))
    results.append(CheckResult("perfect_reconstruction", worst_roundtrip, limit))

    ok, total = lowpass_condition(order)
    results.append(CheckResult("lowpass_arctan_in_range", 0.0 if ok else abs(total), 0.5 * math.pi))
    return results, bank.grid.resolution


def _suite(run, *args) -> list[CheckResult]:
    """One suite's results; a PseudoSplineError becomes one failed `error` entry."""
    try:
        return run(*args)
    except PseudoSplineError as exc:
        return [CheckResult("error", math.inf, 0.0, exc)]


def run_all(
    order: PseudoSplineOrder,
    symbol_resolution: int = 4096,
    frames_resolution: int | None = None,
    levels: int = 24,
    window: float = 64.0,
    step: float = 1.0 / 64.0,
    truncation_eps: float = 1e-10,
    signals: int = 50,
    signal_length: int = 1024,
    seed: int = 7,
    extrema: PartitionExtrema | None = None,
) -> tuple[dict[str, list[CheckResult]], int | None]:
    """Every suite, each run on its own: one that raises does not stop the others.

    Returns the suites and the frames bank's resolution (None if that suite
    raised).  `extrema` goes to run_symbol_checks: partition_extrema(order,
    TorusGrid(symbol_resolution)) if the caller has it already.
    """
    suites = {
        "symbol": _suite(run_symbol_checks, order, symbol_resolution, extrema),
        "cascade": _suite(run_cascade_checks, order, levels, window, step),
    }
    try:
        suites["frames"], resolution = run_frames_checks(
            order, frames_resolution, truncation_eps, signals, signal_length, seed
        )
    except PseudoSplineError as exc:
        suites["frames"], resolution = [CheckResult("error", math.inf, 0.0, exc)], None
    return suites, resolution

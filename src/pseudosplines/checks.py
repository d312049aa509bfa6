"""Runnable verification suites with explicit margins.

Each check compares an observed deviation against a limit and records both,
so callers (tests, the `verify` CLI command) can print margins rather than
bare booleans.  The checks test the paper's identities: the symbol suite the
two-point partition bounds and the symbol's evaluation paths, the cascade
suite the refinable function's convergence, and the frames suite the UEP
identities of the shipped taps and the transform they define.  None holds by
construction: each fails on some corrupted input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .cascade import refinement_residual, run_cascade
from .errors import DomainError, PseudoSplineError
from .symbol import (
    PartitionExtrema,
    PseudoSplineOrder,
    TorusGrid,
    eval_p,
    eval_q,
    eval_q_prime,
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
        CheckResult("refinement_residual", refinement_residual(profile), 1e-6),
        CheckResult("final_sup_change", diag.sup_changes[-1], 1e-8),
    ]


def run_frames_checks(
    order: PseudoSplineOrder,
    resolution: int | None = None,
    truncation_eps: float = 1e-10,
    signal_length: int = 1024,
    seed: int = 7,
) -> tuple[list[CheckResult], int]:
    """The frames suite and its bank's resolution: TorusGrid(resolution), or
    the grid build_bank sizes to the order when resolution is None."""
    if seed < 0:
        raise DomainError(f"the frames suite needs a seed >= 0, got {seed}")
    frames._require_length(signal_length)
    bank = frames.build_bank(order, None if resolution is None else TorusGrid(resolution), truncation_eps)
    # the shipped taps: derived bands 1 and 3 cancel the off-diagonal sum, and
    # the l1 tails bound the diagonal and the band sums (README, Conventions)
    tails = [bank.coeffs[n].tail_l1 for n in range(4)]
    diag, off = frames.uep_errors(bank)
    results = [
        CheckResult("uep_diagonal", diag, sum(2.0 * t + t * t for t in tails) + 1e-13),
        CheckResult("uep_offdiagonal", off, 1e-13),
    ]

    sigma = frames.eval_sigma(order, bank.grid.gamma)
    eta = np.asarray(frames.eval_eta(order, bank.grid.gamma))
    results.append(
        CheckResult("sigma_squared_equals_eta", float(np.max(np.abs(np.abs(sigma) ** 2 - eta))), 1e-12)
    )

    moments = [CheckResult("vanishing_moments", abs(complex(np.sum(bank.coeffs[n].values))), tails[n] + 1e-13)
               for n in (1, 2, 3)]
    results.append(min(moments, key=lambda r: r.margin))

    # One level of analysis then synthesis acts on each pair of DFT bins
    # (w, w + n/2) of a length-n signal as the Hermitian matrix
    # [[P(w), O(w)], [conj O(w), P(w + n/2)]]: P is the bands' power sum and
    # O their cross sum, from the taps folded onto n points.  The largest
    # spectral radius of that matrix minus I is both the worst |energy ratio
    # - 1| and the worst relative reconstruction error over every signal.
    n = signal_length
    spectra = frames._tap_spectra([bank.coeffs[b] for b in range(4)], n, 0)
    power = np.sum(spectra.real**2 + spectra.imag**2, axis=0) - 1.0
    a, d = power[: n // 2], power[n // 2 :]
    cross = np.abs(np.sum(spectra[:, : n // 2] * np.conj(spectra[:, n // 2 :]), axis=0))
    defect = float(np.max(np.abs(a + d) / 2 + np.hypot((a - d) / 2, cross)))
    results.append(CheckResult("discrete_parseval", defect, max(1e-8, 10.0 * truncation_eps)))

    # the public analyze/synthesize pair against the same taps: one seeded
    # signal comes back within the defect, plus rounding
    real, imag = np.random.default_rng(seed).standard_normal((2, n))
    x = real + 1j * imag
    back = frames.synthesize(bank, frames.analyze(bank, frames.PeriodicSignal(x))).samples
    error = float(np.linalg.norm(back - x) / np.linalg.norm(x))
    results.append(CheckResult("perfect_reconstruction", error, defect + 1e-13))
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
        suites["frames"], resolution = run_frames_checks(order, frames_resolution, truncation_eps, signal_length, seed)
    except PseudoSplineError as exc:
        suites["frames"], resolution = [CheckResult("error", math.inf, 0.0, exc)], None
    return suites, resolution

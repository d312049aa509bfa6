"""Analytic exponents and verification conditions for pseudo-spline orders.

Closed forms: the partition lower bound theta, the arctan lowpass condition,
kappa = log2 |p(3/4)|, the Holder bound 2 alpha - kappa - 1, and the
approximation order min(2 alpha, 2(ell+1)), for every order.  Empirical
cross-checks fit the spectral envelope decay and the order of the zero of
1 - |H0|^2 at the origin on cascade output, wherever the lowpass condition
holds.

Every quantity here is invariant under the time shift u, and reports are
computed from the unshifted order so shifted parameterizations produce
bit-identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import FourierProfile, run_cascade
from .errors import ConditionError, WindowError
from .symbol import PseudoSplineOrder, eval_H0, kappa, theta_bound

__all__ = [
    "AnalysisReport",
    "lowpass_condition",
    "lowpass_floor",
    "holder_exponent",
    "approximation_order",
    "fit_decay",
    "fit_zero_order",
    "full_report",
]


def lowpass_condition(order: PseudoSplineOrder) -> tuple[bool, float]:
    """Arctan-sum condition guaranteeing a positive lowpass floor.

    Returns (ok, sum) with sum = sum_{j=0}^{ell} atan(Im z / (Re z + j))
    and ok true iff the sum lies in (-pi/2, pi/2).  For ell = 0 the
    condition holds unconditionally and (True, 0.0) is returned.
    """
    if order.ell == 0:
        return True, 0.0
    y = order.beta
    s = float(sum(math.atan2(y, order.alpha + j) for j in range(order.ell + 1)))
    return -0.5 * math.pi < s < 0.5 * math.pi, s


def lowpass_floor(profile: FourierProfile) -> float:
    """min |phi_hat| over |gamma| <= 1/4; requires the arctan condition."""
    ok, s = lowpass_condition(profile.order)
    if not ok:
        raise ConditionError(
            f"arctan sum {s:.6f} outside (-pi/2, pi/2); no positive floor is guaranteed"
        )
    sel = np.abs(profile.gammas) <= 0.25 + 1e-12
    return float(np.min(np.abs(profile.values[sel])))


def holder_exponent(order: PseudoSplineOrder) -> float:
    """Closed-form lower bound s = 2 alpha - kappa - 1 of the Holder exponent."""
    return 2.0 * order.alpha - kappa(order) - 1.0


def approximation_order(order: PseudoSplineOrder) -> float:
    """min(2 alpha, 2(ell+1))."""
    return float(min(2.0 * order.alpha, 2.0 * (order.ell + 1)))


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def fit_decay(profile: FourierProfile) -> tuple[float, float]:
    """Envelope decay exponent of |phi_hat| and the fit's rms residual.

    The exponent is the least-squares slope of log |phi_hat| against
    log(1 + gamma) over the local spectral maxima with gamma in
    [16, min(512, 0.9 * window)]; it sits at or below -(2 alpha - kappa).
    """
    lo, hi = 16.0, min(512.0, 0.9 * profile.half_width)
    g = profile.gammas
    mag = np.abs(profile.values)
    pos = np.nonzero((g >= lo) & (g <= hi))[0]
    if len(pos) < 8:
        raise WindowError(f"fit range [{lo}, {hi}] holds too few grid points")
    inner = pos[1:-1]
    is_max = (mag[inner] > mag[inner - 1]) & (mag[inner] >= mag[inner + 1]) & (mag[inner] > 0.0)
    peaks = inner[is_max]
    if len(peaks) < 5:
        raise WindowError(
            f"only {len(peaks)} spectral envelope maxima in [{lo}, {hi}]; widen the cascade window"
        )
    return _line_fit(np.log1p(g[peaks]), np.log(mag[peaks]))


def fit_zero_order(order: PseudoSplineOrder) -> tuple[float, float] | None:
    """Order of the zero of 1 - |H0(gamma)|^2 at 0 and the fit's rms residual.

    The order, 2(ell+1), is the log-log slope over 200 points up to 1e-2.
    1 - |H0|^2 ~ C gamma^{2(ell+1)} near 0 with
    C = 2 |Re[(z+ell) binom(z-1+ell, ell)]| pi^{2(ell+1)} / (ell+1); the
    lower endpoint keeps the fitted quantity >= ~5e-12, well clear of the
    1e-13 cancellation floor.  Returns None when that endpoint reaches 1e-2:
    the zero is then too flat to resolve in double precision.
    """
    lead = (order.z + order.ell) * complex(order.taylor_coefficients()[-1])
    c = 2.0 * abs(lead.real) / (order.ell + 1) * math.pi ** (2 * (order.ell + 1))
    if c < 1e-6:
        raise ConditionError(
            f"leading coefficient {c:.3e} too small to resolve the zero order numerically"
        )
    hi = 1e-2
    lo = (5e-12 / c) ** (1.0 / (2.0 * (order.ell + 1)))
    if lo >= 0.999 * hi:
        return None
    gs = np.geomspace(lo, hi, 200)
    g = 1.0 - np.abs(np.asarray(eval_H0(order.unshifted, gs))) ** 2
    usable = g > 1e-13
    if np.count_nonzero(usable) < 10:
        raise ConditionError(f"too few usable points above the cancellation floor in [{lo}, {hi}]")
    return _line_fit(np.log(gs[usable]), np.log(g[usable]))


@dataclass
class AnalysisReport:
    """Aggregated exponents and checks; fields inapplicable to the order are None."""

    order: PseudoSplineOrder
    theta: float
    lowpass_ok: bool
    lowpass_arctan_sum: float
    kappa: float
    holder_s: float
    approx_order: float
    fit_decay_exponent: float | None = None
    fit_decay_residual: float | None = None
    fit_zero_order: float | None = None
    fit_zero_residual: float | None = None
    lowpass_floor_c: float | None = None

    def to_dict(self) -> dict:
        from .serialize import order_to_dict

        out: dict = {"order": order_to_dict(self.order)}

        def put(name: str, value, provenance: str, residual: float | None = None) -> None:
            if value is None:
                return
            entry: dict = {"value": value, "provenance": provenance}
            if residual is not None:
                entry["residual"] = residual
            out[name] = entry

        put("theta", self.theta, "closed-form")
        put("lowpass_ok", self.lowpass_ok, "closed-form")
        put("lowpass_arctan_sum", self.lowpass_arctan_sum, "closed-form")
        put("kappa", self.kappa, "closed-form")
        put("holder_s", self.holder_s, "closed-form")
        put("approx_order", self.approx_order, "closed-form")
        put("fit_decay_exponent", self.fit_decay_exponent, "fitted", self.fit_decay_residual)
        put("fit_zero_order", self.fit_zero_order, "fitted", self.fit_zero_residual)
        put("lowpass_floor_c", self.lowpass_floor_c, "grid-minimum")
        return out


def full_report(
    order: PseudoSplineOrder,
    with_fits: bool = True,
    levels: int = 24,
    window: float = 64.0,
    step: float = 1.0 / 64.0,
) -> AnalysisReport:
    """Run every applicable analysis for one order.

    The closed forms are reported for every order; the cascade floor and the
    fits wherever the lowpass condition holds.  The zero-order fit is left
    out where the zero is too flat to resolve.  All quantities are
    shift-invariant; fits run on the unshifted order, so a shifted order
    reproduces the unshifted report exactly.
    """
    ok, arctan_sum = lowpass_condition(order)
    report = AnalysisReport(
        order=order,
        theta=theta_bound(order),
        lowpass_ok=ok,
        lowpass_arctan_sum=arctan_sum,
        kappa=kappa(order),
        holder_s=holder_exponent(order),
        approx_order=approximation_order(order),
    )
    if with_fits and ok:
        base = order.unshifted
        profile, _ = run_cascade(base, levels=levels, window=window, step=step)
        report.lowpass_floor_c = lowpass_floor(profile)
        report.fit_decay_exponent, report.fit_decay_residual = fit_decay(profile)
        zero = fit_zero_order(base)
        if zero is not None:
            report.fit_zero_order, report.fit_zero_residual = zero
    return report

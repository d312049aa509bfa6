"""Analytic exponents and verification conditions for pseudo-spline orders.

Closed forms: the partition lower bound theta, the arctan lowpass condition,
kappa = log2 p(3/4), the Holder exponent 2 alpha - kappa - 1, and the
approximation order min(2 alpha, 2(ell+1)).  Empirical cross-checks fit the
spectral envelope decay and the order of the zero of 1 - |H0|^2 at the
origin on cascade output.

The exponent formulas kappa / Holder / approximation order are defined for
real orders only and reject Im z != 0; extending them through |p| would be
guesswork.  Every quantity here is invariant under the time shift u, and
reports are computed from the unshifted order so shifted parameterizations
produce bit-identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import FourierProfile, run_cascade
from .errors import ConditionError, DomainError, GridCompatibilityError, VerificationFailure, WindowError
from .symbol import PseudoSplineOrder, eval_H0, eval_p, theta_bound

__all__ = [
    "AnalysisReport",
    "lowpass_condition",
    "lowpass_floor",
    "kappa",
    "holder_exponent",
    "approximation_order",
    "verify_L_conditions",
    "decay_fit",
    "default_zero_fit_range",
    "zero_order_fit",
    "full_report",
]


def _require_real(order: PseudoSplineOrder, what: str) -> None:
    if order.beta != 0.0:
        raise DomainError(f"{what} is defined for real orders only (Im z = 0), got z = {order.z}")


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


def lowpass_floor(
    profile: FourierProfile,
    neighborhood: float = 0.25,
    reference: FourierProfile | None = None,
) -> float:
    """min |phi_hat| over |gamma| <= neighborhood; requires the arctan condition.

    When a reference profile (same z, ell = 0, same grid) is supplied, the
    pointwise ordering |phi_hat_ref| <= |phi_hat| + 1e-9 is verified on the
    neighborhood and VerificationFailure raised on violation.
    """
    ok, s = lowpass_condition(profile.order)
    if not ok:
        raise ConditionError(
            f"arctan sum {s:.6f} outside (-pi/2, pi/2); no positive floor is guaranteed"
        )
    g = profile.gammas
    sel = np.abs(g) <= neighborhood + 1e-12
    floor = float(np.min(np.abs(profile.values[sel])))
    if reference is not None:
        if len(reference.values) != len(profile.values) or reference.step != profile.step:
            raise GridCompatibilityError("reference profile must share the grid")
        ref = np.abs(reference.values[sel])
        cur = np.abs(profile.values[sel])
        worst = float(np.max(ref - cur))
        if worst > 1e-9:
            raise VerificationFailure(
                f"|phi_hat(z, 0)| exceeds |phi_hat(z, ell)| by {worst:.3e} on the neighborhood"
            )
    return floor


def kappa(order: PseudoSplineOrder) -> float:
    """log2 p(3/4); 0 for ell = 0.  Real orders only."""
    _require_real(order, "kappa")
    if order.ell == 0:
        return 0.0
    return float(math.log2(complex(eval_p(order, 0.75, form="taylor")).real))


def holder_exponent(order: PseudoSplineOrder) -> float:
    """Smoothness index s = 2 alpha - kappa - 1.  Real orders only."""
    return 2.0 * order.alpha - kappa(order) - 1.0


def approximation_order(order: PseudoSplineOrder) -> float:
    """min(2 alpha, 2(ell+1)).  Real orders only."""
    _require_real(order, "approximation order")
    return float(min(2.0 * order.alpha, 2.0 * (order.ell + 1)))


def verify_L_conditions(order: PseudoSplineOrder, points: int = 4096) -> bool:
    """Grid check of the two envelope inequalities behind the decay bound.

    (a) p(x) <= p(3/4) on [0, 3/4]; (b) p(x) p(4x(1-x)) <= p(3/4)^2 on
    [3/4, 1]; both with 1e-12 slack on a uniform x-grid.  Real orders only.
    """
    _require_real(order, "the envelope conditions")
    p34 = complex(eval_p(order, 0.75, form="taylor")).real
    xs_a = np.linspace(0.0, 0.75, points)
    pa = np.asarray(eval_p(order, xs_a, form="taylor")).real
    ok_a = bool(np.all(pa <= p34 + 1e-12))
    xs_b = np.linspace(0.75, 1.0, points)
    inner = np.clip(4.0 * xs_b * (1.0 - xs_b), 0.0, 1.0)
    pb = np.asarray(eval_p(order, xs_b, form="taylor")).real
    pinner = np.asarray(eval_p(order, inner, form="taylor")).real
    ok_b = bool(np.all(pb * pinner <= p34 * p34 + 1e-12))
    return ok_a and ok_b


def _fit_decay(profile: FourierProfile, lo: float, hi: float) -> tuple[float, float]:
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
            f"only {len(peaks)} spectral envelope maxima in [{lo}, {hi}]; widen the range"
        )
    xs = np.log1p(g[peaks])
    ys = np.log(mag[peaks])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def decay_fit(profile: FourierProfile, fit_range: tuple[float, float] | None = None) -> float:
    """Envelope decay exponent of |phi_hat|: least-squares slope of
    log |phi_hat| against log(1 + gamma) over local spectral maxima.

    Defaults to gamma in [16, min(512, 0.9 * window)].  Real orders only
    (the comparison exponent 2 alpha - kappa needs kappa).
    """
    _require_real(profile.order, "the decay fit")
    if fit_range is None:
        fit_range = (16.0, min(512.0, 0.9 * profile.half_width))
    lo, hi = float(fit_range[0]), float(fit_range[1])
    if not 0.0 < lo < hi or hi > profile.half_width + 1e-9:
        raise WindowError(f"invalid decay fit range [{lo}, {hi}] for window {profile.half_width}")
    return _fit_decay(profile, lo, hi)[0]


def default_zero_fit_range(order: PseudoSplineOrder) -> tuple[float, float]:
    """Fit window for the zero-order fit, placed above the rounding floor.

    1 - |H0(gamma)|^2 ~ C gamma^{2(ell+1)} near 0 with
    C = 2 |Re[(z+ell) binom(z-1+ell, ell)]| pi^{2(ell+1)} / (ell+1); the
    lower endpoint is chosen so the fitted quantity stays >= ~5e-12, well
    clear of the 1e-13 cancellation floor; the upper endpoint is 1e-2.
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
        raise ConditionError(
            f"zero-order fit range collapsed (lo {lo:.3e} vs hi {hi:.3e}); "
            f"the zero is too flat to resolve in double precision"
        )
    return lo, hi


def _fit_zero_order(order: PseudoSplineOrder, lo: float, hi: float) -> tuple[float, float]:
    gs = np.geomspace(lo, hi, 200)
    h = np.asarray(eval_H0(order.unshifted, gs))
    g = 1.0 - np.abs(h) ** 2
    usable = g > 1e-13
    if not np.any(usable):
        raise ConditionError(
            f"1 - |H0|^2 below the 1e-13 cancellation floor everywhere in [{lo}, {hi}]"
        )
    if np.count_nonzero(usable) < 10:
        raise ConditionError(f"too few usable points above the cancellation floor in [{lo}, {hi}]")
    xs = np.log(gs[usable])
    ys = np.log(g[usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return float(slope), resid


def zero_order_fit(order: PseudoSplineOrder, fit_range: tuple[float, float] | None = None) -> float:
    """log-log slope of 1 - |H0(gamma)|^2 near 0; equals 2(ell+1).

    The default range comes from default_zero_fit_range; a supplied range
    must satisfy 0 < lo < hi <= 1e-2.
    """
    if fit_range is None:
        lo, hi = default_zero_fit_range(order)
    else:
        lo, hi = float(fit_range[0]), float(fit_range[1])
        if not 0.0 < lo < hi <= 1e-2:
            raise DomainError(f"zero fit range must satisfy 0 < lo < hi <= 1e-2, got [{lo}, {hi}]")
    return _fit_zero_order(order, lo, hi)[0]


@dataclass
class AnalysisReport:
    """Aggregated exponents and checks; fields inapplicable to the order are None."""

    order: PseudoSplineOrder
    theta: float
    lowpass_ok: bool
    lowpass_arctan_sum: float
    kappa: float | None = None
    holder_s: float | None = None
    approx_order: float | None = None
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

    Exponent formulas apply to real orders only and stay None for complex z.
    All quantities are shift-invariant; fits run on the unshifted order, so
    a shifted order reproduces the unshifted report exactly.
    """
    ok, arctan_sum = lowpass_condition(order)
    report = AnalysisReport(
        order=order,
        theta=theta_bound(order),
        lowpass_ok=ok,
        lowpass_arctan_sum=arctan_sum,
    )
    is_real = order.beta == 0.0
    if is_real:
        report.kappa = kappa(order)
        report.holder_s = holder_exponent(order)
        report.approx_order = approximation_order(order)
    if with_fits:
        base = order.unshifted
        profile, _ = run_cascade(base, levels=levels, window=window, step=step)
        if ok:
            report.lowpass_floor_c = lowpass_floor(profile)
        if is_real:
            report.fit_decay_exponent, report.fit_decay_residual = _fit_decay(
                profile, 16.0, min(512.0, 0.9 * profile.half_width)
            )
            lo, hi = default_zero_fit_range(base)
            report.fit_zero_order, report.fit_zero_residual = _fit_zero_order(base, lo, hi)
    return report

"""Fourier-domain cascade iteration for pseudo-spline refinable functions.

The iterates are

    phi_hat_m(gamma) = indicator(|gamma| <= 2^{m-1}) *
                       prod_{j=1}^{m} H0(2^{-j} gamma),

starting from phi_hat_0 = indicator([-1/2, 1/2]).  Each level multiplies one
more dilated symbol onto a running product held on a fixed uniform grid
gamma_k = k*step; no interpolation is ever used.  Each dilated symbol value
is evaluated once, from two exact facts:

- symmetry: the unshifted H0 depends only on sin^2(pi gamma) and
  (-k)*step = -(k*step), so the product is symmetric bit for bit and the
  iteration runs on k = 0..M alone, mirrored once at the end;
- dyadic reuse: (2i*step) * 2^{-m} equals (i*step) * 2^{-(m-1)} bit for bit,
  since doubling and halving are exact, so H0 at the even k of level m is
  the previous level's H0 at i = k/2, and only the odd k are evaluated.

Level 1 evaluates M+1 points and each later level (M+1)//2, instead of
2M+1 per level.  The values are those of evaluating every 2^{-j} gamma_k
directly, bit for bit.

The half grid k*step, k = 0..M, is increasing from 0, so each level's
support |gamma| <= min(2^{m-1}, M*step) is a prefix k < K of it: the
iterate is cut by zeroing from K on, and its diagnostics read that prefix
alone.  They record, per level, the sup-norm change against the previous
iterate and a trapezoidal L2 norm taken over the support interval; the L2
sequence is non-increasing and bounded by 1 for every valid order.

For shifted orders (u != 0) the cascade runs on the unshifted order and the
final values are multiplied once by the exact translation phase
exp(-2 pi i u gamma), the limit of the partial-sum phases
exp(-2 pi i u gamma (1 - 2^{-m})) of the finite products.  The diagnostics
therefore equal those of the unshifted order, and the phase adds no
2^{-m} error to the result.

Time samples come from the trapezoid sum over the profile grid.  When the
frequency step times the time step is 1/P for an integer P, that sum is
exactly one inverse FFT of length P of the weighted samples folded mod P.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridCompatibilityError, ResolutionError, ToleranceError, WindowError
from .symbol import PseudoSplineOrder, eval_H0, kappa

__all__ = [
    "Profile",
    "CascadeDiagnostics",
    "run_cascade",
    "refinement_residual",
    "fourier_to_time",
    "to_time_domain",
]


@dataclass(frozen=True)
class Profile:
    """Samples on the axis j*step, |j*step| <= half_width.

    Either a cascade iterate phi_hat on gamma_j, or a time-domain function
    on t_j, with tail_estimate bounding the error of the dropped spectrum.
    """

    order: PseudoSplineOrder
    half_width: float
    step: float
    values: np.ndarray
    tail_estimate: float = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def points(self) -> np.ndarray:
        m = (len(self.values) - 1) // 2
        return (np.arange(len(self.values)) - m) * self.step


@dataclass
class CascadeDiagnostics:
    """Per-level convergence record of one cascade run."""

    levels: int
    sup_tolerance: float
    sup_changes: list = field(default_factory=list)
    l2_norms: list = field(default_factory=list)
    max_modulus: float = 0.0
    converged: bool = False
    converged_level: int | None = None
    warning: str | None = None

    @property
    def l2_monotone(self) -> bool:
        pairs = zip(self.l2_norms[:-1], self.l2_norms[1:])
        return all(b <= a + 1e-10 for a, b in pairs)

    def to_dict(self) -> dict:
        return {
            "levels": self.levels,
            "sup_tolerance": self.sup_tolerance,
            "sup_changes": list(self.sup_changes),
            "l2_norms": list(self.l2_norms),
            "l2_monotone": self.l2_monotone,
            "max_modulus": self.max_modulus,
            "converged": self.converged,
            "converged_level": self.converged_level,
            "warning": self.warning,
        }


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


def _cascade_grid(levels: int, window: float, step: float, sup_tolerance: float = 0.0) -> np.ndarray:
    """The frequency grid of run_cascade, after its checks of its options.
    Callers that may skip the cascade call it to reject them anyway."""
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise DomainError(f"levels must be an integer >= 1, got {levels!r}")
    if not (_positive(window) and _positive(step)):
        raise WindowError(f"window and step must be finite and positive, got {window!r}, {step!r}")
    ratio = window / step
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > 1e-9:
        raise ResolutionError(f"window must be an integer multiple of step, got window/step = {ratio!r}")
    if not (math.isfinite(sup_tolerance) and sup_tolerance >= 0.0):
        raise DomainError(f"sup_tolerance must be finite and >= 0, got {sup_tolerance!r}")
    return (np.arange(2 * m + 1) - m) * step


def _prefix(half: np.ndarray, bound: float, step: float) -> int:
    """How many points of the increasing half grid `half` (from 0) lie in
    the support |gamma| <= bound: the support is the prefix half[:k]."""
    return int(np.searchsorted(half, bound + 1e-9 * step, side="right"))


def _trapezoid_l2(modulus: np.ndarray, step: float) -> float:
    """Trapezoidal L2 norm of an iterate symmetric about 0 over its support,
    from the moduli at k*step, k = 0..K, inside it.

    The squares are mirrored to the full-length samples and summed as one
    array, so the sum rounds exactly as the sum over the full grid does.
    Its two ends take weight 1/2; a one-point support is halved once.
    """
    sq = modulus**2
    sq = np.concatenate((sq[:0:-1], sq))
    sq[0] *= 0.5
    if len(sq) > 1:
        sq[-1] *= 0.5
    return float(math.sqrt(np.sum(sq) * step))


def run_cascade(
    order: PseudoSplineOrder,
    levels: int = 24,
    window: float = 64.0,
    step: float = 1.0 / 64.0,
    sup_tolerance: float = 1e-10,
) -> tuple[Profile, CascadeDiagnostics]:
    """Iterate the cascade and collect convergence diagnostics.

    Stops at the first level whose sup-norm change falls below
    sup_tolerance, or at the level cap; either way the outcome is declared
    in the diagnostics, never silently.  A warning (not an error) is
    recorded if the sup changes fail to decrease over the last three levels.
    A shifted order iterates its unshifted order and applies the exact
    phase exp(-2 pi i u gamma) to the result.

    The iteration runs on the half grid k = 0..M and reuses the previous
    level's symbol values at even k (see the module docstring); sup changes
    and moduli are maxima, equal over either half, and each L2 norm sums the
    mirrored full-length samples, so values and diagnostics are bit for bit
    those of the full-grid iteration.
    """
    g = _cascade_grid(levels, window, step, sup_tolerance)
    half = g[(len(g) - 1) // 2 :]
    extent = float(half[-1])
    base = order.unshifted
    diag = CascadeDiagnostics(levels=0, sup_tolerance=float(sup_tolerance))

    # min(2^(m-1), extent) at level m, by exact doubling: no float power, so
    # no overflow however many levels run
    bound = 0.5
    k = _prefix(half, bound, step)
    prev = np.zeros(len(half), dtype=complex)
    prev[:k] = 1.0
    diag.l2_norms.append(_trapezoid_l2(np.abs(prev[:k]), step))
    diag.max_modulus = 1.0

    prod = np.ones(len(half), dtype=complex)
    current = prev
    for m in range(1, levels + 1):
        if m == 1:
            h = eval_H0(base, half * 0.5)
        else:
            even = h[: (len(half) + 1) // 2]
            h = np.empty(len(half), dtype=complex)
            h[0::2] = even
            h[1::2] = eval_H0(base, half[1::2] * 0.5**m)
        prod *= h
        bound = min(2.0 * bound, extent)
        k = _prefix(half, bound, step)
        current = prod.copy()
        current[k:] = 0.0
        # both iterates vanish past k, so the prefix holds every nonzero term
        modulus = np.abs(current[:k])
        diag.sup_changes.append(float(np.max(np.abs(current[:k] - prev[:k]))))
        diag.l2_norms.append(_trapezoid_l2(modulus, step))
        diag.max_modulus = max(diag.max_modulus, float(np.max(modulus)))
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
            warnings.warn(diag.warning, RuntimeWarning, stacklevel=2)

    current = np.concatenate((current[:0:-1], current))
    if order.shift != 0.0:
        current = current * np.exp(-2j * np.pi * order.shift * g)
    return Profile(order, extent, step, current), diag


def refinement_residual(profile: Profile) -> float:
    """Max |phi_hat(gamma) - H0(gamma/2) phi_hat(gamma/2)| for |gamma| <= window/2.

    Only even grid indices are paired (gamma/2 then lies on the grid), so
    the residual involves no interpolation.
    """
    g = profile.points
    v = profile.values
    mid = (len(v) - 1) // 2
    # even offsets j = 2i, |j * step| <= half_width / 2, pair with i; the
    # axis is symmetric about index mid, so they are mid - 2r .. mid + 2r
    limit = profile.half_width / 2.0 + 1e-9 * profile.step
    r = int(np.searchsorted(g[mid::2], limit, side="right")) - 1
    h = eval_H0(profile.order, g[mid - 2 * r : mid + 2 * r + 1 : 2] * 0.5)
    paired = v[mid - 2 * r : mid + 2 * r + 1 : 2]
    return float(np.max(np.abs(paired - h * v[mid - r : mid + r + 1])))


def _uniform_step(x: np.ndarray, name: str) -> float:
    """Spacing of an increasing uniform grid, else GridCompatibilityError."""
    step = float(x[1] - x[0])
    if not step > 0.0:
        raise GridCompatibilityError(f"{name} must be increasing, got step {step!r}")
    dev = float(np.max(np.abs(x - (x[0] + np.arange(len(x)) * step))))
    if dev > 1e-9 * step:
        raise GridCompatibilityError(f"{name} must be uniformly spaced (deviation {dev:.3e})")
    return step


def _period(freq_step: float, time_step: float) -> int:
    """P = 1/(freq_step * time_step), else GridCompatibilityError unless it is an integer within 1e-9."""
    ratio = 1.0 / (freq_step * time_step)
    if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
        raise GridCompatibilityError(f"1/(frequency step * time step) must be an integer, got {ratio!r}")
    return round(ratio)


def fourier_to_time(gammas: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Inverse Fourier trapezoid sum: f(t) = sum_k w_k v_k exp(2 pi i gamma_k t) dgamma.

    Both grids must be increasing and uniform, and P = 1/(dgamma dt) must be
    an integer (within 1e-9); otherwise GridCompatibilityError.  With
    gamma_k = gamma_0 + k dgamma and t_j = t_0 + j dt the kernel factors as
    exp(2 pi i k dgamma t_0) exp(2 pi i gamma_0 t_j) exp(2 pi i k j / P),
    so the sum is exactly one inverse FFT of length P of the weighted
    samples folded mod P, read at j mod P (rows wrap when len(ts) > P).
    Phase arguments are reduced mod 1 before scaling by 2 pi.
    """
    gammas = np.asarray(gammas, dtype=float)
    values = np.asarray(values, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    if len(gammas) < 2 or len(values) != len(gammas):
        raise GridCompatibilityError(
            f"need at least 2 frequency samples with one value each, got {len(gammas)} and {len(values)}"
        )
    if len(ts) == 0:
        return np.zeros(0, dtype=complex)
    step = _uniform_step(gammas, "frequency grid")
    # a single time sample has any spacing; 1/step makes P = 1
    dt = _uniform_step(ts, "time grid") if len(ts) > 1 else 1.0 / step
    period = _period(step, dt)
    w = np.ones(len(gammas))
    w[0] = 0.5
    w[-1] = 0.5
    weighted = w * values * step * np.exp(2j * np.pi * np.mod((gammas - gammas[0]) * ts[0], 1.0))
    folded = np.zeros(-(-len(gammas) // period) * period, dtype=complex)
    folded[: len(gammas)] = weighted
    spectrum = np.fft.ifft(folded.reshape(-1, period).sum(axis=0)) * period
    rows = spectrum[np.arange(len(ts)) % period]
    return rows * np.exp(2j * np.pi * np.mod(gammas[0] * ts, 1.0))


def _tail_estimate(profile: Profile) -> float:
    """Spectral-tail bound 2 c (1+W)^{-d} / d from the envelope decay.

    The envelope exponent is 2 alpha - kappa; the constant c is calibrated
    on the outer half of the window, where the asymptotic regime is
    established.
    """
    order = profile.order
    decay = 2.0 * order.alpha - kappa(order)
    margin = decay - 1.0
    if margin <= 0.05:
        raise ToleranceError(
            f"spectral decay exponent {decay:.3f} too small to bound the tail integral"
        )
    g = profile.points
    outer = np.abs(g) >= profile.half_width / 2.0
    c_est = float(np.max(np.abs(profile.values[outer]) * (1.0 + np.abs(g[outer])) ** decay))
    return 2.0 * c_est * (1.0 + profile.half_width) ** (-margin) / margin


def _time_checks(freq_step: float, half_width: float | None, step: float, tolerance: float) -> None:
    """to_time_domain's checks of its options on a cascade of frequency step
    freq_step; a half width of None is not checked.  Callers that may skip
    the time stage call this to reject the options anyway."""
    if not ((half_width is None or _positive(half_width)) and _positive(step)):
        raise WindowError(f"half_width and step must be finite and positive, got {half_width!r}, {step!r}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    _period(freq_step, step)


def to_time_domain(
    profile: Profile,
    half_width: float = 4.0,
    step: float = 1.0 / 32.0,
    tolerance: float = 1e-3,
) -> Profile:
    """Time-domain samples by inverse trapezoid sum over the profile window.

    When the profile's values are even about gamma = 0 bit for bit, as an
    unshifted cascade's are, so is the result: phi(t) is stored as phi(-t).

    The spectrum outside the window is dropped; the induced absolute error
    is estimated from the envelope decay of |phi_hat| and must not exceed
    `tolerance`, otherwise a ToleranceError asks for a wider window; a
    negative or non-finite tolerance raises DomainError.
    1/(profile.step * step) must be an integer (1/64 and 1/32 give 2048),
    otherwise GridCompatibilityError, raised before the tail is estimated.
    """
    _time_checks(profile.step, half_width, step, tolerance)
    tail = _tail_estimate(profile)
    if tail > tolerance:
        raise ToleranceError(
            f"estimated spectral-tail error {tail:.3e} exceeds tolerance {tolerance:.3e}; "
            f"increase the cascade window"
        )
    n = int(math.ceil(half_width / step - 1e-9))
    ts = (np.arange(2 * n + 1) - n) * step
    spectrum = profile.values
    if np.array_equal(spectrum, spectrum[::-1]):
        # an even spectrum (an unshifted cascade's, bit for bit) has an even
        # inverse: the rows t <= 0 are summed and mirrored (t_0 = 0 would
        # make the first phase a mod of zeros, which numpy takes slowly)
        values = fourier_to_time(profile.points, spectrum, ts[: n + 1])
        values = np.concatenate((values, values[-2::-1]))
    else:
        values = fourier_to_time(profile.points, spectrum, ts)
    return Profile(profile.order, float(n * step), step, values, tail_estimate=tail)

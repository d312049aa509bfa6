"""Pseudo-spline refinement symbols of fractional and complex order.

The lowpass filter family evaluated here is

    H0(gamma) = (cos^2 pi gamma)^z * sum_{k=0}^{ell} binom(z+ell, k)
                (sin^2 pi gamma)^k (cos^2 pi gamma)^{ell-k},

parameterized by a complex order z with alpha := Re z >= 1, an integer
parameter 0 <= ell <= floor(alpha - 1/2), and an optional real time shift u
realized as the phase factor exp(-2 pi i u gamma).

Everything is evaluated through the variable x = sin^2(pi gamma): with
p(x) = sum_k binom(z+ell, k) x^k (1-x)^{ell-k} (equivalently the power form
sum_k binom(z-1+k, k) x^k) and q(x) = (1-x)^z p(x), the symbol is
H0(gamma) = q(sin^2 pi gamma) times the shift phase.  Powers of 1-x go
through exp(z*log1p(-x)), never through a complex power of cos, so no branch
ambiguity arises.

Grid convention: TorusGrid samples gamma_j = j/N - 1/2 for j = 0..N-1 with N
a power of two.  The grid is closed under the half-period shift
gamma -> gamma + 1/2 (index j -> j + N/2 mod N), which makes partition and
filter-bank identities exact at the index level.  Sampling on the grid also
periodizes the (non-periodic for fractional u) raw shift phase implicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OrderError, ResolutionError

__all__ = [
    "PseudoSplineOrder",
    "TorusGrid",
    "max_ell",
    "eval_p",
    "eval_q",
    "eval_q_prime",
    "eval_H0",
    "sample_H0",
    "partition_values",
    "theta_bound",
    "kappa",
    "PartitionExtrema",
    "partition_extrema",
]


def max_ell(alpha: float) -> int:
    """Largest admissible ell for a given alpha = Re z: floor(alpha - 1/2)."""
    return int(math.floor(alpha - 0.5))


@dataclass(frozen=True)
class PseudoSplineOrder:
    """Parameter triple (z, ell, shift) of a pseudo-spline filter.

    Constraints: Re z >= 1, 0 <= ell <= floor(Re z - 1/2), shift real.
    One step beyond the ell bound is tolerated (the plotted filter family
    z = 3.2+1i runs ell up to 3): the defining formulas stay well-posed there,
    but the partition bound is not guaranteed and fails for some such
    orders, e.g. (1, 1).  Anything further raises OrderError at construction
    time.
    """

    z: complex
    ell: int = 0
    shift: float = 0.0

    def __post_init__(self) -> None:
        try:
            z = complex(self.z)
        except (TypeError, ValueError) as exc:
            raise OrderError(f"order z must be a complex number, got {self.z!r}") from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise OrderError(f"order z must be finite, got {z!r}")
        if z.real < 1.0:
            raise OrderError(f"order z must satisfy Re z >= 1, got Re z = {z.real!r}")
        if self.ell != int(self.ell):
            raise OrderError(f"ell must be an integer, got {self.ell!r}")
        ell = int(self.ell)
        bound = max_ell(z.real)
        if ell < 0 or ell > bound + 1:
            raise OrderError(
                f"ell must satisfy 0 <= ell <= floor(alpha - 1/2) = {bound} "
                f"for alpha = {z.real!r}, got ell = {ell}"
            )
        if isinstance(self.shift, complex) and self.shift.imag != 0.0:
            raise OrderError(f"shift must be real, got {self.shift!r}")
        u = float(self.shift.real if isinstance(self.shift, complex) else self.shift)
        if not math.isfinite(u):
            raise OrderError(f"shift must be finite, got {self.shift!r}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "shift", u)

    @property
    def alpha(self) -> float:
        return self.z.real

    @property
    def beta(self) -> float:
        return self.z.imag

    @property
    def extended(self) -> bool:
        """True when ell sits one beyond the guaranteed bound floor(alpha - 1/2)."""
        return self.ell > max_ell(self.alpha)

    @property
    def unshifted(self) -> "PseudoSplineOrder":
        if self.shift == 0.0:
            return self
        return PseudoSplineOrder(self.z, self.ell, 0.0)

    def definition_coefficients(self) -> np.ndarray:
        """binom(z+ell, k) for k = 0..ell (read-only array)."""
        return _definition_coefficients(self.z, self.ell)

    def taylor_coefficients(self) -> np.ndarray:
        """binom(z-1+k, k) for k = 0..ell (read-only array)."""
        return _taylor_coefficients(self.z, self.ell)

    def label(self) -> str:
        """Short ASCII label, e.g. 'z=3.2+1i ell=2 u=0.5'."""
        z = self.z
        if z.imag == 0.0:
            ztxt = repr(z.real)
        else:
            sign = "+" if z.imag >= 0 else "-"
            ztxt = f"{z.real!r}{sign}{abs(z.imag)!r}i"
        txt = f"z={ztxt} ell={self.ell}"
        if self.shift != 0.0:
            txt += f" u={self.shift!r}"
        return txt


def _binomial(a: complex, k: int) -> complex:
    """binom(a, k) = a (a-1) ... (a-k+1) / k! for complex a and integer k >= 0.

    The first min(k, 32) factors are multiplied and divided by their
    factorial; each further factor enters as (a - j) / (j + 1), so nothing
    overflows before the result itself does.  A non-finite result raises
    OrderError.
    """
    a = complex(a)
    head = min(k, 32)
    num = 1.0 + 0.0j
    for j in range(head):
        num *= a - j
    out = num / math.factorial(head)
    for j in range(head, k):
        out *= (a - j) / (j + 1)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OrderError(f"binomial C(a, k) overflows double precision for a = {a!r}, k = {k}")
    return out


@lru_cache(maxsize=256)
def _definition_coefficients(z: complex, ell: int) -> np.ndarray:
    c = np.array([_binomial(z + ell, k) for k in range(ell + 1)], dtype=complex)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=256)
def _taylor_coefficients(z: complex, ell: int) -> np.ndarray:
    c = np.array([_binomial(z - 1 + k, k) for k in range(ell + 1)], dtype=complex)
    c.setflags(write=False)
    return c


@dataclass(frozen=True)
class TorusGrid:
    """Uniform dyadic grid gamma_j = j/N - 1/2, j = 0..N-1, N a power of two >= 4."""

    resolution: int

    def __post_init__(self) -> None:
        n = self.resolution
        if n != int(n):
            raise ResolutionError(f"grid resolution must be an integer, got {n!r}")
        n = int(n)
        if n < 4 or (n & (n - 1)) != 0:
            raise ResolutionError(f"grid resolution must be a power of two >= 4, got {n}")
        object.__setattr__(self, "resolution", n)

    @property
    def gamma(self) -> np.ndarray:
        """Grid points; exact dyadic rationals since N is a power of two."""
        cached = self.__dict__.get("_gamma")
        if cached is None:
            cached = np.arange(self.resolution) / self.resolution - 0.5
            cached.setflags(write=False)
            self.__dict__["_gamma"] = cached
        return cached


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_unit_interval(x: np.ndarray, closed_right: bool) -> None:
    hi_bad = (x > 1.0) if closed_right else (x >= 1.0)
    if np.any(np.isnan(x)) or np.any(x < 0.0) or np.any(hi_bad):
        rng = "[0, 1]" if closed_right else "[0, 1)"
        raise DomainError(f"argument x must lie in {rng}")


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, for an array x."""
    out = np.full(x.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _p_taylor(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """p(x) = sum_k binom(z-1+k, k) x^k, for an array x."""
    return _horner(order.taylor_coefficients(), x)


def _q(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """q(x) = (1-x)^z p(x) for an array x already checked to lie in [0, 1].

    One pass over the whole array: at x = 1, log1p(-1) = -inf makes exp a
    zero of unspecified sign (C99 Annex G), so q(1) is then set to an exact
    +0, as if only x < 1 had been evaluated.  The product keeps the
    operand order exp(.) * p, as complex multiplication rounds differently
    with its operands swapped.
    """
    p = _p_taylor(order, x)
    out = np.empty(x.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(order.z, np.log1p(-x), out=out)
        np.exp(out, out=out)
    out *= p
    out[x >= 1.0] = 0.0
    return out


def _abs_q_squared(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """|q(x)|^2 = (1-x)^{2 alpha} |p(x)|^2, elementwise on [0, 1]."""
    p = _p_taylor(order, x)
    # at x = 1, exp(2 alpha log1p(-1)) = exp(-inf) = 0 exactly
    with np.errstate(divide="ignore"):
        return np.exp(2.0 * order.alpha * np.log1p(-x)) * np.abs(p) ** 2


# Largest x at which _d_scaled is used; its series is summed to full
# precision on [0, _D_SERIES_LIMIT).
_D_SERIES_LIMIT = 0.05


@lru_cache(maxsize=128)
def _d_coefficients(z: complex, ell: int) -> np.ndarray:
    """Coefficients C_n of (1 - q(x)) / x^{ell+1} = (1-x)^z sum_n C_n x^n.

    1 - q(x) is the regularized incomplete beta function I_x(ell+1, z), and
    DLMF 8.17.8 gives I_x(a, b) = x^a (1-x)^b / (a B(a, b)) sum_n c_n x^n
    with c_0 = 1 and c_{n+1} = c_n (a+b+n) / (a+1+n), where here
    1 / B(ell+1, z) = (z+ell) binom(z-1+ell, ell).  For real z every term
    is positive, so the sum cancels nothing.  It stops at the first term
    below 1e-17 of the largest at x = _D_SERIES_LIMIT from which on the
    term ratio stays below 1/2 (|c_{n+1}/c_n| falls with n), so everything
    dropped is smaller still.
    """
    a = ell + 1
    c = (z + ell) * complex(_taylor_coefficients(z, ell)[-1]) / a
    coeffs = []
    term = largest = 1.0
    for n in itertools.count():
        ratio = (a + z + n) / (a + 1 + n)
        if term < 1e-17 * largest and abs(ratio) * _D_SERIES_LIMIT < 0.5:
            break
        coeffs.append(c)
        c *= ratio
        term *= abs(ratio) * _D_SERIES_LIMIT
        largest = max(largest, term)
    out = np.array(coeffs, dtype=complex)
    out.setflags(write=False)
    return out


def _d_scaled(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """(1 - q(x)) / x^{ell+1} for an array x in [0, _D_SERIES_LIMIT), without
    the cancellation of forming 1 - q(x) (see _d_coefficients)."""
    return np.exp(order.z * np.log1p(-x)) * _horner(_d_coefficients(order.z, order.ell), x)


def eval_p(order: PseudoSplineOrder, x, form: str = "taylor"):
    """The degree-ell polynomial factor p, in either of its two forms.

    form='definition': sum_k binom(z+ell, k) x^k (1-x)^{ell-k};
    form='taylor':     sum_k binom(z-1+k, k) x^k.
    The forms agree identically; both are exposed for cross-validation.
    """
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, closed_right=True)
    if form == "taylor":
        out = _p_taylor(order, arr)
    elif form == "definition":
        coeffs = order.definition_coefficients()
        onemx = 1.0 - arr
        out = np.zeros(arr.shape, dtype=complex)
        for k in range(order.ell + 1):
            out += coeffs[k] * arr**k * onemx ** (order.ell - k)
    else:
        raise DomainError(f"unknown p-form {form!r}; use 'definition' or 'taylor'")
    return complex(out[()]) if scalar else out


def eval_q(order: PseudoSplineOrder, x):
    """q(x) = (1-x)^z p(x) on [0, 1]; q(1) = 0 since Re z >= 1."""
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, closed_right=True)
    out = _q(order, arr)
    return complex(out[()]) if scalar else out


def eval_q_prime(order: PseudoSplineOrder, x):
    """q'(x) = -(z+ell) binom(z-1+ell, ell) x^ell (1-x)^{z-1} on [0, 1)."""
    arr, scalar = _as_array(x)
    _check_unit_interval(arr, closed_right=False)
    z, ell = order.z, order.ell
    lead = -(z + ell) * complex(order.taylor_coefficients()[-1])
    out = lead * arr**ell * np.exp((z - 1.0) * np.log1p(-arr))
    out = np.asarray(out, dtype=complex)
    return complex(out[()]) if scalar else out


def eval_H0(order: PseudoSplineOrder, gamma):
    """The lowpass symbol H0 at real gamma (vectorized).

    Equals q(sin^2 pi gamma) times exp(-2 pi i u gamma) when shift u != 0.
    The magnitude factor is 1-periodic by construction; the shift phase is
    evaluated raw (it is periodic only for integer u; grid sampling
    periodizes it implicitly).
    """
    arr, scalar = _as_array(gamma)
    out = _q(order, np.sin(np.pi * arr) ** 2)
    if order.shift != 0.0:
        out = out * np.exp(-2j * np.pi * order.shift * arr)
    return complex(out[()]) if scalar else out


def sample_H0(order: PseudoSplineOrder, grid: TorusGrid) -> np.ndarray:
    """H0 at the grid points, as a complex array of length N."""
    return eval_H0(order, grid.gamma)


def partition_values(h0: np.ndarray) -> np.ndarray:
    """|H0(gamma)|^2 + |H0(gamma + 1/2)|^2 from the array of H0 on a
    TorusGrid; the half-period shift is the exact index roll by N/2."""
    return np.abs(h0) ** 2 + np.abs(np.roll(h0, -(len(h0) // 2))) ** 2


def theta_bound(order: PseudoSplineOrder) -> float:
    """Closed-form partition value at gamma = +-1/4 (x = 1/2).

    theta = 2^{1-2 alpha-2 ell} |sum_{k=0}^{ell} binom(z+ell, k)|^2.  It is
    not a bound for every accepted order: extended orders can exceed 1,
    e.g. theta = 1.125 for (z, ell) = (1, 1).
    """
    s = complex(np.sum(order.definition_coefficients()))
    return float(2.0 ** (1.0 - 2.0 * order.alpha - 2.0 * order.ell) * abs(s) ** 2)


def kappa(order: PseudoSplineOrder) -> float:
    """Smoothness deficit log2 |p(3/4)|; 0 for ell = 0.

    It lowers the envelope decay exponent of |phi_hat| to 2 alpha - kappa
    and the Holder exponent to 2 alpha - kappa - 1.
    """
    return math.log2(abs(eval_p(order, 0.75)))


class PartitionExtrema(NamedTuple):
    min: float
    argmin: float
    max: float
    argmax: float


def partition_extrema(order: PseudoSplineOrder, grid: TorusGrid) -> PartitionExtrema:
    """Extrema of the partition function over the grid.

    Ties break to the first index in grid order (deterministic); with the
    half-open grid [-1/2, 1/2) the maximum 1 is therefore reported at
    gamma = -1/2 rather than the equivalent gamma = 0 when both attain it.
    """
    s = partition_values(sample_H0(order, grid))
    jmin = int(np.argmin(s))
    jmax = int(np.argmax(s))
    g = grid.gamma
    return PartitionExtrema(float(s[jmin]), float(g[jmin]), float(s[jmax]), float(g[jmax]))


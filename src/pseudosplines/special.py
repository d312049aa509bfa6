"""Complex special functions used by the symbol constructions.

Provides a principal-branch complex log-Gamma and generalized binomial
coefficients binom(a, k) for complex a and integer k.

log_gamma uses a Lanczos rational approximation with g = 607/128 and a
fixed 15-term coefficient set; the relative accuracy is ~1e-14 in the right
half plane Re w >= 1/2.  Arguments with Re w < 1/2 go through the reflection
formula with an explicit branch correction so the result stays on the
principal branch of the analytic continuation.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

__all__ = ["log_gamma", "complex_binomial"]

_LOG_2PI = 1.8378770664093454835606594728112352797227949472755668
_LOG_PI = 1.1447298858494001741434273513530587116472948129153116
_TWO_PI = 6.2831853071795864769252867665590057683943387987502116

# Lanczos parameters (g = 607/128, 15 terms).  This fixed set gives
# |relative error| below ~1e-14 for Re w >= 1/2 in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(w: complex) -> bool:
    return w.imag == 0.0 and w.real <= 0.0 and w.real == math.floor(w.real)


def _sin_pi(w: complex) -> complex:
    # sin(pi w) with the real part reduced mod 2 so large real arguments do
    # not lose the (exact) period-2 structure to argument rounding.
    r = math.fmod(w.real, 2.0)
    return cmath.sin(cmath.pi * complex(r, w.imag))


def _lanczos(w: complex) -> complex:
    s = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (w - 1.0 + i)
    t = w + (_LANCZOS_G - 0.5)
    return 0.5 * _LOG_2PI + (w - 0.5) * cmath.log(t) - t + cmath.log(s)


def log_gamma(w: complex) -> complex:
    """Principal branch of log Gamma(w) for complex w.

    Raises PoleError at the poles w = 0, -1, -2, ...  For Re w < 1/2 the
    reflection formula is used with a 2*pi*i correction term chosen so the
    imaginary part agrees with the principal analytic continuation (the
    same convention scipy.special.loggamma follows).
    """
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError("log_gamma requires a finite argument")
    if _is_nonpositive_integer(w):
        raise PoleError(f"log_gamma pole at w = {w.real:g}")
    if w.real >= 0.5:
        return _lanczos(w)
    # Reflection: log G(w) = log pi - log sin(pi w) - log G(1 - w) + i*corr.
    corr = math.copysign(_TWO_PI, w.imag) * math.floor(0.5 * w.real + 0.25)
    return complex(_LOG_PI, corr) - cmath.log(_sin_pi(w)) - _lanczos(1.0 - w)


def complex_binomial(a: complex, k: int) -> complex:
    """Generalized binomial coefficient binom(a, k), complex a, integer k >= 0.

    For k <= 32 the falling-factorial product a (a-1) ... (a-k+1) / k! is
    used; it is pole-free and exact at small integer arguments.  Larger k
    uses the log-Gamma route exp(lg(a+1) - lg(k+1) - lg(a-k+1)) except for
    real a with a - k + 1 <= 0, where that argument sits on or rounds onto
    a Gamma pole (exactly 0 for integer a < k); real arguments in that
    range always take the product, which has no poles and well-separated
    factors.  Accuracy is not guaranteed within ~1e-3 of the off-axis
    poles (tiny nonzero Im a with Re a near an integer below k).
    """
    if k != int(k) or k < 0:
        raise DomainError(f"binomial index must be a nonnegative integer, got {k!r}")
    k = int(k)
    if k == 0:
        return 1.0 + 0.0j
    a = complex(a)
    pole = a.imag == 0.0 and (a.real - k + 1.0) <= 0.0
    if k <= 32 or pole:
        num = 1.0 + 0.0j
        for j in range(k):
            num *= a - j
        return num / math.factorial(k)
    return cmath.exp(log_gamma(a + 1.0) - log_gamma(k + 1.0) - log_gamma(a - k + 1.0))

"""Three-generator Parseval framelet banks over a pseudo-spline lowpass filter.

From the lowpass symbol H0 the bank construction uses

    eta(gamma) = 1 - (|H0(gamma)|^2 + |H0(gamma + 1/2)|^2),
    H1(gamma)  = exp(2 pi i gamma) conj(H0(gamma + 1/2)),
    H2(gamma)  = sigma(gamma) / sqrt(2),
    H3(gamma)  = exp(2 pi i gamma) sigma(gamma) / sqrt(2),

where sigma is any 1-periodic function with |sigma|^2 = eta.  These satisfy
sum_n |H_n|^2 = 1 and sum_n H_n(gamma) conj(H_n(gamma + 1/2)) = 0, which is
exactly what the discrete transform needs for Parseval/perfect
reconstruction.

Choice of sigma.  eta vanishes to order 2(ell+1) at gamma in {0, +-1/2} and
is positive in between, so the plain nonnegative root sqrt(eta) has
absolute-value-type corners there and its Fourier coefficients decay too
slowly to ever yield finite filters.  Instead the root is factored as

    sigma(gamma) = ((1 - exp(4 pi i gamma)) / 2)^{ell+1} * sqrt(R(gamma)),
    R(gamma)     = eta(gamma) / (sin 2 pi gamma)^{2(ell+1)},

with sigma := 0 where sin 2 pi gamma = 0.  R extends continuously and
strictly positively across the zeros, so sigma is as smooth as eta allows;
its coefficients decay like k^{-(4 alpha - 2 ell - 1)} in general and
geometrically for integer z, where the bank becomes effectively finite.
|sigma|^2 = eta holds identically, and sigma(-gamma) = conj(sigma(gamma)),
so H2, H3 have real time-domain filters for real unshifted orders.

Near its zeros R is evaluated from a cancellation-free power series in
x = sin^2 pi gamma (the leading 1 of |q|^2 = (1-x)^{2 alpha} |p(x)|^2 is
cancelled symbolically, and eta(x) is symmetric under x -> 1-x), keeping
full relative accuracy where the direct formula for eta loses all digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    GridCompatibilityError,
    ResolutionError,
    ToleranceError,
    WindowError,
)
from .cascade import FourierProfile, TimeProfile
from .symbol import (
    PseudoSplineOrder,
    SampledSymbol,
    TorusGrid,
    _as_array,
    _binomial,
    _p_taylor,
    _taylor_coefficients,
    sample_H0,
)

__all__ = [
    "FilterCoefficients",
    "FrameletBank",
    "PeriodicSignal",
    "eval_eta",
    "eval_sigma",
    "build_bank",
    "uep_errors",
    "framelet_hat",
    "framelet_time",
    "analyze",
    "synthesize",
    "analyze_multilevel",
    "synthesize_multilevel",
    "bank_to_dict",
    "bank_from_dict",
]

_SERIES_CUTOFF = 0.05
_ETA_ERROR_FLOOR = -1e-9


def _abs_q_squared(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """|q(x)|^2 = (1-x)^{2 alpha} |p(x)|^2, elementwise on [0, 1]."""
    p = _p_taylor(order, x)
    out = np.zeros(x.shape)
    interior = x < 1.0
    out[interior] = np.exp(2.0 * order.alpha * np.log1p(-x[interior])) * np.abs(p[interior]) ** 2
    return out


def _eta(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """eta = 1 - |q(x)|^2 - |q(1-x)|^2 by the direct formula, unclamped."""
    return 1.0 - _abs_q_squared(order, x) - _abs_q_squared(order, 1.0 - x)


def eval_eta(order: PseudoSplineOrder, gamma):
    """eta(gamma) = 1 - (|H0(gamma)|^2 + |H0(gamma+1/2)|^2), in [0, 1-theta].

    Tiny negative values from rounding are clamped to 0; anything below
    -1e-9 would contradict the partition upper bound and raises
    ConsistencyError.  Shift phases cancel in the moduli, so the value is
    shift-independent.
    """
    arr, scalar = _as_array(gamma)
    x = np.sin(np.pi * arr) ** 2
    eta = _eta(order, x)
    if np.any(eta < _ETA_ERROR_FLOOR):
        raise ConsistencyError(
            f"partition function exceeds 1 by more than {-_ETA_ERROR_FLOOR:g} "
            f"(min eta = {float(np.min(eta)):.3e}); the lowpass symbol is broken"
        )
    eta = np.maximum(eta, 0.0)
    return float(eta[()]) if scalar else eta


@lru_cache(maxsize=128)
def _eta_series(z: complex, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Series data for eta(x) near x = 0 with the constant term cancelled.

    Returns (e_tail, b_reflected): e_tail[i] is the coefficient of
    x^{ell+1+i} in |q(x)|^2 (the coefficients of x^1..x^ell vanish
    identically and are dropped), and b_reflected are the polynomial
    coefficients of |p(1-x)|^2, so that

        eta(x) = -sum_i e_tail[i] x^{ell+1+i} - x^{2 alpha} |p(1-x)|^2.
    """
    t = np.asarray(_taylor_coefficients(z, ell))
    b = np.convolve(t, np.conj(t)).real
    m_max = ell + 40
    w = np.array([_binomial(2.0 * z.real, j).real * (-1.0) ** j for j in range(m_max + 1)])
    e = np.convolve(w, b)[: m_max + 1]
    e_tail = e[ell + 1 :].copy()
    pr = np.polynomial.Polynomial(t)(np.polynomial.Polynomial([1.0, -1.0])).coef
    b_reflected = np.convolve(pr, np.conj(pr)).real.copy()
    e_tail.setflags(write=False)
    b_reflected.setflags(write=False)
    return e_tail, b_reflected


def _ratio_series(order: PseudoSplineOrder, xt: np.ndarray) -> np.ndarray:
    """R as a function of x for x = xt < _SERIES_CUTOFF (cancellation-free)."""
    e_tail, b_reflected = _eta_series(order.z, order.ell)
    num = np.zeros(xt.shape)
    for coeff in e_tail[::-1]:
        num = num * xt - coeff
    expo = 2.0 * order.alpha - order.ell - 1.0
    pos = xt > 0.0
    frac = np.zeros(xt.shape)
    bx = np.zeros(xt.shape)
    for coeff in b_reflected[::-1]:
        bx = bx * xt + coeff
    frac[pos] = np.exp(expo * np.log(xt[pos])) * bx[pos]
    return (num - frac) / (4.0 ** (order.ell + 1) * (1.0 - xt) ** (order.ell + 1))


def eval_sigma(order: PseudoSplineOrder, gamma):
    """The factored square root of eta (see the module docstring).

    Complex-valued with |sigma(gamma)|^2 = eta(gamma) and
    sigma(-gamma) = conj(sigma(gamma)); vanishes to order ell+1 at
    gamma in {0, +-1/2}.  Shift-independent like eta.
    """
    arr, scalar = _as_array(gamma)
    x = np.sin(np.pi * arr) ** 2
    xt = np.minimum(x, 1.0 - x)
    ratio = np.empty(xt.shape)
    near = xt < _SERIES_CUTOFF
    if np.any(near):
        ratio[near] = _ratio_series(order, xt[near])
    far = ~near
    if np.any(far):
        xf = x[far]
        ratio[far] = _eta(order, xf) / (4.0 * xf * (1.0 - xf)) ** (order.ell + 1)
    ratio = np.maximum(ratio, 0.0)
    factor = 0.5 * (1.0 - np.exp(4j * np.pi * arr))
    out = factor ** (order.ell + 1) * np.sqrt(ratio)
    return complex(out[()]) if scalar else out


@dataclass(frozen=True)
class FilterCoefficients:
    """Truncated two-sided Fourier coefficient sequence of one bank filter."""

    band: int
    offset: int
    values: np.ndarray
    tail_norm: float
    aliasing_estimate: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def ks(self) -> np.ndarray:
        return self.offset + np.arange(len(self.values))

    @property
    def support_radius(self) -> int:
        return max(abs(self.offset), abs(self.offset + len(self.values) - 1))

    def wrapped(self, length: int) -> np.ndarray:
        """Taps folded onto a circle of the given length."""
        h = np.zeros(length, dtype=complex)
        np.add.at(h, self.ks % length, self.values)
        return h

    def sum_abs(self) -> float:
        return float(np.sum(np.abs(self.values)))


def _coeffs_from_samples(
    band: int, values: np.ndarray, resolution: int, max_k: int, eps: float
) -> FilterCoefficients:
    n = resolution
    ks = np.arange(-n // 2, n // 2)
    c = np.fft.fftshift(np.fft.fft(values)) / n
    c = c * np.where(ks % 2 == 0, 1.0, -1.0)
    mass = np.abs(c) ** 2
    by_absk = np.bincount(np.abs(ks), weights=mass, minlength=n // 2 + 1)
    # suffix sums from the small end: tails[K] = mass at |k| > K, computed
    # without subtracting near-equal totals (which would stall near
    # sqrt(eps * total) ~ 1e-8 and defeat any tighter truncation eps)
    suffix = np.cumsum(by_absk[::-1])[::-1]
    tails = np.concatenate((suffix[1:], [0.0]))
    eligible = np.nonzero(tails[: max_k + 1] <= eps * eps)[0]
    if len(eligible) == 0:
        raise ToleranceError(
            f"band {band}: discarded-tail norm {math.sqrt(tails[max_k]):.3e} at |k| <= {max_k} "
            f"exceeds truncation eps {eps:.3e}; increase max_k or the grid resolution"
        )
    radius = int(eligible[0])
    # past eps, keep extending while two more taps still shrink the tail
    # mass 4x (geometric regime: integer-z sigma bands; the two-step
    # lookahead sees through their even-k-only parity gaps), down to the
    # rounding floor; power-law tails shrink too slowly to extend at all,
    # and exactly finite filters are already at the floor
    floor = 1e-30 * max(float(np.sum(mass)), 1.0)
    while (
        radius + 2 <= max_k
        and tails[radius] > floor
        and tails[radius + 2] <= 0.25 * tails[radius]
    ):
        radius += 1
    keep = np.abs(ks) <= radius
    aliasing = float(math.sqrt(np.sum(mass[np.abs(ks) > n // 4])))
    return FilterCoefficients(
        band=band,
        offset=-radius,
        values=c[keep],
        tail_norm=float(math.sqrt(tails[radius])),
        aliasing_estimate=aliasing,
    )


@dataclass(frozen=True)
class FrameletBank:
    """The four sampled symbols H0..H3 with truncated filter coefficients.

    Banks loaded from JSON carry coefficients only (H is None); transforms
    work either way, while sample-level operations require H.
    """

    order: PseudoSplineOrder
    grid: TorusGrid
    H: tuple | None
    coeffs: dict
    truncation_eps: float
    uep_diagonal_error: float | None = None
    uep_offdiagonal_error: float | None = None

    def symbol(self, n: int) -> SampledSymbol:
        if self.H is None:
            raise ConsistencyError(
                "this bank carries coefficients only (loaded from JSON); "
                "rebuild it with build_bank to access sampled symbols"
            )
        return self.H[n]

    def max_support_radius(self) -> int:
        return max(self.coeffs[n].support_radius for n in range(4))


def uep_errors(bank: FrameletBank) -> tuple[float, float]:
    """Max deviations of the two filter-bank identities over the grid.

    Returns (diagonal, offdiagonal): max |sum_n |H_n|^2 - 1| and
    max |sum_n H_n(gamma) conj(H_n(gamma + 1/2))|.
    """
    half = bank.grid.resolution // 2
    diag = np.zeros(bank.grid.resolution)
    off = np.zeros(bank.grid.resolution, dtype=complex)
    for n in range(4):
        v = bank.symbol(n).values
        diag += np.abs(v) ** 2
        off += v * np.conj(np.roll(v, -half))
    return float(np.max(np.abs(diag - 1.0))), float(np.max(np.abs(off)))


def build_bank(
    order: PseudoSplineOrder,
    grid: TorusGrid,
    truncation_eps: float = 1e-10,
    max_k: int | None = None,
) -> FrameletBank:
    """Sample H0..H3 on the grid and extract truncated filter coefficients.

    The half-period shift inside H1 is realized as an exact index roll, so
    the two filter-bank identities hold at the sample level to rounding
    accuracy for any order, shifted ones included.
    """
    n = grid.resolution
    if n < 64:
        raise ResolutionError(f"bank construction needs grid resolution >= 64, got {n}")
    if max_k is None:
        max_k = n // 4
    max_k = int(max_k)
    if max_k < 1 or n < 2 * max_k:
        raise ResolutionError(f"max_k must satisfy 1 <= max_k <= resolution/2, got {max_k}")
    h0 = sample_H0(order, grid)
    sigma = eval_sigma(order, grid.gamma)
    phase = np.exp(2j * np.pi * grid.gamma)
    rt2 = math.sqrt(2.0)
    h1 = phase * np.conj(np.roll(h0.values, -(n // 2)))
    h2 = sigma / rt2
    h3 = phase * sigma / rt2
    symbols = (
        h0,
        SampledSymbol(order, grid, h1),
        SampledSymbol(order, grid, h2),
        SampledSymbol(order, grid, h3),
    )
    coeffs = {
        band: _coeffs_from_samples(band, symbols[band].values, n, max_k, truncation_eps)
        for band in range(4)
    }
    bank = FrameletBank(
        order=order,
        grid=grid,
        H=symbols,
        coeffs=coeffs,
        truncation_eps=float(truncation_eps),
    )
    diag_err, off_err = uep_errors(bank)
    object.__setattr__(bank, "uep_diagonal_error", diag_err)
    object.__setattr__(bank, "uep_offdiagonal_error", off_err)
    if diag_err > 1e-8 or off_err > 1e-8:
        raise ConsistencyError(
            f"filter-bank identities violated (diag {diag_err:.3e}, offdiag {off_err:.3e})"
        )
    return bank


def _interp_periodic(values: np.ndarray, resolution: int, gamma: np.ndarray) -> np.ndarray:
    """Linear interpolation of grid samples, periodic in gamma with period 1."""
    pos = ((gamma + 0.5) % 1.0) * resolution
    i0 = np.floor(pos).astype(int) % resolution
    frac = pos - np.floor(pos)
    i1 = (i0 + 1) % resolution
    return values[i0] * (1.0 - frac) + values[i1] * frac


def framelet_hat(bank: FrameletBank, profile: FourierProfile, n: int, gamma):
    """psi_hat_n(gamma) = H_n(gamma/2) phi_hat(gamma/2), n in {1, 2, 3}.

    Both factors are linearly interpolated on their grids (H_n periodically),
    with O(step^2) interpolation error; grid-aligned arguments are exact.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"framelet index must be 1, 2 or 3, got {n!r}")
    arr, scalar = _as_array(gamma)
    half = arr / 2.0
    if np.any(np.abs(half) > profile.half_width + 1e-12):
        raise WindowError(
            f"gamma/2 leaves the profile window [-{profile.half_width}, {profile.half_width}]"
        )
    hvals = _interp_periodic(bank.symbol(n).values, bank.grid.resolution, half)
    pv = profile.values
    mid = (len(pv) - 1) // 2
    pos = np.clip(half / profile.step + mid, 0.0, len(pv) - 1.0)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, len(pv) - 1)
    frac = pos - i0
    phat = pv[i0] * (1.0 - frac) + pv[i1] * frac
    out = hvals * phat
    return complex(out[()]) if scalar else out


def framelet_time(bank: FrameletBank, phi: TimeProfile, n: int) -> TimeProfile:
    """psi_n on phi's time grid via psi_n(t) = 2 sum_k c_{k,n} phi(2t + k).

    Requires 1/step to be an even integer so that 2t + k lands on the grid;
    phi is treated as 0 outside its sampled range.  The reported
    tail_estimate combines the coefficient truncation with phi's own tail.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"framelet index must be 1, 2 or 3, got {n!r}")
    q = 1.0 / phi.step
    if abs(q - round(q)) > 1e-9 or int(round(q)) % 2 != 0:
        raise GridCompatibilityError(
            f"time step {phi.step!r} must be the reciprocal of an even integer"
        )
    q = int(round(q))
    coeffs = bank.coeffs[n]
    vals = phi.values
    npts = len(vals)
    center = (npts - 1) // 2
    out = np.zeros(npts, dtype=complex)
    base = center + 2 * (np.arange(npts) - center)
    for k, ck in zip(coeffs.ks, coeffs.values):
        pos = base + k * q
        ok = (pos >= 0) & (pos < npts)
        out[ok] += ck * vals[pos[ok]]
    out *= 2.0
    sup_phi = float(np.max(np.abs(vals)))
    tail = 2.0 * coeffs.tail_norm * sup_phi + 2.0 * coeffs.sum_abs() * phi.tail_estimate
    return TimeProfile(bank.order, phi.half_width, phi.step, out, tail)


@dataclass(frozen=True)
class PeriodicSignal:
    """A finite signal on a circle; length must be a power of two >= 4."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.samples, dtype=complex).copy()
        if v.ndim != 1:
            raise ResolutionError(f"signal must be one-dimensional, got shape {v.shape}")
        n = len(v)
        if n < 4 or (n & (n - 1)) != 0:
            raise ResolutionError(f"signal length must be a power of two >= 4, got {n}")
        v.setflags(write=False)
        object.__setattr__(self, "samples", v)

    @property
    def length(self) -> int:
        return len(self.samples)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


def _tap_spectra(bank: FrameletBank, length: int) -> np.ndarray:
    """(4, length) spectra of the wrapped taps; spectra[:, ::2**j] is exactly
    the spectrum of the taps folded to length // 2**j, so one set serves every level."""
    spectra = np.empty((4, length), dtype=complex)
    for n in range(4):
        spectra[n] = np.fft.fft(bank.coeffs[n].wrapped(length))
    return spectra


def _analysis(spectra: np.ndarray, samples: np.ndarray, levels: int) -> tuple[list, np.ndarray]:
    """analyze_multilevel's (details, approx) for a (..., N) batch of samples.

    One FFT in.  Keeping the even samples of a correlation is folding the
    halves of its spectrum together (decimation in frequency), so the lowpass
    band stays a spectrum; only the details and the final approximation go
    through inverse FFTs, at half length.
    """
    a_hat = np.fft.fft(samples, axis=-1)
    details = []
    for j in range(levels):
        bands = []
        for s in spectra[:, :: 2**j]:
            y = a_hat * np.conj(s)
            bands.append((y[..., : len(s) // 2] + y[..., len(s) // 2 :]) * (math.sqrt(2.0) / 2.0))
        a_hat = bands[0]
        details.append([np.fft.ifft(band, axis=-1) for band in bands[1:]])
    return details, np.fft.ifft(a_hat, axis=-1)


def _synthesis(spectra: np.ndarray, details: list, approx: np.ndarray) -> np.ndarray:
    """Inverse of _analysis: upsampling by two tiles a subband's spectrum, the
    approximation stays a spectrum, and one inverse FFT ends the call."""
    a_hat = np.fft.fft(approx, axis=-1)
    for j in range(len(details) - 1, -1, -1):
        taps = spectra[:, :: 2**j]
        acc = np.tile(a_hat, 2) * taps[0]
        for sub, s in zip(details[j], taps[1:]):
            acc += np.tile(np.fft.fft(sub, axis=-1), 2) * s
        a_hat = acc * math.sqrt(2.0)
    return np.fft.ifft(a_hat, axis=-1)


def analyze(bank: FrameletBank, signal: PeriodicSignal) -> list[np.ndarray]:
    """One-level periodic analysis: four half-length subbands.

    subband_n[m] = sqrt(2) * sum_j f[j] conj(h_n[j - 2m]) (circular), i.e.
    correlation with the filter taps followed by keeping even indices.  The
    sqrt(2) makes analysis/synthesis a Parseval pair.  Taps longer than the
    signal wrap around the circle.
    """
    details, approx = _analysis(_tap_spectra(bank, signal.length), signal.samples, 1)
    return [approx, *details[0]]


def synthesize(bank: FrameletBank, subbands: list[np.ndarray]) -> PeriodicSignal:
    """Adjoint of analyze: upsample, filter, and sum the four subbands."""
    if len(subbands) != 4:
        raise GridCompatibilityError(f"expected 4 subbands, got {len(subbands)}")
    return synthesize_multilevel(bank, [subbands[1:]], subbands[0])


def analyze_multilevel(
    bank: FrameletBank, signal: PeriodicSignal, levels: int
) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Recursive analysis on the lowpass channel.

    Returns (details, approx): per level the three detail subbands
    (coarsest last), plus the final lowpass subband.  Needs 2**(levels+1)
    samples, so every subband has at least two, as analyze's do.
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    need = 2 ** (levels + 1)
    if signal.length < need:
        raise ResolutionError(
            f"signal length {signal.length} too short for {levels} levels (need >= {need})"
        )
    return _analysis(_tap_spectra(bank, signal.length), signal.samples, levels)


def synthesize_multilevel(
    bank: FrameletBank, details: list[list[np.ndarray]], approx: np.ndarray
) -> PeriodicSignal:
    """Inverse of analyze_multilevel."""
    length = len(approx)
    for level_details in reversed(details):
        if len(level_details) != 3 or any(len(s) != length for s in level_details):
            raise GridCompatibilityError(f"each level needs three detail subbands of length {length}")
        length *= 2
    return PeriodicSignal(_synthesis(_tap_spectra(bank, length), details, approx))


def bank_to_dict(bank: FrameletBank) -> dict:
    from .serialize import order_to_dict

    return {
        "order": order_to_dict(bank.order),
        "resolution": bank.grid.resolution,
        "truncation_eps": bank.truncation_eps,
        "coeffs": {
            str(n): {
                "offset": bank.coeffs[n].offset,
                "values": [[v.real, v.imag] for v in bank.coeffs[n].values],
                "tail_norm": bank.coeffs[n].tail_norm,
                "aliasing_estimate": bank.coeffs[n].aliasing_estimate,
            }
            for n in range(4)
        },
    }


def bank_from_dict(d: dict) -> FrameletBank:
    """Rebuild a coefficient-only bank (H is None) from its JSON form."""
    from .serialize import order_from_dict

    coeffs = {}
    for key, entry in d["coeffs"].items():
        values = np.array([complex(re, im) for re, im in entry["values"]], dtype=complex)
        coeffs[int(key)] = FilterCoefficients(
            band=int(key),
            offset=int(entry["offset"]),
            values=values,
            tail_norm=float(entry["tail_norm"]),
            aliasing_estimate=float(entry["aliasing_estimate"]),
        )
    if sorted(coeffs) != [0, 1, 2, 3]:
        raise DomainError("bank JSON must carry coefficient entries for bands 0..3")
    return FrameletBank(
        order=order_from_dict(d["order"]),
        grid=TorusGrid(int(d["resolution"])),
        H=None,
        coeffs=coeffs,
        truncation_eps=float(d["truncation_eps"]),
    )

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

Near its zeros (x = sin^2 pi gamma < 0.05, or 1 - x < 0.05, as eta(x) is
symmetric under x -> 1-x), where the direct formula for eta loses all
digits, R comes from d(x) = 1 - q(x) = I_x(ell+1, z), the regularized
incomplete beta function, summed by its positive-term power series
(symbol._d_coefficients): eta = 2 Re d - |d|^2 - x^{2 alpha} |p(1-x)|^2,
and d carries the factor x^{ell+1} in closed form.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .analysis import require_frame
from .errors import (
    ConsistencyError,
    DomainError,
    GridCompatibilityError,
    ResolutionError,
    ToleranceError,
)
from .cascade import Profile
from .symbol import (
    _D_SERIES_LIMIT,
    PseudoSplineOrder,
    TorusGrid,
    _abs_q_squared,
    _as_array,
    _d_scaled,
    _p_taylor,
    eval_H0,
    sample_H0,
)

__all__ = [
    "FilterCoefficients",
    "FrameletBank",
    "PeriodicSignal",
    "eval_eta",
    "eval_sigma",
    "sample_bank",
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

_ETA_ERROR_FLOOR = -1e-9


def _require_partition(order: PseudoSplineOrder, eta: np.ndarray) -> None:
    """Raise ConsistencyError where eta < -1e-9: the UEP partition bound
    |H0(gamma)|^2 + |H0(gamma+1/2)|^2 <= 1 fails, and no Parseval bank exists."""
    if np.any(eta < _ETA_ERROR_FLOOR):
        raise ConsistencyError(
            f"partition |H0(gamma)|^2 + |H0(gamma+1/2)|^2 exceeds 1 for {order.label()} "
            f"(min eta = {float(np.min(eta)):.3e} < {_ETA_ERROR_FLOOR:g}); no UEP framelet bank exists"
        )


def _eta(order: PseudoSplineOrder, x: np.ndarray) -> np.ndarray:
    """eta = 1 - |q(x)|^2 - |q(1-x)|^2, unclamped; a partition above 1 raises ConsistencyError."""
    eta = 1.0 - _abs_q_squared(order, x) - _abs_q_squared(order, 1.0 - x)
    _require_partition(order, eta)
    return eta


def eval_eta(order: PseudoSplineOrder, gamma):
    """eta(gamma) = 1 - (|H0(gamma)|^2 + |H0(gamma+1/2)|^2), in [0, 1-theta].

    Tiny negative values from rounding are clamped to 0; anything below
    -1e-9 would contradict the partition upper bound and raises
    ConsistencyError.  Shift phases cancel in the moduli, so the value is
    shift-independent.
    """
    arr, scalar = _as_array(gamma)
    x = np.sin(np.pi * arr) ** 2
    eta = np.maximum(_eta(order, x), 0.0)
    return float(eta[()]) if scalar else eta


def _ratio_series(order: PseudoSplineOrder, xt: np.ndarray) -> np.ndarray:
    """R as a function of x for x = xt < _D_SERIES_LIMIT, from g = d(x) / x^{ell+1}.

    With d = 1 - q(x), 1 - |q(x)|^2 = 2 Re d - |d|^2 and
    |q(1-x)|^2 = x^{2 alpha} |p(1-x)|^2, so the factor x^{ell+1} of eta
    cancels in closed form and no leading 1 is ever subtracted.
    """
    a = order.ell + 1
    g = _d_scaled(order, xt)
    reflected = np.zeros(xt.shape)
    pos = xt > 0.0
    xp = xt[pos]
    reflected[pos] = np.exp((2.0 * order.alpha - a) * np.log(xp)) * np.abs(_p_taylor(order, 1.0 - xp)) ** 2
    num = 2.0 * g.real - xt**a * np.abs(g) ** 2 - reflected
    return num / (4.0 * (1.0 - xt)) ** a


def eval_sigma(order: PseudoSplineOrder, gamma):
    """The factored square root of eta (see the module docstring).

    Complex-valued with |sigma(gamma)|^2 = eta(gamma) and
    sigma(-gamma) = conj(sigma(gamma)); vanishes to order ell+1 at
    gamma in {0, +-1/2}.  Shift-independent like eta.  Raises
    ConsistencyError where eta < -1e-9, as eval_eta does.
    """
    arr, scalar = _as_array(gamma)
    x = np.sin(np.pi * arr) ** 2
    xt = np.minimum(x, 1.0 - x)
    ratio = np.empty(xt.shape)
    near = xt < _D_SERIES_LIMIT
    if np.any(near):
        xn = xt[near]
        ratio[near] = _ratio_series(order, xn)
        _require_partition(order, ratio[near] * (4.0 * xn * (1.0 - xn)) ** (order.ell + 1))
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

    offset: int
    values: np.ndarray
    tail_norm: float
    tail_l1: float

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


def _coeffs_from_samples(band: int, values: np.ndarray, eps: float, remedy: str) -> FilterCoefficients:
    """Taps of one band's N samples within |k| <= N // 4; `remedy` ends the
    ToleranceError when no radius meets eps.  tail_norm and tail_l1 are the
    l2 and l1 norms of the dropped sampled coefficients."""
    n = len(values)
    cap = n // 4
    ks = np.arange(-n // 2, n // 2)
    c = np.fft.fftshift(np.fft.fft(values)) / n
    c = c * np.where(ks % 2 == 0, 1.0, -1.0)
    mass = np.abs(c) ** 2
    # suffix sums from the small end: tails[K] is the mass and l1[K] the l1
    # norm at |k| > K, computed without subtracting near-equal totals (which
    # would stall near sqrt(eps * total) ~ 1e-8 and defeat any tighter eps)
    tails, l1 = (np.cumsum(np.bincount(np.abs(ks), weights=w)[:0:-1])[::-1] for w in (mass, np.abs(c)))
    eligible = np.nonzero(tails[: cap + 1] <= eps * eps)[0]
    if len(eligible) == 0:
        raise ToleranceError(
            f"band {band}: discarded-tail norm {math.sqrt(tails[cap]):.3e} at |k| <= {cap} "
            f"exceeds truncation eps {eps:.3e}; {remedy}"
        )
    radius = int(eligible[0])
    # past eps, keep extending while two more taps still shrink the tail
    # mass 4x (geometric regime: integer-z sigma bands; the two-step
    # lookahead sees through their even-k-only parity gaps), down to the
    # rounding floor; power-law tails shrink too slowly to extend at all,
    # and exactly finite filters are already at the floor
    floor = 1e-30 * max(float(np.sum(mass)), 1.0)
    while (
        radius + 2 <= cap
        and tails[radius] > floor
        and tails[radius + 2] <= 0.25 * tails[radius]
    ):
        radius += 1
    keep = np.abs(ks) <= radius
    return FilterCoefficients(
        offset=-radius,
        values=c[keep],
        tail_norm=float(math.sqrt(tails[radius])),
        tail_l1=float(l1[radius]),
    )


@dataclass(frozen=True)
class FrameletBank:
    """The four bands' truncated taps and the grid they were sampled on,
    whether built by build_bank or loaded from JSON."""

    order: PseudoSplineOrder
    grid: TorusGrid
    coeffs: dict
    truncation_eps: float

    def max_support_radius(self) -> int:
        return max(self.coeffs[n].support_radius for n in range(4))


def uep_errors(bank: FrameletBank) -> tuple[float, float]:
    """Max deviations of the two filter-bank identities of the bank's taps on its grid.

    Returns (diagonal, offdiagonal): max |sum_n |H_n|^2 - 1| and
    max |sum_n H_n(gamma) conj(H_n(gamma + 1/2))|, from one FFT of the taps.
    """
    n = bank.grid.resolution
    spectra = _tap_spectra([bank.coeffs[band] for band in range(4)], n, 0)
    diag = np.sum(np.abs(spectra) ** 2, axis=0)
    off = np.sum(spectra * np.conj(np.roll(spectra, n // 2, axis=-1)), axis=0)
    return float(np.max(np.abs(diag - 1.0))), float(np.max(np.abs(off)))


def sample_bank(order: PseudoSplineOrder, grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """H0..H3 on the grid, as four complex arrays of length N.

    Orders off the arctan lowpass condition raise ConditionError first
    (analysis.require_frame), and a partition above 1 raises
    ConsistencyError where sigma computes eta.  The half-period shift inside
    H1 is realized as an exact index roll, so the two filter-bank identities
    hold at the sample level to rounding accuracy for any other order,
    shifted ones included.
    """
    require_frame(order)
    h0 = sample_H0(order, grid)
    return (h0, *_high_bands(order, grid.gamma, np.roll(h0, -(grid.resolution // 2))))


def _high_bands(order: PseudoSplineOrder, x: np.ndarray, h0_half: np.ndarray) -> tuple[np.ndarray, ...]:
    """H1, H2, H3 at torus points x in [-1/2, 1/2), given H0 at the torus
    points of x + 1/2 (the module docstring's formulas)."""
    sigma = eval_sigma(order, x)
    phase = np.exp(2j * np.pi * x)
    rt2 = math.sqrt(2.0)
    return phase * np.conj(h0_half), sigma / rt2, phase * sigma / rt2


_GRID_CAP = 2**18


def _bank_on(order: PseudoSplineOrder, grid: TorusGrid, eps: float, remedy: str) -> FrameletBank:
    """Bands 0 and 2 cut from their samples, and 1 and 3 derived by the tap forms
    h1_k = -(-1)^k conj(h0_{1-k}) and h3_k = h2_{k-1}, taking their partners' tails.

    Only the two cut bands are sampled, with sample_bank's checks and values."""
    require_frame(order)
    h0 = eval_H0(order, grid.gamma)
    h2 = eval_sigma(order, grid.gamma) / math.sqrt(2.0)
    c0 = _coeffs_from_samples(0, h0, eps, remedy)
    c2 = _coeffs_from_samples(2, h2, eps, remedy)
    c1 = replace(c0, offset=2 - c0.offset - len(c0.values), values=np.conj(c0.values[::-1]))
    c1 = replace(c1, values=np.where(c1.ks % 2 == 1, c1.values, -c1.values))
    c3 = replace(c2, offset=c2.offset + 1)
    return FrameletBank(order=order, grid=grid, coeffs={0: c0, 1: c1, 2: c2, 3: c3}, truncation_eps=float(eps))


def build_bank(
    order: PseudoSplineOrder, grid: TorusGrid | None = None, truncation_eps: float = 1e-10
) -> FrameletBank:
    """The bank of sample_bank's bands 0 and 2 truncated at eps within
    |k| <= N // 4, and bands 1 and 3 derived from them (reaching N // 4 + 1).

    With grid None the grid is sized to the order: N starts at the least
    power of two >= 64 with N // 4 > |u| and doubles while band 0's or band
    2's tail at N // 4 exceeds eps.  Past 2^18 points a ToleranceError names
    that cap, before any sampling if |u| alone is past it.  A negative or
    non-finite truncation_eps raises DomainError.
    """
    if not (math.isfinite(truncation_eps) and truncation_eps >= 0.0):
        raise DomainError(f"truncation eps must be finite and >= 0, got {truncation_eps!r}")
    if grid is not None:
        if grid.resolution < 64:
            raise ResolutionError(f"bank construction needs grid resolution >= 64, got {grid.resolution}")
        return _bank_on(order, grid, truncation_eps, "increase the grid resolution")
    cap = f"the automatic bank grid stops at 2^18 = {_GRID_CAP} points"
    n = max(64, 1 << int(4.0 * abs(order.shift)).bit_length())
    if n > _GRID_CAP:
        raise ToleranceError(f"{order.label()}: the taps need N // 4 > |u| = {abs(order.shift):g}; {cap}")
    while n < _GRID_CAP:
        try:
            return _bank_on(order, TorusGrid(n), truncation_eps, cap)
        except ToleranceError:
            n *= 2
    return _bank_on(order, TorusGrid(n), truncation_eps, cap)


def framelet_hat(profile: Profile, n: int) -> Profile:
    """psi_hat_n(gamma) = H_n(gamma/2) phi_hat(gamma/2), n in {1, 2, 3}, on 2 * profile.points.

    `profile` is a phi_hat cascade run on the gamma/2 points themselves, so
    nothing is interpolated.  H_n comes from the exact symbols at the torus
    point of gamma/2, where sample_bank samples it, so on a grid that holds
    gamma/2 both agree to rounding.  H1..H3 are evaluated once per profile
    and kept on it for the other bands.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"framelet index must be 1, 2 or 3, got {n!r}")
    highs = profile.__dict__.get("_high_bands")
    if highs is None:
        # gamma/2 and gamma/2 + 1/2 reduced mod 1 into [-1/2, 1/2), where TorusGrid samples lie
        x = (profile.points + 0.5) % 1.0 - 0.5
        h0_half = eval_H0(profile.order, (x + 1.0) % 1.0 - 0.5)
        highs = profile.__dict__["_high_bands"] = _high_bands(profile.order, x, h0_half)
    return Profile(profile.order, 2.0 * profile.half_width, 2.0 * profile.step, highs[n - 1] * profile.values)


def _points_per_unit(step: float) -> int:
    """1/step for framelet_time's time step, else GridCompatibilityError
    unless it is an even integer within 1e-9."""
    q = 1.0 / step
    if abs(q - round(q)) > 1e-9 or int(round(q)) % 2 != 0:
        raise GridCompatibilityError(f"time step {step!r} must be the reciprocal of an even integer")
    return int(round(q))


def framelet_time(bank: FrameletBank, phi: Profile, n: int) -> Profile:
    """psi_n on phi's time grid via psi_n(t) = 2 sum_k c_{k,n} phi(2t + k).

    Requires 1/step to be an even integer so that 2t + k lands on the grid;
    phi is treated as 0 outside its sampled range.  The reported
    tail_estimate combines the dropped taps, at most 2 tail_l1 sup|phi| at
    any t, with phi's own tail.
    """
    if n not in (1, 2, 3):
        raise DomainError(f"framelet index must be 1, 2 or 3, got {n!r}")
    q = _points_per_unit(phi.step)
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
    tail = 2.0 * coeffs.tail_l1 * sup_phi + 2.0 * coeffs.sum_abs() * phi.tail_estimate
    return Profile(bank.order, phi.half_width, phi.step, out, tail_estimate=tail)


def _require_length(n: int) -> None:
    if n < 4 or (n & (n - 1)) != 0:
        raise ResolutionError(f"signal length must be a power of two >= 4, got {n}")


@dataclass(frozen=True)
class PeriodicSignal:
    """A finite signal on a circle; length must be a power of two >= 4."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.samples, dtype=complex).copy()
        if v.ndim != 1:
            raise ResolutionError(f"signal must be one-dimensional, got shape {v.shape}")
        _require_length(len(v))
        v.setflags(write=False)
        object.__setattr__(self, "samples", v)

    @property
    def length(self) -> int:
        return len(self.samples)

    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


# The transform engine's second thread.  numpy's FFTs and ufunc loops release
# the GIL, so a task on the worker runs beside the calling thread.  Each level
# of an engine call hands its tasks to _run_tasks: one executor worker and the
# calling thread pop them from one deque until it is empty.  A caller never
# waits on another caller's tasks: if the worker has not started on this
# call's deque when the caller's own pass over it ends, the caller cancels
# the worker's pass.  A call of one task (a level of one block, such as
# either direction of verify's 1024-sample round trip) runs it on the
# calling thread and leaves the worker asleep: waking it costs more than
# such a task.  The executor starts at the first transform of more than
# one task; a forked child, which inherits the executor but not its thread
# (and perhaps a held lock), starts its own.  Once interpreter shutdown has
# begun (in an atexit hook, say) the executor takes no work and the caller
# runs every task.
_executor = None
_executor_lock = threading.Lock()


def _forget_executor() -> None:
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_executor)


def _drain(tasks: deque, errors: list) -> None:
    while True:
        try:
            task = tasks.popleft()
        except IndexError:
            return
        try:
            task()
        except BaseException as exc:
            errors.append(exc)


def _run_tasks(tasks) -> None:
    """Call every task (functools.partial) on the calling thread and the
    worker, and return once all have finished, raising the first error of
    any; none runs after the call returns.  A lone task runs on the calling
    thread alone, and its error propagates as it is.  A task must not wait
    for another: it could be waiting for its own thread."""
    global _executor
    tasks, errors = deque(tasks), []
    if len(tasks) == 1:
        tasks[0]()
        return
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(1, thread_name_prefix="pseudosplines")
        executor = _executor
    try:
        helper = executor.submit(_drain, tasks, errors)
    except RuntimeError:  # interpreter shutdown has begun
        helper = None
    _drain(tasks, errors)
    if helper is not None and not helper.cancel():
        helper.result()
    if errors:
        raise errors[0]


# Each level filters its signal in blocks (overlap-save): a block of 2B
# inputs (analysis) or 2B outputs (synthesis) is one FFT of length
# L = 2B + pad, pad >= W for taps spanning W offsets, multiplied by the four
# bands' length-L tap spectra, so short FFTs that stay in a core's cache do
# the work of full-length ones.  B is _HALF_BLOCK, or the power of two >= W
# if that is larger, so pad is at most about a third of L; being a power of
# two, B divides every level.  A level whose n/2 <= B is one circular block
# of length n, with the taps folded onto the circle.
_HALF_BLOCK = 512
# complex values of one task's scratch buffers, 3 L per block (2 MiB): at
# 2^20 samples tasks of a quarter of that took a third longer per round
# trip, as each task's Python and numpy call overhead runs on one thread at
# a time, and tasks twice as large gained nothing
_TASK_VALUES = 1 << 17
# the least number of tasks _tiles cuts a level's blocks into, where the
# level has that many
_LEVEL_TASKS = 8


class _Level(NamedTuple):
    """How one level of n samples is cut into `blocks` blocks.

    Analysis block b's FFT reads x[(2 B b + start + t) mod n], t < length,
    and keeps the first B = half of its decimated outputs; synthesis block
    b's reads subband samples from B b - lead on and keeps 2B outputs from
    2 lead - start on.  spectra[n] is the FFT of band n's taps c_k placed at
    (k - start) mod length.
    """

    length: int
    half: int
    blocks: int
    start: int
    lead: int
    spectra: np.ndarray


def _fft_length(n: int) -> int:
    """The least even m >= n whose only prime factors are 2, 3 and 5."""
    m = n + n % 2
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 2


def _tap_spectra(coeffs: list, length: int, start: int) -> np.ndarray:
    """(4, length): the FFT of each band's taps c_k placed at (k - start) mod length."""
    taps = np.zeros((4, length), dtype=complex)
    for row, c in zip(taps, coeffs):
        np.add.at(row, (c.ks - start) % length, c.values)
    return np.fft.fft(taps, axis=-1)


def _levels(bank: FrameletBank, n: int, count: int) -> list[_Level]:
    """The blocks of `count` levels from n samples down, finest first."""
    coeffs = [bank.coeffs[band] for band in range(4)]
    lo = min(c.offset for c in coeffs)
    hi = max(c.offset + len(c.values) for c in coeffs) - 1
    half = max(_HALF_BLOCK, 1 << (hi - lo).bit_length())
    length = _fft_length(2 * half + hi - lo + 1)
    shared = None
    levels = []
    for j in range(count):
        m = n >> j
        if m // 2 <= half:
            levels.append(_Level(m, m // 2, 1, 0, 0, _tap_spectra(coeffs, m, 0)))
            continue
        if shared is None:
            shared = _tap_spectra(coeffs, length, lo)
        # pad = length - 2 half >= hi - lo + 1 = W: no kept output wraps
        levels.append(_Level(length, half, m // (2 * half), lo, -(-hi // 2), shared))
    return levels


def _windows(x: np.ndarray, first: int, count: int, step: int, length: int) -> np.ndarray:
    """(count, length) windows, window i holding x[(first + i step + t) mod n]:
    a view of x, or of a copy of the stretch they span where it wraps."""
    stop = first + (count - 1) * step + length
    if 0 <= first and stop <= len(x):
        span = x[first:stop]
    else:
        n, pieces = len(x), []
        while first < stop:
            pieces.append(x[first % n : min(n, first % n + stop - first)])
            first += len(pieces[-1])
        span = np.concatenate(pieces)
    (stride,) = span.strides
    return as_strided(span, (count, length), (step * stride, stride), writeable=False)


def _tiles(level: _Level) -> list[range]:
    """A level's blocks cut into tasks of at most _TASK_VALUES scratch values
    each, and into at least _LEVEL_TASKS tasks (if it has that many blocks),
    so that a long signal's working memory stays a small share of it."""
    per = max(1, _TASK_VALUES // (3 * level.length))
    blocks = level.blocks
    parts = max(-(-blocks // per), min(blocks, _LEVEL_TASKS))
    return [range(blocks * k // parts, blocks * (k + 1) // parts) for k in range(parts)]


def _analyze_blocks(x: np.ndarray, level: _Level, taps: np.ndarray, outs: list, blocks: range) -> None:
    """One task of an analysis level: the blocks' FFTs, each multiplied by the
    four (conjugated, scaled) tap spectra and folded to half length, which
    keeps the even samples of the correlation, then a half-length inverse
    FFT per band of which the first B outputs go to outs.  A one-block level
    keeps all of them, so it folds straight into outs."""
    b, h, width = level.half, level.length // 2, 2 * level.half
    spectrum = np.fft.fft(_windows(x, width * blocks.start + level.start, len(blocks), width, level.length))
    lower, upper = spectrum[:, :h], spectrum[:, h:]
    kept = [out[b * blocks.start : b * blocks.stop].reshape(len(blocks), b) for out in outs]
    bands = kept if b == h else np.empty((4,) + lower.shape, dtype=complex)
    for band, s in zip(bands[:3], taps):
        np.multiply(lower, s[:h], out=band)
        np.multiply(upper, s[h:], out=bands[3])
        band += bands[3]
    np.multiply(lower, taps[3, :h], out=bands[3])
    upper *= taps[3, h:]
    bands[3] += upper
    for band, out in zip(bands, kept):
        np.fft.ifft(band, out=band)
        if band is not out:
            out[...] = band[:, :b]


def _synthesize_blocks(subbands: list, level: _Level, taps: np.ndarray, out: np.ndarray, blocks: range) -> None:
    """One task of a synthesis level: the half-length FFTs of each block's
    stretch of the four subbands, whose spectra, repeated twice (upsampling),
    are multiplied by the (scaled) tap spectra and summed, then inverse FFTs
    of which 2B outputs go to out.  A one-block level keeps all of them, so
    it sums straight into out."""
    b, h, width = level.half, level.length // 2, 2 * level.half
    kept = out[width * blocks.start : width * blocks.stop].reshape(len(blocks), width)
    spectra = np.empty((4, len(blocks), h), dtype=complex)
    for spectrum, sub in zip(spectra, subbands):
        np.fft.fft(_windows(sub, b * blocks.start - level.lead, len(blocks), b, h), out=spectrum)
    total = kept if width == level.length else np.empty((len(blocks), level.length), dtype=complex)
    lower, upper = total[:, :h], total[:, h:]
    np.multiply(spectra[0], taps[0, :h], out=lower)
    np.multiply(spectra[0], taps[0, h:], out=upper)
    for spectrum, s in zip(spectra[1:], taps[1:]):
        np.multiply(spectrum, s[:h], out=spectra[0])
        lower += spectra[0]
        spectrum *= s[h:]
        upper += spectrum
    np.fft.ifft(total, out=total)
    if total is not kept:
        first = 2 * level.lead - level.start
        kept[...] = total[:, first : first + width]


def analyze(bank: FrameletBank, signal: PeriodicSignal) -> list[np.ndarray]:
    """One-level periodic analysis: four half-length subbands.

    subband_n[m] = sqrt(2) * sum_j f[j] conj(h_n[j - 2m]) (circular), i.e.
    correlation with the filter taps followed by keeping even indices.  The
    sqrt(2) makes analysis/synthesis a Parseval pair.  Taps longer than the
    signal wrap around the circle.
    """
    details, approx = analyze_multilevel(bank, signal, 1)
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
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise DomainError(f"levels must be an integer >= 1, got {levels!r}")
    need = 2 ** (levels + 1)
    if signal.length < need:
        raise ResolutionError(
            f"signal length {signal.length} too short for {levels} levels (need >= {need})"
        )
    # each level's blocks are tasks (_analyze_blocks) that write its lowpass
    # band and its three details; the next level reads the lowpass band once
    # every task has finished
    x, details = signal.samples, []
    for level in _levels(bank, signal.length, levels):
        taps = np.conj(level.spectra) * (math.sqrt(2.0) / 2.0)
        low = np.empty(len(x) // 2, dtype=complex)
        bands = np.empty((3, len(low)), dtype=complex)
        _run_tasks(partial(_analyze_blocks, x, level, taps, [low, *bands], blocks) for blocks in _tiles(level))
        details.append(list(bands))
        x = low
    return details, x


def synthesize_multilevel(
    bank: FrameletBank, details: list[list[np.ndarray]], approx: np.ndarray
) -> PeriodicSignal:
    """Inverse of analyze_multilevel."""
    if len(details) < 1:
        raise DomainError("synthesis needs the details of at least one level")
    if np.ndim(approx) != 1:
        raise ResolutionError(f"approx must be one-dimensional, got shape {np.shape(approx)}")
    length = len(approx)
    for level_details in reversed(details):
        if len(level_details) != 3 or any(np.shape(s) != (length,) for s in level_details):
            raise GridCompatibilityError(f"each level needs three detail subbands of length {length}")
        length *= 2
    _require_length(length)
    # each level's blocks are tasks (_synthesize_blocks) that read its four
    # subbands and write the next finer lowpass band
    back = np.asarray(approx)
    for level, subbands in zip(reversed(_levels(bank, length, len(details))), reversed(details)):
        taps = level.spectra * math.sqrt(2.0)
        bands = [back, *map(np.asarray, subbands)]
        back = np.empty(2 * len(back), dtype=complex)
        _run_tasks(partial(_synthesize_blocks, bands, level, taps, back, blocks) for blocks in _tiles(level))
    back.setflags(write=False)
    signal = object.__new__(PeriodicSignal)
    object.__setattr__(signal, "samples", back)  # the engine's own fresh array, not copied
    return signal


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
                "tail_l1": bank.coeffs[n].tail_l1,
            }
            for n in range(4)
        },
    }


def bank_from_dict(d: dict) -> FrameletBank:
    """Rebuild a bank from its JSON form; a missing or malformed entry
    raises DomainError."""
    from .serialize import order_from_dict

    try:
        coeffs = {}
        for key, entry in d["coeffs"].items():
            values = np.array([complex(re, im) for re, im in entry["values"]], dtype=complex)
            coeffs[int(key)] = FilterCoefficients(
                offset=int(entry["offset"]),
                values=values,
                tail_norm=float(entry["tail_norm"]),
                tail_l1=float(entry["tail_l1"]),
            )
        order = order_from_dict(d["order"])
        resolution, eps = int(d["resolution"]), float(d["truncation_eps"])
    except KeyError as exc:
        raise DomainError(f"bank JSON has no {exc.args[0]!r} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed bank JSON ({exc})") from None
    if sorted(coeffs) != [0, 1, 2, 3]:
        raise DomainError("bank JSON must carry coefficient entries for bands 0..3")
    return FrameletBank(order=order, grid=TorusGrid(resolution), coeffs=coeffs, truncation_eps=eps)

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
symmetric under x -> 1-x) R is evaluated from a power series in x whose
leading 1 of |q|^2 = (1-x)^{2 alpha} |p(x)|^2 is cancelled symbolically,
where the direct formula for eta loses all digits.  The series still sums
large alternating binomial terms, whose cancellation grows with Re z: it
agrees with the direct formula to 1e-14 of sup eta up to Re z = 50, but
only to 6.4e-10 at (80, 5) and 3.6e-9 at (150, 30), and at (200, 0) not
at all.  Full accuracy beyond Re z = 50 needs the cancellation-free eta of
ROADMAP item 2 (the incomplete beta function).
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

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
# the GIL, so a task on the worker runs beside the calling thread.  Each
# engine call puts its tasks on its own _Queue as soon as their inputs exist;
# the worker takes them oldest first, and the calling thread runs them too
# whenever it waits for a result, so no queued task waits while a thread is
# free.  One worker per process serves the queues of every calling thread:
# its inbox holds each queue with tasks for it at most once, and it serves a
# queue until the queue is empty, so it wakes once per burst of tasks rather
# than once per task.  It starts at the first transform; a forked child,
# which inherits the inbox but not the thread (and perhaps a held lock),
# starts its own.
_worker = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


def _work(inbox) -> None:
    while True:
        inbox.get()._serve()


class _Task:
    """One queued call and, once it has run, its value or error."""

    __slots__ = ("call", "state", "value", "error")

    def __init__(self, call) -> None:
        self.call, self.state, self.value, self.error = call, "queued", None, None


class _Queue:
    """The tasks of one engine call, run by the calling thread and the worker.

    put(fn, *args, **kwargs) queues fn(*args, **kwargs).  result(task) returns
    its value or raises its error, running queued tasks on the calling thread
    until it is done: the task itself if no thread has taken it, else the
    oldest.  Leaving the `with` block runs or waits for every task still
    queued and then raises the first error of any task, so every task has
    finished before an error is raised and none runs after the call returns.
    A task must not wait for another: the worker could wait on itself.
    """

    def __init__(self) -> None:
        global _worker
        with _worker_lock:
            if _worker is None:
                from queue import SimpleQueue

                _worker = SimpleQueue()
                threading.Thread(target=_work, args=(_worker,), name="pseudosplines", daemon=True).start()
            self._inbox = _worker
        self._queued = deque()
        self._in_inbox = False  # or being served by the worker
        self._running = 0
        self._error = None
        self._changed = threading.Condition()

    def __enter__(self) -> "_Queue":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        while self._help(None):
            pass
        if kind is None and self._error is not None:
            raise self._error

    def put(self, fn, *args, **kwargs) -> _Task:
        task = _Task(partial(fn, *args, **kwargs))
        with self._changed:
            self._queued.append(task)
            wake, self._in_inbox = not self._in_inbox, True
        if wake:
            self._inbox.put(self)
        return task

    def result(self, task: _Task):
        while self._help(task):
            pass
        if task.error is not None:
            raise task.error
        return task.value

    def wait(self, tasks) -> None:
        """result() of each task, returning none of their values."""
        for task in tasks:
            self.result(task)

    def _help(self, task: _Task | None) -> bool:
        """One step of waiting for `task`, or for every task if None: run it
        or another queued task, or wait for a running one.  False when done."""
        with self._changed:
            done = task.state == "done" if task is not None else not (self._queued or self._running)
            if done:
                return False
            mine = self._take(task)
            if mine is None:
                self._changed.wait()
                return True
        self._run(mine)
        return True

    def _serve(self) -> None:
        """The worker's part: the oldest queued task, until none is left."""
        while True:
            with self._changed:
                task = self._take(None)
                if task is None:
                    self._in_inbox = False
                    return
            self._run(task)

    def _take(self, task: _Task | None) -> _Task | None:
        """`task` if still queued, else the oldest queued task, else None; under the lock."""
        if task is not None and task.state == "queued":
            self._queued.remove(task)
        elif self._queued:
            task = self._queued.popleft()
        else:
            return None
        task.state = "running"
        self._running += 1
        return task

    def _run(self, task: _Task) -> None:
        call, task.call = task.call, None  # the task holds no buffer once it has run
        try:
            value, error = call(), None
        except BaseException as exc:
            value, error = None, exc
        del call
        with self._changed:
            task.value, task.error, task.state = value, error, "done"
            self._running -= 1
            if self._error is None:
                self._error = error
            self._changed.notify_all()


# values in one block of the engine's blocked loops (128 KiB of complex
# values): small enough to stay in a core's cache, large enough that short
# signals take few blocks.  _tap_spectra's blocks hold this many values;
# those of _fold, _butterflies and _expand hold this many positions of the
# last axis (of every row of a batch: splitting short rows costs more than it
# saves).
_BLOCK_VALUES = 1 << 13


class _Spectra(NamedTuple):
    """The four bands' tap spectra, each an array of its own, and the queued
    tasks that fill them: read the bands only once the tasks have finished."""

    bands: list
    tasks: list


def _tap_spectra(queue: _Queue, bank: FrameletBank, length: int) -> _Spectra:
    """The (length,) spectra of each band's taps folded onto a circle of
    this length, queued as tasks.

    spectrum[::2**j] is exactly the spectrum of the taps folded to
    length // 2**j, so one set serves every level.  The four bands span W
    offsets lo..lo+W-1, so the FFT is pruned: with M = min(N, the power of
    two >= W), P = N // M and w_N = exp(-2 pi i / N),

        S_n[P k1 + k2] = sum_k c_{n,k} w_N^{k2 k} w_M^{k1 k},

    i.e. for each k2 one length-M FFT over k1 of the taps twiddled by
    w_N^{k2 k}, each tap in row k mod M of the band's (M, P) array, which
    leaves the bins in natural order.  Taps that wrap (W > N) are the P == 1
    case: every twiddle is 1 and the row is the taps folded to length N, as
    a full-length FFT would take them.

    A task works through the (M, P) array of its band in cache-sized column
    blocks, each a whole number of the twiddle tables' q ~ sqrt(P) columns:
    it twiddles one block into a scratch buffer, runs the in-place FFT along
    its rows there, and copies it into the array, so each FFT reads
    contiguous memory and the array is written once.  A band of two or more
    blocks is two tasks, one per half of its blocks, so that the bands and
    the signal FFTs queued beside them share out evenly over the threads.
    """
    coeffs = [bank.coeffs[n] for n in range(4)]
    lo = min(c.offset for c in coeffs)
    width = max(c.offset + len(c.values) for c in coeffs) - lo
    m = min(length, 1 << (width - 1).bit_length())
    p = length // m
    # the offset k of the one tap each row can hold when p > 1 (W <= M; at
    # p == 1 all twiddles are 1 whatever k is), and its twiddles
    # w_N^{k (a q + b)} as the product of a (M, P/q) and a (M, q) table,
    # q ~ sqrt(P): M (P/q + q) complex exponentials instead of M P, with the
    # phases reduced mod N in integers first
    ks = lo + (np.arange(m) - lo) % m
    q = 1 << (p.bit_length() - 1) // 2
    scale = -2j * np.pi / length
    outer = np.exp(scale * ((ks[:, None] * (q * np.arange(p // q))) % length))
    inner = np.exp(scale * ((ks[:, None] * np.arange(q)) % length))[:, None, :]
    # each block holds `cols` columns of the outer table, (M, cols q) values
    cols = max(1, min(p // q, _BLOCK_VALUES // (m * q)))

    def fill(n: int, g: np.ndarray, columns: range) -> None:
        taps = coeffs[n].wrapped(m)[:, None]
        block = np.empty((m, cols, q), dtype=complex)
        rows = block.reshape(m, cols * q)
        for a in columns:
            np.multiply((taps * outer[:, a : a + cols])[:, :, None], inner, out=block)
            np.fft.fft(rows, axis=0, out=rows)
            g[:, a : a + cols] = block

    # cols divides P/q: both are powers of two
    starts = range(0, p // q, cols)
    parts = [starts[: len(starts) // 2], starts[len(starts) // 2 :]] if len(starts) > 1 else [starts]
    arrays = [np.empty((m, p // q, q), dtype=complex) for _ in range(4)]
    tasks = [queue.put(fill, n, g, part) for n, g in enumerate(arrays) for part in parts]
    return _Spectra([g.reshape(length) for g in arrays], tasks)


def _fold(a_hat: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """out = one band of one analysis level: (a_hat * conj(s)) with its two
    halves summed, times sqrt(2)/2, in blocks of the last axis, so the only
    temporary is one block."""
    h = out.shape[-1]
    upper = np.empty(out.shape[:-1] + (min(h, _BLOCK_VALUES),), dtype=complex)
    for a in range(0, h, _BLOCK_VALUES):
        b = min(a + _BLOCK_VALUES, h)
        lower, up = out[..., a:b], upper[..., : b - a]
        np.conjugate(s[a:b], out=lower)
        lower *= a_hat[..., a:b]
        np.conjugate(s[h + a : h + b], out=up)
        up *= a_hat[..., h + a : h + b]
        lower += up
        lower *= math.sqrt(2.0) / 2.0


def _parts(h: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two halves of range(h), one task each."""
    return (0, h // 2), (h // 2, h)


def _butterflies(spectrum: np.ndarray, start: int, stop: int, inverse: bool) -> None:
    """Positions k in [start, stop) of the radix-2 butterflies between a
    (..., N) spectrum and the spectra of its even and odd samples, in place
    on its halves lo and hi, in blocks of the last axis.

    With t = w_N^k: forward, lo and hi hold the FFTs of the even and of the
    odd samples and become the two halves of the full FFT, lo + t hi and
    lo - t hi (decimation in time); inverse, lo and hi hold half the full
    spectrum's halves and become lo + hi and (lo - hi) / t, whose
    half-length inverse FFTs are the even and the odd samples (decimation in
    frequency).
    """
    h = spectrum.shape[-1] // 2
    # w_N^{+-(q a + b)} as the outer product of two tables, q ~ sqrt(N/2):
    # N/2q + q complex exponentials instead of N/2
    q = 1 << (h.bit_length() - 1) // 2
    scale = (1j if inverse else -1j) * np.pi / h
    outer, inner = np.exp(scale * q * np.arange(h // q)), np.exp(scale * np.arange(q))
    for a in range(start, stop, _BLOCK_VALUES):
        b = min(a + _BLOCK_VALUES, stop)
        first = a // q
        t = (outer[first : -(-b // q), None] * inner).ravel()[a - first * q : b - first * q]
        lo, hi = spectrum[..., a:b], spectrum[..., h + a : h + b]
        if inverse:
            lo += hi
            hi *= -2.0
            hi += lo
            hi *= t
        else:
            hi *= t
            lo += hi
            hi *= -2.0
            hi += lo


def _expand(bands: list, taps: list, out: np.ndarray, start: int, stop: int, gain: float) -> None:
    """Positions k in [start, stop) of both halves of one synthesis level's
    output spectrum: out[..., k] = gain sum_n B_n[k] S_n[k] and
    out[..., h + k] = gain sum_n B_n[k] S_n[h + k], B_n = bands[n] (length
    h) and S_n = taps[n] (length 2h).

    A band-by-band multiply-accumulate in blocks of the last axis that
    allocates nothing: once read, B_0's block holds each B_n S_n[h + k] in
    turn, and B_n's block is multiplied by S_n[k] in place.  So the bands
    are overwritten, block by block, as they are used.
    """
    h = bands[0].shape[-1]
    for a in range(start, stop, _BLOCK_VALUES):
        b = min(a + _BLOCK_VALUES, stop)
        lower, upper = out[..., a:b], out[..., h + a : h + b]
        scratch = bands[0][..., a:b]
        np.multiply(scratch, taps[0][a:b], out=lower)
        np.multiply(scratch, taps[0][h + a : h + b], out=upper)
        for band, s in zip(bands[1:], taps[1:]):
            np.multiply(band[..., a:b], s[h + a : h + b], out=scratch)
            upper += scratch
            part = band[..., a:b]
            part *= s[a:b]
            lower += part
        lower *= gain
        upper *= gain


def _analysis(queue: _Queue, spectra: _Spectra, samples: np.ndarray, levels: int) -> tuple[list, np.ndarray]:
    """analyze_multilevel's (details, approx) for a (..., N) batch of
    samples, with the tap spectra from _tap_spectra on the same queue.

    The signal comes in as two half-length FFTs, of its even and of its odd
    samples, queued beside the tap spectra and joined by the forward
    butterflies, two tasks over halves of the positions.  Keeping the even
    samples of a correlation is folding the halves of its spectrum together
    (decimation in frequency), so the lowpass band stays a spectrum; only
    the details and the final approximation go through inverse FFTs, at
    half length.

    At each level the three detail folds are tasks while the calling thread
    folds the lowpass band; then the details' inverse FFTs are queued, in
    place, and run while the caller folds the next level from the lowpass.
    The three details of a level share one array (at most 3 N/2 values);
    the lowpass band has its own, so the details do not keep it alive, and
    each level's spectrum is dropped once its four folds are done.  Returns
    once all its tasks have finished.
    """
    h = samples.shape[-1] // 2
    a_hat = np.empty(samples.shape[:-1] + (2 * h,), dtype=complex)
    queue.wait(
        [
            queue.put(np.fft.fft, samples[..., r::2], axis=-1, out=a_hat[..., r * h : (r + 1) * h])
            for r in range(2)
        ]
    )
    queue.wait([queue.put(_butterflies, a_hat, a, b, False) for a, b in _parts(h)])
    queue.wait(spectra.tasks)
    details, inverses = [], []
    for j in range(levels):
        taps = [band[:: 2**j] for band in spectra.bands]
        low = np.empty(a_hat.shape[:-1] + (a_hat.shape[-1] // 2,), dtype=complex)
        bands = list(np.empty((3,) + low.shape, dtype=complex))
        folds = [queue.put(_fold, a_hat, s, band) for s, band in zip(taps[1:], bands)]
        _fold(a_hat, taps[0], low)
        queue.wait(folds)
        a_hat = low
        details.append(bands)
        for band in bands + ([low] if j == levels - 1 else []):
            inverses.append(queue.put(np.fft.ifft, band, axis=-1, out=band))
    queue.wait(inverses)
    return details, a_hat


def _synthesis(queue: _Queue, spectra: _Spectra, details: list, approx: np.ndarray) -> np.ndarray:
    """Inverse of _analysis, with the tap spectra from _tap_spectra on the
    same queue: upsampling by two repeats a subband's spectrum, so half k of
    the level's output spectrum is sqrt(2) sum_n B_n * S_n[half k], B_n the
    spectra of the lowpass and the three details; the approximation stays a
    spectrum.  The last level's products also take the 1/2 of the inverse
    radix-2 butterflies, which turn the output spectrum into the spectra of
    the even and of the odd samples; two tasks, one per half, each an
    in-place half-length inverse FFT and a strided copy into the output, end
    the call.

    Every subband's FFT is a task into a buffer of its own, all queued at
    the start, coarsest level first, so the finer levels' FFTs run while the
    coarser levels' products do.  Each level's products are two tasks
    (_expand), each over half the positions of both output halves; they
    write the next level's lowpass spectrum and use up this level's
    buffers, which are dropped before the next level's are read.
    """
    ffts = [  # coarsest level first
        [queue.put(np.fft.fft, x, axis=-1, out=np.empty(np.shape(x), dtype=complex)) for x in subbands]
        for subbands in ([approx], *reversed(details))
    ]
    low = queue.result(ffts.pop(0)[0])
    queue.wait(spectra.tasks)
    for j in range(len(details) - 1, -1, -1):
        bands = [low, *(queue.result(task) for task in ffts.pop(0))]
        taps = [band[:: 2**j] for band in spectra.bands]
        h = low.shape[-1]
        low = np.empty(low.shape[:-1] + (2 * h,), dtype=complex)
        gain = math.sqrt(2.0) if j else math.sqrt(2.0) / 2.0
        queue.wait([queue.put(_expand, bands, taps, low, a, b, gain) for a, b in _parts(h)])
        del bands
    queue.wait([queue.put(_butterflies, low, a, b, True) for a, b in _parts(h)])
    back = np.empty_like(low)

    def samples(r: int) -> None:
        half = low[..., r * h : (r + 1) * h]
        np.fft.ifft(half, axis=-1, out=half)
        back[..., r::2] = half

    queue.wait([queue.put(samples, r) for r in range(2)])
    return back


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
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    need = 2 ** (levels + 1)
    if signal.length < need:
        raise ResolutionError(
            f"signal length {signal.length} too short for {levels} levels (need >= {need})"
        )
    with _Queue() as queue:
        return _analysis(queue, _tap_spectra(queue, bank, signal.length), signal.samples, levels)


def synthesize_multilevel(
    bank: FrameletBank, details: list[list[np.ndarray]], approx: np.ndarray
) -> PeriodicSignal:
    """Inverse of analyze_multilevel."""
    length = len(approx)
    for level_details in reversed(details):
        if len(level_details) != 3 or any(len(s) != length for s in level_details):
            raise GridCompatibilityError(f"each level needs three detail subbands of length {length}")
        length *= 2
    with _Queue() as queue:
        back = _synthesis(queue, _tap_spectra(queue, bank, length), details, approx)
    return PeriodicSignal(back)


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

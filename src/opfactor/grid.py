"""Wavefunctions on a uniform position grid and the elementary factor actions.

The factor set covers shifts (spectral), dilations (band-limited spectral
resampling by a chirp-z convolution), exp[c d^2/dx^2] convolutions (spectral
multiplier exp(-c k^2)), and one pointwise factor, s exp[i(a x^2 + p x)], that
is a chirp, a phase ramp, a constant or their product.  Chains of factors
realize displacement, squeeze, and time-displacement operators on sampled
states.  Time chains use only chirps and Fresnel steps; the dilation
serves the squeeze family.  Every factor is an FFT step or a pointwise
multiply, and none needs scipy.

Spectral steps treat the grid as periodic, so a result is only as good as the
state's decay at the window's edge, after every factor, and as its spectrum's
decay below the Nyquist wavenumber pi/dx.  Nothing here checks either: on the
default window [-12, 12) with n = 2048 the ground state squeezed by r = 1.5
is still 1e-4 at x = +-10 for phi = 2 and 1e-2 at the edge for phi = 0, and
content that leaves the window re-enters on the other side.  tests/test_cli.py
pins these silent wrong answers as strict xfails.

Every factor kind but the dilation is one operation: multiply the samples,
or for Shift and SpectralD2 their spectrum, by a fixed array.  That array is
computed once per (grid, factor) and reused from a small bounded cache, so a
time chain of k substeps evaluates its three distinct multipliers (four with
a period's sign) once, not 2k + 1 times.  The cached arrays are read-only.
The chain builders keep factors that are the identity; only the kernel
lookup skips them.

There are two private kernels, kernel(buf, grid, factor), that may overwrite
buf and return the result: _multiply returns buf itself (numpy's in-place
fft/ifft via out=, hence numpy >= 2.0), _dilate a new array.  A chain copies
its input samples once and runs every factor in place on that one buffer;
the public apply_* functions run the same kernel on a copy of the samples.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import SqueezeParameter, squeeze_factorization, time_periods

__all__ = [
    "ChainError",
    "ChainRefusedError",
    "Dilation",
    "Grid",
    "OperatorFactor",
    "QuadraticPhase",
    "ShiftRangeError",
    "Shift",
    "SpectralD2",
    "SupportOverflowWarning",
    "WaveFunction",
    "apply_chain",
    "apply_dilation",
    "apply_phase",
    "apply_shift",
    "apply_spectral_d2",
    "displacement_factors",
    "min_time_substeps",
    "squeeze_factors",
    "time_displacement_factors",
]

OVERFLOW_FRAC = 1e-6
MAX_TIME_SUBSTEPS = 2**16
_MULTIPLIER_CACHE_SIZE = 8


class ShiftRangeError(ValueError):
    """Shift magnitude would wrap state content around the periodic boundary."""


class SupportOverflowWarning(UserWarning):
    """A dilation moved a non-negligible share of the state across the window edge."""


class ChainError(RuntimeError):
    """A factor inside a chain failed; the message carries the factor index."""


class ChainRefusedError(ChainError, ValueError):
    """A factor of a chain was refused before any factor ran: a ChainError that
    is also the ValueError of invalid input."""


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of [x_min, x_max) with n points, n a power of two."""

    x_min: float = -12.0
    x_max: float = 12.0
    n: int = 2048

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and self.x_min < self.x_max < math.inf):
            raise ValueError(f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not math.isfinite(max(self.x_min * self.x_min, self.x_max * self.x_max)):
            raise ValueError(f"x^2 overflows on the window [{self.x_min}, {self.x_max}]")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n!r}")

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.span / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers in numpy's FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def _require_finite(samples: np.ndarray) -> None:
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")


def _norm(samples: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) * dx))


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples of a state on a Grid.  Treated as an immutable value."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.n,):
            raise ValueError(f"samples must have shape ({self.grid.n},), got {arr.shape}")
        _require_finite(arr)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, grid: Grid, f: Callable[[np.ndarray], np.ndarray]) -> "WaveFunction":
        return cls(grid, np.asarray(f(grid.x), dtype=complex))

    def norm(self) -> float:
        """L2 norm by the rectangle rule (spectrally accurate for decaying states)."""
        return _norm(self.samples, self.grid.dx)

    def density(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.samples / nrm)

    def with_samples(self, samples: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, samples)


# --- elementary factors ------------------------------------------------------


@dataclass(frozen=True)
class Shift:
    """Resample to psi(x + c), c finite."""

    c: float

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.c):
            raise ValueError(f"shift must be finite, got {self.c!r}")


@dataclass(frozen=True)
class Dilation:
    """Resample to psi(scale * x); scale = e^tau must be finite and positive."""

    scale: float

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"dilation scale must be finite and > 0, got {self.scale!r}")


@dataclass(frozen=True)
class SpectralD2:
    """Apply exp[c d^2/dx^2], requiring a finite c with Re(c) >= 0."""

    c: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.c) and complex(self.c).real >= 0.0):
            raise ValueError(f"c must be finite with Re(c) >= 0, got c = {self.c!r}")


@dataclass(frozen=True)
class QuadraticPhase:
    """Multiply by s exp[i (a x^2 + p x)], a, p, s finite: a chirp, a phase ramp and a constant."""

    a: float
    p: float = 0.0
    s: complex = 1.0

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, (self.a, self.p, self.s))):
            raise ValueError(f"a, p and s must be finite, got {self!r}")


OperatorFactor = Union[Shift, Dilation, SpectralD2, QuadraticPhase]


# --- elementary actions ------------------------------------------------------


@lru_cache(maxsize=_MULTIPLIER_CACHE_SIZE)
def _multiplier(grid: Grid, factor: OperatorFactor) -> np.ndarray:
    """Read-only array that _multiply applies: on grid's wavenumbers for Shift and
    SpectralD2, on its positions for QuadraticPhase."""
    if isinstance(factor, Shift):
        out = np.exp(1j * grid.k * factor.c)
    elif isinstance(factor, SpectralD2):
        out = np.exp(-complex(factor.c) * grid.k**2)
    else:
        out = complex(factor.s) * np.exp(1j * (factor.a * grid.x**2 + factor.p * grid.x))
    out.flags.writeable = False
    return out


def _multiply(buf: np.ndarray, grid: Grid, factor: OperatorFactor) -> np.ndarray:
    if isinstance(factor, (Shift, SpectralD2)):
        np.fft.fft(buf, out=buf)
        buf *= _multiplier(grid, factor)
        return np.fft.ifft(buf, out=buf)
    buf *= _multiplier(grid, factor)
    return buf


def _dilate(buf: np.ndarray, grid: Grid, factor: Dilation) -> np.ndarray:
    # The interpolant is (1/n) sum_m F_m exp(i k_m (x - x_min)) over signed
    # m in [-n/2, n/2), F = fft(samples), with the Nyquist term split evenly
    # between k = -pi/dx and +pi/dx, i.e. F_{n/2} cos(pi (x - x_min)/dx) / n.
    # With the centred output index j' = j - n/2 and c = pi scale / n,
    # k_m (scale x_j - x_min) = m theta + 2 c m j', and
    # 2 m j' = m^2 + j'^2 - (j' - m)^2 turns the sum over m into the linear
    # convolution of F_m exp(i (c m^2 + m theta)) with the chirp exp(-i c q^2),
    # |q| < n, taken by FFTs of length 2n.  Centring keeps the chirp phases of
    # the significant terms at or below about pi scale n / 4.
    scale = factor.scale
    n = grid.n
    c = math.pi * scale / n
    theta = grid.k[1] * (scale * grid.x[n // 2] - grid.x_min)
    centred = np.arange(-(n // 2), n // 2)
    inside = (scale * grid.x >= grid.x[0]) & (scale * grid.x <= grid.x[-1])
    # exp(-i c q^2) is even in q: evaluate it for q = 0..n only
    half = np.exp(-1j * c * np.arange(n + 1) ** 2)
    chirp = half[np.abs(centred)].conj()

    spectrum = np.fft.fftshift(np.fft.fft(buf))
    nyquist = spectrum[0]
    spectrum[0] = 0.0
    chirped = np.fft.fft(spectrum * chirp * np.exp(1j * theta * centred), 2 * n)
    kernel = np.fft.fft(np.concatenate([half[:n], half[n:0:-1]]))
    values = chirp * np.fft.ifft(chirped * kernel)[:n]
    values += nyquist * np.cos(0.5 * n * theta + math.pi * scale * centred)
    out = np.where(inside, values / n, 0.0)

    expected = _norm(buf, grid.dx) ** 2 / scale
    if expected > 0.0:
        lost = expected - _norm(out, grid.dx) ** 2
        if lost > OVERFLOW_FRAC * expected:
            warnings.warn(
                SupportOverflowWarning(
                    f"dilation by {scale:.6g} lost a fraction {lost / expected:.3e} "
                    f"of the expected norm to points outside the grid"
                )
            )
    return out


def _kernel(grid: Grid, factor: OperatorFactor) -> Callable | None:
    """The kernel that applies factor on grid, or None where factor is the identity.

    Raises the refusals of the public apply_* functions: ShiftRangeError for a
    shift that would wrap, TypeError for an object that is not a factor.
    """
    if isinstance(factor, Shift) and abs(factor.c) >= 0.5 * grid.span:
        raise ShiftRangeError(
            f"|c| = {abs(factor.c):.6g} is not below half the grid span {0.5 * grid.span:.6g}"
        )
    match factor:
        case (Dilation(scale=1.0) | Shift(c=0.0) | SpectralD2(c=0.0)
              | QuadraticPhase(a=0.0, p=0.0, s=1.0)):
            return None
        case Dilation():
            return _dilate
        case Shift() | SpectralD2() | QuadraticPhase():
            return _multiply
    raise TypeError(f"not a pointwise factor: {factor!r}")


def _apply(psi: WaveFunction, factor: OperatorFactor) -> WaveFunction:
    kernel = _kernel(psi.grid, factor)
    if kernel is None:
        return psi
    return psi.with_samples(kernel(psi.samples.copy(), psi.grid, factor))


def apply_shift(psi: WaveFunction, c: float) -> WaveFunction:
    """Return samples of psi(x + c) via the spectral shift theorem.

    Exact for band-limited content, so off-grid shifts do not smear.  Shifts
    of half the grid span or more are refused: content would wrap around the
    periodic boundary.
    """
    return _apply(psi, Shift(c))


def apply_dilation(psi: WaveFunction, scale: float) -> WaveFunction:
    """Return samples of psi(scale * x) by band-limited spectral resampling.

    The grid's own trigonometric interpolant is evaluated at scale * x_j with
    one chirp-z (Bluestein) convolution.  Points mapped outside
    [x_0, x_{n-1}] read as zero, which is exact for states that decay inside
    the window, and no point is read across the periodic boundary.
    The continuum identity ||psi(scale x)||^2 = ||psi||^2 / scale is used for
    norm accounting: if more than OVERFLOW_FRAC of the expected output norm is
    missing, the dilated support crossed the window edge and a
    SupportOverflowWarning is issued.
    """
    return _apply(psi, Dilation(scale))


def apply_spectral_d2(psi: WaveFunction, c: complex) -> WaveFunction:
    """Apply exp[c d^2/dx^2] as the spectral multiplier exp(-c k^2).

    For real positive c this equals convolution with the heat kernel of
    variance 2c; for purely imaginary c it is unitary Fresnel propagation.
    Re(c) < 0 (backward diffusion) is refused as ill-posed.
    """
    return _apply(psi, SpectralD2(complex(c)))


def apply_phase(psi: WaveFunction, factor: QuadraticPhase) -> WaveFunction:
    """Pointwise multiplication by s exp[i (a x^2 + p x)]."""
    if not isinstance(factor, QuadraticPhase):
        raise TypeError(f"not a pointwise factor: {factor!r}")
    return _apply(psi, factor)


def apply_chain(psi: WaveFunction, factors: Sequence[OperatorFactor]) -> WaveFunction:
    """Apply factors in sequence; factors[0] acts first.

    A chain lists the factors of an operator product read right to left, so
    the product's rightmost factor sits at index 0.  The samples are copied
    once, at the first factor that is not the identity, and every factor then
    runs in place on that one buffer, so psi is never written and a chain of
    identities returns psi itself.  The buffer is checked to be finite after
    every factor.  Every factor's kernel is resolved before the first runs,
    so a refused factor raises ChainRefusedError and a failure while running
    raises ChainError, each with the offending index in the message.
    """
    grid = psi.grid
    kernels = []
    for index, factor in enumerate(factors):
        try:
            kernels.append(_kernel(grid, factor))
        except (ValueError, TypeError) as exc:
            raise ChainRefusedError(f"factor {index} ({type(factor).__name__}) refused: {exc}") from exc
    buf = None
    for index, (factor, kernel) in enumerate(zip(factors, kernels)):
        if kernel is None:
            continue
        try:
            buf = kernel(psi.samples.copy() if buf is None else buf, grid, factor)
            _require_finite(buf)
        except (ValueError, TypeError) as exc:
            raise ChainError(f"factor {index} ({type(factor).__name__}) failed: {exc}") from exc
    return psi if buf is None else psi.with_samples(buf)


# --- factor chains for the named operator families ----------------------------


def displacement_factors(x0: float, p0: float) -> list[OperatorFactor]:
    """Factor chain of the phase-space displacement by (x0, p0).

    Product form exp[-i x0 p0 / 2] exp[i p0 x] exp[-x0 d/dx]; the shift acts
    first and recenters the state at +x0, and one pointwise factor carries
    the ramp and the constant.  Zero factors are kept; a chain skips them.
    """
    return [Shift(-x0), QuadraticPhase(0.0, p0, cmath.exp(-0.5j * x0 * p0))]


def squeeze_factors(z: SqueezeParameter) -> list[OperatorFactor]:
    """Factor chain of the squeeze operator with argument z.

    Listed in application order for the product
    exp[delta] exp[i alpha x^2] exp[beta x d/dx] exp[i gamma d^2/dx^2], whose
    coefficients are real for every z; the chirp and the scalar are one
    pointwise factor.  Zero factors are kept; a chain skips them.
    """
    c = squeeze_factorization(z, 1.0)
    alpha, beta, gamma, delta = (v.real for v in (c.alpha, c.beta, c.gamma, c.delta))
    return [
        SpectralD2(1j * gamma), Dilation(math.exp(beta)), QuadraticPhase(alpha, 0.0, cmath.exp(delta))
    ]


def min_time_substeps(t: float) -> int:
    """Fewest equal substeps that keep each one of a time displacement t below pi/2."""
    return math.floor(abs(t) / (0.5 * math.pi)) + 1


def time_displacement_factors(t: float, substeps: int | None = None) -> list[OperatorFactor]:
    """Factor chain advancing oscillator time by t, split into equal substeps.

    Each substep tau uses the chirp-Fresnel-chirp identity
    exp(-iH tau) = exp[-i (tan(tau/2)/2) x^2] exp[i (sin(tau)/2) d^2/dx^2]
    exp[-i (tan(tau/2)/2) x^2], exact with unit scalar for |tau| < pi, and the
    chirps of neighbouring substeps are fused into one.  Substeps must stay
    strictly inside (-pi/2, pi/2), which bounds the chirp rate tan(|tau|/2)
    below 1.  Without a count, time_periods(t) = (m, rest) comes first, and
    the chain is that of rest in its fewest admissible substeps, at most 3,
    with (-1)^m in its first chirp's scalar.  An explicit count splits t
    itself; a smaller one than min_time_substeps(t) is refused with it as a
    hint, and one above MAX_TIME_SUBSTEPS before any factor list is built.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    sign = 1.0
    if substeps is None:
        periods, t = time_periods(t)
        sign, substeps = (-1.0) ** periods, min_time_substeps(t)
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps!r}")
    if substeps > MAX_TIME_SUBSTEPS:
        raise ValueError(f"substeps must be <= {MAX_TIME_SUBSTEPS}, got {substeps:.6g}")
    tau = t / substeps
    if abs(tau) >= 0.5 * math.pi:
        raise ValueError(f"substep {tau:.6g} reaches pi/2; use at least "
                         f"{min_time_substeps(t)} substeps for t = {t:.6g}, or none")
    half_chirp = -0.5 * math.tan(0.5 * tau)
    fresnel = SpectralD2(0.5j * math.sin(tau))
    factors: list[OperatorFactor] = [QuadraticPhase(half_chirp, 0.0, sign), fresnel]
    factors += [QuadraticPhase(2.0 * half_chirp), fresnel] * (substeps - 1)
    factors.append(QuadraticPhase(half_chirp))
    return factors

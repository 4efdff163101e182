"""Dense truncated number-basis matrices: an independent route to every operator.

Factored products are built from spectral decompositions of the truncated X
(real symmetric tridiagonal, the Gauss-Hermite DVR matrix) and of X D, cached
per dimension; D^2 reuses X's decomposition through D = -i F^dag X F with
F = diag(i^n).  Direct exponentials of anti-Hermitian ladder generators come
from a Hermitian eigendecomposition.  Neither route needs scipy; the tests
hold scipy's general expm as their independent reference.  Truncation noise
concentrates in the high-index rows, so comparisons restrict to low-index
blocks; see the README for a measured error-versus-dimension table.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import FactorizationCoefficients, GeneratorCoefficients, SqueezeParameter
from .grid import Grid, WaveFunction

__all__ = [
    "FockBasis",
    "displacement_generator",
    "factored_matrix",
    "fock_to_position",
    "generator_matrix",
    "hermite_functions",
    "ladder_matrices",
    "position_to_fock",
    "squeeze_generator",
    "unitary_exponential",
    "xp_matrices",
]

MIN_DIM = 8
MAX_HERMITE = 512
_ANTI_HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class FockBasis:
    """Truncated number basis keeping states 0 .. dim-1, up to the Hermite limit MAX_HERMITE."""

    dim: int = 128

    def __post_init__(self) -> None:
        if not MIN_DIM <= self.dim <= MAX_HERMITE:
            raise ValueError(f"Fock dimension must be >= {MIN_DIM} and <= {MAX_HERMITE}, "
                             f"got {self.dim!r}")


def ladder_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering matrix a with a[n-1, n] = sqrt(n), and its conjugate transpose."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim!r}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def xp_matrices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position X = (a + a^dag)/sqrt(2) and derivative D = (a - a^dag)/sqrt(2).

    X is Hermitian and D anti-Hermitian by construction; [X, D] = -1 holds on
    the top-left (dim-1) block, truncation breaking only the last diagonal
    entry.
    """
    a, adag = ladder_matrices(dim)
    inv_rt2 = 1.0 / math.sqrt(2.0)
    return inv_rt2 * (a + adag), inv_rt2 * (a - adag)


def generator_matrix(b: GeneratorCoefficients, dim: int, t: float = 0.0) -> np.ndarray:
    """b1 I + b2 X^2 + b3 X D + b4 D^2 on the truncated basis, with b evaluated at t."""
    b1, b2, b3, b4 = b.at(t)
    x, d = xp_matrices(dim)
    return (
        b1 * np.eye(dim, dtype=complex)
        + b2 * (x @ x)
        + b3 * (x @ d)
        + b4 * (d @ d)
    )


def _finite_or_raise(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise OverflowError("matrix exponential overflowed to non-finite entries")
    return m


def unitary_exponential(g: np.ndarray) -> np.ndarray:
    """exp(g) of an anti-Hermitian g, as W e^{-i w} W^dag from eigh(i g)."""
    g = np.asarray(g, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    residue = float(np.abs(g + g.conj().T).max())
    if residue > _ANTI_HERMITIAN_RTOL * max(1.0, float(np.abs(g).max())):
        raise ValueError(f"matrix is not anti-Hermitian: max |g + g^dag| = {residue:.3e}")
    w, vecs = np.linalg.eigh(1j * g)
    return _finite_or_raise((vecs * np.exp(-1j * w)) @ vecs.conj().T)


class _Spectra(NamedTuple):
    """Read-only decompositions of the truncated X and X D at one dimension.

    X = U diag(lam) U^T with U real orthogonal; X D = V diag(mu) V^-1, where
    the truncation corner makes X D non-normal; f is the diagonal of F.
    """

    lam: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    f: np.ndarray


@functools.lru_cache(maxsize=4)
def _spectra(dim: int) -> _Spectra:
    x, d = xp_matrices(dim)
    x, d = x.real, d.real
    lam, u = np.linalg.eigh(x)
    mu, v = np.linalg.eig(x @ d)
    f = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]
    out = _Spectra(lam, u, mu, v, np.linalg.inv(v), f)
    for a in out:
        a.setflags(write=False)
    return out


def factored_matrix(c: FactorizationCoefficients, dim: int) -> np.ndarray:
    """exp(delta) exp(i alpha X^2) exp(beta X D) exp(i gamma D^2) as one matrix.

    exp(i gamma D^2) = F^dag exp(-i gamma X^2) F, so X's decomposition serves
    both quadratic factors.  Raises OverflowError when the product is not
    finite, which is how the truncation wall shows at large |beta|.
    """
    if not all(cmath.isfinite(v) for v in c.as_tuple()):
        raise ValueError(f"coefficients must be finite, got {c.as_tuple()}")
    s = _spectra(dim)
    lam2 = s.lam * s.lam
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (s.u * np.exp(1j * c.alpha * lam2)) @ s.u.T
        mixed = (s.v * np.exp(c.beta * s.mu)) @ s.v_inv
        deriv = (s.u * np.exp(-1j * c.gamma * lam2)) @ s.u.T
        deriv = s.f.conj()[:, None] * deriv * s.f
        out = cmath.exp(c.delta) * (quad @ mixed @ deriv)
    return _finite_or_raise(out)


def squeeze_generator(z: SqueezeParameter, dim: int) -> np.ndarray:
    """(z a^dag a^dag - z* a a) / 2, the ladder form of the squeeze generator.

    a a holds sqrt(k) sqrt(k + 1) at (k - 1, k + 1) and a^dag a^dag its
    transpose.  Both bands are set directly, each entry the one product that
    the dense ladder product sums with zeros, so the matrix is that
    product's bit for bit.
    """
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim!r}")
    k = np.arange(1, dim - 1)
    band = np.sqrt(k) * np.sqrt(k + 1)
    aa, adag_adag = np.zeros((2, dim, dim), dtype=complex)
    aa[k - 1, k + 1] = band
    adag_adag[k + 1, k - 1] = band
    return 0.5 * (z.z * adag_adag - np.conj(z.z) * aa)


def displacement_generator(x0: float, p0: float, dim: int) -> np.ndarray:
    """alpha a^dag - alpha* a with alpha = (x0 + i p0) / sqrt(2)."""
    a, adag = ladder_matrices(dim)
    alpha = complex(x0, p0) / math.sqrt(2.0)
    return alpha * adag - np.conj(alpha) * a


def hermite_functions(count: int, x: np.ndarray) -> np.ndarray:
    """First `count` orthonormal oscillator eigenfunctions sampled on x.

    Normalized three-term recurrence with the Gaussian weight carried inside
    each function, which keeps values bounded for indices up to MAX_HERMITE.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if count > MAX_HERMITE:
        raise ValueError(f"recurrence is validated only up to {MAX_HERMITE} functions")
    x = np.asarray(x, dtype=float)
    h = np.empty((count, x.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, count):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1) / n) * h[n - 2]
    if not np.all(np.isfinite(h)):
        raise ValueError("Hermite recurrence produced non-finite samples")
    return h


def fock_to_position(coefficients: Sequence[complex], grid: Grid) -> WaveFunction:
    """Superpose number-basis coefficients into a sampled position wavefunction."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    basis = hermite_functions(coeffs.size, grid.x)
    return WaveFunction(grid, basis.T @ coeffs)


def position_to_fock(psi: WaveFunction, dim: int) -> np.ndarray:
    """Project a sampled state onto the first `dim` number-basis functions."""
    basis = hermite_functions(dim, psi.grid.x)
    return (basis @ psi.samples) * psi.grid.dx

"""Truncated number-basis operators: an independent route to every operator.

The oracle applies each operator to the vectors a comparison reads, a
`(dim,)` vector or a `(dim, k)` block of columns, and never builds a dense
matrix only to slice it.  X^2, X D and the squeeze generator couple level n
only to n and n +- 2, so each is decomposed as its even and odd parity
blocks, half the size, and every operator acts on one block of rows at a
time.  One cache keyed by the dimension holds, per parity block, the
decompositions of all three, which both the factored product and the
squeeze exponential read.  The factored product is applied from `eigh` of the
real blocks of X^2 and `eig` of the blocks of X D, which the truncation
corner makes non-normal; D^2 reuses X^2's decomposition through
D = -i F^dag X F with F = diag(i^n); exp(i pi k X D) is the parity (-1)^{n k},
so beta's turns of i pi past a caustic are a sign.  The squeeze exponential is
P exp(r K) P^dag, with P = diag(e^{i n phi/2}) and K the squeeze generator at
z = 1, so one decomposition of K per dimension serves every z.  Real
eigenvectors act as one real matrix product on the complex array's float
view.  Other anti-Hermitian exponentials come from an `eigh` of the matrix
itself.  No route needs scipy; the tests hold scipy's general expm as their
independent reference.  Truncation noise concentrates in the high-index rows,
so comparisons restrict to low-index blocks; see the README for a measured
error-versus-dimension table.
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
    "apply_factored",
    "apply_squeeze",
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


def generator_matrix(b: GeneratorCoefficients, dim: int) -> np.ndarray:
    """b1 I + b2 X^2 + b3 X D + b4 D^2 on the truncated basis."""
    b1, b2, b3, b4 = b.as_tuple()
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


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _columns(vectors: np.ndarray) -> np.ndarray:
    """`vectors` as a C-ordered complex (dim, k) array, a 1-D vector as one column."""
    y = np.asarray(vectors, dtype=complex)
    if y.ndim not in (1, 2):
        raise ValueError(f"need a (dim,) vector or a (dim, k) block, got shape {y.shape}")
    return np.ascontiguousarray(y.reshape(y.shape[0], -1))


def _real_matmul(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m @ y for a real matrix m and a C-ordered complex (dim, k) y, as one real product."""
    return (m @ y.view(float)).view(complex)


def _i_powers(count: int) -> np.ndarray:
    """i^n for n = 0 .. count-1, each entry exact."""
    return np.array([1, 1j, -1, -1j])[np.arange(count) % 4]


class _ParityBlock(NamedTuple):
    """The truncated X^2, X D and K = (a^dag a^dag - a a)/2 on the levels start, start + 2, ...

    X^2 = u diag(lam2) u^T with u real orthogonal; X D = v diag(mu) v_inv,
    which the truncation corner makes non-normal; f is F's diagonal there.
    K's block is real antisymmetric and tridiagonal, so S = diag(i^j), with
    s its diagonal, makes it S (-i w diag(sigma) w^T) S^dag, w real orthogonal.
    """

    lam2: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray
    f: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    s: np.ndarray


@functools.lru_cache(maxsize=4)
def _spectra(dim: int) -> tuple[_ParityBlock, _ParityBlock]:
    """Read-only decompositions of the even (first) and odd (second) parity blocks."""
    # K (real) first, so its temporaries are freed before those of X and D
    k = squeeze_generator(SqueezeParameter(1.0), dim).real.copy()
    x, d = xp_matrices(dim)
    x, d = x.real, d.real
    x2, xd, f = x @ x, x @ d, _i_powers(dim)
    blocks = []
    for start in (0, 1):
        b = slice(start, None, 2)
        lam2, u = np.linalg.eigh(x2[b, b])
        mu, v = np.linalg.eig(xd[b, b])
        s = _i_powers(len(lam2))
        sigma, w = np.linalg.eigh((1j * s.conj()[:, None] * k[b, b] * s).real)
        blocks.append(_ParityBlock(lam2, u, mu, v, np.linalg.inv(v), f[b], sigma, w, s))
        _read_only(*blocks[-1])
    return blocks[0], blocks[1]


def apply_factored(c: FactorizationCoefficients, vectors: np.ndarray) -> np.ndarray:
    """exp(delta) exp(i alpha X^2) exp(beta X D) exp(i gamma D^2) applied to `vectors`.

    `vectors` is a (dim,) vector or a (dim, k) block of columns on the
    dim-level basis; the result has its shape.  Every factor keeps parity,
    so each parity block of rows goes through all three on its own.  The
    D^2 factor acts first, as F^dag exp(-i gamma X^2) F, so one
    decomposition of X^2 serves both quadratic factors.  As exp(i pi k X D)
    is the parity (-1)^{n k}, an odd k = round(Im beta / pi) negates the odd
    block and X D's spectrum takes only beta - i pi k, so Q < 0 does not
    overflow.  Raises OverflowError when the result is not finite, which is
    how the truncation wall shows at large |beta|.
    """
    if not all(cmath.isfinite(v) for v in c.as_tuple()):
        raise ValueError(f"coefficients must be finite, got {c.as_tuple()}")
    turns = round(c.beta.imag / math.pi)
    beta = c.beta - 1j * math.pi * turns
    y = _columns(vectors)
    out = np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, b in enumerate(_spectra(y.shape[0])):
            f, lam2 = b.f[:, None], b.lam2[:, None]
            part = _real_matmul(b.u.T, f * y[start::2])
            part = f.conj() * _real_matmul(b.u, np.exp(-1j * c.gamma * lam2) * part)
            part = b.v @ (np.exp(beta * b.mu)[:, None] * (b.v_inv @ part))
            part = -part if start and turns % 2 else part
            part = _real_matmul(b.u.T, part)
            out[start::2] = _real_matmul(b.u, np.exp(1j * c.alpha * lam2) * part)
        out *= cmath.exp(c.delta)
    return _finite_or_raise(out.reshape(np.shape(vectors)))


def factored_matrix(c: FactorizationCoefficients, dim: int) -> np.ndarray:
    """exp(delta) exp(i alpha X^2) exp(beta X D) exp(i gamma D^2) as one dim x dim matrix."""
    return apply_factored(c, np.eye(dim))


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


def apply_squeeze(z: SqueezeParameter, vectors: np.ndarray) -> np.ndarray:
    """exp((z a^dag a^dag - z* a a)/2) applied to a (dim,) vector or (dim, k) block.

    The operator is P exp(r K) P^dag with P = diag(e^{i n phi/2}), since
    P a^dag P^dag = e^{i phi/2} a^dag.  phi is read as the angle of z in
    (-pi, pi]: another branch changes P by diag((-1)^n), which commutes with K.
    """
    y = _columns(vectors)
    p = np.exp(0.5j * cmath.phase(z.z) * np.arange(y.shape[0]))[:, None]
    out = np.empty_like(y)
    for start, b in enumerate(_spectra(y.shape[0])):
        q = p[start::2] * b.s[:, None]
        part = _real_matmul(b.w.T, q.conj() * y[start::2])
        out[start::2] = q * _real_matmul(b.w, np.exp(-1j * z.r * b.sigma)[:, None] * part)
    return _finite_or_raise(out.reshape(np.shape(vectors)))


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


@functools.lru_cache(maxsize=4)
def _hermite_basis(count: int, grid: Grid) -> np.ndarray:
    """Read-only hermite_functions(count, grid.x), shared by both basis changes."""
    basis = hermite_functions(count, grid.x)
    _read_only(basis)
    return basis


def fock_to_position(coefficients: Sequence[complex], grid: Grid) -> WaveFunction:
    """Superpose number-basis coefficients into a sampled position wavefunction."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    return WaveFunction(grid, _hermite_basis(coeffs.size, grid).T @ coeffs)


def position_to_fock(psi: WaveFunction, dim: int) -> np.ndarray:
    """Project a sampled state onto the first `dim` number-basis functions."""
    return (_hermite_basis(dim, psi.grid) @ psi.samples) * psi.grid.dx

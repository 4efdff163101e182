"""Truncated number-basis operators: an independent route to every operator.

The oracle applies each operator to the vectors a comparison reads, a
`(dim,)` vector or a `(dim, k)` block of columns, and never builds a dense
matrix only to slice it.  X^2, X D and the squeeze generator couple level n
only to n and n +- 2, so each is decomposed as its even and odd parity
blocks, half the size, and every operator acts on one block of rows at a
time.  Each parity block of all three is tridiagonal, and `_parity_bands`
gives its diagonals and its one band, so no dense ladder, X, D or generator
matrix is built.  One cache keyed by the dimension holds, per parity block,
the decompositions of all three, which the factored product, the squeeze
and the displacement read.  The factored product is applied from `eigh` of the
real blocks of X^2 and `eig` of the blocks of X D, which the truncation
corner makes non-normal; D^2 reuses X^2's decomposition through
D = -i F^dag X F with F = diag(i^n); exp(i pi k X D) is the parity (-1)^{n k},
so beta's turns of i pi past a caustic are a sign.  The squeeze exponential is
P exp(r K) P^dag, with P = diag(e^{i n phi/2}) and K the squeeze generator at
z = 1, so one decomposition of K per dimension serves every z.  The
displacement is P F^dag exp(i s X) F P^dag, with P = diag(e^{i n theta}),
and X commutes with X^2, so exp(i s X) is cos(s|X|) + i X sin(s|X|)/|X|
from X^2's decomposition and X's two bands.  Real eigenvectors, and the
Hermite basis that carries states between the number basis and the grid,
made and read HERMITE_BLOCK rows at a time, act as real matrix products on
the complex array's float view, with no complex copy.  No route needs scipy;
the tests hold scipy's general expm as their independent reference.
Truncation noise concentrates in the high-index rows, so comparisons
restrict to low-index blocks; see the README for a measured
error-versus-dimension table.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import FactorizationCoefficients, SqueezeParameter
from .grid import Grid, WaveFunction

__all__ = [
    "FockBasis",
    "apply_displacement",
    "apply_factored",
    "apply_squeeze",
    "factored_matrix",
    "fock_to_position",
    "position_to_fock",
]

MIN_DIM = 8
MAX_HERMITE = 512
HERMITE_BLOCK = 32  # rows of the Hermite basis held at once by the basis changes


@dataclass(frozen=True)
class FockBasis:
    """Truncated number basis keeping states 0 .. dim-1, up to the Hermite limit MAX_HERMITE."""

    dim: int = 128

    def __post_init__(self) -> None:
        if not MIN_DIM <= self.dim <= MAX_HERMITE:
            raise ValueError(f"Fock dimension must be >= {MIN_DIM} and <= {MAX_HERMITE}, "
                             f"got {self.dim!r}")


def _finite_or_raise(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise OverflowError("applying the operator overflowed to non-finite entries")
    return m


def _columns(vectors: np.ndarray) -> np.ndarray:
    """`vectors` as a C-ordered complex (dim, k) array, a 1-D vector as one column."""
    y = np.asarray(vectors, dtype=complex)
    if y.ndim not in (1, 2):
        raise ValueError(f"need a (dim,) vector or a (dim, k) block, got shape {y.shape}")
    return np.ascontiguousarray(y.reshape(y.shape[0], -1))


def _real_matmul(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m @ y for a real matrix m and a complex (dim, k) y whose last axis is
    contiguous (a C-ordered block, or any column), as one real product."""
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


def _parity_bands(dim: int, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x2, xd, band): the diagonals of X^2 and X D on the levels n = start, start + 2, ...
    below dim, and the one band beside them, between n and n + 2.

    X^2 is n + 1/2 on its diagonal and X D is -1/2, except that both read
    (dim - 1)/2 in level dim - 1, whose a^dag the truncation drops.  X^2 has
    the band sqrt(n + 1) sqrt(n + 2)/2 on both sides; X D has it above and its
    negative below; i S^dag K S has it beside a zero diagonal.
    """
    n = np.arange(start, dim, 2)
    up = np.where(n + 1 < dim, (n + 1) / 2, 0.0)
    band = 0.5 * (np.sqrt(n[:-1] + 1) * np.sqrt(n[:-1] + 2))
    return n / 2 + up, n / 2 - up, band


@functools.lru_cache(maxsize=4)
def _spectra(dim: int) -> tuple[_ParityBlock, _ParityBlock]:
    """Read-only decompositions of the even (first) and odd (second) parity blocks."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim!r}")
    f = _i_powers(dim)
    blocks = []
    for start in (0, 1):
        b = slice(start, None, 2)
        x2, xd, band = _parity_bands(dim, start)
        lam2, u = np.linalg.eigh(np.diag(x2) + np.diag(band, 1) + np.diag(band, -1))
        mu, v = np.linalg.eig(np.diag(xd) + np.diag(band, 1) - np.diag(band, -1))
        s = _i_powers(len(lam2))
        sigma, w = np.linalg.eigh(np.diag(band, 1) + np.diag(band, -1))
        blocks.append(_ParityBlock(lam2, u, mu, v, np.linalg.inv(v), f[b], sigma, w, s))
        for array in blocks[-1]:
            array.setflags(write=False)
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


def apply_displacement(x0: float, p0: float, vectors: np.ndarray) -> np.ndarray:
    """exp(alpha a^dag - alpha* a), alpha = (x0 + i p0)/sqrt(2), applied to a (dim,)
    vector or (dim, k) block.

    With theta the angle of alpha and s = sqrt(2)|alpha|, the operator is
    P F^dag exp(i s X) F P^dag, P = diag(e^{i n theta}), since
    a^dag - a = i sqrt(2) F^dag X F.  X commutes with X^2, so
    exp(i s X) = cos(s|X|) + i X sin(s|X|)/|X|, both functions of X^2 taken
    from its parity-block decomposition, and X itself acts from its two bands.
    sin(s|X|)/|X| is written s sinc(s|X|/pi), whose limit at the zero
    eigenvalue X has at odd dims is s.
    """
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise ValueError(f"displacement must be finite, got ({x0!r}, {p0!r})")
    s, theta = math.hypot(x0, p0), math.atan2(p0, x0)
    y = _columns(vectors)
    dim = y.shape[0]
    q = (np.exp(1j * theta * np.arange(dim)) * _i_powers(dim).conj())[:, None]
    y = q.conj() * y
    out, sine = np.empty_like(y), np.empty_like(y)
    for start, b in enumerate(_spectra(dim)):
        # X^2 is positive semidefinite; rounding can leave its zero eigenvalue below 0
        r = np.sqrt(np.maximum(b.lam2, 0.0))[:, None]
        part = _real_matmul(b.u.T, y[start::2])
        out[start::2] = _real_matmul(b.u, np.cos(s * r) * part)
        sine[start::2] = _real_matmul(b.u, s * np.sinc(s * r / math.pi) * part)
    band = np.sqrt(np.arange(1, dim) / 2.0)[:, None]
    out[1:] += 1j * band * sine[:-1]
    out[:-1] += 1j * band * sine[1:]
    return _finite_or_raise((q * out).reshape(np.shape(vectors)))


def _hermite_blocks(count: int, x: np.ndarray):
    """Yield (start, rows): rows start, start + 1, ... of the first `count`
    oscillator eigenfunctions on x, HERMITE_BLOCK rows at a time, each checked finite.

    The normalized three-term recurrence carries the Gaussian weight inside
    each function, so values stay bounded up to MAX_HERMITE.  Every block is
    one buffer, refilled in place: row n reads rows n - 1 and n - 2, which its
    last two rows hold when the next block starts, and row 1 reads row 0 and
    zeros.  A caller is done with a block when it asks for the next.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    if count > MAX_HERMITE:
        raise ValueError(f"recurrence is validated only up to {MAX_HERMITE} functions")
    x = np.asarray(x, dtype=float)
    h = np.zeros((min(count, HERMITE_BLOCK), x.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    for n in range(count):
        i = n % HERMITE_BLOCK
        if n:
            h[i] = math.sqrt(2.0 / n) * x * h[i - 1] - math.sqrt((n - 1) / n) * h[i - 2]
        if i == len(h) - 1 or n == count - 1:
            if not np.all(np.isfinite(h[:i + 1])):
                raise ValueError("Hermite recurrence produced non-finite samples")
            yield n - i, h[:i + 1]


def fock_to_position(coefficients: Sequence[complex], grid: Grid) -> WaveFunction:
    """Superpose number-basis coefficients into a sampled position wavefunction."""
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty vector")
    samples = np.zeros(grid.n, dtype=complex)
    for start, rows in _hermite_blocks(coeffs.size, grid.x):
        samples += _real_matmul(rows.T, coeffs[start:start + len(rows), None])[:, 0]
    return WaveFunction(grid, samples)


def position_to_fock(psi: WaveFunction, dim: int) -> np.ndarray:
    """Project a sampled state onto the first `dim` number-basis functions."""
    coeffs = np.empty(dim, dtype=complex)
    for start, rows in _hermite_blocks(dim, psi.grid.x):
        coeffs[start:start + len(rows)] = _real_matmul(rows, psi.samples[:, None])[:, 0]
    return coeffs * psi.grid.dx

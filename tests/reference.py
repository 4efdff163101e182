"""Independent references that only the tests use: scipy's general matrix
exponential, a reader for the files `opfactor evolve` writes, the scalar
RK4 step loop that the vectorized integrator must follow to 1e-12 of
max(1, |value|) at every step and in the step where it fails, the
exponent that exp(t b) gives a Gaussian, the dense ladder, X and D matrices
and the generator built from them, the ladder forms of the displacement and
squeeze generators, the Hermite recurrence filled as one whole matrix, and
the tracemalloc measurers of a call's peak and of what it leaves held.

The package itself needs numpy only; scipy is a test dependency
(`pip install -e .[test]`).
"""
import cmath
import csv
import json
import math
import tracemalloc

import numpy as np

from opfactor.algebra import BLOWUP_BOUND, BlowUpError, FactorizationCoefficients

EXPM_NORM_BOUND = 1e6


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential via scaling and squaring with Pade approximants."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    norm1 = float(np.linalg.norm(m, 1))
    if norm1 > EXPM_NORM_BOUND:
        raise OverflowError(f"matrix 1-norm {norm1:.3e} exceeds {EXPM_NORM_BOUND:.0e}")
    from scipy.linalg import expm  # only the tests that compare against expm pay the import

    return expm(m)


def traced_peak(fn) -> int:
    """tracemalloc's peak, in bytes, while fn() runs; tracing stops even if fn raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_held(fn):
    """(bytes still allocated after fn() returns minus before it ran, fn's result),
    by tracemalloc; tracing stops even if fn raises."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        tracemalloc.stop()


def read_wavefunction(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (x, psi) back from a wavefunction file written by `evolve`."""
    with open(path) as handle:
        head = handle.read(1)
        handle.seek(0)
        if head == "{":
            payload = json.load(handle)
            rows = np.asarray(payload["rows"], dtype=float)
        else:
            reader = csv.reader(handle)
            next(reader)  # header
            rows = np.asarray([[float(v) for v in row] for row in reader])
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def _terms(b1, b2, b3, b4):
    return (b1, b3, -1j * b2, 2.0 * b3, 4j * b4, -1j * b4, 2j * b4)


def _rhs(alpha, beta, terms):
    b1, b3, c0, c1, c2, cg, cd = terms
    dalpha = c0 + c1 * alpha + c2 * alpha * alpha
    dbeta = b3 + c2 * alpha
    dgamma = cg * cmath.exp(2.0 * beta)
    ddelta = b1 + cd * alpha
    return dalpha, dbeta, dgamma, ddelta


def rk4_samples(b, t_end, steps):
    """The RK4 path from all-zero data at t = 0, one scalar step at a time:
    a tuple of FactorizationCoefficients at t = 0 and after each step.

    Raises BlowUpError where a stage's exp(2 beta) overflows or is not
    finite, or a coefficient magnitude exceeds BLOWUP_BOUND or turns
    non-finite.
    """
    samples = [FactorizationCoefficients.zero()]
    if t_end == 0.0:
        return tuple(samples)
    h = t_end / steps
    half, sixth = 0.5 * h, h / 6.0
    terms = _terms(*b.as_tuple())
    alpha = beta = gamma = delta = 0j
    for step in range(steps):
        t0 = step * h
        try:
            ka = _rhs(alpha, beta, terms)
            kb = _rhs(alpha + half * ka[0], beta + half * ka[1], terms)
            kc = _rhs(alpha + half * kb[0], beta + half * kb[1], terms)
            kd = _rhs(alpha + h * kc[0], beta + h * kc[1], terms)
        except (OverflowError, ValueError) as exc:  # ValueError: an infinite imaginary part
            raise BlowUpError(f"an RK4 stage overflowed in the step from t = {t0:.6g}; "
                              f"the path likely crosses a caustic") from exc
        alpha += sixth * (ka[0] + 2.0 * kb[0] + 2.0 * kc[0] + kd[0])
        beta += sixth * (ka[1] + 2.0 * kb[1] + 2.0 * kc[1] + kd[1])
        gamma += sixth * (ka[2] + 2.0 * kb[2] + 2.0 * kc[2] + kd[2])
        delta += sixth * (ka[3] + 2.0 * kb[3] + 2.0 * kc[3] + kd[3])

        worst = max(abs(alpha), abs(beta), abs(gamma), abs(delta))
        if not math.isfinite(worst) or worst > BLOWUP_BOUND:
            raise BlowUpError(
                f"coefficient magnitude {worst:.3e} exceeded {BLOWUP_BOUND:.1e} "
                f"at t = {t0 + h:.6g}; the path likely crosses a caustic"
            )
        samples.append(FactorizationCoefficients(delta, alpha, beta, gamma))
    return tuple(samples)


def gaussian_exponent(b, t_end, steps=4000):
    """(c, n) with exp(t_end b) exp(-x^2/2) = exp(n - c x^2), by RK4 from (1/2, 0).

    b1 + b2 x^2 + b3 x d/dx + b4 d^2/dx^2 keeps the Gaussian form, with
    c' = -b2 + 2 b3 c - 4 b4 c^2 and n' = b1 - 2 b4 c.  For a unitary
    generator Re c stays positive, so n is regular through the caustics,
    where the product coefficients diverge, and fixes the operator's sign.
    """
    b1, b2, b3, b4 = b.as_tuple()
    h = t_end / steps

    def rhs(c):
        return -b2 + 2.0 * b3 * c - 4.0 * b4 * c * c, b1 - 2.0 * b4 * c

    c, n = 0.5 + 0j, 0j
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1[0])
        k3 = rhs(c + 0.5 * h * k2[0])
        k4 = rhs(c + h * k3[0])
        c += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        n += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return c, n


def ladder_matrices(dim):
    """Lowering matrix a with a[n-1, n] = sqrt(n), and its conjugate transpose."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim!r}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def xp_matrices(dim):
    """Position X = (a + a^dag)/sqrt(2) and derivative D = (a - a^dag)/sqrt(2).

    X is Hermitian and D anti-Hermitian by construction; [X, D] = -1 holds on
    the top-left (dim-1) block, truncation breaking only the last diagonal
    entry.
    """
    a, adag = ladder_matrices(dim)
    inv_rt2 = 1.0 / math.sqrt(2.0)
    return inv_rt2 * (a + adag), inv_rt2 * (a - adag)


def generator_matrix(b, dim):
    """b1 I + b2 X^2 + b3 X D + b4 D^2 on the truncated basis, as one dense matrix."""
    b1, b2, b3, b4 = b.as_tuple()
    x, d = xp_matrices(dim)
    return (
        b1 * np.eye(dim, dtype=complex)
        + b2 * (x @ x)
        + b3 * (x @ d)
        + b4 * (d @ d)
    )


def displacement_generator(x0, p0, dim):
    """alpha a^dag - alpha* a with alpha = (x0 + i p0) / sqrt(2)."""
    a, adag = ladder_matrices(dim)
    alpha = complex(x0, p0) / math.sqrt(2.0)
    return alpha * adag - np.conj(alpha) * a


def squeeze_generator_ladder(z, dim):
    """(z a^dag a^dag - z* a a) / 2 from dense products of the ladder matrices."""
    a, adag = ladder_matrices(dim)
    return 0.5 * (z.z * (adag @ adag) - np.conj(z.z) * (a @ a))


def hermite_recurrence(count, x):
    """The first `count` oscillator eigenfunctions on x, by the normalized
    three-term recurrence filled into one (count, x.size) matrix."""
    x = np.asarray(x, dtype=float)
    h = np.empty((count, x.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, count):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1) / n) * h[n - 2]
    return h

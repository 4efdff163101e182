"""Independent references that only the tests use: scipy's general matrix
exponential, a reader for the files `opfactor evolve` writes, the scalar
RK4 step loop that the vectorized integrator must equal bit for bit, and
the ladder-product form of the squeeze generator.

The package itself needs numpy only; scipy is a test dependency
(`pip install -e .[test]`).
"""
import cmath
import csv
import json
import math

import numpy as np

from opfactor.algebra import BLOWUP_BOUND, BlowUpError, FactorizationCoefficients
from opfactor.fock import ladder_matrices

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
    FactorizationCoefficients at t = 0 and after each step.

    Raises BlowUpError where a stage's exp(2 beta) overflows or is not
    finite, or a coefficient magnitude exceeds BLOWUP_BOUND or turns
    non-finite.
    """
    samples = [FactorizationCoefficients.zero(0.0)]
    if t_end == 0.0:
        return samples
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
        samples.append(FactorizationCoefficients(delta, alpha, beta, gamma, (step + 1) * h))
    return samples


def squeeze_generator_ladder(z, dim):
    """(z a^dag a^dag - z* a a) / 2 from dense products of the ladder matrices."""
    a, adag = ladder_matrices(dim)
    return 0.5 * (z.z * (adag @ adag) - np.conj(z.z) * (a @ a))

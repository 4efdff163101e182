"""Closed-form reference states used as ground truth by the other modules.

Covers the ground state, coherent states and their time evolution, the
general squeezed state, and the symmetric/antisymmetric superpositions of two
displaced squeezed Gaussians together with their densities.

Normalization caveat: the two-Gaussian family below is written with constants
whose norm is not conserved in t (see rho_spm); comparisons should use states
renormalized by quadrature.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import SqueezeParameter, squeeze_scale

__all__ = [
    "EvenOddSpec",
    "SqueezedStateSpec",
    "box_mode_phase",
    "coherent_evolved",
    "coherent_state",
    "psi0",
    "psi_spm",
    "psi_ss",
    "rho_spm",
    "rho_spm_integral",
]

_ROOT4_PI_INV = math.pi**-0.25
# |cos t| below which psi_spm's antisymmetric normalization takes its caustic limit
CAUSTIC_NORM_EPS = 1e-8


def psi0(x):
    """Oscillator ground state pi^{-1/4} exp(-x^2/2)."""
    x = np.asarray(x, dtype=float)
    return (_ROOT4_PI_INV * np.exp(-0.5 * x * x)).astype(complex)


def coherent_state(x, x0: float = 0.0, p0: float = 0.0):
    """Displaced ground state, including its -x0 p0 / 2 phase-space phase."""
    x = np.asarray(x, dtype=float)
    return _ROOT4_PI_INV * np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x - 0.5j * x0 * p0)


@dataclass(frozen=True)
class SqueezedStateSpec:
    """Displacement (x0, p0) and squeeze argument of a general squeezed state."""

    x0: float = 0.0
    p0: float = 0.0
    z: SqueezeParameter = SqueezeParameter(0.0)


def psi_ss(x, spec: SqueezedStateSpec):
    """General squeezed state: displacement applied after the squeeze.

    With S = squeeze_scale(z) and chirp kappa = (sin(phi)/2) sinh(r) / S:

        pi^{-1/4} [S (1 + 2i kappa)]^{-1/2}
            exp[-(x - x0)^2 (1 / (2 S^2 (1 + 2i kappa)) - i kappa)
                + i p0 x - i x0 p0 / 2]

    For real positive z (phi = 0) this collapses to a width-e^r Gaussian
    centered at x0 carrying momentum p0.
    """
    x = np.asarray(x, dtype=float)
    z = spec.z
    scale = squeeze_scale(z, 1.0)
    kappa = 0.5 * math.sin(z.phi) * math.sinh(z.r) / scale
    chirp = 1.0 + 2j * kappa
    prefactor = _ROOT4_PI_INV / cmath.sqrt(scale * chirp)
    exponent = (
        -((x - spec.x0) ** 2) * (1.0 / (2.0 * scale * scale * chirp) - 1j * kappa)
        + 1j * spec.p0 * x
        - 0.5j * spec.x0 * spec.p0
    )
    return prefactor * np.exp(exponent)


def coherent_evolved(x, t: float, x0: float = 0.0, p0: float = 0.0):
    """Coherent state after oscillator evolution by time t.

    The center rotates to x0 cos t + p0 sin t; the state stays a unit-width
    Gaussian with momentum p0 cos t - x0 sin t, a global phase e^{-it/2}, and
    a phase-space area term.  Entire in t, so caustics need no special care.
    """
    x = np.asarray(x, dtype=float)
    xc = x0 * math.cos(t) + p0 * math.sin(t)
    pc = p0 * math.cos(t) - x0 * math.sin(t)
    phase = cmath.exp(-0.5j * t) * cmath.exp(-0.5j * xc * pc)
    return _ROOT4_PI_INV * phase * np.exp(-0.5 * (x - xc) ** 2 + 1j * pc * x)


@dataclass(frozen=True)
class EvenOddSpec:
    """Two displaced width-s Gaussians at +-x0, combined with the given sign."""

    x0: float
    s: float
    sign: int = +1

    def __post_init__(self) -> None:
        if not math.isfinite(self.x0 * self.x0):
            raise ValueError(f"centre x0 must have a finite square, got {self.x0!r}")
        # psi_spm divides by s**4 at t = 0
        if not (self.s > 0.0 and 0.0 < (self.s * self.s) * (self.s * self.s) < math.inf):
            raise ValueError(f"width scale s must be > 0 with finite nonzero s**4, got {self.s!r}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    def width_sq(self, t: float) -> float:
        """Evolved width parameter d^2 = s^2 cos^2 t + sin^2 t / s^2."""
        s2 = self.s * self.s
        return s2 * math.cos(t) ** 2 + math.sin(t) ** 2 / s2


def psi_spm(x, t: float, spec: EvenOddSpec):
    """Evolved symmetric (sign=+1) / antisymmetric (sign=-1) Gaussian pair.

    The exponents are evaluated in a combined form in which the individually
    divergent tan(t) phases cancel algebraically, so the expression stays
    finite at odd multiples of pi/2 (where d^2 = 1/s^2).  The antisymmetric
    normalization constant 1 - exp(-x0^2 cos^2 t) has a vanishing limit
    there; where |cos t| < CAUSTIC_NORM_EPS the norm-preserving value
    1 - exp(-x0^2 / s^2) is substituted.  Away from caustics the constants
    are kept as written even though they do not conserve the norm in t;
    renormalize before pointwise comparisons.
    """
    x = np.asarray(x, dtype=float)
    s2 = spec.s * spec.s
    c, sn = math.cos(t), math.sin(t)
    sd2 = s2 * s2 * c * c + sn * sn  # equals s^2 d^2, never zero
    quad = -0.5 * (s2 - 1j * (1.0 - s2 * s2) * sn * c) / sd2
    lin = spec.x0 * (s2 * c - 1j * sn) / sd2
    const = -0.5 * spec.x0**2 * c * (s2 * c - 1j * sn) / sd2
    body = np.exp(quad * x * x + lin * x + const) + spec.sign * np.exp(
        quad * x * x - lin * x + const
    )

    if spec.sign == +1:
        denom = 1.0 + math.exp(-spec.x0**2 * c * c)
    elif abs(c) >= CAUSTIC_NORM_EPS:
        denom = -math.expm1(-spec.x0**2 * c * c)
    else:
        denom = -math.expm1(-spec.x0**2 / s2)
    if denom == 0.0:
        raise ValueError("antisymmetric state vanishes identically for x0 = 0")

    prefactor = cmath.sqrt(
        spec.s * (s2 * c - 1j * sn) / (2.0 * math.sqrt(math.pi) * denom * sd2)
    )
    return prefactor * body


def _pair_factor(spec: EvenOddSpec, d: float) -> float:
    """1 +- d E with E = e^{-x0^2/s^2}: rho_spm's constant over sqrt(pi) d.

    rho_spm and rho_spm_integral share it, so the integral is inf at exactly
    the t where rho_spm's constant is zero."""
    return 1.0 + spec.sign * d * math.exp(-spec.x0**2 / (spec.s * spec.s))


def rho_spm(x, t: float, spec: EvenOddSpec):
    """Closed-form density of the evolved pair, with d^2 = s^2 cos^2 t + sin^2 t / s^2.

    Proportional to |psi_spm|^2 at every (x, t), but its overall constant
    integrates to rho_spm_integral(t, spec) instead of 1.  Where that
    integral is not finite the constant is zero and every sample is inf or
    NaN.

    e^{-(x^2 + a^2)/d^2} (cosh z +- cos w), with a = x0 cos t, is evaluated as
    pair (1 +- cos w / cosh z), where pair is the mean of the two Gaussians
    e^{-(x -+ a)^2/d^2}.  No factor overflows where the other underflows, and
    since |cos w| <= 1 <= cosh z every sample is >= 0.
    """
    x = np.asarray(x, dtype=float)
    s2 = spec.s * spec.s
    c, sn = math.cos(t), math.sin(t)
    d2 = spec.width_sq(t)
    d = math.sqrt(d2)
    a = spec.x0 * c
    pair = 0.5 * (np.exp(-((x - a) ** 2) / d2) + np.exp(-((x + a) ** 2) / d2))
    with np.errstate(over="ignore"):  # cosh z = inf reads cos w / cosh z as 0
        ratio = np.cos(2.0 * x * spec.x0 * sn / (d2 * s2)) / np.cosh(2.0 * x * a / d2)
    return pair * (1.0 + spec.sign * ratio) / (math.sqrt(math.pi) * d * _pair_factor(spec, d))


def rho_spm_integral(t: float, spec: EvenOddSpec) -> float:
    """Integral of rho_spm over the line: (1 +- E) / (1 +- d E), or inf where
    rho_spm's constant vanishes.

    Dropping the factor d in the denominator would give 1 for all t.  For
    sign -1 with max(s, 1/s) E > 1 the denominator changes sign inside a
    period, so the integral can be negative.  See the README normalization
    notes.
    """
    denominator = _pair_factor(spec, math.sqrt(spec.width_sq(t)))
    return _pair_factor(spec, 1.0) / denominator if denominator else math.inf


def box_mode_phase(n: int, t: float = 1.0) -> complex:
    """Phase exp[-i pi^2 n^2 t / 2] acquired by sin(pi n x) under exp[i t d^2/dx^2 / 2]."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"mode number must be a positive integer, got {n!r}")
    return cmath.exp(-0.5j * (math.pi * n) ** 2 * t)

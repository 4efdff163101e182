"""Coefficients for ordered-exponential factorizations over span{1, x^2, x d/dx, d^2/dx^2}.

An operator exp[t (b1 + b2 x^2 + b3 x d/dx + b4 d^2/dx^2)] is rewritten as the
ordered product

    exp[delta] exp[i alpha x^2] exp[beta x d/dx] exp[i gamma d^2/dx^2],

where (alpha, beta, gamma, delta) are functions of t fixed by a coupled ODE
system with all four vanishing at t = 0.  Closed forms are provided for the
squeeze family and for harmonic-oscillator time displacement; a fixed-step
RK4 integrator handles arbitrary, possibly time-dependent, generator
coefficients and doubles as an independent oracle for the closed forms.
`integrate_wei_norman` returns every step as a CoefficientTrajectory, and
`wei_norman_final`, which every command uses, keeps only the last; the
trajectory and `wei_norman_rhs` stay as library surface and as the tests'
bit-for-bit reference.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Union

__all__ = [
    "BlowUpError",
    "CausticError",
    "CoefficientTrajectory",
    "FactorizationCoefficients",
    "GeneratorCoefficients",
    "SqueezeParameter",
    "integrate_wei_norman",
    "squeeze_factorization",
    "squeeze_scale",
    "time_displacement_factorization",
    "wei_norman_final",
    "wei_norman_rhs",
]

CAUSTIC_EPS = 1e-9
BLOWUP_BOUND = 1e12
ODE_STEPS = 1000

CoefficientLike = Union[complex, float, Callable[[float], complex]]


class CausticError(ValueError):
    """A factor parameter diverges, i.e. cos(t) vanishes for the time family."""


class BlowUpError(RuntimeError):
    """The ODE state left its trust region, typically by stepping across a caustic."""


@dataclass(frozen=True)
class SqueezeParameter:
    """Polar squeeze argument z = r e^{i phi} with r >= 0."""

    r: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {self.r!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"squeeze phase must be finite, got {self.phi!r}")

    @property
    def z1(self) -> float:
        return self.r * math.cos(self.phi)

    @property
    def z2(self) -> float:
        return self.r * math.sin(self.phi)

    @property
    def z(self) -> complex:
        return complex(self.z1, self.z2)


@dataclass(frozen=True)
class GeneratorCoefficients:
    """Weights (b1, b2, b3, b4) of 1, x^2, x d/dx, d^2/dx^2.

    Each entry is a complex constant or a callable of t for time-dependent
    generators.
    """

    b1: CoefficientLike = 0.0
    b2: CoefficientLike = 0.0
    b3: CoefficientLike = 0.0
    b4: CoefficientLike = 0.0

    def at(self, t: float) -> tuple[complex, complex, complex, complex]:
        """Evaluate all four coefficients at time t."""
        return (
            complex(self.b1(t)) if callable(self.b1) else complex(self.b1),
            complex(self.b2(t)) if callable(self.b2) else complex(self.b2),
            complex(self.b3(t)) if callable(self.b3) else complex(self.b3),
            complex(self.b4(t)) if callable(self.b4) else complex(self.b4),
        )

    @classmethod
    def squeeze(cls, z: SqueezeParameter) -> "GeneratorCoefficients":
        """Generator of exp[-z1 (x d/dx + 1/2) + i z2 (x^2 + d^2/dx^2)/2]."""
        return cls(-0.5 * z.z1, 0.5j * z.z2, -z.z1, 0.5j * z.z2)

    @classmethod
    def oscillator(cls) -> "GeneratorCoefficients":
        """Generator whose exponential at parameter t is unit-frequency oscillator evolution."""
        return cls(0.0, -0.5j, 0.0, 0.5j)


@dataclass(frozen=True)
class FactorizationCoefficients:
    """Product coefficients (delta, alpha, beta, gamma) at evolution parameter t."""

    delta: complex
    alpha: complex
    beta: complex
    gamma: complex
    t: float = 0.0

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.delta, self.alpha, self.beta, self.gamma)

    def unitarity_residue(self) -> float:
        """|exp(2 delta - beta) - 1|, zero for a norm-preserving product."""
        return abs(cmath.exp(2.0 * self.delta - self.beta) - 1.0)

    @classmethod
    def zero(cls, t: float = 0.0) -> "FactorizationCoefficients":
        return cls(0j, 0j, 0j, 0j, t)


def squeeze_scale(z: SqueezeParameter, t: float = 1.0) -> float:
    """Scale function cosh(r t) + cos(phi) sinh(r t) of the squeeze family.

    cos(phi) carries the analytic value of z1/r, which keeps the r = 0 limit
    exact: the function is identically 1 there, as at t = 0.  At t = 1 this
    equals e^r cos^2(phi/2) + e^{-r} sin^2(phi/2), so it is positive for every
    r and phi.  No two terms cancel in exp(-r t) + 2 cos^2(phi/2) sinh(r t), used
    where cos(phi) < 0, nor in exp(r t) - 2 sin^2(phi/2) sinh(r t), used where r t < 0.

    Raises ValueError, a refusal of the input rather than a singularity, once
    a term or the scale itself overflows, near |r t| = 709.8.
    """
    rt = z.r * t
    try:
        if math.cos(z.phi) < 0.0:
            scale = math.exp(-rt) + 2.0 * math.cos(0.5 * z.phi) ** 2 * math.sinh(rt)
        elif rt < 0.0:
            scale = math.exp(rt) - 2.0 * math.sin(0.5 * z.phi) ** 2 * math.sinh(rt)
        else:
            scale = math.cosh(rt) + math.cos(z.phi) * math.sinh(rt)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"squeeze scale overflows at r*t = {rt!r}; need |r*t| below about 709")
    return scale


def squeeze_factorization(z: SqueezeParameter, t: float = 1.0) -> FactorizationCoefficients:
    """Closed-form product coefficients for the squeeze family.

    With S(t) the squeeze scale:

        alpha = gamma = (sin(phi)/2) sinh(r t) / S(t)
        beta  = -ln S(t)
        delta = beta / 2

    All four vanish at t = 0, and exp(2 delta - beta) = 1 identically.
    """
    scale = squeeze_scale(z, t)
    alpha = 0.5 * math.sin(z.phi) * math.sinh(z.r * t) / scale
    beta = -math.log(scale)
    return FactorizationCoefficients(
        delta=complex(0.5 * beta),
        alpha=complex(alpha),
        beta=complex(beta),
        gamma=complex(alpha),
        t=t,
    )


def time_displacement_factorization(t: float) -> FactorizationCoefficients:
    """Closed-form product coefficients for oscillator time displacement.

        alpha = -tan(t)/2,  beta = -ln(cos t),  gamma = tan(t)/2,  delta = beta/2

    Raises CausticError where |cos t| < CAUSTIC_EPS, next to odd multiples of
    pi/2, where the individual factors diverge even though the total operator
    is regular.  For cos(t) < 0 the logarithm takes its principal branch; grid
    propagation should instead compose substeps shorter than pi/2.
    """
    c = math.cos(t)
    if abs(c) < CAUSTIC_EPS:
        raise CausticError(
            f"time displacement factors are singular at t={t!r}: "
            f"|cos t| = {abs(c):.3e} < {CAUSTIC_EPS:.1e}"
        )
    half_tan = 0.5 * math.tan(t)
    beta = -cmath.log(complex(c))
    return FactorizationCoefficients(
        delta=0.5 * beta,
        alpha=complex(-half_tan),
        beta=beta,
        gamma=complex(half_tan),
        t=t,
    )


def _terms(b1: complex, b2: complex, b3: complex, b4: complex) -> tuple[complex, ...]:
    """The generator products that _rhs reads, formed once per evaluation time."""
    return (b1, b3, -1j * b2, 2.0 * b3, 4j * b4, -1j * b4, 2j * b4)


def _rhs(
    alpha: complex, beta: complex, terms: tuple[complex, ...]
) -> tuple[complex, complex, complex, complex]:
    """wei_norman_rhs from the products of _terms, grouped as in its formulas."""
    b1, b3, c0, c1, c2, cg, cd = terms
    dalpha = c0 + c1 * alpha + c2 * alpha * alpha
    dbeta = b3 + c2 * alpha
    dgamma = cg * cmath.exp(2.0 * beta)
    ddelta = b1 + cd * alpha
    return dalpha, dbeta, dgamma, ddelta


def wei_norman_rhs(
    coefficients: FactorizationCoefficients,
    b: GeneratorCoefficients,
    t: float | None = None,
) -> tuple[complex, complex, complex, complex]:
    """Time derivatives (alpha', beta', gamma', delta') of the product coefficients.

    The matching conditions between the generator and the ordered product are
    solved algebraically for the derivatives; the exp(2 beta) factor cancels
    everywhere except in gamma':

        alpha' = -i b2 + 2 b3 alpha + 4i b4 alpha^2
        beta'  = b3 + 4i b4 alpha
        gamma' = -i b4 exp(2 beta)
        delta' = b1 + 2i b4 alpha

    b is evaluated at t, defaulting to the t carried by `coefficients`.
    """
    terms = _terms(*b.at(coefficients.t if t is None else t))
    return _rhs(coefficients.alpha, coefficients.beta, terms)


@dataclass(frozen=True)
class CoefficientTrajectory:
    """Integrator samples of the product coefficients, monotonic in t.

    The first sample always carries all-zero coefficients at t = 0.
    """

    samples: tuple[FactorizationCoefficients, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a trajectory needs at least one sample")
        ts = [s.t for s in self.samples]
        if len(ts) > 1:
            direction = 1.0 if ts[-1] > ts[0] else -1.0
            if any(direction * (b - a) <= 0.0 for a, b in zip(ts, ts[1:])):
                raise ValueError("sample times must be strictly monotonic")
        first = self.samples[0]
        if first.t != 0.0 or any(v != 0 for v in first.as_tuple()):
            raise ValueError("trajectory must start from vanishing coefficients at t = 0")

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.samples]

    @property
    def final(self) -> FactorizationCoefficients:
        return self.samples[-1]


def _check_span(t_end: float, steps: int) -> None:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")


def _rk4_states(
    b: GeneratorCoefficients, t_end: float, steps: int
) -> Iterator[tuple[complex, complex, complex, complex, float]]:
    """Yield (delta, alpha, beta, gamma, t) after each step, from all-zero data at t = 0.

    Classical fixed-step fourth-order Runge-Kutta, fully deterministic for
    fixed arguments.  Yields nothing for t_end = 0.  Raises BlowUpError once
    any coefficient magnitude exceeds BLOWUP_BOUND or turns non-finite, or a
    stage overflows, the signature of integrating across a caustic.
    """
    if t_end == 0.0:
        return
    h = t_end / steps
    half, sixth = 0.5 * h, h / 6.0
    if any(callable(v) for v in (b.b1, b.b2, b.b3, b.b4)):
        def terms(t: float) -> tuple[complex, ...]:
            return _terms(*b.at(t))
    else:  # a constant generator is evaluated once, not three times per step
        fixed = _terms(*b.at(0.0))

        def terms(t: float) -> tuple[complex, ...]:
            return fixed
    alpha = beta = gamma = delta = 0j
    for step in range(steps):
        t0 = step * h
        tv0 = terms(t0)
        tvh = terms(t0 + half)
        tv1 = terms(t0 + h)
        try:
            ka = _rhs(alpha, beta, tv0)
            kb = _rhs(alpha + half * ka[0], beta + half * ka[1], tvh)
            kc = _rhs(alpha + half * kb[0], beta + half * kb[1], tvh)
            kd = _rhs(alpha + h * kc[0], beta + h * kc[1], tv1)
        except OverflowError as exc:  # exp(2 beta) of a stage, before the test below
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
        yield delta, alpha, beta, gamma, (step + 1) * h


def integrate_wei_norman(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> CoefficientTrajectory:
    """Integrate the coefficient ODEs from all-zero initial data to t_end, keeping every step.

    See _rk4_states for the scheme and its BlowUpError.  Callers that read
    only the end point should use wei_norman_final, which returns the same
    final coefficients without building the samples.
    """
    _check_span(t_end, steps)
    samples = [FactorizationCoefficients.zero(0.0)]
    samples += (FactorizationCoefficients(*state) for state in _rk4_states(b, t_end, steps))
    return CoefficientTrajectory(tuple(samples))


def wei_norman_final(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> FactorizationCoefficients:
    """integrate_wei_norman(b, t_end, steps).final, bit for bit, without the samples."""
    _check_span(t_end, steps)
    state = (0j, 0j, 0j, 0j, 0.0)
    for state in _rk4_states(b, t_end, steps):
        pass
    return FactorizationCoefficients(*state)

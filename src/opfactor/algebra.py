"""Coefficients for ordered-exponential factorizations over span{1, x^2, x d/dx, d^2/dx^2}.

An operator exp[t (b1 + b2 x^2 + b3 x d/dx + b4 d^2/dx^2)] is rewritten as the
ordered product

    exp[delta] exp[i alpha x^2] exp[beta x d/dx] exp[i gamma d^2/dx^2],

where (alpha, beta, gamma, delta) are functions of t fixed by a coupled ODE
system with all four vanishing at t = 0.  Closed forms are provided for the
squeeze family and for harmonic-oscillator time displacement; a fixed-step
RK4 integrator handles any generator whose four coefficients are finite
complex constants and doubles as an independent oracle for the closed forms.

The system is triangular (Wei & Norman, J. Math. Phys. 4, 575 (1963)): alpha
alone obeys a closed Riccati equation, alpha' = c0 + c1 alpha + c2 alpha^2,
and beta, gamma and delta are quadratures of the stage values of alpha and
beta.  So a scalar loop steps alpha alone and hands numpy the stage values
it computes, and numpy forms beta, gamma and delta from them, in a scalar RK4
loop's operation order, with one exact-product helper and step-by-step sums,
which gives that loop's results bit for bit.  It runs in blocks of RK4_BLOCK
steps, so its memory stays bounded for any step count.
`integrate_wei_norman` returns every step as a CoefficientTrajectory, and
`wei_norman_final`, which every command uses, keeps only the last; both
read the same blocks.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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
    "time_periods",
    "wei_norman_final",
    "wei_norman_rhs",
]

CAUSTIC_EPS = 1e-9
BLOWUP_BOUND = 1e12
ODE_STEPS = 1000
RK4_BLOCK = 1024  # steps per pass of the integrator; its arrays hold one pass
_EXP_EXACT_BELOW = 708.0  # see _stage_exp
_BOUND_SCREEN = BLOWUP_BOUND / 2.0  # |z| <= sqrt(2) max(|Re z|, |Im z|)
_TAU_LOW = 2.4492935982947064e-16  # 2 pi - math.tau
MAX_PERIODS = 2**50


class CausticError(ArithmeticError):
    """A factor parameter diverges (cos t vanishes for the time family): a
    singularity of valid input, not a refusal of it, so not a ValueError."""


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
    """Weights (b1, b2, b3, b4) of 1, x^2, x d/dx, d^2/dx^2, stored as complex constants.

    ValueError refuses an entry that is not a finite number.
    """

    b1: complex = 0j
    b2: complex = 0j
    b3: complex = 0j
    b4: complex = 0j

    def __post_init__(self) -> None:
        for name in ("b1", "b2", "b3", "b4"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Number) and cmath.isfinite(value)):
                raise ValueError(f"coefficient {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, complex(value))

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.b1, self.b2, self.b3, self.b4)

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


def time_periods(t: float) -> tuple[int, float]:
    """Whole periods m in t and the rest t - 2 pi m: T(t) = (-1)^m T(rest).

    A period is exp(-2 pi i H) = -1, as the spectrum is n + 1/2 (the
    metaplectic sign; Moshinsky & Quesne, J. Math. Phys. 12, 1971).  The
    remainder by the double math.tau is exact, and m _TAU_LOW takes off what
    it drops, so the rest is exact to half an ulp and 6e-17, and is t itself
    for |t| <= pi.  ValueError for a t not finite or of MAX_PERIODS periods or more.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    near = math.remainder(t, math.tau)
    m = round((t - near) / math.tau)
    if abs(m) >= MAX_PERIODS:
        raise ValueError(f"t = {t:.6g} spans 2^50 oscillator periods or more")
    return m, near - m * _TAU_LOW


def time_displacement_factorization(t: float) -> FactorizationCoefficients:
    """Closed-form product coefficients for oscillator time displacement.

        alpha = -tan(t)/2,  beta = -ln(cos t),  gamma = tan(t)/2,
        delta = beta/2 + i pi k,  k = floor((t + pi/2) / 2 pi)

    Raises CausticError where |cos t| < CAUSTIC_EPS, next to odd multiples of
    pi/2, where the individual factors diverge even though the total operator
    is regular.  The logarithm's principal branch is right for t in
    [-pi/2, 3pi/2); an odd k carries the sign of time_periods.
    """
    m, rest = time_periods(t)
    c = math.cos(t)
    if abs(c) < CAUSTIC_EPS:
        raise CausticError(
            f"time displacement factors are singular at t={t!r}: "
            f"|cos t| = {abs(c):.3e} < {CAUSTIC_EPS:.1e}"
        )
    half_tan = 0.5 * math.tan(t)
    beta = -cmath.log(complex(c))
    # k is m, or m - 1 where the rest is below -pi/2
    odd = (m - (rest < -0.5 * math.pi)) % 2
    return FactorizationCoefficients(
        delta=0.5 * beta + 1j * math.pi if odd else 0.5 * beta,
        alpha=complex(-half_tan),
        beta=beta,
        gamma=complex(half_tan),
        t=t,
    )


def _terms(b1: complex, b2: complex, b3: complex, b4: complex) -> tuple[complex, ...]:
    """The generator products (b1, b3, c0, c1, c2, cg, cd) that the right-hand side reads."""
    return (b1, b3, -1j * b2, 2.0 * b3, 4j * b4, -1j * b4, 2j * b4)


def wei_norman_rhs(
    coefficients: FactorizationCoefficients, b: GeneratorCoefficients
) -> tuple[complex, complex, complex, complex]:
    """Time derivatives (alpha', beta', gamma', delta') of the product coefficients.

    The matching conditions between the generator and the ordered product are
    solved algebraically for the derivatives; the exp(2 beta) factor cancels
    everywhere except in gamma':

        alpha' = -i b2 + 2 b3 alpha + 4i b4 alpha^2
        beta'  = b3 + 4i b4 alpha
        gamma' = -i b4 exp(2 beta)
        delta' = b1 + 2i b4 alpha
    """
    b1, b3, c0, c1, c2, cg, cd = _terms(*b.as_tuple())
    alpha, beta = coefficients.alpha, coefficients.beta
    return (c0 + c1 * alpha + c2 * alpha * alpha, b3 + c2 * alpha,
            cg * cmath.exp(2.0 * beta), b1 + cd * alpha)


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


def _mul(x: complex | np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y formed as Python forms a complex product; x may be a Python number.

    That product is (xr yr - xi yi, xr yi + xi yr), and a real x counts as
    (x, 0).  numpy's own complex multiply may fuse a multiply and an add,
    which moves the last bit; here every product and sum is its own ufunc
    call, so every stage equals the scalar loop's bit for bit.
    """
    out = np.empty(np.broadcast_shapes(np.shape(x), y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _rk4_increment(k: np.ndarray, sixth: float) -> np.ndarray:
    """sixth * (k1 + 2 k2 + 2 k3 + k4) for each step, k[step, stage]."""
    return _mul(sixth, k[:, 0] + _mul(2.0, k[:, 1]) + _mul(2.0, k[:, 2]) + k[:, 3])


def _stage_exp(z: np.ndarray) -> tuple[np.ndarray, int | None, Exception | None]:
    """cmath.exp of every entry of z, bit for bit, then the first flat index
    at which cmath.exp raises and its exception, or None and None.

    numpy's complex exp is the C library's cexp, which equals cmath.exp for
    finite input up to a real part of log(DBL_MAX / 4) ~ 708.4.  Above that
    cmath switches to exp(x - 1) e and raises OverflowError, so cmath itself
    evaluates those entries and the non-finite ones.
    """
    e = np.exp(z)
    for i in np.flatnonzero(~(z.real <= _EXP_EXACT_BELOW) | ~np.isfinite(z)):
        try:
            e.flat[i] = cmath.exp(z.flat[i])
        except (OverflowError, ValueError) as exc:
            return e, int(i), exc
    return e, None, None


def _riccati_steps(
    c0: complex, c1: complex, c2: complex, alpha: complex, steps: int, h: float
) -> tuple[np.ndarray, complex]:
    """Step alpha' = c0 + c1 alpha + c2 alpha^2 alone through `steps` steps of size h.

    Returns alpha at the four stages of each step, indexed [step, stage],
    and alpha after the last step.
    """
    half, sixth = 0.5 * h, h / 6.0
    stages = []
    for _ in range(steps):
        ka = c0 + c1 * alpha + c2 * alpha * alpha
        sb = alpha + half * ka
        kb = c0 + c1 * sb + c2 * sb * sb
        sc = alpha + half * kb
        kc = c0 + c1 * sc + c2 * sc * sc
        sd = alpha + h * kc
        kd = c0 + c1 * sd + c2 * sd * sd
        stages += (alpha, sb, sc, sd)
        alpha += sixth * (ka + 2.0 * kb + 2.0 * kc + kd)
    return np.fromiter(stages, complex, 4 * steps).reshape(steps, 4), alpha


def _quadratures(
    stages: np.ndarray, terms: tuple[complex, ...], beta: complex, gamma: complex,
    delta: complex, h: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None, Exception | None]:
    """beta, gamma and delta through one block, from its stage alphas.

    stages and h are those of _riccati_steps, terms the generator's seven
    _terms.  Returns delta, beta and gamma after each step, and the step
    whose stage exp(2 beta) raised, with the exception, from _stage_exp.
    Each value is formed in the scalar loop's operation order and summed
    step by step, so every value is what that loop would give.
    """
    b1, b3, _, _, c2, cg, cd = terms
    sixth = h / 6.0
    kbeta = b3 + _mul(c2, stages)
    betas = np.add.accumulate(np.concatenate(([beta], _rk4_increment(kbeta, sixth))))
    deltas = np.add.accumulate(
        np.concatenate(([delta], _rk4_increment(b1 + _mul(cd, stages), sixth))))
    stage_betas = np.empty_like(stages)
    stage_betas[:, 0] = betas[:-1]
    # stage j + 1 starts from stage j's slope
    stage_betas[:, 1:] = betas[:-1, None] + _mul(np.array([0.5 * h, 0.5 * h, h]), kbeta[:, :3])
    # (step, stage) order, so the first failing entry is the scalar loop's first
    e, failed, exc = _stage_exp(_mul(2.0, stage_betas))
    gammas = np.add.accumulate(
        np.concatenate(([gamma], _rk4_increment(_mul(cg, e), sixth))))
    failed = None if failed is None else failed // 4
    return deltas[1:], betas[1:], gammas[1:], failed, exc


def _check_bound(
    delta: complex, alpha: complex, beta: complex, gamma: complex, t: float
) -> None:
    """The scalar loop's bound test on the state after the step that ends at t."""
    worst = max(abs(alpha), abs(beta), abs(gamma), abs(delta))
    if not math.isfinite(worst) or worst > BLOWUP_BOUND:
        raise BlowUpError(
            f"coefficient magnitude {worst:.3e} exceeded {BLOWUP_BOUND:.1e} "
            f"at t = {t:.6g}; the path likely crosses a caustic"
        )


def _rk4_blocks(
    b: GeneratorCoefficients, t_end: float, steps: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (delta, alpha, beta, gamma, t) arrays after each step, RK4_BLOCK steps at a time.

    Classical fixed-step fourth-order Runge-Kutta from all-zero data at
    t = 0, fully deterministic for fixed arguments: _riccati_steps steps
    alpha alone, and _quadratures forms beta, gamma and delta from its stage
    values.  Yields nothing for t_end = 0.  Raises BlowUpError once
    any coefficient magnitude exceeds BLOWUP_BOUND or turns non-finite, or a
    stage's exp(2 beta) overflows or is not finite, the signature of
    integrating across a caustic, at the first step where either happens,
    with the scalar loop's message.
    """
    if t_end == 0.0:
        return
    h = t_end / steps
    terms = _terms(*b.as_tuple())
    alpha = beta = gamma = delta = 0j
    for start in range(0, steps, RK4_BLOCK):
        stop = min(start + RK4_BLOCK, steps)
        stages, alpha = _riccati_steps(*terms[2:5], alpha, stop - start, h)
        # steps past a blow-up may overflow; the checks below report the first failing step
        with np.errstate(all="ignore"):
            deltas, betas, gammas, failed, exc = _quadratures(
                stages, terms, beta, gamma, delta, h)
            after = [deltas, np.append(stages[1:, 0], alpha), betas, gammas]
            worst = np.abs(np.stack(after).view(float)).max(axis=0).reshape(-1, 2).max(axis=1)
        failed = stop - start if failed is None else failed
        # a step with a part past the screen gets the scalar check, which alone decides
        for i in np.flatnonzero(~(worst <= _BOUND_SCREEN)):
            if i >= failed:
                break
            _check_bound(*(v[i].item() for v in after), (start + int(i)) * h + h)
        if exc is not None:
            raise BlowUpError(
                f"an RK4 stage overflowed in the step from t = {(start + failed) * h:.6g}; "
                f"the path likely crosses a caustic") from exc
        yield (*after, np.arange(start + 1, stop + 1) * h)
        delta, beta, gamma = deltas[-1].item(), betas[-1].item(), gammas[-1].item()


def integrate_wei_norman(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> CoefficientTrajectory:
    """Integrate the coefficient ODEs from all-zero initial data to t_end, keeping every step.

    See _rk4_blocks for the scheme and its BlowUpError.  Callers that read
    only the end point should use wei_norman_final, which returns the same
    final coefficients without building the samples.
    """
    _check_span(t_end, steps)
    samples = [FactorizationCoefficients.zero(0.0)]
    for block in _rk4_blocks(b, t_end, steps):
        samples += map(FactorizationCoefficients, *(v.tolist() for v in block))
    return CoefficientTrajectory(tuple(samples))


def wei_norman_final(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> FactorizationCoefficients:
    """integrate_wei_norman(b, t_end, steps).final, bit for bit, without the samples."""
    _check_span(t_end, steps)
    final = FactorizationCoefficients.zero(0.0)
    for block in _rk4_blocks(b, t_end, steps):
        final = FactorizationCoefficients(*(v[-1].item() for v in block))
    return final

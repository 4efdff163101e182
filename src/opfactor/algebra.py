"""Coefficients for ordered-exponential factorizations over span{1, x^2, x d/dx, d^2/dx^2}.

An operator exp[t (b1 + b2 x^2 + b3 x d/dx + b4 d^2/dx^2)] is rewritten as the
ordered product

    exp[delta] exp[i alpha x^2] exp[beta x d/dx] exp[i gamma d^2/dx^2],

where (alpha, beta, gamma, delta) are functions of t fixed by a coupled ODE
system with all four vanishing at t = 0, which also fixes delta's branch.
`generator_factorization` is its one closed form for any constant generator,
with the presets `squeeze_factorization` and `time_displacement_factorization`;
a fixed-step RK4 integrator of the same system is its independent oracle.

The system is triangular (Wei & Norman, J. Math. Phys. 4, 575 (1963)): alpha
alone obeys a closed Riccati equation, alpha' = c0 + c1 alpha + c2 alpha^2,
and beta, gamma and delta are quadratures of the stage values of alpha and
beta.  So a scalar loop steps alpha alone and hands numpy the stage values
it computes, and numpy forms beta, gamma and delta from them as plain
quadratures: the RK4 weights applied by one matrix product and a running
sum over the steps.  The result agrees with a scalar RK4 loop of all four
equations to 1e-12 of max(1, |value|) at every step, and fails at the same
step, but not to the last bit: numpy may fuse a multiply and an add.  It
runs in blocks of RK4_BLOCK steps, so its memory stays bounded for any
step count.
`wei_norman_final`, which every command uses, returns the coefficients
after the last step, and `integrate_wei_norman` those at t = 0 and after
every step; both read the same blocks.
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
    "FactorizationCoefficients",
    "GeneratorCoefficients",
    "SqueezeParameter",
    "generator_factorization",
    "integrate_wei_norman",
    "squeeze_factorization",
    "time_displacement_factorization",
    "time_periods",
    "wei_norman_final",
    "wei_norman_rhs",
]

CAUSTIC_EPS = 1e-9
BLOWUP_BOUND = 1e12
ODE_STEPS = 1000
RK4_BLOCK = 1024  # steps per pass of the integrator; its arrays hold one pass
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
    """Product coefficients (delta, alpha, beta, gamma)."""

    delta: complex
    alpha: complex
    beta: complex
    gamma: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.delta, self.alpha, self.beta, self.gamma)

    def unitarity_residue(self) -> float:
        """|exp(2 delta - beta) - 1|, zero for a norm-preserving product."""
        return abs(cmath.exp(2.0 * self.delta - self.beta) - 1.0)

    @classmethod
    def zero(cls) -> "FactorizationCoefficients":
        return cls(0j, 0j, 0j, 0j)


def generator_factorization(b: GeneratorCoefficients, t: float = 1.0) -> FactorizationCoefficients:
    """Closed-form product coefficients of exp[t (b1 + b2 x^2 + b3 x d/dx + b4 d^2/dx^2)].

    With alpha = -u'/(4i b4 u), the Riccati equation of alpha is the 2x2
    constant system u'' = 2 b3 u' - 4 b2 b4 u, u(0) = 1, u'(0) = 0, solved by
    u = e^{b3 t} Q, where w^2 = b3^2 - 4 b2 b4, s = sinh(w t)/w (s = t at
    w = 0) and Q = cosh(w t) - b3 s.  Then, b4 = 0 included,

        alpha = -i b2 s / Q,   gamma = -i b4 s / Q,
        beta  = -log Q,        delta = (b1 - b3/2) t - (log Q)/2.

    Q is formed as e^{w t} + 4 b2 b4 s / (w - b3), with the root w for which
    |w - b3| >= |w + b3|, so -(w + b3) is never a difference of near-equal
    numbers.  Where |Q - 1| < 1/2 the log is log(1 + u), with
    u = Q - 1 = 2 sinh^2(w t/2) - b3 s free of the cancellation in Q - 1,
    so beta and delta keep their relative accuracy as Q nears 1; that holds
    while both terms of u stay within 1, and past that, or near a zero of
    Q, log Q itself is the accurate form.  beta keeps that principal log;
    delta continues log Q along [0, t] from 0, as the ODEs do (_odd_turn).

    CausticError where the two terms of Q cancel to within CAUSTIC_EPS of the
    larger, at a zero of Q, where the factors diverge though the operator is
    regular; a small Q alone is no caustic.  ValueError, a refusal, where t
    is not finite, a term or a coefficient overflows (|Re(w t)| near 709.8),
    or |Im(w t)| spans MAX_PERIODS periods, where a float t fixes no turn.
    """
    b1, b2, b3, b4 = b.as_tuple()
    four_b2b4 = 4.0 * b2 * b4
    w = cmath.sqrt(b3 * b3 - four_b2b4)
    if abs(w - b3) < abs(w + b3):
        w = -w
    wt = w * t
    refusal = f"the closed form is not finite at w*t = {wt!r}; need finite t, |Re(w*t)| below 709"
    try:
        ewt = cmath.exp(wt)
        s = cmath.sinh(wt) / w if w else complex(t)
    except OverflowError:
        raise ValueError(refusal) from None
    tail = four_b2b4 * s / (w - b3) if w != b3 else 0j
    q = ewt + tail
    if abs(q) < CAUSTIC_EPS * max(abs(ewt), abs(tail)):
        raise CausticError(f"the factors are singular at t={t!r}: "
                           f"|Q| = {abs(q):.3e} is below {CAUSTIC_EPS:.1e} of its terms")
    half = cmath.sinh(0.5 * wt)
    h, b3s = 2.0 * half * half, b3 * s
    if abs(q - 1.0) < 0.5 and max(abs(h), abs(b3s)) <= 1.0:
        u = h - b3s  # Q - 1
        log_q = complex(0.5 * math.log1p(u.real * (2.0 + u.real) + u.imag * u.imag),
                        math.atan2(u.imag, 1.0 + u.real))
    else:
        log_q = cmath.log(q)
    c = FactorizationCoefficients(delta=(b1 - 0.5 * b3) * t - 0.5 * log_q, alpha=-1j * b2 * s / q,
                                  beta=-log_q, gamma=-1j * b4 * s / q)
    if not all(cmath.isfinite(v) for v in c.as_tuple()):
        raise ValueError(refusal)
    if abs(wt.imag) >= MAX_PERIODS * math.tau:
        raise ValueError(f"t = {t:.6g} spans 2^50 periods of exp(i Im(w) t) or more")
    if _odd_turn(b3, b4, w, wt, q, t):
        return FactorizationCoefficients(c.delta + 1j * math.pi, *c.as_tuple()[1:])
    return c


def _odd_turn(b3: complex, b4: complex, w: complex, wt: complex, q: complex, t: float) -> bool:
    """Whether log Q, continued along [0, t] from 0, is Log Q plus an odd multiple of 2 pi i.

    Q = e^{w t} (1 + z)/(1 + z0), z = z0 e^{-2 w t}, |z0| <= 1 (Wei & Norman 1963).
    While |z| <= 1, arg Q continues as Im(w t) + Arg(Q e^{-i Im(w t)}); once |z|
    passes 1, at tau, as Arg z0 - Im(w t) + Arg(Q e^{i Im(w t)}/z0) less the turns
    of arg z behind tau: rounds of phases that cmath reduces exactly.  A real Q has
    its zeros on the path (a unitary generator's caustics), and each steps arg Q by
    pi sgn(t Im b4), the sign in which gamma = -i b4 s/Q diverges: the metaplectic
    sign (Moshinsky & Quesne, J. Math. Phys. 12, 1971).  A real w leaves one zero at
    most; an imaginary w keeps |z| = 1, inside where Im(w) Im(b4) >= 0.
    """
    if not (b3.imag or w.imag):
        return q.real < 0 and math.copysign(1.0, q.imag) != math.copysign(1.0, t * b4.imag)
    grow, turn = math.exp(wt.real), cmath.rect(1.0, wt.imag)
    rest, lead = abs(w + b3) / grow, abs(w - b3) * grow  # |z| = rest / lead
    if rest < lead or (rest == lead and w.imag * b4.imag >= 0):
        return round((wt.imag + cmath.phase(q / turn) - cmath.phase(q)) / math.tau) % 2 == 1
    z0 = (w + b3) / (w - b3)
    tau = math.log(abs(z0)) / (2.0 * w.real) if w.real else 0.0
    behind = cmath.phase(z0) - 2.0 * w.imag * tau - cmath.phase(z0 * cmath.exp(-2.0 * w * tau))
    gap = cmath.phase(z0) - wt.imag + cmath.phase(q * turn / z0) - cmath.phase(q)
    return (round(gap / math.tau) - round(behind / math.tau)) % 2 == 1


def squeeze_factorization(z: SqueezeParameter, t: float = 1.0) -> FactorizationCoefficients:
    """generator_factorization of the squeeze generator.

    Here Q = e^{-beta} = cosh(r t) + cos(phi) sinh(r t) > 0 for every r, phi
    and t, so all four coefficients are real, alpha = gamma and
    delta = beta/2, and exp(2 delta - beta) = 1 identically.
    """
    return generator_factorization(GeneratorCoefficients.squeeze(z), t)


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
    """generator_factorization of the oscillator, Q = cos t: alpha = -tan(t)/2,
    beta = -Log(cos t), gamma = tan(t)/2 and delta = beta/2, plus i pi on odd
    turns of log Q, so T(2 pi) = -1.  CausticError where |cos t| < CAUSTIC_EPS.
    """
    return generator_factorization(GeneratorCoefficients.oscillator(), t)


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


def _check_span(t_end: float, steps: int) -> None:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")


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


def _rk4_sums(start: complex, slopes: np.ndarray, h: float) -> np.ndarray:
    """start, then start plus h/6 (k1 + 2 k2 + 2 k3 + k4) summed step after step,
    from slopes[step, stage]: the quadrature of one coefficient through a block."""
    return np.cumsum(np.append(start, h / 6.0 * (slopes @ np.array([1.0, 2.0, 2.0, 1.0]))))


def _rk4_blocks(
    b: GeneratorCoefficients, t_end: float, steps: int
) -> Iterator[list[np.ndarray]]:
    """Yield [delta, alpha, beta, gamma] arrays after each step, RK4_BLOCK steps at a time.

    Classical fixed-step fourth-order Runge-Kutta from all-zero data at
    t = 0, fully deterministic for fixed arguments: _riccati_steps steps
    alpha alone, and _rk4_sums forms beta, gamma and delta from their slopes
    at its stage values.  Yields nothing for t_end = 0.  Raises BlowUpError
    at the first step after which any coefficient magnitude exceeds
    BLOWUP_BOUND or is not finite, the signature of integrating across a
    caustic; a stage's exp(2 beta) that overflows leaves gamma not finite.
    """
    if t_end == 0.0:
        return
    h = t_end / steps
    b1, b3, c0, c1, c2, cg, cd = _terms(*b.as_tuple())
    reach = np.array([0.5 * h, 0.5 * h, h])  # stage j + 1 starts from stage j's slope
    alpha = beta = gamma = delta = 0j
    for start in range(0, steps, RK4_BLOCK):
        stages, alpha = _riccati_steps(c0, c1, c2, alpha, min(RK4_BLOCK, steps - start), h)
        # steps past a blow-up may overflow; the bound test below reports the first failing step
        with np.errstate(all="ignore"):
            kbeta = b3 + c2 * stages
            betas = _rk4_sums(beta, kbeta, h)
            stage_betas = np.empty_like(stages)
            stage_betas[:, 0] = betas[:-1]
            stage_betas[:, 1:] = betas[:-1, None] + reach * kbeta[:, :3]
            gammas = _rk4_sums(gamma, cg * np.exp(2.0 * stage_betas), h)
            deltas = _rk4_sums(delta, b1 + cd * stages, h)
            after = [deltas[1:], np.append(stages[1:, 0], alpha), betas[1:], gammas[1:]]
            worst = np.abs(np.stack(after)).max(axis=0)
        failed = np.flatnonzero(~(worst <= BLOWUP_BOUND))
        if failed.size:
            t0, largest = (start + failed[0]) * h, worst[failed[0]]
            what = (f"took a coefficient to magnitude {largest:.3e}, past {BLOWUP_BOUND:.1e}"
                    if np.isfinite(largest) else "left a coefficient not finite")
            raise BlowUpError(f"the RK4 step from t = {t0:.6g} to {t0 + h:.6g} {what}; "
                              f"the path likely crosses a caustic")
        yield after
        delta, beta, gamma = deltas[-1].item(), betas[-1].item(), gammas[-1].item()


def integrate_wei_norman(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> tuple[FactorizationCoefficients, ...]:
    """Integrate the coefficient ODEs from all-zero data at t = 0 to t_end.

    Returns the coefficients at t = 0 and after each step: steps + 1
    entries, or the zero entry alone for t_end = 0.  See _rk4_blocks for
    the scheme and its BlowUpError.  Callers that read only the end point
    should use wei_norman_final, which returns the last entry without
    building the others.
    """
    _check_span(t_end, steps)
    path = [FactorizationCoefficients.zero()]
    for block in _rk4_blocks(b, t_end, steps):
        path += map(FactorizationCoefficients, *(v.tolist() for v in block))
    return tuple(path)


def wei_norman_final(
    b: GeneratorCoefficients, t_end: float, steps: int = ODE_STEPS
) -> FactorizationCoefficients:
    """integrate_wei_norman(b, t_end, steps)[-1], bit for bit, without the other entries."""
    _check_span(t_end, steps)
    final = FactorizationCoefficients.zero()
    for block in _rk4_blocks(b, t_end, steps):
        final = FactorizationCoefficients(*(v[-1].item() for v in block))
    return final

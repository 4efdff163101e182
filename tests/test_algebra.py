"""Tests for the factorization coefficients: closed forms, ODE system, integrator."""
import cmath
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfactor import algebra, checks
from opfactor.algebra import (
    BlowUpError,
    CausticError,
    CoefficientTrajectory,
    FactorizationCoefficients,
    GeneratorCoefficients,
    SqueezeParameter,
    generator_factorization,
    integrate_wei_norman,
    squeeze_factorization,
    time_displacement_factorization,
    time_periods,
    wei_norman_final,
    wei_norman_rhs,
)
from reference import gaussian_exponent, rk4_samples


class TestSqueezeParameter:
    def test_cartesian_components(self):
        z = SqueezeParameter(2.0, math.pi / 3)
        assert z.z1 == pytest.approx(1.0)
        assert z.z2 == pytest.approx(math.sqrt(3.0))
        assert abs(z.z1**2 + z.z2**2 - z.r**2) < 1e-12

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParameter(-0.1)


def squeeze_scale(r: float, phi: float, t: float = 1.0) -> complex:
    """The squeeze family's scale cosh(r t) + cos(phi) sinh(r t), as e^{-beta} of the closed form."""
    return cmath.exp(-squeeze_factorization(SqueezeParameter(r, phi), t).beta)


class TestSqueezeScale:
    def test_identity_at_zero_squeeze(self):
        for phi in (0.0, 1.0, math.pi, 5.0):
            assert squeeze_scale(0.0, phi) == 1.0

    def test_pure_stretch(self):
        # phi = 0 selects e^{r t}
        assert squeeze_scale(1.0, 0.0) == pytest.approx(math.e, abs=1e-14)

    def test_pure_compression(self):
        # phi = pi selects e^{-r t}
        assert squeeze_scale(1.0, math.pi) == pytest.approx(1.0 / math.e, abs=1e-14)

    def test_two_algebraic_forms_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = 2.0 * rng.random()
            phi = 2.0 * math.pi * rng.random()
            half_angle = (
                math.exp(r) * math.cos(phi / 2) ** 2 + math.exp(-r) * math.sin(phi / 2) ** 2
            )
            assert abs(squeeze_scale(r, phi) - half_angle) < 1e-12

    def test_overflow_is_a_refusal_not_a_caustic(self):
        assert math.isfinite(squeeze_scale(400.0, 0.0).real)
        for r, t in ((1000.0, 1.0), (400.0, 2.0), (400.0, -2.0)):
            for phi in (0.5, 2.5):  # both signs of the root w
                with pytest.raises(ValueError, match="closed form is not finite at w\\*t") as info:
                    squeeze_scale(r, phi, t)
                assert not isinstance(info.value, CausticError)

    def test_positive_everywhere(self):
        for t in (-2.0, -0.5, 0.0, 0.5, 3.0):
            scale = squeeze_scale(1.5, 2.8, t)
            assert scale.real > 0.0 and scale.imag == 0.0


class TestSqueezeFactorization:
    def test_identity_operator(self):
        c = squeeze_factorization(SqueezeParameter(0.0), 1.0)
        assert c.as_tuple() == (0j, 0j, 0j, 0j)

    def test_real_z(self):
        c = squeeze_factorization(SqueezeParameter(1.0, 0.0), 1.0)
        assert c.alpha == 0.0 and c.gamma == 0.0
        assert c.beta.real == pytest.approx(-1.0, abs=1e-14)
        assert c.delta.real == pytest.approx(-0.5, abs=1e-14)

    def test_imaginary_z(self):
        # phi = pi/2: scale = cosh(t), alpha = gamma = tanh(t)/2
        c = squeeze_factorization(SqueezeParameter(1.0, math.pi / 2), 1.0)
        assert c.alpha.real == pytest.approx(math.tanh(1.0) / 2, abs=1e-14)
        assert c.beta.real == pytest.approx(-math.log(math.cosh(1.0)), abs=1e-14)
        assert c.delta.real == pytest.approx(-math.log(math.cosh(1.0)) / 2, abs=1e-14)
        # independent route: RK4 integration of the coefficient system
        final = integrate_wei_norman(
            GeneratorCoefficients.squeeze(SqueezeParameter(1.0, math.pi / 2)), 1.0, steps=1000
        ).final
        assert max(abs(g - e) for g, e in zip(final.as_tuple(), c.as_tuple())) < 1e-9

    def test_internal_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = SqueezeParameter(2.0 * rng.random(), 2.0 * math.pi * rng.random())
            c = squeeze_factorization(z, 1.0)
            assert c.gamma == c.alpha
            assert c.delta == c.beta / 2
            assert c.unitarity_residue() < 1e-14

    def test_vanishes_at_t_zero(self):
        c = squeeze_factorization(SqueezeParameter(1.7, 2.1), 0.0)
        assert max(abs(v) for v in c.as_tuple()) == 0.0


def signed(c: FactorizationCoefficients) -> tuple[complex, ...]:
    """alpha, gamma, e^{-beta} and e^{delta}: no branch of log Q moves the first three,
    and e^{delta} carries the operator's sign, which only the continued log gets right."""
    return (c.alpha, c.gamma, cmath.exp(-c.beta), cmath.exp(c.delta))


class TestGeneratorFactorization:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           t=st.floats(-1.5, 1.5))
    # arg Q passes pi on [0, t]: the principal log gives exp(delta) the wrong sign
    @example(parts=[0.76, -0.16, 0.9, 0.38, 0.34, -0.93, 0.96, -0.78], t=1.48)
    @example(parts=[-0.22, 0.46, -0.4, 0.87, 0.44, -0.88, -0.86, -0.87], t=-1.44)
    def test_matches_rk4_on_any_generator(self, parts, t):
        # complex entries, non-unitary generators included.  Where the path
        # passes near a zero of Q, gamma' = -i b4/Q^2 turns on the scale of
        # |Q|, and RK4 takes 8000 steps: 1000 leave gamma 6.9 off at |Q| = 0.003
        b = GeneratorCoefficients(*(complex(parts[k], parts[k + 1]) for k in range(0, 8, 2)))
        closed = generator_factorization(b, t)
        near = min(abs(cmath.exp(-generator_factorization(b, t * k / 64).beta)) for k in range(64))
        ode = wei_norman_final(b, t, 8000 if near < 0.1 else 1000)
        assert max(abs(x - y) for x, y in zip(signed(closed), signed(ode))) < 1e-7

    def test_delta_continues_log_q_where_arg_q_passes_pi(self):
        # arg Q passes pi on [0, t]: beta keeps the principal log, 2 pi i off
        # the ODE's, and delta is i pi past the principal one, so it is 2 pi i
        # off the ODE's too and exp(delta) has the ODE's sign
        b = GeneratorCoefficients(-0.02 - 0.67j, -0.36 - 0.72j, 0.86 - 0.94j, -0.61 + 0.34j)
        closed, ode = generator_factorization(b, 1.358), wei_norman_final(b, 1.358)
        assert ode.beta - closed.beta == pytest.approx(-2j * math.pi, abs=1e-9)
        assert -math.pi <= closed.beta.imag <= math.pi
        assert ode.delta - closed.delta == pytest.approx(-2j * math.pi, abs=1e-9)
        assert max(abs(x - y) for x, y in zip(signed(closed), signed(ode))) < 1e-9

    def test_beta_and_delta_keep_relative_accuracy_near_q_one(self):
        # where Q nears 1, log Q = log1p(Q - 1) keeps beta and delta to a few
        # ulps, which cmath.log(Q) kept only in absolute terms
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        draws = zip(rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 2 * math.pi, 2000),
                    rng.uniform(-0.05, 0.05, 2000))
        cases = [(GeneratorCoefficients.squeeze(SqueezeParameter(r, phi)), t)
                 for r, phi, t in draws]
        cases.append((GeneratorCoefficients.squeeze(SqueezeParameter(0.04775, 1.4852)), 6.07e-5))
        cases += [(GeneratorCoefficients.oscillator(), t) for t in (1e-5, 1e-3, 0.3)]
        # Q near 1 where both terms of Q - 1 are near e^46 / 2: log Q itself serves
        cases += [(GeneratorCoefficients(0.0, -1e-20, 1.0, 1.0), t) for t in (45.8, 46.0)]
        worst = 0.0
        with mpmath.workdps(40):
            for b, t in cases:
                b1, b2, b3, b4 = (mpmath.mpc(v) for v in b.as_tuple())
                w = mpmath.sqrt(b3 * b3 - 4 * b2 * b4)
                s = mpmath.sinh(w * t) / w if w else mpmath.mpf(t)
                log_q = mpmath.log(mpmath.cosh(w * t) - b3 * s)
                c = generator_factorization(b, t)
                for got, want in ((c.beta, -log_q), (c.delta, (b1 - b3 / 2) * t - log_q / 2)):
                    worst = max(worst, float(abs(got - want) / abs(want)))
        assert worst <= 1e-13

    def test_presets_are_the_general_form(self):
        z = SqueezeParameter(1.3, 2.2)
        assert squeeze_factorization(z, 0.7) == generator_factorization(
            GeneratorCoefficients.squeeze(z), 0.7)
        for t in (-4.0, -1.5, 0.4, 2.0, 4.5, 2 * math.pi, 40.0, 1e15):
            assert time_displacement_factorization(t) == generator_factorization(
                GeneratorCoefficients.oscillator(), t)

    @pytest.mark.parametrize("a", [
        [0.5, 0.1, -0.4, 0.6],    # elliptic, Im w > 0, H positive
        [-0.5, 0.1, -0.4, 0.6],   # elliptic, Im w < 0
        [0.5, 0.1, 0.4, -0.6],    # elliptic, H negative: Im b4 < 0
        [1.0, 0.0, 0.1, -0.1],    # hyperbolic, one zero of Q
        [-1.0, 0.0, -0.1, 0.1],
        [1.0, 0.0, 0.25, -1.0],   # w = 0: Q = 1 - t
        [1.0, 0.0, -0.25, 1.0],
    ])
    @pytest.mark.parametrize("t", [-7.0, -3.0, 3.0, 7.0])
    def test_sign_past_real_caustics_matches_the_gaussian_phase(self, a, t):
        # a unitary generator; each zero of Q steps arg Q by pi sgn(t Im b4),
        # which exp(t b) exp(-x^2/2) = exp(n - c x^2) fixes through the caustics
        b = GeneratorCoefficients(0.5 * a[0] + 1j * a[1], 1j * a[2], a[0], 1j * a[3])
        c = generator_factorization(b, t)
        exact_c, exact_n = gaussian_exponent(b, t)
        # the product on exp(-x^2/2): exp(i gamma d^2) first, then the dilation and chirp
        g = 1.0 + 2j * c.gamma
        assert 0.5 * cmath.exp(2.0 * c.beta) / g - 1j * c.alpha == pytest.approx(exact_c, abs=1e-9)
        assert cmath.exp(c.delta - 0.5 * cmath.log(g) - exact_n) == pytest.approx(1.0, abs=1e-9)

    def test_caustic_is_a_cancellation_of_q(self):
        # b = (0, -i, 1, i): w = i sqrt(3), Q = cos(sqrt(3) t) - sin(sqrt(3) t)/sqrt(3),
        # which vanishes at t = atan(sqrt(3))/sqrt(3) = pi / (3 sqrt(3))
        b = GeneratorCoefficients(0.0, -1j, 1.0, 1j)
        t = math.pi / (3.0 * math.sqrt(3.0))
        with pytest.raises(CausticError, match="singular"):
            generator_factorization(b, t)
        generator_factorization(b, t - 1e-6)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_t_not_finite_is_a_refusal(self, t):
        with pytest.raises(ValueError, match="need finite t") as info:
            generator_factorization(GeneratorCoefficients.oscillator(), t)
        assert not isinstance(info.value, CausticError)


class TestTimeDisplacement:
    def test_zero_time(self):
        c = time_displacement_factorization(0.0)
        assert c.as_tuple() == (0j, 0j, 0j, 0j)

    def test_quarter_period(self):
        c = time_displacement_factorization(math.pi / 4)
        assert c.alpha.real == pytest.approx(-0.5, abs=1e-14)
        assert c.beta.real == pytest.approx(0.5 * math.log(2.0), abs=1e-14)
        assert c.gamma.real == pytest.approx(0.5, abs=1e-14)
        assert c.delta.real == pytest.approx(0.25 * math.log(2.0), abs=1e-14)

    def test_caustic_raises(self):
        with pytest.raises(CausticError):
            time_displacement_factorization(math.pi / 2)

    def test_caustic_is_a_singularity_not_a_refusal(self):
        # the CLI reports a refusal (ValueError) with exit 2 and a singularity with exit 1
        assert issubclass(CausticError, ArithmeticError)
        assert not issubclass(CausticError, ValueError)

    def test_caustic_boundary(self):
        # CAUSTIC_EPS = 1e-9 bounds |cos t| from below
        time_displacement_factorization(math.pi / 2 - 1e-6)
        time_displacement_factorization(math.pi / 2 - 5e-7)
        t = math.pi / 2 - 5e-10
        assert abs(math.cos(t)) < 1e-9
        with pytest.raises(CausticError):
            time_displacement_factorization(t)

    def test_principal_branch_past_half_pi(self):
        c = time_displacement_factorization(2.0)
        assert c.beta.real == pytest.approx(-math.log(abs(math.cos(2.0))), abs=1e-14)
        assert c.beta.imag == pytest.approx(-math.pi, abs=1e-14)
        assert c.delta == c.beta / 2

    def test_delta_carries_the_period_sign(self):
        # the principal branch alone is right on [-pi/2, 3pi/2)
        for t in (-1.5, 0.3, 2.0, math.pi, 4.5):
            c = time_displacement_factorization(t)
            assert c.delta == c.beta / 2
        # a period on, exp(delta) changes sign and the other three stay
        for t in (-4.0, -1.5, 0.3, 2.0, 4.5, 40.0):
            c = time_displacement_factorization(t)
            later = time_displacement_factorization(t + 2 * math.pi)
            for now, on in zip(c.as_tuple()[1:], later.as_tuple()[1:]):
                assert on == pytest.approx(now, abs=1e-12)
            assert cmath.exp(later.delta) == pytest.approx(-cmath.exp(c.delta), abs=1e-12)
            assert later.unitarity_residue() < 1e-15

    def test_beyond_2_to_50_periods_refused(self):
        with pytest.raises(ValueError, match="2\\^50"):
            time_displacement_factorization(1e300)
        with pytest.raises(CausticError):
            time_displacement_factorization(4.5 * math.pi)


TWO_PI = Fraction("6.2831853071795864769252867665590057683943387987502")  # to 50 digits


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(t=st.floats(-1e15, 1e15, allow_nan=False))
@example(t=1e15)
@example(t=-1e15)
@example(t=math.pi)
@example(t=-math.pi)
@example(t=2 * math.pi)
@example(t=3 * math.pi)
def test_time_periods_rest_is_exact(t):
    m, rest = time_periods(t)
    if abs(t) <= math.pi:
        assert m == 0 and math.copysign(1.0, rest) == math.copysign(1.0, t) and rest == t
    # half an ulp of the rest, and 6e-17 for m times the low part of 2 pi
    assert abs(Fraction(t) - m * TWO_PI - Fraction(rest)) <= 0.5 * math.ulp(rest) + 6e-17
    assert abs(rest) <= math.pi + abs(m) * 2.5e-16


def test_time_periods_refuses_2_to_50_periods_and_nonfinite_t():
    assert time_periods(float(2**50 - 1) * 2 * math.pi)[0] == 2**50 - 1
    for t in (float(2**50) * 2 * math.pi, -1e300):
        with pytest.raises(ValueError, match="2\\^50"):
            time_periods(t)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            time_periods(t)


class TestGeneratorCoefficients:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, -math.inf),
                                       lambda t: 1.0, "1"],
                             ids=["nan", "inf", "-inf", "imag-inf", "callable", "string"])
    @pytest.mark.parametrize("name", ["b1", "b2", "b3", "b4"])
    def test_entry_that_is_not_a_finite_number_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"coefficient {name} must be a finite number"):
            GeneratorCoefficients(**{name: value})

    def test_entries_are_stored_as_complex(self):
        ints, complexes = GeneratorCoefficients(b2=1), GeneratorCoefficients(b2=1 + 0j)
        assert ints == complexes and hash(ints) == hash(complexes)
        assert repr(ints) == repr(complexes)
        assert ints.as_tuple() == (0j, 1 + 0j, 0j, 0j)


class TestWeiNormanRhs:
    def test_null_generator(self):
        c = FactorizationCoefficients.zero()
        assert wei_norman_rhs(c, GeneratorCoefficients()) == (0j, 0j, 0j, 0j)

    def test_squeeze_values_at_origin(self):
        # z1 = 0, z2 = 1 at vanishing coefficients
        b = GeneratorCoefficients.squeeze(SqueezeParameter(1.0, math.pi / 2))
        dalpha, dbeta, dgamma, ddelta = wei_norman_rhs(FactorizationCoefficients.zero(), b)
        assert dalpha == pytest.approx(0.5, abs=1e-15)
        assert dbeta == pytest.approx(0.0, abs=1e-15)
        assert dgamma == pytest.approx(0.5, abs=1e-15)
        assert ddelta == pytest.approx(0.0, abs=1e-15)

    def test_oscillator_values_at_origin(self):
        derivs = wei_norman_rhs(
            FactorizationCoefficients.zero(), GeneratorCoefficients.oscillator()
        )
        assert derivs == (-0.5 + 0j, 0j, 0.5 + 0j, 0j)

    def test_matches_specialized_squeeze_system(self):
        # alpha' = -2 z2 a^2 - 2 z1 a + z2/2, beta' = -z1 - 2 z2 a,
        # gamma' = (z2/2) e^{2 beta}, delta' = -z1/2 - z2 a
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = SqueezeParameter(2.0 * rng.random(), 2.0 * math.pi * rng.random())
            z1, z2 = z.z1, z.z2
            c = FactorizationCoefficients(
                delta=complex(rng.standard_normal(), rng.standard_normal()),
                alpha=complex(rng.standard_normal(), rng.standard_normal()),
                beta=complex(rng.standard_normal(), rng.standard_normal()),
                gamma=complex(rng.standard_normal(), rng.standard_normal()),
            )
            a = c.alpha
            got = wei_norman_rhs(c, GeneratorCoefficients.squeeze(z))
            expected = (
                -2 * z2 * a * a - 2 * z1 * a + z2 / 2,
                -z1 - 2 * z2 * a,
                (z2 / 2) * cmath.exp(2 * c.beta),
                -z1 / 2 - z2 * a,
            )
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12

    def test_matches_specialized_oscillator_system(self):
        # alpha' = -2 a^2 - 1/2, beta' = -2 a, gamma' = e^{2 beta}/2, delta' = -a
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = FactorizationCoefficients(
                delta=0j,
                alpha=complex(rng.standard_normal(), rng.standard_normal()),
                beta=complex(rng.standard_normal(), rng.standard_normal()),
                gamma=0j,
            )
            a = c.alpha
            got = wei_norman_rhs(c, GeneratorCoefficients.oscillator())
            expected = (-2 * a * a - 0.5, -2 * a, cmath.exp(2 * c.beta) / 2, -a)
            assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-12


class TestIntegrator:
    def test_null_generator_stays_zero(self):
        traj = integrate_wei_norman(GeneratorCoefficients(), 3.0, steps=10)
        assert all(max(abs(v) for v in s.as_tuple()) == 0.0 for s in traj.samples)
        assert traj.final.t == pytest.approx(3.0)

    def test_trajectory_invariants(self):
        traj = integrate_wei_norman(GeneratorCoefficients.oscillator(), 1.0, steps=100)
        times = traj.times
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(times) == 101

    def test_squeeze_matches_closed_form(self):
        z = SqueezeParameter(0.8, math.pi / 3)
        closed = squeeze_factorization(z, 1.0)
        final = integrate_wei_norman(GeneratorCoefficients.squeeze(z), 1.0, steps=1000).final
        err = max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple()))
        assert err < 1e-8

    def test_oscillator_matches_closed_form(self):
        closed = time_displacement_factorization(1.0)
        final = integrate_wei_norman(GeneratorCoefficients.oscillator(), 1.0, steps=1000).final
        err = max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple()))
        assert err < 1e-8

    def test_squeeze_identities_on_ode_path(self):
        z = SqueezeParameter(1.2, 2.0)
        final = integrate_wei_norman(GeneratorCoefficients.squeeze(z), 1.0, steps=1000).final
        assert abs(final.gamma - final.alpha) < 1e-9
        assert abs(final.delta - final.beta / 2) < 1e-9
        assert final.unitarity_residue() < 1e-10

    def test_blowup_detection(self):
        # a stage's exp(2 beta) overflows here before any step ends past the bound
        with pytest.raises(BlowUpError, match="caustic"):
            integrate_wei_norman(GeneratorCoefficients.oscillator(), 1.6, steps=20000)

    def test_zero_t_end(self):
        traj = integrate_wei_norman(GeneratorCoefficients.oscillator(), 0.0)
        assert len(traj.samples) == 1

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_wei_norman(GeneratorCoefficients.oscillator(), 1.0, steps=0)


def _verify_all_integrations():
    """The (generator, t_end, steps) triples that `verify all` integrates, read off its checks."""
    calls = []

    def recorded(b, t_end, steps):
        calls.append((b, t_end, steps))
        return wei_norman_final(b, t_end, steps)

    with mock.patch.object(checks, "wei_norman_final", recorded):
        checks.check_ode_squeeze(algebra.ODE_STEPS)
        checks.check_ode_oscillator(algebra.ODE_STEPS)
        checks.check_unitarity_residue()
    return calls


def _outcome(entry, b, t_end, steps):
    """What an integration returns, or the exception it raises with its message and cause.

    Results compare by repr, which tells every float apart bit for bit,
    signed zeros included (NaN payloads aside).
    """
    try:
        return repr(entry(b, t_end, steps))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc), type(exc.__cause__)


def _reference_final(b, t_end, steps):
    return rk4_samples(b, t_end, steps)[-1]


def _path(b, t_end, steps):
    return list(integrate_wei_norman(b, t_end, steps).samples)


class TestFinalOnly:
    """Both entry points are the scalar RK4 loop of tests/reference.py, bit for bit."""

    @pytest.mark.parametrize("b, t_end, steps", _verify_all_integrations())
    def test_verify_all_integrations(self, b, t_end, steps):
        expected = rk4_samples(b, t_end, steps)
        assert repr(wei_norman_final(b, t_end, steps)) == repr(expected[-1])
        assert repr(_path(b, t_end, steps)) == repr(expected)

    @pytest.mark.parametrize("b, t_end, steps", [
        (GeneratorCoefficients.oscillator(), 0.0, 1000),
        (GeneratorCoefficients.oscillator(), -0.9, 500),
        (GeneratorCoefficients.squeeze(SqueezeParameter(0.8, 1.0)), -1.0, 1),
    ])
    def test_zero_and_negative_spans(self, b, t_end, steps):
        final = wei_norman_final(b, t_end, steps)
        assert repr(final) == repr(_reference_final(b, t_end, steps))
        assert repr(_path(b, t_end, steps)) == repr(rk4_samples(b, t_end, steps))
        assert final.t == pytest.approx(t_end, abs=1e-15)
        if t_end == 0.0:
            assert final == FactorizationCoefficients.zero(0.0)

    @pytest.mark.parametrize("steps", [
        algebra.RK4_BLOCK - 1, algebra.RK4_BLOCK, algebra.RK4_BLOCK + 1, 2 * algebra.RK4_BLOCK + 3,
    ])
    def test_block_boundaries(self, steps):
        b = GeneratorCoefficients.squeeze(SqueezeParameter(1.3, 2.0))
        expected = rk4_samples(b, 1.0, steps)
        assert repr(wei_norman_final(b, 1.0, steps)) == repr(expected[-1])
        assert repr(_path(b, 1.0, steps)) == repr(expected)

    @pytest.mark.parametrize("t_end, steps", [(1.0, 0), (1.0, -3), (math.inf, 10), (math.nan, 10)])
    def test_same_refusal_at_call_time(self, t_end, steps):
        messages = []
        for entry in (integrate_wei_norman, wei_norman_final):
            with pytest.raises(ValueError) as info:
                entry(GeneratorCoefficients.oscillator(), t_end, steps)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("b, t_end, steps, kind", [
        # a stage's exp(2 beta) overflows at t = pi/2 before any step ends past the bound
        (GeneratorCoefficients.oscillator(), 1.6, 52, OverflowError),
        (GeneratorCoefficients.oscillator(), -1.6, 52, OverflowError),
        # the state passes the bound at the end of a step
        (GeneratorCoefficients.oscillator(), 4.0, 100, type(None)),
        (GeneratorCoefficients.oscillator(), 1.58, 100, type(None)),
        (GeneratorCoefficients.oscillator(), -1.58, 100, type(None)),
        # |delta| passes the bound at t = 0.9 while its real and imaginary parts stay below it
        (GeneratorCoefficients(b1=complex(0.8e12, 0.8e12)), 1.0, 10, type(None)),
    ])
    def test_same_blowup_at_the_same_step(self, b, t_end, steps, kind):
        expected = _outcome(_reference_final, b, t_end, steps)
        assert expected[0] is BlowUpError and expected[2] is kind
        assert "caustic" in expected[1]
        for entry in (integrate_wei_norman, wei_norman_final):
            assert _outcome(entry, b, t_end, steps) == expected
            with mock.patch.object(algebra, "RK4_BLOCK", 7):  # the failing step inside a block
                assert _outcome(entry, b, t_end, steps) == expected

    def test_nonfinite_stage_raises_as_the_scalar_loop_does(self):
        # 2 beta reaches an infinite imaginary part at the last stage, where
        # cmath.exp raises ValueError rather than overflowing; that is a
        # blow-up in the step too
        b = GeneratorCoefficients(b3=1e308j)
        expected = _outcome(_reference_final, b, 2.0, 1)
        assert expected == (BlowUpError, "an RK4 stage overflowed in the step from t = 0; "
                            "the path likely crosses a caustic", ValueError)
        for entry in (integrate_wei_norman, wei_norman_final):
            assert _outcome(entry, b, 2.0, 1) == expected


_coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    b=st.builds(GeneratorCoefficients, _coefficient, _coefficient, _coefficient, _coefficient),
    t_end=st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
    steps=st.integers(1, 40),
    block=st.sampled_from((1, 2, 3, 7, algebra.RK4_BLOCK)),
)
def test_rk4_equals_scalar_reference(b, t_end, steps, block):
    path = _outcome(rk4_samples, b, t_end, steps)
    final = _outcome(_reference_final, b, t_end, steps)
    with mock.patch.object(algebra, "RK4_BLOCK", block):
        assert _outcome(_path, b, t_end, steps) == path
        assert _outcome(wei_norman_final, b, t_end, steps) == final


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(x=st.complex_numbers(), y=st.complex_numbers())
def test_mul_is_python_complex_product(x, y):
    # NaN, infinities and signed zeros included: every bit of the product, zero signs too
    with np.errstate(all="ignore"):
        got = algebra._mul(x, np.array([y]))[0].item()
    assert repr(got) == repr(x * y)


def _peak_bytes(entry, steps):
    tracemalloc.start()
    try:
        entry(GeneratorCoefficients.squeeze(SqueezeParameter(0.8, 1.0)), 1.0, steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_final_memory_is_bounded_by_one_block():
    short, long = 2 * algebra.RK4_BLOCK, 6 * algebra.RK4_BLOCK
    assert _peak_bytes(wei_norman_final, long) < 1.25 * _peak_bytes(wei_norman_final, short)
    # the measurement sees growth where there is some: the full path keeps every step
    assert _peak_bytes(integrate_wei_norman, long) > 1.5 * _peak_bytes(integrate_wei_norman, short)


class TestCoefficientTrajectory:
    def test_requires_zero_start(self):
        good = FactorizationCoefficients.zero(0.0)
        bad = FactorizationCoefficients(0.1 + 0j, 0j, 0j, 0j, 0.0)
        CoefficientTrajectory((good,))
        with pytest.raises(ValueError):
            CoefficientTrajectory((bad,))

    def test_requires_monotonic_times(self):
        a = FactorizationCoefficients.zero(0.0)
        b = FactorizationCoefficients(0j, 0j, 0j, 0j, 0.5)
        with pytest.raises(ValueError):
            CoefficientTrajectory((a, b, b))


def test_closed_form_ode_equivalence_sweep():
    """Both families agree with RK4 over the documented parameter region."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        z = SqueezeParameter(2.0 * rng.random(), 2.0 * math.pi * rng.random())
        closed = squeeze_factorization(z, 1.0)
        final = integrate_wei_norman(GeneratorCoefficients.squeeze(z), 1.0, steps=1000).final
        assert max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple())) < 1e-7
    for t in (0.3, 1.4, -0.7, -1.4):
        closed = time_displacement_factorization(t)
        final = integrate_wei_norman(GeneratorCoefficients.oscillator(), t, steps=1000).final
        assert max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple())) < 1e-7

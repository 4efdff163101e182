"""Tests for the factorization coefficients: closed forms, ODE system, integrator."""
import cmath
import math

import numpy as np
import pytest

from opfactor.algebra import (
    BlowUpError,
    CausticError,
    CoefficientTrajectory,
    FactorizationCoefficients,
    GeneratorCoefficients,
    SqueezeParameter,
    integrate_wei_norman,
    squeeze_factorization,
    squeeze_scale,
    time_displacement_factorization,
    wei_norman_rhs,
)


class TestSqueezeParameter:
    def test_cartesian_components(self):
        z = SqueezeParameter(2.0, math.pi / 3)
        assert z.z1 == pytest.approx(1.0)
        assert z.z2 == pytest.approx(math.sqrt(3.0))
        assert abs(z.z1**2 + z.z2**2 - z.r**2) < 1e-12

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParameter(-0.1)


class TestSqueezeScale:
    def test_identity_at_zero_squeeze(self):
        for phi in (0.0, 1.0, math.pi, 5.0):
            assert squeeze_scale(SqueezeParameter(0.0, phi), 1.0) == 1.0

    def test_pure_stretch(self):
        # phi = 0 selects e^{r t}
        assert squeeze_scale(SqueezeParameter(1.0, 0.0), 1.0) == pytest.approx(math.e, abs=1e-14)

    def test_pure_compression(self):
        # phi = pi selects e^{-r t}
        assert squeeze_scale(SqueezeParameter(1.0, math.pi), 1.0) == pytest.approx(
            1.0 / math.e, abs=1e-14
        )

    def test_two_algebraic_forms_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = 2.0 * rng.random()
            phi = 2.0 * math.pi * rng.random()
            hyperbolic = squeeze_scale(SqueezeParameter(r, phi), 1.0)
            half_angle = (
                math.exp(r) * math.cos(phi / 2) ** 2 + math.exp(-r) * math.sin(phi / 2) ** 2
            )
            assert abs(hyperbolic - half_angle) < 1e-12

    def test_positive_everywhere(self):
        for t in (-2.0, -0.5, 0.0, 0.5, 3.0):
            assert squeeze_scale(SqueezeParameter(1.5, 2.8), t) > 0.0


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

    def test_caustic_eps_configurable(self):
        t = math.pi / 2 - 1e-6
        time_displacement_factorization(t)  # fine with the default eps
        with pytest.raises(CausticError):
            time_displacement_factorization(t, caustic_eps=1e-3)

    def test_principal_branch_past_half_pi(self):
        c = time_displacement_factorization(2.0)
        assert c.beta.real == pytest.approx(-math.log(abs(math.cos(2.0))), abs=1e-14)
        assert c.beta.imag == pytest.approx(-math.pi, abs=1e-14)
        assert c.delta == c.beta / 2


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

    def test_time_dependent_evaluation(self):
        b = GeneratorCoefficients(b2=lambda t: -0.5j * t)
        dalpha, _, _, _ = wei_norman_rhs(FactorizationCoefficients.zero(), b, t=2.0)
        assert dalpha == pytest.approx(-1.0, abs=1e-15)


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

    def test_time_dependent_direction_reduces_to_rescaled_time(self):
        # b(t) = f(t) * b0 with fixed direction b0 integrates to the constant-b
        # closed form at the effective time F(t) = int_0^t f.
        z = SqueezeParameter(0.6, 1.1)
        base = GeneratorCoefficients.squeeze(z)
        b = GeneratorCoefficients(*(lambda t, v=v: (1.0 + t) * v for v in base.at(0.0)))
        final = integrate_wei_norman(b, 1.0, steps=2000).final
        effective = 1.5  # int_0^1 (1 + t) dt
        closed = squeeze_factorization(z, effective)
        err = max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple()))
        assert err < 1e-8

    def test_constant_generator_matches_constant_callables_bitwise(self):
        base = GeneratorCoefficients.squeeze(SqueezeParameter(0.8, math.pi / 3))
        as_callables = GeneratorCoefficients(*(lambda t, v=v: v for v in base.at(0.0)))
        hoisted = integrate_wei_norman(base, 1.0, steps=200)
        per_step = integrate_wei_norman(as_callables, 1.0, steps=200)
        assert hoisted == per_step

    def test_blowup_detection(self):
        with pytest.raises(BlowUpError):
            integrate_wei_norman(
                GeneratorCoefficients.oscillator(), 1.6, steps=20000, blowup_bound=1e3
            )

    def test_zero_t_end(self):
        traj = integrate_wei_norman(GeneratorCoefficients.oscillator(), 0.0)
        assert len(traj.samples) == 1

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_wei_norman(GeneratorCoefficients.oscillator(), 1.0, steps=0)


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

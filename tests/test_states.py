"""Tests for the closed-form reference states and their reductions."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opfactor import checks
from opfactor.algebra import SqueezeParameter
from opfactor.grid import (
    Grid,
    WaveFunction,
    apply_chain,
    apply_spectral_d2,
    displacement_factors,
    squeeze_factors,
    time_displacement_factors,
)
from opfactor.states import (
    EvenOddSpec,
    SqueezedStateSpec,
    box_mode_phase,
    coherent_evolved,
    coherent_state,
    psi0,
    psi_spm,
    psi_ss,
    rho_spm,
    rho_spm_integral,
)


@pytest.fixture(scope="module")
def grid():
    return Grid()


class TestGroundState:
    def test_peak_value(self):
        assert psi0(0.0) == pytest.approx(math.pi**-0.25, abs=1e-12)

    def test_unit_norm_by_quadrature(self, grid):
        psi = WaveFunction.from_callable(grid, psi0)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_even_symmetry(self, grid):
        x = grid.x
        assert np.abs(psi0(x) - psi0(-x)).max() == 0.0


class TestSqueezedState:
    def test_trivial_spec_is_ground_state(self, grid):
        spec = SqueezedStateSpec()
        assert np.abs(psi_ss(grid.x, spec) - psi0(grid.x)).max() < 1e-14

    def test_real_z_reduction(self, grid):
        spec = SqueezedStateSpec(x0=1.0, p0=0.0, z=SqueezeParameter(1.0, 0.0))
        s = math.e
        expected = (math.sqrt(math.pi) * s) ** -0.5 * np.exp(-((grid.x - 1.0) ** 2) / (2 * s * s))
        assert np.abs(psi_ss(grid.x, spec) - expected).max() < 1e-12

    def test_unit_norm(self, grid):
        spec = SqueezedStateSpec(x0=1.0, p0=0.5, z=SqueezeParameter(0.8, math.pi / 3))
        psi = WaveFunction.from_callable(grid, lambda x: psi_ss(x, spec))
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_matches_grid_pipeline(self, grid):
        spec = SqueezedStateSpec(x0=1.0, p0=0.5, z=SqueezeParameter(0.8, math.pi / 3))
        chain = squeeze_factors(spec.z) + displacement_factors(spec.x0, spec.p0)
        built = apply_chain(WaveFunction.from_callable(grid, psi0), chain)
        analytic = psi_ss(grid.x, spec)
        i = int(np.argmin(np.abs(grid.x - spec.x0)))
        ratio = analytic[i] / built.samples[i]
        aligned = built.samples * (ratio / abs(ratio))
        assert np.abs(analytic - aligned).max() < 1e-7


class TestCoherentEvolved:
    def test_zero_time_reduction(self, grid):
        got = coherent_evolved(grid.x, 0.0, 2.0, -0.7)
        assert np.abs(got - coherent_state(grid.x, 2.0, -0.7)).max() < 1e-14

    def test_quarter_turn(self, grid):
        # x0 = 2, p0 = 0 at t = pi/2: density centered at 0, momentum -2,
        # global phase e^{-i pi/4}
        x = grid.x
        got = coherent_evolved(x, math.pi / 2, 2.0, 0.0)
        expected = (
            math.pi**-0.25
            * cmath.exp(-0.25j * math.pi)
            * np.exp(-0.5 * x * x)
            * np.exp(-2j * x)
        )
        assert np.abs(got - expected).max() < 1e-12

    def test_density_center_rotates(self, grid):
        t, x0, p0 = 0.9, 1.0, -0.5
        dens = np.abs(coherent_evolved(grid.x, t, x0, p0)) ** 2
        center = grid.x[int(np.argmax(dens))]
        assert center == pytest.approx(x0 * math.cos(t) + p0 * math.sin(t), abs=2 * grid.dx)

    def test_matches_grid_pipeline(self, grid):
        x0, p0, t = 1.0, 0.5, 0.7
        psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, x0, p0))
        out = apply_chain(psi, time_displacement_factors(t, 1))
        expected = coherent_evolved(grid.x, t, x0, p0)
        assert np.abs(out.samples - expected).max() < 1e-6

    def test_periodicity(self, grid):
        got = coherent_evolved(grid.x, 2.0 * math.pi, 2.0, 0.0)
        # full period returns the state up to the e^{-i pi} dynamical phase
        assert np.abs(got + coherent_state(grid.x, 2.0, 0.0)).max() < 1e-11


class TestEvenOdd:
    spec_plus = EvenOddSpec(2.0, 1.5, +1)
    spec_minus = EvenOddSpec(2.0, 1.5, -1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EvenOddSpec(1.0, 0.0, +1)
        with pytest.raises(ValueError):
            EvenOddSpec(1.0, 1.0, 2)
        # s**4 must stay finite and nonzero: psi_spm divides by it at t = 0
        for s in (1e200, 1e-200, math.inf, math.nan):
            with pytest.raises(ValueError, match="s\\*\\*4"):
                EvenOddSpec(1.0, s, +1)

    def test_odd_state_zero_at_origin(self):
        for t in (0.0, 0.6, math.pi / 2, 2.0):
            assert abs(psi_spm(0.0, t, self.spec_minus)) < 1e-13

    def test_parity(self, grid):
        x = grid.x
        for t in (0.0, 0.9, 2.5):
            even = psi_spm(x, t, self.spec_plus)
            assert np.abs(even - psi_spm(-x, t, self.spec_plus)).max() < 1e-13
            odd = psi_spm(x, t, self.spec_minus)
            assert np.abs(odd + psi_spm(-x, t, self.spec_minus)).max() < 1e-13

    def test_t_zero_shape(self, grid):
        # s = 1 pair reduces to two displaced ground-state Gaussians
        x = grid.x
        spec = EvenOddSpec(1.5, 1.0, +1)
        got = psi_spm(x, 0.0, spec)
        pair = np.exp(-0.5 * (x - 1.5) ** 2) + np.exp(-0.5 * (x + 1.5) ** 2)
        ratio = got[1024] / pair[1024]
        assert np.abs(got - ratio * pair).max() < 1e-12

    def test_density_matches_amplitude_squared(self, grid):
        x, dx = grid.x, grid.dx
        for spec in (self.spec_plus, self.spec_minus):
            for t in (0.0, 0.6, math.pi / 2, 2.0):
                dens = np.abs(psi_spm(x, t, spec)) ** 2
                dens /= np.sum(dens) * dx
                rho = rho_spm(x, t, spec)
                rho /= np.sum(rho) * dx
                assert np.abs(dens - rho).max() < 1e-9

    def test_finite_at_caustic(self, grid):
        for spec in (self.spec_plus, self.spec_minus):
            psi = psi_spm(grid.x, math.pi / 2, spec)
            rho = rho_spm(grid.x, math.pi / 2, spec)
            assert np.all(np.isfinite(psi)) and np.all(np.isfinite(rho))
            assert np.abs(psi).max() > 0.0

    def test_near_caustic_branch_handoff(self, grid):
        # renormalized amplitude and density stay consistent on both sides of
        # the CAUSTIC_NORM_EPS switch in the antisymmetric normalization constant
        x, dx = grid.x, grid.dx
        for spec in (self.spec_plus, self.spec_minus):
            for eps in (1e-6, 1e-7, 1e-9, 1e-11, 0.0):
                t = math.pi / 2 - eps
                dens = np.abs(psi_spm(x, t, spec)) ** 2
                dens /= np.sum(dens) * dx
                rho = rho_spm(x, t, spec)
                rho /= np.sum(rho) * dx
                assert np.abs(dens - rho).max() < 1e-12

    def test_caustic_width_is_inverted(self):
        assert self.spec_plus.width_sq(math.pi / 2) == pytest.approx(1.0 / 1.5**2, abs=1e-12)

    def test_odd_x0_zero_rejected(self):
        with pytest.raises(ValueError):
            psi_spm(0.5, 0.3, EvenOddSpec(0.0, 1.0, -1))

    def test_rho_x0_zero_single_gaussian(self, grid):
        x, dx = grid.x, grid.dx
        spec = EvenOddSpec(0.0, 1.5, +1)
        for t in (0.0, 0.7):
            d2 = spec.width_sq(t)
            d = math.sqrt(d2)
            expected = 2.0 * np.exp(-x * x / d2) / (math.sqrt(math.pi) * d * (1.0 + d))
            assert np.abs(rho_spm(x, t, spec) - expected).max() < 1e-14
            # cross-check against the amplitude route, both renormalized
            dens = np.abs(psi_spm(x, t, spec)) ** 2
            dens /= np.sum(dens) * dx
            rho = rho_spm(x, t, spec)
            rho /= np.sum(rho) * dx
            assert np.abs(dens - rho).max() < 1e-9

    def test_rho_odd_zero_at_origin(self):
        for t in (0.0, 0.5, 2.2):
            assert rho_spm(0.0, t, self.spec_minus) == pytest.approx(0.0, abs=1e-15)

    def test_raw_integral_formula(self, grid):
        x, dx = grid.x, grid.dx
        for spec in (self.spec_plus, self.spec_minus):
            for t in (0.0, 0.6, math.pi / 2, 2.0):
                measured = np.sum(rho_spm(x, t, spec)) * dx
                damp = math.exp(-spec.x0**2 / spec.s**2)
                d = math.sqrt(spec.width_sq(t))
                expected = (1.0 + spec.sign * damp) / (1.0 + spec.sign * d * damp)
                assert measured == pytest.approx(expected, abs=1e-9)
                assert rho_spm_integral(t, spec) == pytest.approx(expected, rel=1e-15)

    def test_singular_t_is_refused_before_rho_divides(self):
        # d(t) e^{-x0^2/s^2} = 1 exactly at this t; a RuntimeWarning from a
        # division by zero would fail the test (see pyproject's filterwarnings)
        spec = EvenOddSpec(0.1, 0.5, -1)
        t = 0.4908678401214229
        assert rho_spm_integral(t, spec) == math.inf
        initial = checks.evenodd_initial(Grid(n=256), spec, 1e-8)
        with pytest.raises(ValueError, match=f"singular at t = {t!r}"):
            checks.evenodd_grid_densities(initial, spec, [0.0, t])

    def test_grid_evolution_tracks_density(self, grid):
        x, dx = grid.x, grid.dx
        for spec in (self.spec_plus, self.spec_minus):
            initial = WaveFunction.from_callable(
                grid, lambda xs: psi_spm(xs, 0.0, spec)
            ).normalized()
            for t, substeps in ((0.6, 1), (math.pi / 2, 2), (2.0, 2)):
                out = apply_chain(initial, time_displacement_factors(t, substeps))
                rho = rho_spm(x, t, spec)
                rho /= np.sum(rho) * dx
                assert np.abs(out.density() - rho).max() < 1e-5
                assert abs(out.norm() - 1.0) < 1e-9


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(x0=st.floats(0.05, 3.0), s=st.floats(0.25, 4.0), sign=st.sampled_from((1, -1)),
       t=st.floats(0.0, math.pi))
def test_evenodd_sweep_is_refused_or_finite(x0, s, sign, t):
    # the region includes sign -1 pairs whose constant 1 - d E changes sign in t
    grid = Grid(n=256)
    spec = EvenOddSpec(x0, s, sign)
    try:
        initial = checks.evenodd_initial(grid, spec, 1e-8)
        rho, rho_grid, raw_integral = checks.evenodd_grid_densities(initial, spec, [t])
    except ValueError:
        return
    assert np.all(np.isfinite(rho)) and np.all(np.isfinite(rho_grid))
    assert np.all(np.isfinite(raw_integral))
    assert np.sum(rho) * grid.dx == pytest.approx(1.0, abs=1e-12)


class TestBoxModePhase:
    def test_unit_time_value(self):
        assert box_mode_phase(1, 1.0) == pytest.approx(
            cmath.exp(-0.5j * math.pi**2), abs=1e-15
        )

    def test_zero_time(self):
        for n in (1, 2, 7):
            assert box_mode_phase(n, 0.0) == 1.0

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            box_mode_phase(0)
        with pytest.raises(ValueError):
            box_mode_phase(1.5)

    def test_spectral_evolution_ratio(self, grid):
        # [-12, 12) holds an integer number of sin(pi n x) periods, so the
        # spectral step is exact and the output/input ratio is the pure phase
        for n in (1, 2, 3):
            psi = WaveFunction.from_callable(grid, lambda x, n=n: np.sin(math.pi * n * x))
            out = apply_spectral_d2(psi, 0.5j)
            mask = np.abs(psi.samples) > 0.1
            ratio = out.samples[mask] / psi.samples[mask]
            assert np.abs(ratio - box_mode_phase(n, 1.0)).max() < 1e-9

"""Tests for grid states, the elementary factor actions, and factor chains."""
import cmath
import math

import numpy as np
import pytest

from opfactor.algebra import CausticError, SqueezeParameter
from opfactor.grid import (
    MAX_TIME_SUBSTEPS,
    ChainError,
    Dilation,
    Grid,
    LinearPhase,
    QuadraticPhase,
    Scalar,
    Shift,
    ShiftRangeError,
    SpectralD2,
    SupportOverflowWarning,
    WaveFunction,
    apply_chain,
    apply_dilation,
    apply_phase,
    apply_shift,
    apply_spectral_d2,
    displacement_factors,
    min_time_substeps,
    squeeze_factors,
    time_displacement_factors,
)
from opfactor.grid import _chirp_multiplier, _fresnel_multiplier
from opfactor.states import coherent_state, psi0


# the dilation in the chain of squeeze:r=1.5,phi=2
SQUEEZE_SCALE = next(
    f.scale for f in squeeze_factors(SqueezeParameter(1.5, 2.0)) if isinstance(f, Dilation)
)


@pytest.fixture(scope="module")
def grid():
    return Grid()


@pytest.fixture(scope="module")
def ground(grid):
    return WaveFunction.from_callable(grid, psi0)


class TestGrid:
    def test_geometry(self, grid):
        assert grid.dx == pytest.approx(24.0 / 2048)
        assert grid.x[0] == -12.0
        assert grid.x[-1] == pytest.approx(12.0 - grid.dx)
        assert 0.0 in grid.x

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(n=100)  # not a power of two
        with pytest.raises(ValueError):
            Grid(n=8)  # too small
        with pytest.raises(ValueError):
            Grid(x_min=3.0, x_max=-3.0)


class TestWaveFunction:
    def test_norm_of_ground_state(self, ground):
        assert ground.norm() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonfinite(self, grid):
        samples = np.zeros(grid.n, dtype=complex)
        samples[0] = np.nan
        with pytest.raises(ValueError):
            WaveFunction(grid, samples)

    def test_normalized(self, grid):
        psi = WaveFunction.from_callable(grid, lambda x: 3.0 * np.exp(-0.5 * x * x))
        assert psi.normalized().norm() == pytest.approx(1.0, abs=1e-12)


class TestShift:
    def test_zero_shift_identity(self, ground):
        out = apply_shift(ground, 0.0)
        assert np.abs(out.samples - ground.samples).max() < 1e-14

    def test_grid_multiple_is_circular_roll(self, grid):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        psi = WaveFunction(grid, samples)
        m = 37
        out = apply_shift(psi, m * grid.dx)
        assert np.abs(out.samples - np.roll(samples, -m)).max() < 1e-11

    def test_gaussian_off_grid_shift(self, grid):
        psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
        out = apply_shift(psi, -1.5)
        expected = np.exp(-0.5 * (grid.x - 1.5) ** 2)
        assert np.abs(out.samples - expected).max() < 1e-9

    def test_norm_preserved(self, ground):
        out = apply_shift(ground, 0.7321)
        assert abs(out.norm() - ground.norm()) < 1e-10

    def test_too_large_shift_refused(self, ground):
        with pytest.raises(ShiftRangeError):
            apply_shift(ground, 12.0)


class TestDilation:
    def test_unit_scale_identity(self, ground):
        out = apply_dilation(ground, 1.0)
        assert np.abs(out.samples - ground.samples).max() < 1e-14

    def test_gaussian_scaling(self, grid):
        psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
        out = apply_dilation(psi, 2.0)
        assert np.abs(out.samples - np.exp(-2.0 * grid.x**2)).max() < 1e-8

    def test_group_inverse(self, grid, ground):
        out = apply_dilation(apply_dilation(ground, 2.0), 0.5)
        interior = np.abs(grid.x) <= 10.0
        assert np.abs(out.samples - ground.samples)[interior].max() < 1e-7

    def test_support_overflow_warns(self, grid):
        # scale 1/2 maps the packet at x = 8 out to x = 16, past the window edge
        psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * (x - 8.0) ** 2))
        with pytest.warns(SupportOverflowWarning):
            apply_dilation(psi, 0.5)

    @pytest.mark.parametrize("n", [2**11, 2**14])
    @pytest.mark.parametrize("scale", [SQUEEZE_SCALE, 1.37])
    def test_off_grid_scales_match_gaussian(self, n, scale):
        g = Grid(-12.0, 12.0, n)
        psi = WaveFunction.from_callable(g, lambda x: np.exp(-0.5 * x * x))
        out = apply_dilation(psi, scale)
        assert np.abs(out.samples - np.exp(-0.5 * (scale * g.x) ** 2)).max() <= 1e-11

    def test_asymmetric_window(self):
        g = Grid(-8.0, 16.0, 2048)
        psi = WaveFunction.from_callable(g, lambda x: np.exp(-0.5 * (x - 1.0) ** 2))
        for scale in (SQUEEZE_SCALE, 1.37):
            out = apply_dilation(psi, scale)
            assert np.abs(out.samples - np.exp(-0.5 * (scale * g.x - 1.0) ** 2)).max() <= 1e-11

    @pytest.mark.filterwarnings("ignore::opfactor.grid.SupportOverflowWarning")
    def test_matches_interpolant_summed_term_by_term(self):
        # (1/n) sum_m F_m exp(i k_m (scale x - x_min)), Nyquist term as F_{n/2} cos(pi u / dx)
        g = Grid(-3.0, 5.0, 64)
        rng = np.random.default_rng(8)
        samples = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        spectrum = np.fft.fft(samples)
        for scale in (0.7, 1.3):
            u = scale * g.x - g.x_min
            terms = spectrum * np.exp(1j * np.outer(u, g.k))
            terms[:, g.n // 2] = spectrum[g.n // 2] * np.cos(np.pi * u / g.dx)
            inside = (scale * g.x >= g.x[0]) & (scale * g.x <= g.x[-1])
            expected = np.where(inside, terms.sum(axis=1) / g.n, 0.0)
            out = apply_dilation(WaveFunction(g, samples), scale)
            assert np.abs(out.samples - expected).max() < 1e-12

    @pytest.mark.filterwarnings("ignore::opfactor.grid.SupportOverflowWarning")
    def test_points_mapped_outside_read_zero(self, grid):
        rng = np.random.default_rng(3)
        psi = WaveFunction(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        for scale in (1.37, 2.0):
            out = apply_dilation(psi, scale)
            outside = (scale * grid.x < grid.x[0]) | (scale * grid.x > grid.x[-1])
            assert outside.any()
            assert np.all(out.samples[outside] == 0.0)
            assert np.all(out.samples[~outside] != 0.0)

    def test_rejects_nonpositive_scale(self, ground):
        with pytest.raises(ValueError):
            apply_dilation(ground, 0.0)
        with pytest.raises(ValueError):
            Dilation(-1.0)


class TestSpectralD2:
    def test_zero_identity(self, ground):
        out = apply_spectral_d2(ground, 0.0)
        assert np.abs(out.samples - ground.samples).max() < 1e-14

    def test_real_c_matches_kernel_quadrature(self, grid):
        c = 0.25
        psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
        out = apply_spectral_d2(psi, c)
        x, dx = grid.x, grid.dx
        prefactor = 1.0 / math.sqrt(4.0 * math.pi * c)
        probes = np.linspace(-4.0, 4.0, 32)
        for xp_ in probes:
            j = int(np.argmin(np.abs(x - xp_)))
            integral = prefactor * np.sum(np.exp(-((x - x[j]) ** 2) / (4 * c)) * psi.samples) * dx
            assert abs(out.samples[j] - integral) < 1e-7

    def test_fresnel_matches_free_gaussian(self, grid, ground):
        out = apply_spectral_d2(ground, 0.5j)
        w = 1.0 + 1j
        expected = math.pi**-0.25 / np.sqrt(w) * np.exp(-grid.x**2 / (2.0 * w))
        assert np.abs(out.samples - expected).max() < 1e-7

    def test_unitary_for_imaginary_c(self, ground):
        out = apply_spectral_d2(ground, 0.37j)
        assert abs(out.norm() - ground.norm()) < 1e-10

    def test_negative_real_part_refused(self, ground):
        with pytest.raises(ValueError):
            apply_spectral_d2(ground, -0.1)
        with pytest.raises(ValueError):
            SpectralD2(-0.1 + 1j)


class TestPhases:
    def test_zero_quadratic_identity(self, ground):
        out = apply_phase(ground, QuadraticPhase(0.0))
        assert np.abs(out.samples - ground.samples).max() < 1e-14

    def test_linear_phase_preserves_density(self, ground):
        out = apply_phase(ground, LinearPhase(0.8))
        assert np.abs(out.density() - ground.density()).max() < 1e-14

    def test_scalar_scales_norm(self, ground):
        out = apply_phase(ground, Scalar(cmath.exp(-0.5)))
        assert out.norm() == pytest.approx(math.exp(-0.5) * ground.norm(), abs=1e-12)


class TestMultiplierCache:
    def test_cached_multipliers_are_read_only(self, grid):
        for multiplier in (_fresnel_multiplier(grid, 0.25j), _chirp_multiplier(grid, 0.3)):
            with pytest.raises(ValueError):
                multiplier[0] = 0.0

    def test_windows_get_their_own_multipliers(self):
        wide, narrow = Grid(-12.0, 12.0, 256), Grid(-6.0, 6.0, 256)
        assert not np.allclose(_fresnel_multiplier(wide, 0.25j), _fresnel_multiplier(narrow, 0.25j))
        assert not np.allclose(_chirp_multiplier(wide, 0.3), _chirp_multiplier(narrow, 0.3))

    def test_long_time_chain_matches_uncached_reference(self, grid):
        psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 2.0, 0.5))
        factors = time_displacement_factors(32 * math.pi, 128)
        expected = psi.samples
        for f in factors:
            if isinstance(f, QuadraticPhase):
                expected = expected * np.exp(1j * f.a * grid.x**2)
            else:
                expected = np.fft.ifft(np.fft.fft(expected) * np.exp(-f.c * grid.k**2))
        _fresnel_multiplier.cache_clear()
        _chirp_multiplier.cache_clear()
        out = apply_chain(psi, factors)
        assert np.abs(out.samples - expected).max() < 1e-13
        # one Fresnel multiplier and two chirps (edge and fused), each computed once
        assert _fresnel_multiplier.cache_info().misses == 1
        assert _chirp_multiplier.cache_info().misses == 2

    def test_cache_stays_bounded(self, ground):
        for cache in (_fresnel_multiplier, _chirp_multiplier):
            assert cache.cache_info().maxsize is not None
        for i in range(1, 3 * _fresnel_multiplier.cache_info().maxsize):
            apply_spectral_d2(ground, 1e-3j * i)
            apply_phase(ground, QuadraticPhase(1e-3 * i))
            for cache in (_fresnel_multiplier, _chirp_multiplier):
                info = cache.cache_info()
                assert info.currsize <= info.maxsize


class TestFactorSequences:
    def test_zero_displacement_is_scalar_one(self):
        assert displacement_factors(0.0, 0.0) == [Scalar(1.0 + 0j)]

    def test_displacement_structure(self):
        factors = displacement_factors(1.0, 0.5)
        assert factors == [Shift(-1.0), LinearPhase(0.5), Scalar(cmath.exp(-0.25j))]

    def test_real_squeeze_structure(self):
        factors = squeeze_factors(SqueezeParameter(1.0, 0.0))
        assert len(factors) == 2
        assert isinstance(factors[0], Dilation)
        assert factors[0].scale == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert factors[1].s == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_time_quarter_period_structure(self):
        factors = time_displacement_factors(math.pi / 4, 1)
        assert [type(f) for f in factors] == [QuadraticPhase, SpectralD2, QuadraticPhase]
        assert factors[0].a == pytest.approx(-0.5 * math.tan(math.pi / 8), abs=1e-15)
        assert factors[1].c == pytest.approx(0.5j * math.sin(math.pi / 4), abs=1e-15)
        assert factors[2] == factors[0]

    def test_time_substep_chirps_fuse(self):
        factors = time_displacement_factors(2.0, 3)
        assert [type(f) for f in factors] == [QuadraticPhase, SpectralD2] * 3 + [QuadraticPhase]
        edge = -0.5 * math.tan(1.0 / 3.0)
        assert [f.a for f in factors[::2]] == [edge, 2 * edge, 2 * edge, edge]

    def test_min_time_substeps(self):
        assert [min_time_substeps(t) for t in (0.0, 0.6, math.pi / 2, 2.0, -math.pi)] == [
            1, 1, 2, 2, 3
        ]
        for t in (math.pi / 2, 2.0, -7.0, 32 * math.pi):
            time_displacement_factors(t, min_time_substeps(t))
            with pytest.raises(CausticError):
                time_displacement_factors(t, min_time_substeps(t) - 1)

    def test_substep_guard(self):
        with pytest.raises(CausticError):
            time_displacement_factors(2.0, 1)
        time_displacement_factors(2.0, 2)  # fine once split
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                time_displacement_factors(t, 4)

    def test_substep_count_bounded(self):
        # refused before the factor list is built, so a huge count costs nothing
        for substeps in (MAX_TIME_SUBSTEPS + 1, int(1e300), 1e300):
            with pytest.raises(ValueError, match=f"<= {MAX_TIME_SUBSTEPS}"):
                time_displacement_factors(1.0, substeps)
        assert len(time_displacement_factors(1.0, MAX_TIME_SUBSTEPS)) == 2 * MAX_TIME_SUBSTEPS + 1

    def test_caustic_hint_names_substep_bound(self):
        with pytest.raises(CausticError, match="use at least 3 substeps") as small:
            time_displacement_factors(4.0)
        assert "allowed" not in str(small.value)
        # 2e5 needs 127324 substeps, which the bound refuses
        with pytest.raises(CausticError, match=f"127324 .*more than the {MAX_TIME_SUBSTEPS}"):
            time_displacement_factors(2e5)

    def test_zero_time_is_identity_chain(self, ground):
        out = apply_chain(ground, time_displacement_factors(0.0, 3))
        assert np.abs(out.samples - ground.samples).max() < 1e-14


class TestChains:
    def test_empty_chain_identity(self, ground):
        out = apply_chain(ground, [])
        assert out.samples is ground.samples

    def test_real_squeeze_on_ground(self, grid, ground):
        out = apply_chain(ground, squeeze_factors(SqueezeParameter(1.0, 0.0)))
        s = math.e
        expected = (math.sqrt(math.pi) * s) ** -0.5 * np.exp(-grid.x**2 / (2 * s * s))
        assert np.abs(out.samples - expected).max() < 1e-8

    def test_displacement_on_ground_density(self, grid, ground):
        out = apply_chain(ground, displacement_factors(1.0, 0.5))
        expected = np.abs(coherent_state(grid.x, 1.0, 0.5)) ** 2
        assert np.abs(out.density() - expected).max() < 1e-9

    def test_associativity_of_splitting(self, ground):
        chain = time_displacement_factors(0.9, 1) + displacement_factors(0.3, -0.2)
        whole = apply_chain(ground, chain)
        split = apply_chain(apply_chain(ground, chain[:3]), chain[3:])
        assert np.abs(whole.samples - split.samples).max() < 1e-12

    def test_linearity(self, grid):
        rng = np.random.default_rng(21)
        psi1 = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.0))
        psi2 = WaveFunction.from_callable(grid, lambda x: coherent_state(x, -1.0, 0.4))
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        chain = time_displacement_factors(0.6, 1)
        combined = apply_chain(psi1.with_samples(a * psi1.samples + b * psi2.samples), chain)
        separate = a * apply_chain(psi1, chain).samples + b * apply_chain(psi2, chain).samples
        assert np.abs(combined.samples - separate).max() < 1e-10

    def test_unitarity_of_named_chains(self, grid, ground):
        coherent = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.5))
        for psi, chain in [
            (ground, displacement_factors(1.0, 0.5)),
            (ground, squeeze_factors(SqueezeParameter(1.0, 0.0))),
            (coherent, time_displacement_factors(0.7, 1)),
            (coherent, squeeze_factors(SqueezeParameter(0.8, math.pi / 3))),
        ]:
            out = apply_chain(psi, chain)
            assert abs(out.norm() - psi.norm()) < 1e-9

    def test_error_carries_index_context(self, ground):
        with pytest.raises(ChainError, match="factor 1"):
            apply_chain(ground, [Scalar(1.0), Shift(20.0)])

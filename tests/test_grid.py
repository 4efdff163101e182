"""Tests for grid states, the elementary factor actions, and factor chains."""
import cmath
import contextlib
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfactor.algebra import (
    CausticError, SqueezeParameter, time_displacement_factorization, time_periods,
)
from opfactor.grid import (
    MAX_TIME_SUBSTEPS,
    ChainError,
    ChainRefusedError,
    Dilation,
    Grid,
    QuadraticPhase,
    Shift,
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
from opfactor import grid as grid_module
from opfactor.grid import _multiplier
from opfactor.states import SqueezedStateSpec, coherent_evolved, coherent_state, psi0, psi_ss
from reference import traced_held, traced_peak


# the dilation in the chain of squeeze:r=1.5,phi=2
SQUEEZE_SCALE = next(
    f.scale for f in squeeze_factors(SqueezeParameter(1.5, 2.0)) if isinstance(f, Dilation)
)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _one_factor(psi, factor):
    """One factor alone, on a fresh copy of psi's samples: the factor-by-factor reference."""
    return apply_chain(psi, [factor])


@contextlib.contextmanager
def _refusal(match=None):
    """Expect a ValueError that is not a CausticError: a refused input, not a singularity."""
    with pytest.raises(ValueError, match=match) as info:
        yield info
    assert not isinstance(info.value, CausticError)


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
        for edges in ((-math.inf, 12.0), (-12.0, math.inf), (math.nan, 12.0)):
            with pytest.raises(ValueError):
                Grid(*edges)

    def test_rejects_window_whose_square_overflows(self):
        for edges in ((-12.0, 1e300), (-1e200, 12.0), (-1.5e154, 1.5e154)):
            with pytest.raises(ValueError, match="x\\^2 overflows"):
                Grid(*edges)
        Grid(-1e150, 1e150)  # x^2 = 1e300 is finite

    def test_rejects_window_whose_wavenumbers_overflow(self):
        # dx = 0 at 5e-324; below dx of about 2.34e-154, (pi/dx)^2 overflows
        for x_max in (5e-324, 1e-300, 1e-153):
            with pytest.raises(ValueError, match="\\(pi/dx\\)\\^2 overflows"):
                Grid(0.0, x_max, 16)
        assert math.isfinite(Grid(0.0, 1e-150, 16).k.max() ** 2)


class TestWaveFunction:
    def test_norm_of_ground_state(self, ground):
        assert ground.norm() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_shape(self, grid):
        with pytest.raises(ValueError, match="shape \\(2048,\\)"):
            WaveFunction(grid, np.zeros(5))

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
        with pytest.raises(ChainRefusedError, match="factor 0 .* half the grid span"):
            apply_shift(ground, 12.0)

    def test_complex_shift_refused(self, ground):
        # exp(i k c) with Im c = 0.5 is the filter exp(-0.5 k), which would return norm 8.6e41
        with pytest.raises(ValueError, match="real"):
            apply_shift(ground, 0.5j)
        with pytest.raises(ValueError, match="real"):
            Shift(np.complex128(1.0))


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
    @pytest.mark.parametrize("scale", [pytest.param(SQUEEZE_SCALE, id="squeeze_r1.5_phi2"), 1.37])
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
        # a complex scale is refused as a ValueError, not a TypeError from its comparison
        with pytest.raises(ValueError, match="real"):
            Dilation(1j)
        with pytest.raises(ValueError, match="real"):
            apply_dilation(ground, 1.0 + 0j)


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
        out = apply_phase(ground, QuadraticPhase(0.0, 0.8))
        assert np.abs(out.density() - ground.density()).max() < 1e-14

    def test_scalar_scales_norm(self, ground):
        out = apply_phase(ground, QuadraticPhase(0.0, 0.0, cmath.exp(-0.5)))
        assert out.norm() == pytest.approx(math.exp(-0.5) * ground.norm(), abs=1e-12)

    @pytest.mark.parametrize("n", [2**11, 2**14])
    def test_chirp_multiplier_is_the_plain_exponential(self, n):
        # the time chains' chirps, edge and fused, keep the bits of exp(i a x^2)
        grid = Grid(n=n)
        edge = -0.5 * math.tan(0.5 * 32 * math.pi / 128)
        for a in (edge, 2.0 * edge, 0.3, -0.5 * math.tan(0.1)):
            assert np.array_equal(_multiplier(grid, QuadraticPhase(a)), np.exp(1j * a * grid.x**2))

    def test_non_phase_factor_refused(self, ground):
        with pytest.raises(TypeError, match="not a pointwise factor"):
            apply_phase(ground, Shift(0.1))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("make", [
    Shift, Dilation, SpectralD2, lambda v: SpectralD2(complex(0.0, v)),
    QuadraticPhase, lambda v: QuadraticPhase(0.0, v), lambda v: QuadraticPhase(0.0, 0.0, v),
    lambda v: QuadraticPhase(0.0, 0.0, complex(1.0, v)),
], ids=["shift", "dilation", "d2", "d2_imag", "phase_a", "phase_p", "phase_s", "phase_s_imag"])
def test_factor_refuses_a_parameter_that_is_not_finite(make, value):
    # built, Dilation(inf) would give the zero state unnoticed, Shift(nan) would pass the
    # wrap check, and the others would fail only after running, as non-finite samples
    with pytest.raises(ValueError, match="finite"):
        make(value)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(a=_finite(-1.0, 1.0), p=_finite(-3.0, 3.0), re=_finite(-2.0, 2.0), im=_finite(-2.0, 2.0))
def test_phase_is_chirp_ramp_and_constant_one_at_a_time(a, p, re, im):
    grid = Grid(-8.0, 8.0, 128)
    psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.5))
    s = complex(re, im)
    out = apply_phase(psi, QuadraticPhase(a, p, s))
    expected = s * (np.exp(1j * a * grid.x**2) * (np.exp(1j * p * grid.x) * psi.samples))
    # |a x^2 + p x| <= 88 on this window, whose ulp is 1.4e-14: the phase rounds differently
    assert np.abs(out.samples - expected).max() <= 1e-13 * abs(s)


def _count_builds(monkeypatch):
    """Record every array grid._multiplier builds from here on."""
    built = []

    def counting(grid, factor):
        built.append(_multiplier(grid, factor))
        return built[-1]

    monkeypatch.setattr(grid_module, "_multiplier", counting)
    return built


class TestMultipliers:
    FACTORS = (
        Shift(0.4), SpectralD2(0.25j), QuadraticPhase(0.3), QuadraticPhase(0.0, 0.5),
        QuadraticPhase(0.3, 0.5, 0.5j), QuadraticPhase(0.0, 0.0, 0.5j),
    )

    def test_each_kind_builds_its_array_once_per_chain(self, ground, monkeypatch):
        # every kind's multiplier, the shift's and the phase ramp's too, is built once per
        # chain however often the chain reads it, and a second chain builds it again
        built = _count_builds(monkeypatch)
        for factor in self.FACTORS:
            built.clear()
            chain = [factor, QuadraticPhase(0.0, 0.0, -1.0), factor]
            first = apply_chain(ground, chain)
            assert len(built) == 2
            assert np.array_equal(apply_chain(ground, chain).samples, first.samples)
            assert len(built) == 4
            assert np.array_equal(built[2], built[0])

    def test_windows_get_their_own_multipliers(self):
        wide, narrow = Grid(-12.0, 12.0, 256), Grid(-6.0, 6.0, 256)
        for factor in self.FACTORS[:-1]:
            assert not np.allclose(_multiplier(wide, factor), _multiplier(narrow, factor))

    def test_long_time_chain_matches_uncached_reference(self, grid, monkeypatch):
        psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 2.0, 0.5))
        factors = time_displacement_factors(32 * math.pi, 128)
        expected = psi.samples
        for f in factors:
            if isinstance(f, QuadraticPhase):
                expected = expected * np.exp(1j * f.a * grid.x**2)
            else:
                expected = np.fft.ifft(np.fft.fft(expected) * np.exp(-f.c * grid.k**2))
        built = _count_builds(monkeypatch)
        out = apply_chain(psi, factors)
        assert np.abs(out.samples - expected).max() < 1e-13
        # one Fresnel multiplier and two chirps (edge and fused), each computed once
        assert len(built) == 3

    def test_time_chain_holds_no_array_after_it_returns(self):
        # evolve-period's chain: at n = 16384 each multiplier is 256 KiB, and a chain that
        # kept its three would hold 768 KiB more than the samples it returns
        grid = Grid(n=2**14)
        psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 3.0, 1.0))
        factors = time_displacement_factors(32 * math.pi, 128)
        grid.k  # the grid's own wavenumbers, built once and kept with the grid
        held, out = traced_held(lambda: apply_chain(psi, factors))
        assert abs(held - out.samples.nbytes) < 64 * 1024

    def test_distinct_factors_are_not_held_past_their_use(self):
        # 80 distinct factors, each read once, so a chain needs one multiplier at a time:
        # the peak reads 774 KiB, where keeping the last eight would take 2 MiB on their own
        grid = Grid(n=2**14)
        psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.5))
        factors = [f for i in range(1, 41) for f in displacement_factors(0.01 * i, 0.02 * i)]
        grid.k
        assert traced_peak(lambda: apply_chain(psi, factors)) < 4 * psi.samples.nbytes


class TestFactorSequences:
    def test_zero_displacement_is_scalar_one(self):
        assert displacement_factors(0.0, 0.0) == [Shift(0.0), QuadraticPhase(0.0, 0.0, 1.0)]

    def test_displacement_structure(self):
        factors = displacement_factors(1.0, 0.5)
        assert factors == [Shift(-1.0), QuadraticPhase(0.0, 0.5, cmath.exp(-0.25j))]

    def test_real_squeeze_structure(self):
        factors = squeeze_factors(SqueezeParameter(1.0, 0.0))
        assert [type(f) for f in factors] == [SpectralD2, Dilation, QuadraticPhase]
        assert factors[0] == SpectralD2(0.0)
        assert factors[1].scale == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert (factors[2].a, factors[2].p) == (0.0, 0.0)
        assert factors[2].s == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_zero_families_return_psi_itself(self, ground):
        # the builders keep zero factors, and the chain skips every one of them
        assert apply_chain(ground, displacement_factors(0.0, 0.0)) is ground
        assert apply_chain(ground, squeeze_factors(SqueezeParameter(0.0))) is ground

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
            with _refusal():
                time_displacement_factors(t, min_time_substeps(t) - 1)

    def test_substep_guard(self):
        with _refusal():
            time_displacement_factors(2.0, 1)
        time_displacement_factors(2.0, 2)  # fine once split
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                time_displacement_factors(t, 4)

    def test_substep_count_is_a_whole_number(self):
        assert time_displacement_factors(1.0, 2.0) == time_displacement_factors(1.0, 2)
        for substeps in (2.5, math.inf):
            with pytest.raises(ValueError, match="whole number"):
                time_displacement_factors(1.0, substeps)
        # a whole count keeps its own text
        with pytest.raises(ValueError, match="got 0$"):
            time_displacement_factors(1.0, 0.0)

    def test_substep_count_bounded(self):
        # refused before the factor list is built, so a huge count costs nothing
        for substeps in (MAX_TIME_SUBSTEPS + 1, int(1e300), 1e300):
            with pytest.raises(ValueError, match=f"<= {MAX_TIME_SUBSTEPS}"):
                time_displacement_factors(1.0, substeps)
        assert len(time_displacement_factors(1.0, MAX_TIME_SUBSTEPS)) == 2 * MAX_TIME_SUBSTEPS + 1

    def test_caustic_hint_names_the_fewest_count_or_none(self):
        with _refusal(match="use at least 3 substeps for t = 4, or none$"):
            time_displacement_factors(4.0, 2)
        # 2e5 needs 127324 substeps, more than MAX_TIME_SUBSTEPS: a count is refused, none is not
        with _refusal(match="127324 substeps for t = 200000, or none$"):
            time_displacement_factors(2e5, 5)
        assert len(time_displacement_factors(2e5)) <= 7

    def test_default_count_is_the_fewest_for_the_rest(self):
        # within half a period the rest is t itself, so the chain is that of the fewest count
        for t in (0.0, -0.0, 0.6, math.pi / 2, 2.0, math.pi, -math.pi):
            assert time_displacement_factors(t) == time_displacement_factors(t, min_time_substeps(t))
        # beyond, it is (-1)^m times the chain of the rest, the sign in the first chirp's scalar
        for t in (-7.0, 32 * math.pi, 33 * math.pi + 0.5, 1e5, -2e5):
            m, rest = time_periods(t)
            chain = time_displacement_factors(rest, min_time_substeps(rest))
            chain[0] = QuadraticPhase(chain[0].a, 0.0, (-1.0) ** m)
            assert time_displacement_factors(t) == chain

    def test_zero_time_is_identity_chain(self, ground):
        out = apply_chain(ground, time_displacement_factors(0.0, 3))
        assert np.abs(out.samples - ground.samples).max() < 1e-14


def _out_of_place(psi, factor):
    """One factor by new arrays throughout: the reference for the in-place kernels.

    Each multiplier is bound to a name first.  numpy may evaluate
    `samples * <temporary>` as `<temporary> *= samples`, and with fused
    multiply-adds the swapped complex product can differ in the last bit.
    The dilation builds a new array in either form, so it is taken as is.
    """
    s, x, k = psi.samples, psi.grid.x, psi.grid.k
    if isinstance(factor, Dilation):
        return apply_dilation(psi, factor.scale)
    if isinstance(factor, Shift):
        multiplier = np.exp(1j * k * factor.c)
        return psi.with_samples(np.fft.ifft(np.fft.fft(s) * multiplier))
    if isinstance(factor, SpectralD2):
        multiplier = np.exp(-complex(factor.c) * k**2)
        return psi.with_samples(np.fft.ifft(np.fft.fft(s) * multiplier))
    multiplier = complex(factor.s) * np.exp(1j * (factor.a * x**2 + factor.p * x))
    return psi.with_samples(s * multiplier)


class TestChains:
    @pytest.mark.parametrize("apply, arg, factor", [
        (apply_shift, -1.5, Shift(-1.5)),
        (apply_dilation, 2.0, Dilation(2.0)),
        (apply_spectral_d2, 0.25, SpectralD2(0.25)),
        (apply_spectral_d2, 0.5j, SpectralD2(0.5j)),
        (apply_phase, QuadraticPhase(0.3, -0.5, 0.5j), QuadraticPhase(0.3, -0.5, 0.5j)),
    ], ids=["shift", "dilation", "heat", "fresnel", "phase"])
    def test_single_factor_function_is_the_one_factor_chain(self, ground, apply, arg, factor):
        assert np.array_equal(apply(ground, arg).samples, apply_chain(ground, [factor]).samples)

    def test_single_factor_failure_is_a_chain_error(self, ground):
        huge = ground.with_samples(1e200 * ground.samples)
        with np.errstate(over="ignore"), pytest.raises(ChainError, match="factor 0 .* failed"):
            apply_phase(huge, QuadraticPhase(0.0, 0.0, 1e200))

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
            apply_chain(ground, [QuadraticPhase(0.0, 0.0, 1.0), Shift(20.0)])

    def test_refused_factor_is_raised_before_any_runs(self, ground):
        # the overflow at factor 0 would fail the chain if factor 2 were not refused first
        with np.errstate(over="ignore"), pytest.raises(ChainRefusedError, match="factor 2"):
            apply_chain(ground, [QuadraticPhase(0.0, 0.0, 1e200)] * 2 + [Shift(20.0)])
        assert issubclass(ChainRefusedError, ChainError) and issubclass(ChainRefusedError, ValueError)

    def test_object_that_is_not_a_factor_is_refused(self, ground):
        with pytest.raises(ChainRefusedError, match="factor 0 .* not a pointwise factor"):
            apply_chain(ground, [object()])

    def test_nonfinite_mid_chain_names_its_factor(self, ground):
        # every sample of factor 1's output is finite, but sum |psi|^2 overflows there
        with np.errstate(over="ignore"), pytest.raises(ChainError, match="factor 1 .* not finite"):
            apply_chain(ground, [QuadraticPhase(0.0, 0.0, s) for s in (1.0, 1e200, 1e200)])

    @pytest.mark.parametrize("chain, index", [
        # a x^2 overflows, so the chirp and the samples turn NaN
        ([QuadraticPhase(0.3), QuadraticPhase(1e308)], 1),
        # every sample stays finite; their squares overflow the sum
        ([QuadraticPhase(0.0, 0.0, 1e200)], 0),
    ], ids=["nan_samples", "finite_samples"])
    def test_nonfinite_sum_names_its_factor(self, ground, chain, index):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ChainError, match=f"factor {index} .* not finite"):
            apply_chain(ground, chain)

    def test_lossy_dilation_inside_a_chain_warns_once(self, grid):
        # the evolve case of tests/test_cli.py's lost-support line, then a time chain
        spec = SqueezedStateSpec(1.0, 0.5, SqueezeParameter(0.8, 1.0))
        psi = WaveFunction.from_callable(grid, lambda x: psi_ss(x, spec))
        chain = squeeze_factors(SqueezeParameter(0.5, 0.3)) + time_displacement_factors(1.0)
        with pytest.warns(SupportOverflowWarning) as record:
            apply_chain(psi, chain)
        assert [str(w.message) for w in record] == [
            "dilation by 0.615215 lost a fraction 7.039e-06 of the expected norm "
            "to points outside the grid"]

    def test_identity_and_lossless_dilations_do_not_warn(self, ground):
        chain = [QuadraticPhase(0.2), Dilation(1.0), SpectralD2(0.3j), Dilation(2.0), Shift(0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", SupportOverflowWarning)
            apply_chain(ground, chain)

    @pytest.mark.parametrize("n, x0, p0, chain", [
        # the evolve-period chain: 16 periods in 128 substeps
        (16384, 2.0, 0.5, time_displacement_factors(32 * math.pi, 128)),
        (2048, 0.0, 0.0,
         squeeze_factors(SqueezeParameter(1.5, 2.0)) + displacement_factors(2.0, -1.0)),
        (16384, 1.0, 0.5,
         [Shift(-0.7), QuadraticPhase(0.0, 0.4), Shift(1.3), QuadraticPhase(0.0, -2.0)]),
        (2048, 1.0, 0.5, [Shift(-0.7), QuadraticPhase(0.1, -2.0, cmath.exp(0.3j)), SpectralD2(0.2j)]),
    ], ids=["evolve_period", "squeeze_displace", "shift_linear_phase", "shift_full_phase"])
    def test_in_place_chain_is_bit_identical_to_factor_by_factor(self, n, x0, p0, chain):
        psi = WaveFunction.from_callable(Grid(n=n), lambda x: coherent_state(x, x0, p0))
        before = psi.samples.copy()
        out = apply_chain(psi, chain)
        for reference in (_one_factor, _out_of_place):
            assert np.array_equal(out.samples, functools.reduce(reference, chain, psi).samples)
        assert np.array_equal(psi.samples, before)


# a box of every factor kind that keeps a coherent state finite on the window
FACTOR = st.one_of(
    st.builds(Shift, _finite(-3.0, 3.0)),
    st.builds(Dilation, _finite(0.5, 2.0)),
    st.builds(lambda re, im: SpectralD2(complex(re, im)), _finite(0.0, 0.5), _finite(-1.0, 1.0)),
    st.builds(
        QuadraticPhase,
        _finite(-1.0, 1.0),
        st.one_of(st.just(0.0), _finite(-3.0, 3.0)),
        st.one_of(st.just(1.0), st.builds(complex, _finite(-2.0, 2.0), _finite(-2.0, 2.0))),
    ),
)


@pytest.mark.filterwarnings("ignore::opfactor.grid.SupportOverflowWarning")
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(chain=st.lists(FACTOR, max_size=6))
def test_random_chain_is_bit_identical_to_factor_by_factor(chain):
    psi = WaveFunction.from_callable(Grid(-8.0, 8.0, 128), lambda x: coherent_state(x, 1.0, 0.5))
    before = psi.samples.copy()
    out = apply_chain(psi, chain)
    assert np.array_equal(out.samples, functools.reduce(_one_factor, chain, psi).samples)
    assert np.array_equal(psi.samples, before)


# --- the period rule: T(t) = (-1)^m T(t - 2 pi m) ------------------------------------

PERIOD_GRID = Grid(-10.0, 10.0, 128)


def _evolved(t):
    """The count-free chain of t on a coherent state, and its error against
    coherent_evolved, phase included."""
    chain = time_displacement_factors(t)
    assert len(chain) <= 7  # at most 3 substeps
    psi = WaveFunction.from_callable(PERIOD_GRID, lambda x: coherent_state(x, 1.0, 0.5))
    out = apply_chain(psi, chain)
    return out.samples, np.abs(out.samples - coherent_evolved(PERIOD_GRID.x, t, 1.0, 0.5)).max()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(t=_finite(-1e6, 1e6))
@example(t=1e12)
@example(t=-1e12)
def test_count_free_chain_is_the_evolution_at_any_t(t):
    for s in (t, t + 2.0 * math.pi):
        assert _evolved(s)[1] <= 1e-13


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(t=_finite(-50.0, 50.0))
def test_chain_a_period_on_is_the_negative(t):
    # on this lattice the sum t + 2 pi is exact, so the two times differ by the double 2 pi alone
    t = round(t * 2.0**40) / 2.0**40
    assert (t + 2.0 * math.pi) - t == 2.0 * math.pi
    assert np.abs(_evolved(t + 2.0 * math.pi)[0] + _evolved(t)[0]).max() <= 1e-13


@pytest.mark.parametrize("t", [2 * math.pi + 0.3, 2 * math.pi - 0.3, 4 * math.pi + 0.3,
                               -2 * math.pi + 0.3])
def test_closed_form_carries_the_period_sign(t):
    grid = Grid(-12.0, 12.0, 256)
    c = time_displacement_factorization(t)
    assert c.beta.imag == 0.0  # cos t > 0 at each of these t
    chain = [SpectralD2(1j * c.gamma.real), Dilation(math.exp(c.beta.real)),
             QuadraticPhase(c.alpha.real, 0.0, cmath.exp(c.delta))]
    psi = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.5))
    out = apply_chain(psi, chain)
    assert np.abs(out.samples - coherent_evolved(grid.x, t, 1.0, 0.5)).max() <= 1e-12

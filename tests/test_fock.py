"""Tests for the truncated number-basis matrices and the direct-exponential oracle."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opfactor import checks, fock
from opfactor.algebra import (
    FactorizationCoefficients,
    GeneratorCoefficients,
    SqueezeParameter,
    generator_factorization,
    squeeze_factorization,
    time_displacement_factorization,
)
from opfactor.fock import (
    FockBasis,
    apply_factored,
    apply_squeeze,
    displacement_generator,
    factored_matrix,
    fock_to_position,
    generator_matrix,
    hermite_functions,
    ladder_matrices,
    position_to_fock,
    squeeze_generator,
    unitary_exponential,
    xp_matrices,
)
from opfactor.grid import Grid, WaveFunction
from opfactor.states import SqueezedStateSpec, psi_ss
from reference import matrix_exponential, squeeze_generator_ladder


@pytest.fixture(scope="module")
def grid():
    return Grid()


class TestLadder:
    def test_two_by_two(self):
        a, adag = ladder_matrices(2)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag, a.conj().T)

    def test_commutator_on_retained_block(self):
        n = 32
        a, adag = ladder_matrices(n)
        comm = a @ adag - adag @ a
        assert np.abs(comm[: n - 1, : n - 1] - np.eye(n - 1)).max() < 1e-12
        assert comm[n - 1, n - 1] == pytest.approx(-(n - 1), abs=1e-12)

    def test_annihilates_vacuum(self):
        a, _ = ladder_matrices(16)
        vacuum = np.zeros(16)
        vacuum[0] = 1.0
        assert np.abs(a @ vacuum).max() == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 8, 9, 64, 128, 257, 512])
    def test_squeeze_generator_is_the_ladder_product(self, dim):
        # every bit, signed zeros included, of 0.5 (z a^dag a^dag - z* a a) from dense products
        for z in (SqueezeParameter(0.8, math.pi / 3), SqueezeParameter(2.0, 5.0),
                  SqueezeParameter(1.0, math.pi), SqueezeParameter(0.0)):
            got = squeeze_generator(z, dim)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), squeeze_generator_ladder(z, dim).view(np.uint64))

    def test_squeeze_generator_needs_two_levels(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            squeeze_generator(SqueezeParameter(0.5), 1)


class TestXP:
    def test_two_by_two(self):
        x, _ = xp_matrices(2)
        assert np.allclose(x, np.array([[0, 1], [1, 0]]) / math.sqrt(2), atol=1e-15)

    def test_commutator_is_minus_identity(self):
        n = 64
        x, d = xp_matrices(n)
        comm = x @ d - d @ x
        assert np.abs(comm[: n - 1, : n - 1] + np.eye(n - 1)).max() < 1e-12

    def test_hermiticity(self):
        x, d = xp_matrices(64)
        assert np.abs(x - x.conj().T).max() < 1e-14
        assert np.abs(d + d.conj().T).max() < 1e-14


class TestGeneratorMatrix:
    def test_zero(self):
        g = generator_matrix(GeneratorCoefficients(), 16)
        assert np.abs(g).max() == 0.0

    def test_oscillator_is_diagonal_number_operator(self):
        n = 32
        g = generator_matrix(GeneratorCoefficients.oscillator(), n)
        expected = -1j * np.diag(np.arange(n) + 0.5)
        assert np.abs(g[: n - 2, : n - 2] - expected[: n - 2, : n - 2]).max() < 1e-12

    def test_real_squeeze_antihermitian_block(self):
        n = 64
        g = generator_matrix(GeneratorCoefficients.squeeze(SqueezeParameter(0.7, 0.0)), n)
        sym = g + g.conj().T
        assert np.abs(sym[: n - 1, : n - 1]).max() < 1e-12


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        assert np.array_equal(matrix_exponential(np.zeros((5, 5))), np.eye(5))

    def test_diagonal(self):
        d = np.array([0.3, -1.2, 2.0 + 1j])
        out = matrix_exponential(np.diag(d))
        assert np.abs(out - np.diag(np.exp(d))).max() < 1e-13

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        anti = 0.5 * (raw - raw.conj().T)
        u = matrix_exponential(anti)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-11

    def test_norm_guard(self):
        with pytest.raises(OverflowError):
            matrix_exponential(2e6 * np.eye(4))

    def test_nonfinite_rejected(self):
        m = np.zeros((3, 3))
        m[0, 0] = np.inf
        with pytest.raises(ValueError):
            matrix_exponential(m)


class TestFactoredMatrix:
    def test_zero_coefficients_identity(self):
        m = factored_matrix(FactorizationCoefficients.zero(), 32)
        assert np.abs(m - np.eye(32)).max() < 1e-14

    def test_time_displacement_diagonal_small_t(self):
        n, block = 64, 32
        m = factored_matrix(time_displacement_factorization(0.3), n)
        expected = np.diag(np.exp(-1j * (np.arange(n) + 0.5) * 0.3))
        assert np.abs(m[:block, :block] - expected[:block, :block]).max() < 1e-8

    def test_time_displacement_diagonal_converges_in_dim(self):
        # At t = 1.0 the factors spread far beyond a 64-state basis; the pinned
        # comparison only becomes clean once the basis holds the intermediates.
        block = 32
        expected_err = {64: 1e1, 256: 1e-12}
        for dim, bound in expected_err.items():
            m = factored_matrix(time_displacement_factorization(1.0), dim)
            expected = np.diag(np.exp(-1j * (np.arange(dim) + 0.5) * 1.0))
            err = np.abs(m[:block, :block] - expected[:block, :block]).max()
            assert err < bound

    def test_squeeze_against_direct_exponential(self):
        n, block = 128, 32
        z = SqueezeParameter(0.5, 1.0)
        m = factored_matrix(squeeze_factorization(z, 1.0), n)
        direct = matrix_exponential(squeeze_generator(z, n))
        assert np.abs(m[:block, :block] - direct[:block, :block]).max() < 1e-6

    def test_generator_forms_agree(self):
        # ladder-form squeeze generator equals its x/d-form counterpart
        n = 64
        z = SqueezeParameter(0.9, 2.2)
        from_ladder = squeeze_generator(z, n)
        from_xd = generator_matrix(GeneratorCoefficients.squeeze(z), n)
        assert np.abs(from_ladder[: n - 1, : n - 1] - from_xd[: n - 1, : n - 1]).max() < 1e-12


def expm_product(c, dim):
    """exp(delta) times the three factors, each through scipy's expm."""
    x, d = xp_matrices(dim)
    return cmath.exp(c.delta) * (
        matrix_exponential(1j * c.alpha * (x @ x))
        @ matrix_exponential(c.beta * (x @ d))
        @ matrix_exponential(1j * c.gamma * (d @ d))
    )


SPECTRAL_CASES = {
    "time_t0.3": time_displacement_factorization(0.3),
    "time_t1": time_displacement_factorization(1.0),
    "squeeze_r1_phi1.047": squeeze_factorization(SqueezeParameter(1.0, math.pi / 3), 1.0),
    "squeeze_r2_phi1": squeeze_factorization(SqueezeParameter(2.0, 1.0), 1.0),
    "squeeze_r1.5_phi2": squeeze_factorization(SqueezeParameter(1.5, 2.0), 1.0),
}


class TestSpectralRoutes:
    @pytest.mark.parametrize("dim", [64, 128, 256, 512])
    def test_factored_matrix_matches_expm_product(self, dim):
        # the dense matrix, a (dim, k) block and a 1-D vector, all on the low quarter
        quarter = slice(0, dim // 4)
        rng = np.random.default_rng(dim)
        vector = np.zeros(dim, dtype=complex)
        vector[quarter] = rng.standard_normal(dim // 4) + 1j * rng.standard_normal(dim // 4)
        block = np.eye(dim, dim // 4) + 0.5j * np.eye(dim, dim // 4, k=1)
        for name, c in SPECTRAL_CASES.items():
            ref = expm_product(c, dim)
            for got, want in ((factored_matrix(c, dim)[quarter, quarter], ref[quarter, quarter]),
                              (apply_factored(c, block)[quarter], (ref @ block)[quarter]),
                              (apply_factored(c, vector)[quarter], (ref @ vector)[quarter])):
                assert got.shape == want.shape
                rel = np.abs(got - want).max() / np.abs(want).max()
                assert rel <= 1e-12, (name, rel)

    @pytest.mark.parametrize("dim", [64, 128, 256])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi, 5.0])
    def test_apply_squeeze_matches_expm(self, dim, phi):
        # P exp(rK) P^dag with phi read as the angle of z, so phi past pi too
        for r in (0.8, 2.0):
            z = SqueezeParameter(r, phi)
            ref = matrix_exponential(squeeze_generator(z, dim))
            assert np.abs(apply_squeeze(z, np.eye(dim)) - ref).max() <= 1e-12
            vector = ref[:, 3].conj()
            assert np.abs(apply_squeeze(z, vector) - ref @ vector).max() <= 1e-12

    @pytest.mark.parametrize("dim", [64, 256])
    def test_unitary_exponential_matches_expm(self, dim):
        generators = [
            squeeze_generator(SqueezeParameter(0.8, math.pi / 3), dim),
            squeeze_generator(SqueezeParameter(2.0, 1.0), dim),
            displacement_generator(1.0, 0.5, dim),
            displacement_generator(-2.0, 1.5, dim),
        ]
        for g in generators:
            assert np.abs(unitary_exponential(g) - matrix_exponential(g)).max() <= 1e-12

    def test_decomposition_cache_is_read_only_and_bounded(self):
        for dim in (8, 9, 16, 24, 32, 40, 48):
            bundle = fock._spectra(dim)
            assert fock._spectra(dim) is bundle
            assert [len(b.lam2) for b in bundle] == [(dim + 1) // 2, dim // 2]
            assert all(len(a) == len(b.lam2) for b in bundle for a in b)
            assert all(not a.flags.writeable for b in bundle for a in b)
            for name in ("u", "w"):
                with pytest.raises(ValueError):
                    getattr(bundle[1], name)[0, 0] = 1.0
        info = fock._spectra.cache_info()
        assert info.maxsize == 4 and info.currsize <= info.maxsize

    @pytest.mark.parametrize("dim", [32, 33])
    def test_decompositions_reconstruct_x_and_xd(self, dim):
        # each parity block rebuilds X^2, X D and K; every product is zero across the blocks
        x, d = xp_matrices(dim)
        k = squeeze_generator(SqueezeParameter(1.0), dim)
        assert np.abs(-1j * (fock._i_powers(dim).conj()[:, None] * x * fock._i_powers(dim))
                      - d).max() == 0.0
        for m in (x @ x, x @ d, k):
            assert np.all(m[0::2, 1::2] == 0) and np.all(m[1::2, 0::2] == 0)
        for start, b in enumerate(fock._spectra(dim)):
            blk = slice(start, None, 2)
            assert np.abs((b.u * b.lam2) @ b.u.T - (x @ x)[blk, blk]).max() < 1e-12
            assert np.abs((b.v * b.mu) @ b.v_inv - (x @ d)[blk, blk]).max() < 1e-12
            assert np.array_equal(b.f, fock._i_powers(dim)[blk])
            rebuilt = b.s[:, None] * (-1j * (b.w * b.sigma) @ b.w.T) * b.s.conj()
            assert np.abs(rebuilt - k[blk, blk]).max() < 1e-12

    @pytest.mark.parametrize(
        "g",
        [np.zeros((3, 4)), np.diag([1j, np.inf, 0.0]), np.eye(3), np.zeros((0, 0))],
        ids=["non_square", "non_finite", "hermitian", "empty"],
    )
    def test_unitary_exponential_rejects(self, g):
        with pytest.raises(ValueError):
            unitary_exponential(g)

    @pytest.mark.parametrize("dim", [256, 512])
    @pytest.mark.parametrize("t", [2.0, 2.5, -2.0])
    def test_past_a_caustic_beta_turns_are_the_parity(self, dim, t):
        # cos t < 0, so beta = -ln|cos t| -+ i pi: the i pi is the parity (-1)^n, not an exponent
        m = apply_factored(time_displacement_factorization(t), np.eye(dim, 8))
        assert np.abs(m[:8] - np.diag(np.exp(-1j * (np.arange(8) + 0.5) * t))).max() < 1e-12

    @pytest.mark.parametrize("dim", [256, 512])
    def test_truncation_wall_overflow_is_refused(self, dim):
        # exp(i alpha X^2) = exp(2 X^2) is not finite on the truncated basis
        c = FactorizationCoefficients(0j, -2j, 0j, 0j)
        with pytest.raises(OverflowError):
            factored_matrix(c, dim)
        for vectors in (np.eye(dim, 16), np.eye(dim)[0]):
            with pytest.raises(OverflowError):
                apply_factored(c, vectors)

    def test_nonfinite_coefficients_rejected(self):
        c = FactorizationCoefficients(0j, complex(math.nan), 0j, 0j)
        with pytest.raises(ValueError):
            factored_matrix(c, 16)
        with pytest.raises(ValueError):
            apply_factored(c, np.eye(16)[0])

    @pytest.mark.parametrize("apply", [
        lambda v: apply_factored(time_displacement_factorization(0.3), v),
        lambda v: apply_squeeze(SqueezeParameter(0.5), v),
    ], ids=["factored", "squeeze"])
    def test_apply_refuses_other_shapes(self, apply):
        with pytest.raises(ValueError, match="vector or a"):
            apply(np.zeros((16, 2, 2)))

    def test_warm_oracle_checks_decompose_nothing(self, monkeypatch):
        # cold, the one cached bundle is decomposed once per distinct dim; warm, never
        counts = {"eig": 0, "eigh": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        fock._spectra.cache_clear()
        checks.check_fock_squeeze_oracle()
        checks.check_fock_truncation_monotonicity()
        # dims 128 and 64, two parity blocks each: eig of X D, eigh of X^2 and of K
        assert counts == {"eig": 4, "eigh": 8}
        checks.check_fock_squeeze_oracle()
        checks.check_fock_truncation_monotonicity()
        assert counts == {"eig": 4, "eigh": 8}


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(r=st.floats(0.0, 1.0), phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_squeeze_oracle_holds_for_any_z(r, phi):
    # the verify check's comparison and tolerance, at dim 128 with a 32-state block
    assert checks._squeeze_block_error(SqueezeParameter(r, phi), 128, 32) <= 1e-6


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(a=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), t=st.floats(-0.6, 0.6))
# past two caustics, where Q = 0.895 and 1.150 is positive again and exp(delta) turns sign
@example(a=[0.5, 0.1, -0.4, 0.6], t=6.0)
@example(a=[0.5, 0.1, -0.4, 0.6], t=7.0)
# past one caustic, where Q = -1.16 and -0.84 and beta carries i pi
@example(a=[0.5, 0.1, -0.4, 0.6], t=3.0)
@example(a=[0.5, 0.1, -0.4, 0.6], t=4.0)
def test_closed_form_matches_dense_exponential_on_unitary_generators(a, t):
    # b2, b4 imaginary, b3 real and b1 - b3/2 imaginary: an anti-Hermitian generator
    b = GeneratorCoefficients(0.5 * a[0] + 1j * a[1], 1j * a[2], a[0], 1j * a[3])
    g = generator_matrix(b, 128)
    # (g - g^dag)/2 takes the exact compression {X, D}/2 in place of the truncated X D
    oracle = unitary_exponential(0.5 * t * (g - g.conj().T))[:16, :16]
    factored = apply_factored(generator_factorization(b, t), np.eye(128, 16))[:16]
    assert np.abs(factored - oracle).max() < 1e-12


class TestFockBasis:
    def test_minimum_dimension(self):
        FockBasis(8)
        with pytest.raises(ValueError):
            FockBasis(4)

    def test_maximum_dimension(self):
        # the Hermite recurrence is validated up to MAX_HERMITE = 512 functions
        FockBasis(512)
        with pytest.raises(ValueError):
            FockBasis(513)


class TestHermite:
    def test_ground_state(self, grid):
        psi = fock_to_position([1.0], grid)
        expected = math.pi**-0.25 * np.exp(-0.5 * grid.x**2)
        assert np.abs(psi.samples - expected).max() < 1e-12

    def test_first_excited(self, grid):
        psi = fock_to_position([0.0, 1.0], grid)
        expected = math.pi**-0.25 * math.sqrt(2.0) * grid.x * np.exp(-0.5 * grid.x**2)
        assert np.abs(psi.samples - expected).max() < 1e-12

    def test_parseval(self, grid):
        rng = np.random.default_rng(13)
        coeffs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = fock_to_position(coeffs, grid)
        assert abs(psi.norm() - np.linalg.norm(coeffs)) < 1e-8

    def test_orthonormality_by_quadrature(self, grid):
        h = hermite_functions(24, grid.x)
        gram = (h @ h.T) * grid.dx
        assert np.abs(gram - np.eye(24)).max() < 1e-10

    def test_basis_cache_is_shared_and_read_only(self, grid):
        basis = fock._hermite_basis(24, grid)
        assert fock._hermite_basis(24, Grid()) is basis
        assert np.array_equal(basis, hermite_functions(24, grid.x))
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0

    def test_count_limit(self, grid):
        with pytest.raises(ValueError):
            hermite_functions(513, grid.x)

    def test_roundtrip_of_squeezed_state(self, grid):
        spec = SqueezedStateSpec(0.5, 0.0, SqueezeParameter(0.5, 0.0))
        psi = WaveFunction.from_callable(grid, lambda x: psi_ss(x, spec))
        coeffs = position_to_fock(psi, 128)
        rebuilt = fock_to_position(coeffs, grid)
        assert np.abs(rebuilt.samples - psi.samples).max() < 1e-6


class TestOracleTriangle:
    def test_displacement_generator_antihermitian(self):
        g = displacement_generator(1.0, 0.5, 32)
        assert np.abs(g + g.conj().T).max() < 1e-14

    def test_ladder_route_builds_displaced_squeezed_state(self, grid):
        # D S |0> through dense exponentials lands on the closed form
        n = 128
        z = SqueezeParameter(0.8, math.pi / 3)
        d_mat = matrix_exponential(displacement_generator(1.0, 0.5, n))
        s_mat = matrix_exponential(squeeze_generator(z, n))
        vacuum = np.zeros(n, dtype=complex)
        vacuum[0] = 1.0
        psi = fock_to_position(d_mat @ (s_mat @ vacuum), grid)
        expected = psi_ss(grid.x, SqueezedStateSpec(1.0, 0.5, z))
        assert np.abs(psi.samples - expected).max() < 1e-6

    def test_factored_route_evolves_coherent_state(self, grid):
        from opfactor.states import coherent_evolved, coherent_state

        n, t = 128, 0.7
        psi_in = WaveFunction.from_callable(grid, lambda x: coherent_state(x, 1.0, 0.5))
        coeffs = position_to_fock(psi_in, n)
        m = factored_matrix(time_displacement_factorization(t), n)
        out = fock_to_position(m @ coeffs, grid)
        assert np.abs(out.samples - coherent_evolved(grid.x, t, 1.0, 0.5)).max() < 1e-6

"""Verification suites: every oracle comparison behind `opfactor verify`.

Each check returns CheckResults with the measured error and its tolerance.
One table, `_CHECKS`, lists every check once, in report order, with its suite
(`fock`, `grid` or `analytic`), and `SUITES` and `run_checks` read it; the
command line and the test suite run these same comparisons.
"""
from __future__ import annotations

import cmath
import inspect
import math
import random
from dataclasses import dataclass

import numpy as np

from . import fock, states
from .algebra import (
    ODE_STEPS,
    GeneratorCoefficients,
    SqueezeParameter,
    generator_factorization,
    squeeze_factorization,
    time_displacement_factorization,
    wei_norman_final,
)
from .grid import (
    Grid,
    WaveFunction,
    apply_chain,
    apply_dilation,
    apply_shift,
    apply_spectral_d2,
    displacement_factors,
    squeeze_factors,
    time_displacement_factors,
)

__all__ = ["CheckResult", "SUITES", "evenodd_grid_sweep", "evenodd_initial", "ode_deviation",
           "run_checks"]

DEFAULT_SEED = 20260810

EVEN_ODD_X0 = 2.0
EVEN_ODD_S = 1.5
EVEN_ODD_TIMES = (0.0, 0.6, math.pi / 2, 2.0)

# fixed sizes of the checks' own sampling; the command line sets none of them
ODE_SQUEEZE_SAMPLES = 20
SCALE_FORM_SAMPLES = 200
RESIDUE_ODE_STEPS = 400
QUADRATURE_PROBES = 32


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tol: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tol", float(self.tol))

    @property
    def passed(self) -> bool:
        return bool(math.isfinite(self.measured) and self.measured <= self.tol)


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def ode_deviation(b: GeneratorCoefficients, t: float, steps: int) -> float:
    """Largest coefficient gap between wei_norman_final(b, t, steps) and the closed form."""
    final, closed = wei_norman_final(b, t, steps), generator_factorization(b, t)
    return max(abs(g - e) for g, e in zip(final.as_tuple(), closed.as_tuple()))


def _aligned_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    """_max_abs after rotating candidate by the one global phase fixed at the
    reference's maximum; inf where that maximum is zero: nothing to compare."""
    i = int(np.argmax(np.abs(reference)))
    if reference[i] == 0.0:
        return math.inf
    ratio = reference[i] / candidate[i]
    return _max_abs(reference, candidate * (ratio / abs(ratio)))


def _seeded(count: int, normal: bool) -> list[complex]:
    """count draws of random.Random(DEFAULT_SEED), each two numbers as re + i im:
    standard normals, or uniforms on [0, 1)."""
    rng = random.Random(DEFAULT_SEED)
    draw = (lambda: rng.gauss(0.0, 1.0)) if normal else rng.random
    return [complex(draw(), draw()) for _ in range(count)]


def _inf_if_refused(measure) -> float:
    """measure(), or inf where the window refuses a state or a chain it needs
    (a ValueError): the check then reports a FAIL on that window, not a refusal."""
    try:
        return measure()
    except ValueError:
        return math.inf


# --- analytic suite -----------------------------------------------------------


def check_ode_squeeze(ode_steps: int):
    """RK4 trajectories reproduce the squeeze closed forms at t = 1."""
    worst = 0.0
    for w in _seeded(ODE_SQUEEZE_SAMPLES, normal=False):
        z = SqueezeParameter(2.0 * w.real, 2.0 * math.pi * w.imag)
        worst = max(worst, ode_deviation(GeneratorCoefficients.squeeze(z), 1.0, ode_steps))
    return [CheckResult("analytic", "ode_vs_closed_form_squeeze", worst, 1e-7)]


def check_ode_oscillator(ode_steps: int):
    """RK4 trajectories reproduce the time-displacement closed forms."""
    b = GeneratorCoefficients.oscillator()
    worst = max(ode_deviation(b, t, ode_steps) for t in (0.3, 0.7, 1.0, 1.4))
    return [CheckResult("analytic", "ode_vs_closed_form_oscillator", worst, 1e-7)]


def check_unitarity_residue():
    """exp(2 delta - beta) stays 1 along both families, closed form and ODE."""
    cases = [(GeneratorCoefficients.oscillator(), t) for t in (0.25, 0.7, 1.0)]
    cases += [(GeneratorCoefficients.squeeze(SqueezeParameter(r, phi)), 1.0)
              for r, phi in ((0.5, 0.0), (1.0, math.pi / 3), (2.0, 5.0))]
    worst = max(max(generator_factorization(b, t).unitarity_residue(),
                    wei_norman_final(b, t, RESIDUE_ODE_STEPS).unitarity_residue())
                for b, t in cases)
    return [CheckResult("analytic", "unitarity_residue", worst, 1e-10)]


def check_squeeze_scale_forms():
    """The t = 1 squeeze scale e^{-beta} of the closed form equals its half-angle form."""
    worst = 0.0
    for w in _seeded(SCALE_FORM_SAMPLES, normal=False):
        r, phi = 2.0 * w.real, 2.0 * math.pi * w.imag
        general = cmath.exp(-squeeze_factorization(SqueezeParameter(r, phi), 1.0).beta)
        half_angle = math.exp(r) * math.cos(phi / 2) ** 2 + math.exp(-r) * math.sin(phi / 2) ** 2
        worst = max(worst, abs(general - half_angle))
    return [CheckResult("analytic", "squeeze_scale_two_forms", worst, 1e-12)]


def check_state_reductions(grid: Grid):
    """Closed forms collapse onto each other in their special cases."""
    x = grid.x
    results = []

    z = SqueezeParameter(1.0, 0.0)
    spec = states.SqueezedStateSpec(x0=1.0, p0=0.0, z=z)
    s = math.exp(z.r)
    reduced = (math.sqrt(math.pi) * s) ** -0.5 * np.exp(-((x - 1.0) ** 2) / (2 * s * s))
    results.append(
        CheckResult("analytic", "psi_ss_real_z_reduction",
                    _max_abs(states.psi_ss(x, spec), reduced), 1e-12)
    )

    results.append(
        CheckResult("analytic", "coherent_evolved_t0_reduction",
                    _max_abs(states.coherent_evolved(x, 0.0, 2.0, -0.5),
                             states.coherent_state(x, 2.0, -0.5)), 1e-12)
    )

    worst = 0.0
    for sign in (+1, -1):
        spec_eo = states.EvenOddSpec(EVEN_ODD_X0, EVEN_ODD_S, sign)
        for t in (0.0, 0.6, 2.0):
            psi = states.psi_spm(x, t, spec_eo)
            mirrored = sign * states.psi_spm(-x, t, spec_eo)
            worst = max(worst, _max_abs(psi, mirrored))
    results.append(CheckResult("analytic", "psi_spm_parity", worst, 1e-12))
    return results


def evenodd_initial(grid: Grid, spec: states.EvenOddSpec, tol: float) -> WaveFunction:
    """The pair's normalized t = 0 state on grid; ValueError where it cannot be
    sampled, or where the quadrature of rho_spm at t = 0 is off its closed form
    by a relative error above tol: the window does not hold the pair, which the
    state's norm, fixed by normalizing, cannot show."""
    psi = WaveFunction.from_callable(grid, lambda x: states.psi_spm(x, 0.0, spec)).normalized()
    measured = float(np.sum(_rho_spm(grid.x, 0.0, spec)) * grid.dx)
    expected = states.rho_spm_integral(0.0, spec)
    if not abs(measured - expected) <= tol * abs(expected):
        raise ValueError(f"the window holds {measured:.6g} of the pair's closed-form integral "
                         f"{expected:.6g}; the relative error exceeds --tol {tol:.1e}")
    return psi


def _rho_spm(x: np.ndarray, t: float, spec: states.EvenOddSpec) -> np.ndarray:
    """rho_spm at t; ValueError where its constant vanishes or a sample is not finite."""
    if not math.isfinite(states.rho_spm_integral(t, spec)):
        raise ValueError(f"rho_spm is singular at t = {t!r}: its constant 1 - d e^(-x0^2/s^2) vanishes")
    with np.errstate(over="ignore", invalid="ignore"):
        rho = states.rho_spm(x, t, spec)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"rho_spm is not finite on the window at t = {t!r}")
    return rho


def evenodd_grid_sweep(initial: WaveFunction, spec: states.EvenOddSpec, times):
    """The even/odd pair's closed-form and grid densities, one t at a time.

    Returns (raw_integral, blocks): the quadrature of rho_spm as written, one
    per t, and an iterator that yields (rho, rho_grid, |rho - rho_grid|) per
    t, rho_spm renormalized to unit integral and the density of initial (from
    evenodd_initial) advanced by the default time chain.  Every t is checked
    before this returns, so a ValueError for a t at which rho_spm is singular
    or not finite on the grid comes before the first block; each block
    recomputes its rho_spm, so the sweep holds one t's samples at a time.
    """
    x, dx = initial.grid.x, initial.grid.dx
    times = [float(t) for t in times]
    raw_integral = np.array([np.sum(_rho_spm(x, t, spec)) * dx for t in times])

    def blocks():
        for t, raw in zip(times, raw_integral):
            rho = _rho_spm(x, t, spec) / raw
            rho_grid = apply_chain(initial, time_displacement_factors(t)).density()
            yield rho, rho_grid, np.abs(rho - rho_grid)

    return raw_integral, blocks()


def check_evenodd(grid: Grid):
    """The even/odd pair at EVEN_ODD_TIMES, from one evenodd_grid_sweep per sign.

    Renormalized |psi_spm|^2 matches the renormalized rho_spm (finite at the
    caustic), the quadrature of rho_spm matches rho_spm_integral, and grid
    propagation of the t = 0 pair tracks the renormalized rho_spm; each t's
    three errors are taken from its sweep block as it comes.  Where the
    window refuses a sign's pair or any of its blocks, each of that sign's
    records reads inf.
    """
    x, dx = grid.x, grid.dx
    tols = {"psi_vs_rho": 1e-9, "raw_integral": 1e-9, "grid_density": 1e-5}
    rows = []  # (tag, one error per kind), by sign then t
    for sign in (+1, -1):
        spec = states.EvenOddSpec(EVEN_ODD_X0, EVEN_ODD_S, sign)
        tags = [f"sign{sign:+d}_t{t:.4g}" for t in EVEN_ODD_TIMES]
        try:
            raw_integral, blocks = evenodd_grid_sweep(evenodd_initial(grid, spec, math.inf), spec,
                                                      EVEN_ODD_TIMES)
            sign_rows = []
            for tag, t, raw_t, block in zip(tags, EVEN_ODD_TIMES, raw_integral, blocks):
                rho_t, _, grid_delta = block
                dens = np.abs(states.psi_spm(x, t, spec)) ** 2
                dens /= np.sum(dens) * dx
                sign_rows.append((tag, (_max_abs(dens, rho_t),
                                        abs(raw_t - states.rho_spm_integral(t, spec)),
                                        float(grid_delta.max()))))
        except ValueError:
            sign_rows = [(tag, (math.inf,) * len(tols)) for tag in tags]
        rows += sign_rows
    return [CheckResult("analytic", f"evenodd_{kind}_{tag}", errors[k], tol)
            for k, (kind, tol) in enumerate(tols.items()) for tag, errors in rows]


def check_oracle_triangle(grid: Grid, fock_dim: int):
    """Analytic, grid, and number-basis routes agree on the worked states.

    The number-basis route projects a state onto the truncated basis, or
    starts from its vacuum, applies the operator to the coefficients, and
    synthesizes the result back onto the grid.  Every operator here acts from
    the cached parity-block spectra: the factored product, the squeeze and
    the displacement; none is built as a dense matrix.
    """
    results = []
    x = grid.x

    # Evolved coherent state: factored matrix route vs closed form.
    x0, p0, t = 1.0, 0.5, 0.7
    psi_in = WaveFunction.from_callable(grid, lambda xs: states.coherent_state(xs, x0, p0))
    coeffs = fock.position_to_fock(psi_in, fock_dim)
    via_fock = fock.fock_to_position(
        fock.apply_factored(time_displacement_factorization(t), coeffs), grid)
    results.append(
        CheckResult("analytic", "triangle_fock_evolved_coherent",
                    _max_abs(via_fock.samples, states.coherent_evolved(x, t, x0, p0)), 1e-6)
    )

    # Displaced squeezed state: squeeze, then displace, the vacuum.
    z = SqueezeParameter(0.8, math.pi / 3)
    vacuum = np.zeros(fock_dim, dtype=complex)
    vacuum[0] = 1.0
    via_ladder = fock.fock_to_position(
        fock.apply_displacement(x0, p0, fock.apply_squeeze(z, vacuum)), grid)
    results.append(
        CheckResult("analytic", "triangle_fock_displaced_squeezed",
                    _max_abs(via_ladder.samples,
                             states.psi_ss(x, states.SqueezedStateSpec(x0, p0, z))), 1e-6)
    )
    return results


def check_psi_ss_vs_grid(grid: Grid):
    """The displaced-squeezed closed form agrees with its factor-chain construction."""
    spec = states.SqueezedStateSpec(x0=1.0, p0=0.5, z=SqueezeParameter(0.8, math.pi / 3))
    chain = squeeze_factors(spec.z) + displacement_factors(spec.x0, spec.p0)
    ground = WaveFunction.from_callable(grid, states.psi0)
    measured = _inf_if_refused(
        lambda: _aligned_error(states.psi_ss(grid.x, spec), apply_chain(ground, chain).samples))
    return [CheckResult("analytic", "psi_ss_vs_grid_chain", measured, 1e-7)]


# --- grid suite ---------------------------------------------------------------


def check_shift_gaussian(grid: Grid):
    """Spectral shift reproduces the analytically shifted Gaussian."""
    psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
    expected = np.exp(-0.5 * (grid.x - 1.5) ** 2)
    measured = _inf_if_refused(lambda: _max_abs(apply_shift(psi, -1.5).samples, expected))
    return [CheckResult("grid", "shift_gaussian", measured, 1e-9)]


def check_dilation_gaussian(grid: Grid):
    """Spectral (chirp-z) dilation reproduces the analytic substitution."""
    psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
    out = apply_dilation(psi, 2.0)
    expected = np.exp(-2.0 * grid.x**2)
    return [CheckResult("grid", "dilation_gaussian", _max_abs(out.samples, expected), 1e-8)]


def check_spectral_quadrature(grid: Grid):
    """Spectral exp[c d^2/dx^2] with real c matches direct kernel quadrature."""
    c = 0.25
    psi = WaveFunction.from_callable(grid, lambda x: np.exp(-0.5 * x * x))
    out = apply_spectral_d2(psi, c)
    x, dx = grid.x, grid.dx
    idx = np.linspace(0, grid.n - 1, QUADRATURE_PROBES).astype(int)
    # Restrict probes to the central half so the kernel support is sampled fully.
    idx = idx[(np.abs(x[idx]) < 0.25 * grid.span)]
    prefactor = 1.0 / math.sqrt(4.0 * math.pi * c)
    worst = 0.0 if idx.size else math.inf  # no probe inside: nothing compared
    for i in idx:
        integral = prefactor * np.sum(np.exp(-((x - x[i]) ** 2) / (4.0 * c)) * psi.samples) * dx
        worst = max(worst, abs(out.samples[i] - integral))
    return [CheckResult("grid", "spectral_d2_vs_quadrature", worst, 1e-7)]


def check_fresnel_gaussian(grid: Grid):
    """Purely imaginary c reproduces free Gaussian spreading."""
    psi = WaveFunction.from_callable(grid, states.psi0)
    out = apply_spectral_d2(psi, 0.5j)
    w = 1.0 + 1j  # 1 + 2c
    expected = math.pi**-0.25 / np.sqrt(w) * np.exp(-grid.x**2 / (2.0 * w))
    return [CheckResult("grid", "fresnel_free_gaussian", _max_abs(out.samples, expected), 1e-7)]


def check_grid_squeeze_cs(grid: Grid):
    """Real-z squeeze chains on the ground state land on the scaled Gaussian."""
    results = []
    psi = WaveFunction.from_callable(grid, states.psi0)
    for r in (0.5, 1.0):
        out = apply_chain(psi, squeeze_factors(SqueezeParameter(r, 0.0)))
        s = math.exp(r)
        expected = (math.sqrt(math.pi) * s) ** -0.5 * np.exp(-grid.x**2 / (2.0 * s * s))
        results.append(
            CheckResult("grid", f"squeeze_chain_vs_cs_r{r:g}", _max_abs(out.samples, expected), 1e-8)
        )
    return results


def check_grid_time_coherent(grid: Grid):
    """One-substep time chain reproduces the evolved-coherent closed form."""
    x0, p0, t = 1.0, 0.5, 0.7
    psi = WaveFunction.from_callable(grid, lambda x: states.coherent_state(x, x0, p0))
    out = apply_chain(psi, time_displacement_factors(t, 1))
    expected = states.coherent_evolved(grid.x, t, x0, p0)
    measured = _aligned_error(expected, out.samples)
    return [CheckResult("grid", "time_chain_vs_coherent_evolved", measured, 1e-6)]


def _unitary_suite(grid: Grid):
    """(state, chain) pairs covering every unitary family at suite parameters."""
    ground = WaveFunction.from_callable(grid, states.psi0)
    coherent = WaveFunction.from_callable(grid, lambda x: states.coherent_state(x, 1.0, 0.5))
    squeezed = WaveFunction.from_callable(
        grid,
        lambda x: states.psi_ss(x, states.SqueezedStateSpec(1.0, 0.0, SqueezeParameter(0.5, 0.0))),
    )
    even = evenodd_initial(grid, states.EvenOddSpec(EVEN_ODD_X0, EVEN_ODD_S, +1), math.inf)
    odd = evenodd_initial(grid, states.EvenOddSpec(EVEN_ODD_X0, EVEN_ODD_S, -1), math.inf)
    return [
        ("displace_ground", ground, displacement_factors(1.0, 0.5)),
        ("squeeze_r0.5_ground", ground, squeeze_factors(SqueezeParameter(0.5, 0.0))),
        ("squeeze_r1_ground", ground, squeeze_factors(SqueezeParameter(1.0, 0.0))),
        ("squeeze_complex_coherent", coherent, squeeze_factors(SqueezeParameter(0.8, math.pi / 3))),
        ("time_0.7_coherent", coherent, time_displacement_factors(0.7, 1)),
        ("time_0.8_squeezed", squeezed, time_displacement_factors(0.8, 1)),
        ("time_2.0_even", even, time_displacement_factors(2.0, 2)),
        ("time_halfpi_odd", odd, time_displacement_factors(math.pi / 2, 2)),
    ]


def check_grid_unitarity(grid: Grid):
    """Norm drift stays below 1e-9 per unitary chain across the suite states."""
    worst = _inf_if_refused(lambda: max(abs(apply_chain(psi, chain).norm() - psi.norm())
                                        for _, psi, chain in _unitary_suite(grid)))
    return [CheckResult("grid", "unitary_norm_drift", worst, 1e-9)]


def check_grid_group_property(grid: Grid):
    """T(0.8) equals T(0.5) after T(0.3) on a squeezed state."""
    psi = WaveFunction.from_callable(
        grid,
        lambda x: states.psi_ss(x, states.SqueezedStateSpec(1.0, 0.0, SqueezeParameter(0.5, 0.0))),
    )
    direct = apply_chain(psi, time_displacement_factors(0.8, 1))
    composed = apply_chain(
        apply_chain(psi, time_displacement_factors(0.3, 1)), time_displacement_factors(0.5, 1)
    )
    return [CheckResult("grid", "time_group_property", _max_abs(direct.samples, composed.samples), 1e-7)]


def check_grid_box_phase(grid: Grid):
    """Free spectral evolution multiplies period-aligned sine modes by the exact phase."""
    results = []
    for n in (1, 2, 3):
        psi = WaveFunction.from_callable(grid, lambda x, n=n: np.sin(math.pi * n * x))
        out = apply_spectral_d2(psi, 0.5j)
        mask = np.abs(psi.samples) > 0.1
        ratio = out.samples[mask] / psi.samples[mask]
        expected = states.box_mode_phase(n, 1.0)
        # a mode that no sample resolves fails the check
        measured = float(np.abs(ratio - expected).max()) if mask.any() else math.inf
        results.append(CheckResult("grid", f"box_mode_phase_n{n}", measured, 1e-9))
    return results


def check_grid_linearity(grid: Grid):
    """Chains act linearly on superpositions."""
    psi1 = WaveFunction.from_callable(grid, lambda x: states.coherent_state(x, 1.0, 0.0))
    psi2 = WaveFunction.from_callable(grid, lambda x: states.coherent_state(x, -1.5, 0.5))
    a, b = _seeded(2, normal=True)
    chain = time_displacement_factors(0.6, 1)
    combined = apply_chain(psi1.with_samples(a * psi1.samples + b * psi2.samples), chain)
    separate = a * apply_chain(psi1, chain).samples + b * apply_chain(psi2, chain).samples
    return [CheckResult("grid", "chain_linearity", _max_abs(combined.samples, separate), 1e-10)]


# --- fock suite ---------------------------------------------------------------


def check_fock_commutators(fock_dim: int):
    """The bands `fock` builds its parity blocks from obey the ladder algebra.

    [a, a^dag] = 1 from a's band sqrt(n) on the retained levels.  X = (a + a^dag)/sqrt(2)
    is that band over sqrt(2) on both sides, and D = (a - a^dag)/sqrt(2) the same band
    with its negative below: X is symmetric and D antisymmetric, so [X, D] is
    X D + (X D)^T, whose bands cancel and whose diagonal must be -1.  X^2's diagonal
    and band, which X D shares, must be the products of X's neighbouring bands,
    measured relative to them.  Every array has O(dim) entries.
    """
    a = np.sqrt(np.arange(1, fock_dim))
    # a a^dag is a^2 on the diagonal, a^dag a the same one level down
    err_ladder = _max_abs(a * a - np.concatenate(([0.0], a[:-1] * a[:-1])), 1.0)
    x = np.concatenate(([0.0], a / math.sqrt(2.0), [0.0]))  # X[n - 1, n] = x[n], zero past the ends
    err_xd = err_products = 0.0
    for start in (0, 1):
        x2, xd, band = fock._parity_bands(fock_dim, start)
        n = np.arange(start, fock_dim, 2)
        err_xd = max(err_xd, _max_abs(2.0 * xd[n < fock_dim - 1], -1.0))
        products = (x[n] ** 2 + x[n + 1] ** 2, x[n[:-1] + 1] * x[n[:-1] + 2])
        for got, want in zip((x2, band), products):
            err_products = max(err_products, float(np.abs(got / want - 1.0).max()))
    return [
        CheckResult("fock", "ladder_commutator_block", err_ladder, 1e-12),
        CheckResult("fock", "xd_commutator_block", err_xd, 1e-12),
        CheckResult("fock", "x_hermitian_d_antihermitian", err_products, 1e-14),
    ]


def check_fock_oscillator_generator(fock_dim: int):
    """The oscillator generator b2 X^2 + b4 D^2 is -i diag(n + 1/2) away from the edge.

    D = -i F^dag X F with F = diag(i^n), so D^2 = -F^dag X^2 F.  On each parity
    block F^dag X^2 F keeps X^2's diagonal and takes its band times
    i^n* i^(n+2) = -1; both are read from the bands `fock` decomposes.
    """
    b = GeneratorCoefficients.oscillator()
    worst = 0.0
    for start in (0, 1):
        x2, _, band = fock._parity_bands(fock_dim, start)
        f = fock._i_powers(fock_dim)[start::2]
        n = np.arange(start, fock_dim, 2)
        inner = n < fock_dim - 2
        diagonal = (b.b2 - b.b4) * x2
        off = (b.b2 - b.b4 * f[:-1].conj() * f[1:]) * band
        worst = max(worst, _max_abs(diagonal[inner], -1j * (n[inner] + 0.5)),
                    float(np.abs(off[inner[1:]]).max()))
    return [CheckResult("fock", "oscillator_generator_diagonal", worst, 1e-12)]


def check_fock_time_diagonal():
    """Factored time-displacement matrices against the exact diagonal phases.

    Pinned at dim = 64 and a 32-state block; at t = 1.0 the factor spread
    needs intermediate states beyond n = 63, so that case measures the
    truncation wall rather than roundoff (see README).
    """
    results = []
    dim, block = 64, 32
    for t in (0.3, 1.0):
        m = fock.apply_factored(time_displacement_factorization(t), np.eye(dim, block))
        expected = np.diag(np.exp(-1j * (np.arange(block) + 0.5) * t))
        err = _max_abs(m[:block], expected)
        results.append(CheckResult("fock", f"time_diagonal_dim64_t{t:g}", err, 1e-8))
    return results


def _squeeze_block_error(z: SqueezeParameter, dim: int, block: int) -> float:
    """Largest gap between the two squeeze routes on the top-left block x block corner."""
    columns = np.eye(dim, block)
    factored = fock.apply_factored(squeeze_factorization(z, 1.0), columns)
    return _max_abs(factored[:block], fock.apply_squeeze(z, columns)[:block])


def check_fock_squeeze_oracle():
    """Factored squeeze products against the direct ladder-generator exponential."""
    results = []
    dim, block = 128, 32
    for r in (0.25, 0.5, 1.0):
        for phi in (0.0, math.pi / 3, math.pi / 2):
            err = _squeeze_block_error(SqueezeParameter(r, phi), dim, block)
            results.append(
                CheckResult("fock", f"squeeze_oracle_r{r:g}_phi{phi:.4g}", err, 1e-6)
            )
    return results


def check_fock_truncation_monotonicity():
    """Fixed-block oracle error does not grow when the basis is enlarged.

    Once both errors reach the roundoff floor the ordering is noise, so a
    floor-level excess of 1e-14 is allowed.
    """
    results = []
    block = 16
    for r in (0.5, 1.0):
        z = SqueezeParameter(r, math.pi / 2)
        errs = {}
        for dim in (64, 128):
            errs[dim] = _squeeze_block_error(z, dim, block)
        excess = max(0.0, errs[128] - errs[64])
        results.append(CheckResult("fock", f"truncation_monotonic_r{r:g}", excess, 1e-14))
    return results


def check_fock_roundtrip(grid: Grid, fock_dim: int):
    """Grid -> number-basis -> grid round trip of a squeezed state."""
    psi = WaveFunction.from_callable(
        grid,
        lambda x: states.psi_ss(x, states.SqueezedStateSpec(0.5, 0.0, SqueezeParameter(0.5, 0.0))),
    )
    coeffs = fock.position_to_fock(psi, fock_dim)
    rebuilt = fock.fock_to_position(coeffs, grid)
    return [CheckResult("fock", "position_roundtrip", _max_abs(rebuilt.samples, psi.samples), 1e-6)]


def check_hermite_parseval(grid: Grid):
    """Coefficient-vector norm equals grid norm for a random superposition."""
    coeffs = np.array(_seeded(16, normal=True))
    psi = fock.fock_to_position(coeffs, grid)
    return [
        CheckResult("fock", "hermite_parseval",
                    abs(psi.norm() - float(np.linalg.norm(coeffs))), 1e-8)
    ]


# --- runner -------------------------------------------------------------------

# One row per check, in report order: (suite, function).  run_checks calls what
# this module binds to the function's name at that time, so a patched attribute
# runs, and passes it those of grid, fock_dim and ode_steps its signature names.
_CHECKS = (
    ("fock", check_fock_commutators),
    ("fock", check_fock_oscillator_generator),
    ("fock", check_fock_time_diagonal),
    ("fock", check_fock_squeeze_oracle),
    ("fock", check_fock_truncation_monotonicity),
    ("fock", check_fock_roundtrip),
    ("fock", check_hermite_parseval),
    ("grid", check_shift_gaussian),
    ("grid", check_dilation_gaussian),
    ("grid", check_spectral_quadrature),
    ("grid", check_fresnel_gaussian),
    ("grid", check_grid_squeeze_cs),
    ("grid", check_grid_time_coherent),
    ("grid", check_grid_unitarity),
    ("grid", check_grid_group_property),
    ("grid", check_grid_box_phase),
    ("grid", check_grid_linearity),
    ("analytic", check_ode_squeeze),
    ("analytic", check_ode_oscillator),
    ("analytic", check_unitarity_residue),
    ("analytic", check_squeeze_scale_forms),
    ("analytic", check_state_reductions),
    ("analytic", check_evenodd),
    ("analytic", check_psi_ss_vs_grid),
    ("analytic", check_oracle_triangle),
)
SUITES = (*dict.fromkeys(suite for suite, _ in _CHECKS), "all")


def run_checks(
    suite: str = "all",
    grid: Grid | None = None,
    fock_dim: int = fock.FockBasis.dim,
    ode_steps: int = ODE_STEPS,
) -> list[CheckResult]:
    """Run one suite (or all) and return every CheckResult."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    fock.FockBasis(fock_dim)  # validates the configured dimension
    given = {"grid": grid or Grid(), "fock_dim": fock_dim, "ode_steps": ode_steps}
    results: list[CheckResult] = []
    for row_suite, row in _CHECKS:
        if suite in (row_suite, "all"):
            check = globals()[row.__name__]
            results += check(**{name: given[name] for name in inspect.signature(check).parameters})
    return results

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Every comparison is delegated to opfactor.checks so that
`opfactor verify all` reports identical numbers.

Known red: criterion 2 pins the time-displacement oracle at dim = 64 with a
32-state block for t in {0.3, 1.0}.  At t = 1.0 the factored product needs
intermediate states far beyond n = 63, so the measured error is O(1) no
matter how the factors are computed; the same comparison reaches 1e-13 at
dim = 256 (see README, "Truncation error versus dimension").  The criterion
is kept as stated rather than loosened.
"""
import math

import numpy as np
import pytest

from opfactor import checks
from opfactor.grid import Grid


@pytest.fixture(scope="module")
def grid():
    return Grid()


def report(results):
    """Print one line per check and assert them all."""
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} [{r.suite}] {r.name}: measured={r.measured:.3e} tol={r.tol:.1e}")
        if not r.passed:
            failed.append(r)
    assert not failed, "; ".join(
        f"{r.name} measured {r.measured:.3e} exceeds {r.tol:.1e}" for r in failed
    )


def test_criterion_01_closed_form_ode_equivalence():
    """RK4 (1000 steps) reproduces both closed-form families to 1e-7."""
    report(checks.check_ode_squeeze(ode_steps=1000))
    report(checks.check_ode_oscillator(ode_steps=1000))


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_criterion_02_fock_time_diagonal(t):
    """Factored time matrices vs exact diagonal phases: dim 64, 32-state block, 1e-8.

    The t = 1.0 case measures the truncation wall and fails as stated; see the
    module docstring.
    """
    results = [r for r in checks.check_fock_time_diagonal() if r.name.endswith(f"t{t:g}")]
    assert results, "missing pinned comparison"
    report(results)


def test_criterion_03_fock_squeeze_oracle():
    """Factored squeeze matrices vs the direct generator exponential: 1e-6."""
    report(checks.check_fock_squeeze_oracle())


def test_criterion_04_grid_vs_scaled_gaussian(grid):
    """Real-z squeeze chains on the ground state: pointwise 1e-8."""
    report(checks.check_grid_squeeze_cs(grid))


def test_criterion_05_grid_vs_evolved_coherent(grid):
    """Time chain vs the evolved-coherent closed form: pointwise 1e-6."""
    report(checks.check_grid_time_coherent(grid))


def test_criterion_06_unitarity(grid):
    """Norm drift below 1e-9 per unitary chain across the suite states."""
    report(checks.check_grid_unitarity(grid))


def test_criterion_07_evenodd_consistency(grid):
    """Renormalized |psi|^2 vs rho to 1e-9 and vs grid evolution to 1e-5."""
    report(checks.check_evenodd_density_consistency(grid))
    report(checks.check_evenodd_grid_evolution(grid))


def test_criterion_07_caustic_finiteness(grid):
    """Both closed forms stay finite exactly at t = pi/2."""
    from opfactor.states import EvenOddSpec, psi_spm, rho_spm

    for sign in (+1, -1):
        spec = EvenOddSpec(2.0, 1.5, sign)
        psi = psi_spm(grid.x, math.pi / 2, spec)
        rho = rho_spm(grid.x, math.pi / 2, spec)
        finite = bool(np.all(np.isfinite(psi)) and np.all(np.isfinite(rho)))
        print(f"{'PASS' if finite else 'FAIL'} [analytic] caustic_finiteness_sign{sign:+d}")
        assert finite


def test_criterion_08_normalization_probe(grid):
    """Raw density integral equals (1 +- E)/(1 +- d E) to 1e-9 (documented in README)."""
    report(checks.check_evenodd_raw_integral(grid))


def test_criterion_09_box_phase(grid):
    """Spectral free evolution of period-aligned sine modes: phase to 1e-9."""
    report(checks.check_grid_box_phase(grid))


def test_criterion_10_group_property(grid):
    """T(0.8) equals T(0.5) after T(0.3) on a squeezed state to 1e-7."""
    report(checks.check_grid_group_property(grid))

"""End-to-end tests of the command-line surface."""
import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opfactor
from opfactor import checks, cli
from opfactor.algebra import CausticError, SqueezeParameter, integrate_wei_norman
from opfactor.cli import (
    CSV_BLOCK_ROWS, DENSITY_COLUMNS, RunConfig, _fields17, _write_rows, build_parser, main,
)
from opfactor.grid import MAX_TIME_SUBSTEPS, Grid, WaveFunction, apply_chain, squeeze_factors
from opfactor.states import (
    EvenOddSpec, SqueezedStateSpec, coherent_evolved, psi0, psi_spm, psi_ss,
)
from reference import read_wavefunction, traced_peak


# Every `verify` check, per suite in report order; `verify all` runs them in this order.
CHECK_NAMES = {
    "fock": [
        "ladder_commutator_block", "xd_commutator_block", "x_hermitian_d_antihermitian",
        "oscillator_generator_diagonal",
        "time_diagonal_dim64_t0.3", "time_diagonal_dim64_t1",
        "squeeze_oracle_r0.25_phi0", "squeeze_oracle_r0.25_phi1.047", "squeeze_oracle_r0.25_phi1.571",
        "squeeze_oracle_r0.5_phi0", "squeeze_oracle_r0.5_phi1.047", "squeeze_oracle_r0.5_phi1.571",
        "squeeze_oracle_r1_phi0", "squeeze_oracle_r1_phi1.047", "squeeze_oracle_r1_phi1.571",
        "truncation_monotonic_r0.5", "truncation_monotonic_r1",
        "position_roundtrip", "hermite_parseval",
    ],
    "grid": [
        "shift_gaussian", "dilation_gaussian", "spectral_d2_vs_quadrature", "fresnel_free_gaussian",
        "squeeze_chain_vs_cs_r0.5", "squeeze_chain_vs_cs_r1", "time_chain_vs_coherent_evolved",
        "unitary_norm_drift", "time_group_property",
        "box_mode_phase_n1", "box_mode_phase_n2", "box_mode_phase_n3", "chain_linearity",
    ],
    "analytic": [
        "ode_vs_closed_form_squeeze", "ode_vs_closed_form_oscillator", "unitarity_residue",
        "squeeze_scale_two_forms", "psi_ss_real_z_reduction", "coherent_evolved_t0_reduction",
        "psi_spm_parity",
        "evenodd_psi_vs_rho_sign+1_t0", "evenodd_psi_vs_rho_sign+1_t0.6",
        "evenodd_psi_vs_rho_sign+1_t1.571", "evenodd_psi_vs_rho_sign+1_t2",
        "evenodd_psi_vs_rho_sign-1_t0", "evenodd_psi_vs_rho_sign-1_t0.6",
        "evenodd_psi_vs_rho_sign-1_t1.571", "evenodd_psi_vs_rho_sign-1_t2",
        "evenodd_raw_integral_sign+1_t0", "evenodd_raw_integral_sign+1_t0.6",
        "evenodd_raw_integral_sign+1_t1.571", "evenodd_raw_integral_sign+1_t2",
        "evenodd_raw_integral_sign-1_t0", "evenodd_raw_integral_sign-1_t0.6",
        "evenodd_raw_integral_sign-1_t1.571", "evenodd_raw_integral_sign-1_t2",
        "evenodd_grid_density_sign+1_t0", "evenodd_grid_density_sign+1_t0.6",
        "evenodd_grid_density_sign+1_t1.571", "evenodd_grid_density_sign+1_t2",
        "evenodd_grid_density_sign-1_t0", "evenodd_grid_density_sign-1_t0.6",
        "evenodd_grid_density_sign-1_t1.571", "evenodd_grid_density_sign-1_t2",
        "psi_ss_vs_grid_chain", "triangle_fock_evolved_coherent", "triangle_fock_displaced_squeezed",
    ],
}

# The band of tests/golden/verify_all.json: roundoff below GOLDEN_ROUNDOFF, else relative.
GOLDEN_ROUNDOFF = 1e-13
GOLDEN_RTOL = 1e-10


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_env():
    """The environment for a fresh interpreter that imports opfactor from this checkout."""
    src = os.path.join(REPO, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(token):
    # json.loads's parse_constant: bare Infinity, -Infinity and NaN are not JSON
    raise ValueError(f"non-JSON constant {token}")


class TestFactorize:
    def test_oscillator_zero_time(self, capsys):
        code, out, _ = run(capsys, "factorize", "oscillator", "--t", "0")
        assert code == 0
        for line in out.strip().splitlines():
            _, value = line.split(" = ")
            real, imag = value.rstrip("i").split(" ")
            assert float(real) == 0.0 and float(imag) == 0.0

    def test_oscillator_quarter_period(self, capsys):
        code, out, _ = run(capsys, "factorize", "oscillator", "--t", "0.7853981633974483")
        assert code == 0
        values = {}
        for line in out.strip().splitlines():
            name, value = line.split(" = ")
            values[name] = float(value.split(" ")[0])
        assert values["alpha"] == pytest.approx(-0.5, abs=1e-14)
        assert values["gamma"] == pytest.approx(0.5, abs=1e-14)

    def test_oscillator_full_period_is_minus_one(self, capsys):
        # T(2 pi) = -1 = exp(i pi): the period's sign sits in delta; the float
        # t is 2 pi - 2.449e-16, so cos t = 1 - 3.0e-32 and -ln(cos t)/2 = 1.5e-32
        code, out, _ = run(capsys, "factorize", "oscillator", "--t", "6.283185307179586")
        assert code == 0
        assert out.splitlines()[0] == "delta = 1.49975978266186e-32 +3.14159265358979i"

    def test_oscillator_small_t_keeps_every_digit(self, capsys):
        # beta = -ln(cos t) = t^2/2 + t^4/12 + ..., delta = beta/2, alpha = -tan(t)/2
        code, out, _ = run(capsys, "factorize", "oscillator", "--t", "1e-5")
        assert code == 0
        assert out == ("delta = 2.50000000004167e-11 +0i\n"
                       "alpha = -5.00000000016667e-06 +0i\n"
                       "beta = 5.00000000008333e-11 +0i\n"
                       "gamma = 5.00000000016667e-06 +0i\n")

    def test_singularity_exit_code(self, capsys):
        code, out, err = run(capsys, "factorize", "oscillator", "--t", str(math.pi / 2))
        assert code == 1
        assert out == "" and err.startswith("error: ") and "singular" in err
        # main, not the command, turns the singularity into its exit status
        args = build_parser().parse_args(["factorize", "oscillator", "--t", str(math.pi / 2)])
        with pytest.raises(CausticError):
            args.func(args)

    def test_squeeze_ode_check(self, capsys):
        code, out, _ = run(
            capsys,
            "factorize", "squeeze", "--r", "0.8", "--phi", "1.0471975512", "--t", "1",
            "--ode-check",
        )
        assert code == 0
        deviation = float(out.strip().splitlines()[-1].split(" = ")[1])
        assert deviation < 1e-8

    def test_large_squeeze_below_overflow(self, capsys):
        code, out, _ = run(capsys, "factorize", "squeeze", "--r", "400")
        assert code == 0
        assert out == "delta = -200 +0i\nalpha = 0 +0i\nbeta = -400 +0i\ngamma = 0 +0i\n"

    @pytest.mark.parametrize("r", ["15", "19"])
    def test_squeeze_scale_at_phi_pi_keeps_digits(self, capsys, r):
        # cosh(r) + cos(phi) sinh(r) cancels near phi = pi: --r 15 printed
        # beta = 14.99988 and --r 19 was refused with a negative scale
        code, out, _ = run(capsys, "factorize", "squeeze", "--r", r, "--phi", repr(math.pi))
        assert code == 0
        assert f"beta = {r} +0i" in out.splitlines()
        assert f"delta = {int(r) / 2:g} +0i" in out.splitlines()

    def test_mirror_squeeze_scale_keeps_digits(self, capsys):
        # cosh(r t) + cos(phi) sinh(r t) cancels for r t < 0 near phi = 0:
        # this was refused with a negative scale
        code, out, _ = run(capsys, "factorize", "squeeze", "--r", "19", "--phi", "0", "--t", "-1")
        assert code == 0
        assert "beta = 19 +0i" in out.splitlines()
        assert "delta = 9.5 +0i" in out.splitlines()

    @pytest.mark.parametrize("argv, expected", [
        (["--r", "25", "--phi", "3.141592653589793"],
         "delta = 12.4999999999903 +0i\nalpha = 158735.825749558 +0i\n"
         "beta = 24.9999999999806 +0i\ngamma = 158735.825749558 +0i\n"),
        (["--r", "25", "--phi", "0", "--t", "-1"],
         "delta = 12.5 +0i\nalpha = 0 +0i\nbeta = 25 +0i\ngamma = 0 +0i\n"),
    ], ids=["phi-pi", "mirror"])
    def test_squeeze_scale_below_caustic_eps_is_no_caustic(self, capsys, argv, expected):
        # the scale e^{-25} is below CAUSTIC_EPS, but its terms do not cancel
        code, out, err = run(capsys, "factorize", "squeeze", *argv)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("steps, named", [
        ((), "from t = 1.5712 to 1.5728 "),
        (("--ode-steps", "52"), "from t = 1.56923 to 1.6 "),
    ])
    def test_ode_check_across_caustic_fails(self, capsys, steps, named):
        # an RK4 stage overflows in the step across pi/2
        code, _, err = run(capsys, "factorize", "oscillator", "--t", "1.6", "--ode-check", *steps)
        assert code == 1
        assert err.startswith("error: ode check failed: the RK4 step " + named)
        assert err.count("\n") == 1 and "caustic" in err


class TestEvolve:
    def test_ground_squeeze_matches_closed_form(self, capsys, tmp_path):
        path = tmp_path / "squeezed.csv"
        code, out, _ = run(
            capsys,
            "evolve", "--initial", "ground", "--op", "squeeze:r=1,phi=0",
            "--out", str(path),
        )
        assert code == 0
        x, psi = read_wavefunction(str(path))
        s = math.e
        expected = (math.sqrt(math.pi) * s) ** -0.5 * np.exp(-(x**2) / (2 * s * s))
        assert np.abs(psi - expected).max() < 1e-8

    def test_printed_norm_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        code, out, _ = run(
            capsys,
            "evolve", "--initial", "coherent:x0=1,p0=0.5", "--op", "time:t=0.7",
            "--out", str(path),
        )
        assert code == 0
        printed = float(out.strip().split(" = ")[1])
        x, psi = read_wavefunction(str(path))
        dx = x[1] - x[0]
        recomputed = math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
        assert abs(recomputed - printed) < 1e-12

    def test_json_format_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _, _ = run(
            capsys,
            "evolve", "--initial", "ground", "--op", "displace:x0=1,p0=0.5",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["x", "re", "im", "density"]
        assert payload["config"]["grid_n"] == 2048
        x, psi = read_wavefunction(str(path))
        assert x.size == 2048

    def test_json_config_block_is_pinned(self, capsys, tmp_path):
        # key order sets the bytes of the frozen format
        path = tmp_path / "state.json"
        code, _, _ = run(
            capsys, "evolve", "--initial", "ground", "--format", "json", "--out", str(path)
        )
        assert code == 0
        assert list(json.loads(path.read_text())["config"].items()) == [
            ("grid_min", -12.0), ("grid_max", 12.0), ("grid_n", 2048), ("fock_dim", 128),
            ("ode_steps", 1000), ("norm_tol", 1e-8), ("fmt", "json"),
        ]

    def test_no_ops_echoes_input(self, capsys, tmp_path):
        path = tmp_path / "echo.csv"
        code, _, _ = run(capsys, "evolve", "--initial", "ground", "--out", str(path))
        assert code == 0
        x, psi = read_wavefunction(str(path))
        assert np.abs(psi - math.pi**-0.25 * np.exp(-0.5 * x**2)).max() < 1e-15

    def test_full_period_returns_density(self, capsys, tmp_path):
        path = tmp_path / "period.csv"
        code, _, _ = run(
            capsys,
            "evolve", "--initial", "coherent:x0=2,p0=0",
            "--op", f"time:t={2 * math.pi},substeps=8",
            "--out", str(path),
        )
        assert code == 0
        x, psi = read_wavefunction(str(path))
        dx = x[1] - x[0]
        expected = math.pi**-0.5 * np.exp(-((x - 2.0) ** 2))
        l2 = math.sqrt(float(np.sum((np.abs(psi) ** 2 - expected) ** 2) * dx))
        assert l2 < 1e-6

    def test_two_substeps_match_evolved_coherent(self, capsys, tmp_path):
        # an intermediate step of a spline-dilation chain wrapped content
        # around the window here and was off by 7e-5 with exit status 0
        path = tmp_path / "coherent.csv"
        code, _, _ = run(
            capsys,
            "evolve", "--initial", "coherent:x0=3,p0=1", "--op", "time:t=2.0,substeps=2",
            "--out", str(path),
        )
        assert code == 0
        x, psi = read_wavefunction(str(path))
        assert np.abs(psi - coherent_evolved(x, 2.0, 3.0, 1.0)).max() < 1e-12

    def test_long_time_reduced_by_periods(self, capsys, tmp_path):
        path = tmp_path / "coherent.csv"
        code, _, _ = run(capsys, "evolve", "--initial", "coherent:x0=1,p0=0.5",
                         "--op", "time:t=100000", "--out", str(path))
        assert code == 0
        x, psi = read_wavefunction(str(path))
        assert np.abs(psi - coherent_evolved(x, 1e5, 1.0, 0.5)).max() <= 1e-13

    def test_full_period_negates_squeezed_state(self, capsys, tmp_path):
        path = tmp_path / "period.csv"
        code, _, _ = run(
            capsys,
            "evolve", "--initial", "squeezed:x0=2,p0=1,r=0.5,phi=1.0",
            "--op", f"time:t={2 * math.pi},substeps=8",
            "--out", str(path),
        )
        assert code == 0
        x, psi = read_wavefunction(str(path))
        spec = SqueezedStateSpec(2.0, 1.0, SqueezeParameter(0.5, 1.0))
        assert np.abs(psi + psi_ss(x, spec)).max() < 1e-8

    def test_substep_violation_is_an_error(self, capsys):
        code, _, err = run(capsys, "evolve", "--initial", "ground", "--op", "time:t=2.0,substeps=1")
        assert code == 2
        assert "use at least 2 substeps" in err

    def test_time_op_defaults_to_fewest_substeps(self, capsys):
        outputs = []
        for op in ("time:t=2.0", "time:t=2.0,substeps=2"):
            code, out, err = run(capsys, "evolve", "--initial", "coherent:x0=1,p0=0.3",
                                 "--op", op, "--grid-n", "256")
            assert code == 0
            outputs.append((out, err))
        assert outputs[0] == outputs[1]

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "evolve", "--initial", "squeezed:x0=1,p0=0,r=0.5,phi=0",
                "--op", "time:t=0.8", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_text() == paths[1].read_text()

    @pytest.mark.parametrize("initial, op", [
        ("ground", "time:t=inf"),
        ("ground", "time:t=2,substeps=inf"),
        ("ground", "time:t=nan"),
        ("ground", "displace:x0=nan"),
        ("ground", "time:t=2,substeps=2.7"),
        ("evenodd:x0=2,s=1,sign=1.5", "time:t=1"),
        ("ground", "time:t=1,substeps=1e300"),
        ("ground", f"time:t=1,substeps={MAX_TIME_SUBSTEPS + 1}"),
    ])
    def test_nonfinite_or_fractional_parameters_refused(self, capsys, initial, op):
        code, _, err = run(capsys, "evolve", "--initial", initial, "--op", op, "--grid-n", "64")
        assert code == 2
        assert err.startswith("error:")

    def test_lost_support_warning_is_one_stderr_line(self):
        # a fresh interpreter, since pytest records warnings instead of printing them
        argv = ["evolve", "--initial", "squeezed:x0=1,p0=0.5,r=0.8,phi=1.0",
                "--op", "squeeze:r=0.5,phi=0.3"]
        proc = subprocess.run([sys.executable, "-m", "opfactor.cli", *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 3 and not any(".py:" in line for line in lines)
        assert lines[0] == ("warning: dilation by 0.615215 lost a fraction 7.039e-06 "
                            "of the expected norm to points outside the grid")
        assert lines[1].startswith("norm = ")
        assert lines[2].startswith("error: norm drift")

    def test_unknown_state_rejected(self, capsys):
        code, _, err = run(capsys, "evolve", "--initial", "plane-wave")
        assert code == 2
        assert "unknown initial state" in err

    def test_misspelled_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "evolve", "--initial", "coherent:x=1")
        assert code == 2
        assert "takes keys" in err

    @pytest.mark.xfail(strict=True, reason="content that leaves the window re-enters on the "
                       "other side with exit 0 (ROADMAP item 5, the footprint predictor)")
    def test_state_leaving_the_window_is_not_exit_0(self, capsys):
        # coherent_evolved puts the peak at x = +13.05, outside [-12, 12); the
        # periodic chain puts it at -10.96 and the norm does not move
        code, _, _ = run(capsys, "evolve", "--initial", "coherent:x0=0,p0=14", "--op", "time:t=1.2")
        assert code != 0

    @pytest.mark.xfail(strict=True, reason="the squeezed state is still 1e-4 at x = -10, and the "
                       "shift wraps it round the window with exit 0 (ROADMAP item 4)")
    def test_squeeze_then_displace_is_not_silently_off(self, capsys, tmp_path):
        path = tmp_path / "state.csv"
        code, _, _ = run(capsys, "evolve", "--initial", "ground", "--op", "squeeze:r=1.5,phi=2.0",
                         "--op", "displace:x0=2,p0=-1", "--out", str(path))
        x, psi = read_wavefunction(str(path))
        expected = psi_ss(x, SqueezedStateSpec(2.0, -1.0, SqueezeParameter(1.5, 2.0)))
        overlap = np.vdot(expected, psi)
        assert code != 0 or np.abs(psi * (abs(overlap) / overlap) - expected).max() < 1e-8

    @pytest.mark.xfail(strict=True, reason="the pair's momentum passes the grid's Nyquist band "
                       "near t = pi/2 and aliases with exit 0 (ROADMAP items 5, 14)")
    def test_density_past_nyquist_is_not_silently_off(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "density", "--x0", "7", "--s", "1.5", "--grid-min", "-100",
                         "--grid-max", "100", "--grid-n", "512", "--t-min", "0", "--t-max", "1.5",
                         "--t-steps", "16", "--out", str(path))
        assert code != 0 or np.loadtxt(path, delimiter=",", skiprows=1)[:, 4].max() < 1e-5


class TestVerify:
    def test_unknown_suite_refused(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            checks.run_checks("bogus")

    def test_fock_dim_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "fock", "--dim", "4")
        assert code == 2
        assert err == "error: Fock dimension must be >= 8 and <= 512, got 4\n"

    def test_grid_suite_passes(self, capsys):
        code, out, err = run(capsys, "verify", "grid")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

    def test_unresolved_box_mode_fails_its_check_only(self):
        # at dx = 1.5 sin(2 pi x) samples to zero everywhere; a fresh interpreter,
        # since that coarse grid also raises SupportOverflowWarning
        proc = subprocess.run([sys.executable, "-m", "opfactor.cli", "verify", "grid",
                               "--grid-n", "16"], env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert [line.split(",")[2] for line in lines] == CHECK_NAMES["grid"]
        assert "FAIL,grid,box_mode_phase_n2,inf,1.0e-09" in lines
        assert "error:" not in proc.stderr

    @pytest.mark.parametrize("window, suite, refused", [
        # nothing of the suite's states lies on the window: the even/odd pair cannot be
        # normalized, no quadrature probe lies near 0, and a closed form vanishes at its
        # own maximum
        ("--grid-min 100 --grid-max 200", "grid",
         ("spectral_d2_vs_quadrature", "time_chain_vs_coherent_evolved", "unitary_norm_drift")),
        ("--grid-min 100 --grid-max 200", "analytic", ("evenodd_", "psi_ss_vs_grid_chain")),
        # the suite's shifts of 1 and 1.5 reach half the span
        ("--grid-min -1 --grid-max 1 --grid-n 16", "grid", ("shift_gaussian", "unitary_norm_drift")),
        ("--grid-min -1 --grid-max 1 --grid-n 16", "analytic", ("psi_ss_vs_grid_chain",)),
        # at dx = 125 the odd pair samples to zero, and so do the box modes
        ("--grid-min -1000 --grid-max 1000 --grid-n 16", "grid",
         ("unitary_norm_drift", "box_mode_phase_")),
        ("--grid-min -1000 --grid-max 1000 --grid-n 16", "analytic",
         tuple(f"evenodd_{kind}_sign-1" for kind in ("psi_vs_rho", "raw_integral", "grid_density"))),
    ])
    def test_window_that_refuses_a_state_or_chain_fails_its_checks_only(self, window, suite, refused):
        # a refused state or chain, or nothing to compare, reads inf on the records that
        # need it; a fresh interpreter, since these windows also raise SupportOverflowWarning
        proc = subprocess.run([sys.executable, "-m", "opfactor.cli", "verify", suite,
                               *window.split()], env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 1
        rows = [line.split(",") for line in proc.stdout.splitlines()]
        names = CHECK_NAMES[suite]
        assert [row[2] for row in rows] == names
        assert {row[2] for row in rows if row[3] == "inf"} == {n for n in names if n.startswith(refused)}
        assert "error:" not in proc.stderr and "invalid value" not in proc.stderr

    def test_analytic_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "analytic", "--ode-steps", "1000")
        assert code == 0

    def test_fock_suite_reports_known_truncation_failure(self, capsys):
        # The dim-64 / 32-state / t=1.0 comparison sits beyond the truncation
        # wall (see README); the suite must report it honestly and exit 1.
        code, out, _ = run(capsys, "verify", "fock")
        lines = out.strip().splitlines()
        statuses = {line.split(",")[2]: line.split(",")[0] for line in lines if "," in line}
        assert statuses["time_diagonal_dim64_t0.3"] == "PASS"
        assert statuses["time_diagonal_dim64_t1"] == "FAIL"
        others = {k: v for k, v in statuses.items() if k != "time_diagonal_dim64_t1"}
        assert all(v == "PASS" for v in others.values())
        assert code == 1

    def test_all_check_names_are_pinned(self):
        # perfbench/gate.py and downstream reports key on these names, in this order;
        # each record's suite is its row's
        assert [(r.suite, r.name) for r in checks.run_checks("all")] == [
            (suite, name) for suite, names in CHECK_NAMES.items() for name in names]

    def test_every_record_matches_the_golden_file(self):
        # characterization: `verify all --format json` at the default config, checked in.
        # Two values both below GOLDEN_ROUNDOFF match, since roundoff reorders with any
        # arithmetic change; every other value matches to GOLDEN_RTOL.  A record that
        # moves fails here until the same change rewrites the file.
        with open(os.path.join(REPO, "tests", "golden", "verify_all.json")) as handle:
            golden = json.load(handle)
        results = checks.run_checks("all")
        assert [(r.suite, r.name, r.tol, r.passed) for r in results] == [
            (g["suite"], g["name"], g["tol"], g["passed"]) for g in golden]
        moved = [(r.name, g["measured"], r.measured) for r, g in zip(results, golden)
                 if not (max(r.measured, float(g["measured"])) < GOLDEN_ROUNDOFF
                         or math.isclose(r.measured, float(g["measured"]), rel_tol=GOLDEN_RTOL))]
        assert moved == []

    def test_every_check_function_is_one_row(self):
        # a check that is not in the table would never run under verify
        functions = [name for name, fn in inspect.getmembers(checks, inspect.isfunction)
                     if name.startswith("check_") and fn.__module__ == checks.__name__]
        assert sorted(check.__name__ for _, check in checks._CHECKS) == sorted(functions)

    def test_suites_come_from_the_table(self):
        assert checks.SUITES == ("fock", "grid", "analytic", "all")

    def test_runner_calls_the_module_attribute_with_its_parameters(self, monkeypatch):
        # a tracer replaces the module's attribute; the replacement is what runs, and
        # it gets the arguments its own signature names
        seen = []

        def fake(grid, fock_dim):
            seen.append((grid, fock_dim))
            return [checks.CheckResult("fock", "fake", 0.0, 1.0)]

        monkeypatch.setattr(checks, "check_hermite_parseval", fake)
        grid = Grid()
        results = checks.run_checks("fock", grid=grid, fock_dim=16)
        assert [r.name for r in results][-2:] == ["position_roundtrip", "fake"]
        assert seen == [(grid, 16)]

    def test_json_writes_a_non_finite_measured_as_text(self):
        # bare Infinity is not JSON; a fresh interpreter, since this window also raises
        # SupportOverflowWarning
        proc = subprocess.run([sys.executable, "-m", "opfactor.cli", "verify", "grid",
                               "--grid-n", "16", "--format", "json"], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        records = json.loads(proc.stdout, parse_constant=_refuse_constant)
        assert [r["name"] for r in records] == CHECK_NAMES["grid"]
        box = next(r for r in records if r["name"] == "box_mode_phase_n2")
        assert box["measured"] == "inf" and float(box["measured"]) == math.inf
        assert not box["passed"]

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "grid", "--format", "json", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert all(entry["passed"] for entry in payload)
        assert {"suite", "name", "measured", "tol", "passed"} <= set(payload[0])


class TestDensity:
    @pytest.mark.parametrize("t_min, t_max, end", [("0", "7.1e15", "7.1e+15"),
                                                    ("-7.1e15", "1", "-7.1e+15")])
    def test_too_many_periods_refused_before_any_chain(self, capsys, monkeypatch,
                                                       t_min, t_max, end):
        # the end of the range with the most periods is refused before the sweep starts
        def no_chain(*args):
            raise AssertionError("a chain was built")
        monkeypatch.setattr(checks, "apply_chain", no_chain)
        code, out, err = run(capsys, "density", "--x0", "2", "--s", "1.5", "--t-min", t_min,
                             "--t-max", t_max, "--t-steps", "2000")
        assert code == 2 and out == ""
        assert err == f"error: t = {end} spans 2^50 oscillator periods or more\n"

    def test_trace_with_exact_caustic(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        # 9 samples over [0, pi] place index 4 exactly at pi/2
        code, _, _ = run(
            capsys,
            "density", "--x0", "2", "--s", "1.5", "--sign", "-1",
            "--t-min", "0", "--t-max", str(math.pi), "--t-steps", "9",
            "--grid-n", "512", "--out", str(path),
        )
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == (9 * 512, 6)
        assert np.all(np.isfinite(rows))
        ts = np.unique(rows[:, 0])
        assert any(abs(t - math.pi / 2) < 1e-12 for t in ts)
        # odd state: density vanishes on the x = 0 column for every t
        origin = rows[np.abs(rows[:, 1]) < 1e-12]
        assert origin.shape[0] == 9
        assert np.abs(origin[:, 2]).max() < 1e-15

    def test_analytic_grid_agreement(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        cases = [
            (["--sign", "1", "--t-min", "0", "--t-max", "1.2", "--t-steps", "5"], 1e-5),
            # the README trace, which passes pi/2 and ends next to pi
            (["--sign", "-1", "--t-min", "0", "--t-max", "3.14159", "--t-steps", "9"], 1e-9),
        ]
        for argv, tol in cases:
            code, _, _ = run(
                capsys, "density", "--x0", "2", "--s", "1.5", *argv, "--out", str(path)
            )
            assert code == 0
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            assert rows[:, 4].max() < tol, argv

    @pytest.mark.parametrize("t_min, t_max", [("0", "2e5"), ("-2e5", "1")])
    def test_time_beyond_substep_bound_is_reduced(self, capsys, tmp_path, t_min, t_max):
        # 127324 substeps would be needed at |t| = 2e5; the rest after whole periods needs at most 3
        path = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "density", "--x0", "2", "--s", "1.5", "--sign", "1",
            f"--t-min={t_min}", f"--t-max={t_max}", "--t-steps", "2", "--grid-n", "64",
            "--out", str(path),
        )
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert sorted(set(rows[:, 0])) == sorted({float(t_min), float(t_max)})
        assert rows[:, 4].max() <= 1e-11

    def test_raw_integral_column(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys,
            "density", "--x0", "2", "--s", "1.5", "--sign", "1",
            "--t-min", "0.6", "--t-max", "0.6", "--t-steps", "1",
            "--grid-n", "1024", "--out", str(path),
        )
        assert code == 0
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        spec = EvenOddSpec(2.0, 1.5, +1)
        damp = math.exp(-spec.x0**2 / spec.s**2)
        d = math.sqrt(spec.width_sq(0.6))
        expected = (1.0 + damp) / (1.0 + d * damp)
        assert rows[0, 5] == pytest.approx(expected, abs=1e-9)

    def test_wide_window_pair_is_not_refused(self, capsys, tmp_path):
        # at t = 1 the Gaussians' product form has a cosh that overflows where
        # its envelope underflows; rho_spm's pair form reads that as 0
        path = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "density", "--x0", "7", "--s", "1.5", "--grid-min", "-100", "--grid-max", "100",
            "--grid-n", "512", "--t-min", "0", "--t-max", "1", "--t-steps", "2", "--out", str(path),
        )
        assert code == 0 and err == ""
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        for t, block in zip((0.0, 1.0), rows.reshape(2, 512, 6)):
            x = block[:, 1]
            dens = np.abs(psi_spm(x, t, EvenOddSpec(7.0, 1.5, +1))) ** 2
            dens /= np.sum(dens) * (x[1] - x[0])
            assert np.abs(block[:, 2] - dens).max() < 1e-9, t

    def test_negative_raw_integral_is_not_refused(self, capsys, tmp_path):
        # 1 - d E changes sign between t = 0 (d = s) and t = pi/2 (d = 1/s):
        # the closed-form integral is negative there, the renormalized density
        # still right, and only an exact zero of 1 - d E is refused
        path = tmp_path / "trace.csv"
        code, _, err = run(
            capsys, "density", "--x0", "0.3", "--s", "0.5", "--sign", "-1",
            "--t-min", "0", "--t-max", "1.5707963267948966", "--t-steps", "2", "--out", str(path),
        )
        assert code == 0 and err == ""
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        raw = rows[rows[:, 0] > 0, 5]
        assert raw[0] == pytest.approx(-0.765, abs=1e-3)
        assert np.all(raw == raw[0])
        assert rows[:, 4].max() < 1e-9


@pytest.mark.parametrize("argv", [
    "verify fock --fock-dim 600",
    "verify grid --grid-n 1000",
    "verify grid --grid-min=-inf",
    # a window whose x^2 overflows, refused before any numpy overflow warning
    "evolve --initial ground --grid-max 1e300",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --grid-max 1e300",
    "verify grid --grid-max 1e300",
    # windows so narrow that dx is 0, or that (pi/dx)^2 overflows
    "verify grid --grid-min 0 --grid-max 5e-324 --grid-n 16",
    "verify grid --grid-min 0 --grid-max 1e-300 --grid-n 16",
    "factorize oscillator --t 1 --ode-check --ode-steps 0",
    "factorize oscillator --t nan",
    # 2^50 oscillator periods or more
    "factorize oscillator --t 1e300",
    "evolve --initial ground --op time:t=1e300",
    "factorize squeeze --r -1",
    "factorize squeeze --phi nan",
    # squeeze flags that the oscillator does not read
    "factorize oscillator --r 1",
    "factorize oscillator --phi 0",
    "evolve --initial ground --fock-dim 600",
    "factorize squeeze --r 1000",
    "factorize squeeze --r 400 --t 2",
    f"evolve --initial ground --op squeeze:r=1000 --out {os.devnull}",
    "verify grid --out {missing}",
    "evolve --initial ground --out {missing}",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --out {missing}",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --out {folder}",
    # even/odd pairs that cannot be built: vanishing, zero on the window,
    # non-finite samples, s**4 underflowing to a division by zero
    "density --x0 0 --s 1.5 --sign -1 --t-min 0 --t-max 1 --t-steps 2",
    "density --x0 1e3 --s 1.5 --t-min 0 --t-max 1 --t-steps 2",
    "density --x0 2 --s 1e200 --t-min 0 --t-max 1 --t-steps 2",
    "density --x0 2 --s 1e-200 --t-min 0 --t-max 1 --t-steps 2",
    "evolve --initial evenodd:x0=2,s=1e-200",
    "density --x0 1e200 --s 1.5 --t-min 0 --t-max 1 --t-steps 2",
    # even/odd pairs the window does not hold, so that the quadrature of
    # rho_spm at t = 0 misses its closed form, and one where that closed
    # form is singular (s e^{-x0^2/s^2} = 1 with sign -1)
    "density --x0 30 --s 1.5 --sign -1 --t-min 0 --t-max 1 --t-steps 3 --grid-n 64",
    "density --x0 2 --s 1e50 --t-min 0 --t-max 1 --t-steps 3 --grid-n 64",
    "evolve --initial evenodd:x0=30,s=1.5,sign=-1 --grid-n 64",
    "density --x0 0.9551421324825795 --s 1.5 --sign -1 --t-min 0 --t-max 1 --t-steps 2",
    # ... and one where it is singular at a later t (d(t) e^{-x0^2/s^2} = 1)
    "density --x0 0.1 --s 0.5 --sign -1 --t-min 0 --t-max 0.4908678401214229 --t-steps 2",
    "density --x0 0.1 --s 0.5 --sign -1 --t-min 0 --t-max 0.4908678401214229 --t-steps 2 --format json",
    # ... refused before the file is opened
    "density --x0 0.1 --s 0.5 --sign -1 --t-min 0 --t-max 0.4908678401214229 --t-steps 2 "
    "--out {folder}/trace.csv",
    "density --x0 0.1 --s 0.5 --sign -1 --t-min 0 --t-max 0.4908678401214229 --t-steps 2 "
    "--format json --out {folder}/trace.json",
    # initial states whose norm on the window is not 1 within --tol
    "evolve --initial coherent:x0=1e3",
    "evolve --initial squeezed:r=1.5",
    # a shift that would wrap content round the window, refused before the chain runs
    "evolve --initial ground --op displace:x0=13",
    # a required key=value missing from --initial or --op
    "evolve --initial evenodd:s=1.5",
    "evolve --initial ground --op time",
    # an --op item with no "=", a value that is not a number, and a count of no substeps
    "evolve --initial ground --op time:t",
    "evolve --initial ground --op time:t=abc",
    "evolve --initial ground --op time:t=1,substeps=0",
    "verify grid --ode-steps 0",
    # a non-finite --tol, which JSON could not write back
    "evolve --initial ground --grid-n 64 --tol inf --format json",
    "evolve --initial ground --grid-n 64 --tol nan",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --grid-n 64 --tol inf --format json",
    # a substep count or an even/odd sign that is not a whole number
    "evolve --initial ground --op time:t=1,substeps=2.5",
    "evolve --initial evenodd:x0=2,s=1.5,sign=0.5",
    # a key given twice in --initial or --op
    "evolve --initial coherent:x0=1,x0=2",
    "evolve --initial ground --op squeeze:r=1,r=2",
    # usage errors: a bad value, an unknown choice, a missing required flag
    "evolve --initial ground --grid-n abc",
    "verify bogus",
    "evolve",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --format xml",
    # one t sample cannot hold both ends of a range
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 1 --grid-n 256",
    # flags of a subcommand that does not read them
    "verify grid --tol 1",
    "evolve --initial ground --ode-steps 5",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --fock-dim 64",
])
def test_refused_input_exits_2(capsys, tmp_path, argv):
    # a refusal must not read as a failed check (1) or a finished run (0)
    argv = argv.format(missing=tmp_path / "no-such-dir" / "out.csv", folder=tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no --out file


@pytest.mark.parametrize("argv", [
    "evolve --initial ground --grid-n 64 --tol 1e300 --format json",
    "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --grid-n 64 --tol 1e300 --format json",
])
def test_accepted_json_run_is_json(capsys, argv):
    # every value is a JSON number: no bare Infinity or NaN token
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert json.loads(out, parse_constant=_refuse_constant)["config"]["norm_tol"] == 1e300


@pytest.mark.parametrize("value", ["-1.2e1", "-1.2E+1", "-120e-1", "-.12e2", "-12.", "-12"])
def test_negative_value_in_any_number_form_is_read(capsys, value):
    # argparse alone takes "-1.2e1" for a flag and refuses the option as missing its argument
    assert build_parser().parse_args(["evolve", "--initial", "ground", "--grid-min", value]).grid_min == -12.0
    code, out, _ = run(capsys, "evolve", "--initial", "ground", "--grid-min", value, "--grid-max", "1.2e1")
    assert code == 0
    assert out == run(capsys, "evolve", "--initial", "ground")[1]


def test_negative_window_edge_in_exponent_form_is_accepted(capsys):
    code, out, err = run(capsys, "evolve", "--initial", "ground", "--grid-min", "-1e3")
    assert code == 0 and "error" not in err
    assert out.splitlines()[1].startswith("-1000,")


@pytest.mark.parametrize("argv, message", [
    ("evolve --initial ground --tol 0", "error: --tol must be positive, got 0.0"),
    ("verify grid --ode-steps 0", "error: --ode-steps must be positive, got 0"),
    ("evolve --initial ground --grid-n 64 --tol inf --format json", "error: --tol must be finite, got inf"),
])
def test_run_config_refusal_names_the_flag(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", message + "\n")


def test_run_config_refuses_an_unknown_format():
    # the parser's choices stop --format xml first; RunConfig checks a direct caller too
    with pytest.raises(ValueError, match="format must be csv or json, got 'xml'"):
        RunConfig(fmt="xml")


def test_subcommand_option_strings_are_pinned():
    # each subcommand takes only the flags it reads
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
             for name, p in sub.choices.items()}
    shared = ["--grid-min", "--grid-max", "--grid-n", "--format", "--out"]
    assert found == {
        "factorize": ["--t", "--r", "--phi", "--ode-check", "--ode-steps"],
        "evolve": ["--initial", "--op", *shared, "--tol"],
        "verify": [*shared, "--fock-dim", "--dim", "--ode-steps"],
        "density": ["--x0", "--s", "--sign", "--t-min", "--t-max", "--t-steps", *shared, "--tol"],
    }
    # --help is not a refusal
    with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stdout(io.StringIO()):
        main(["evolve", "--help"])
    assert exit_info.value.code == 0


_ARG_VALUES = ("0", "1", "-1", "2.5", "64", "1e300", "-1e3", "5e-324", "1e-300", "nan", "inf",
               "abc")
_VALUED_FLAGS = (
    "--t", "--r", "--phi", "--ode-steps", "--grid-min", "--grid-max", "--grid-n", "--format",
    "--tol", "--fock-dim", "--dim", "--x0", "--s", "--sign", "--t-min", "--t-max", "--t-steps",
)
_spec_items = st.one_of(
    st.tuples(st.sampled_from(("x0", "p0", "r", "phi", "s", "sign", "t", "substeps", "x")),
              st.sampled_from(_ARG_VALUES)).map("=".join),
    st.sampled_from(("x0", "=1", "")),
)
_specs = st.tuples(
    st.sampled_from(("ground", "coherent", "squeezed", "evenodd", "squeeze", "displace", "time",
                     "bogus", "")),
    st.lists(_spec_items, max_size=3),
).map(lambda p: p[0] + (":" + ",".join(p[1]) if p[1] else ""))
_flags = st.one_of(
    st.tuples(st.sampled_from(_VALUED_FLAGS), st.sampled_from(_ARG_VALUES + ("json",))),
    st.tuples(st.sampled_from(("--initial", "--op")), _specs),
    st.just(("--ode-check",)),
)
_commands = st.one_of(
    st.sampled_from((["factorize", "squeeze"], ["factorize", "oscillator"], ["verify", "grid"],
                     ["density", "--x0", "2", "--s", "1.5", "--t-min", "0", "--t-max", "1",
                      "--t-steps", "2"])),
    _specs.map(lambda spec: ["evolve", "--initial", spec]),
)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(command=_commands, flags=st.lists(_flags, max_size=4))
def test_any_argv_exits_0_1_or_2(command, flags):
    argv = command + [token for flag in flags for token in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error:"), argv
    if code == 0:
        for token in re.split(r"[\s,=:\[\]{}\"]+", out.getvalue()):
            with contextlib.suppress(ValueError):
                assert math.isfinite(float(token.removesuffix("i"))), argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    # a write that fails exits 1 with one error: line, through --out or stdout

    @pytest.mark.parametrize("argv", [
        "evolve --initial ground --out /dev/full",
        "verify grid --out /dev/full",
        "verify grid --format json --out /dev/full",
        "density --x0 2 --s 1.5 --t-min 0 --t-max 1 --t-steps 2 --out /dev/full",
    ])
    def test_out_file(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["error: cannot write output: [Errno 28] No space left on device"]

    @pytest.mark.parametrize("argv", ["evolve --initial ground", "factorize oscillator"])
    def test_stdout(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "opfactor.cli", *argv.split()],
                                  env=src_env(),
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: cannot write output: [Errno 28] No space left on device"]


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                 "and data type float64"),
     "error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
     "(1000000000000,) and data type float64"),
    (MemoryError(), "error: out of memory"),
])
def test_allocation_that_fails_exits_1(monkeypatch, capsys, tmp_path, exc, line):
    # valid input that needs more memory than there is fails with one error: line
    def initial(*args):
        raise exc
    monkeypatch.setattr(checks, "evenodd_initial", initial)
    out = tmp_path / "trace.csv"
    code, stdout, err = run(capsys, "density", "--x0", "2", "--s", "1.5", "--t-min", "0",
                            "--t-max", "1", "--t-steps", "2", "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.splitlines() == [line]
    assert not out.exists()


def test_checks_and_ode_check_build_no_trajectory(monkeypatch, capsys):
    # every caller in the package reads only the final coefficients, so none
    # reaches the whole path, under whichever name a module binds it
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return integrate_wei_norman(*args, **kwargs)

    bound = [(module, name) for key, module in sys.modules.items() if key.startswith("opfactor.")
             for name, value in vars(module).items() if value is integrate_wei_norman]
    assert (sys.modules["opfactor.algebra"], "integrate_wei_norman") in bound
    for module, name in bound:
        monkeypatch.setattr(module, name, spy)
    assert len(checks.run_checks("all")) == sum(map(len, CHECK_NAMES.values()))
    code, _, _ = run(capsys, "factorize", "oscillator", "--t", "1", "--ode-check")
    assert code == 0
    assert calls == []


def _density_rows():
    """The full rows array of the density command in the pin test below."""
    grid = RunConfig(grid_n=8192).make_grid()
    ts = np.linspace(0.0, 3.14159, 3)
    spec = EvenOddSpec(2.0, 1.5, -1)
    raw, blocks = checks.evenodd_grid_sweep(checks.evenodd_initial(grid, spec, RunConfig.norm_tol), spec, ts)
    rho, rho_grid, _ = map(np.stack, zip(*blocks))
    return np.column_stack([
        np.repeat(ts, grid.n), np.tile(grid.x, len(ts)), rho.ravel(), rho_grid.ravel(),
        np.abs(rho - rho_grid).ravel(), np.repeat(raw, grid.n),
    ])


def _evolve_rows():
    """The full rows array of the evolve command in the pin test below."""
    grid = RunConfig(grid_n=8192).make_grid()
    out = apply_chain(WaveFunction.from_callable(grid, psi0),
                      squeeze_factors(SqueezeParameter(0.5, 0.3)))
    return np.column_stack([grid.x, out.samples.real, out.samples.imag, out.density()])


_SMALL_ROWS = np.array([[-0.0, 1e-320, 0.1], [1.0, 2.5, -1.0 / 3.0]])


def _big_rows():
    """More rows than one chunk, with the small rows straddling a chunk edge."""
    big = np.random.default_rng(5).standard_normal((2 * CSV_BLOCK_ROWS + 3, 3))
    big[CSV_BLOCK_ROWS - 1:CSV_BLOCK_ROWS + 1] = _SMALL_ROWS
    return big


def _block_table():
    """A table of two block constants, a shared column and cells, as the
    writer takes it, and as the four full columns of its rows.

    -0.0 and a subnormal are block constants and sit in a shared column that
    spans two chunks, with the literals straddling the chunk edge.
    """
    rng = np.random.default_rng(11)
    nrows = CSV_BLOCK_ROWS + 5
    constant = np.array([-0.0, 1e-320, 0.1])
    other_constant = np.array([1.0 / 3.0, -0.0, -1e-320])
    shared = rng.standard_normal(nrows)
    shared[CSV_BLOCK_ROWS - 1:CSV_BLOCK_ROWS + 1] = [-0.0, 1e-320]
    cells = rng.standard_normal((3, nrows))
    cells[1, CSV_BLOCK_ROWS - 1:CSV_BLOCK_ROWS + 1] = [1e-320, -0.0]
    values = [constant[:, None], shared, cells, other_constant[:, None]]
    full = [
        np.repeat(constant, nrows), np.tile(shared, 3), cells.ravel(),
        np.repeat(other_constant, nrows),
    ]
    return values, full


_BLOCK_ORDERS = [(0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1)]


def _csv_tables():
    """(columns, values) of every table that the CSV byte pins write."""
    values, _ = _block_table()
    return [(["a", "b", "c"], list(rows.T)) for rows in (_SMALL_ROWS, _big_rows())] + [
        (["a", "b", "c", "d"], [values[j] for j in order]) for order in _BLOCK_ORDERS
    ]


def _writer_table(values):
    """The writer's (fixed, blocks) for a table given as one array per column,
    each broadcasting to (blocks, rows per block): a (blocks, 1) array is a
    block constant, a 1-D array a column that every block shares, and a
    (blocks, rows) array a cell column.  With no 2-D array the table is one
    block of cells."""
    if all(np.ndim(v) == 1 for v in values):
        return {}, [values]
    fixed = {j: v for j, v in enumerate(values) if np.ndim(v) == 1 or np.shape(v)[1] == 1}
    cells = [v for j, v in enumerate(values) if j not in fixed]
    return fixed, ([v[b] for v in cells] for b in range(len(cells[0])))


def _csv_text(columns, values, config=None):
    stream = io.StringIO()
    _write_rows(columns, *_writer_table(values), config or RunConfig(), stream)
    return stream.getvalue()


class TestOutputFormat:
    def test_csv_bytes(self):
        small_text = (
            "a,b,c\r\n"
            "-0,9.9998886718268301e-321,0.10000000000000001\r\n"
            "1,2.5,-0.33333333333333331\r\n"
        )
        big_text = io.StringIO()
        np.savetxt(big_text, _big_rows(), fmt="%.17g", delimiter=",", newline="\r\n",
                   header="a,b,c", comments="")
        for rows, expected in [(_SMALL_ROWS, small_text), (_big_rows(), big_text.getvalue())]:
            # line lists: as strict as comparing the strings, and a mismatch
            # is reported at once instead of through a quadratic text diff
            assert _csv_text(["a", "b", "c"], list(rows.T)).split("\r\n") == expected.split("\r\n")

    @pytest.mark.parametrize("order", _BLOCK_ORDERS)
    def test_csv_bytes_of_block_columns(self, order):
        values, full = _block_table()
        columns = ["a", "b", "c", "d"]
        expected = io.StringIO()
        np.savetxt(expected, np.column_stack([full[j] for j in order]), fmt="%.17g",
                   delimiter=",", newline="\r\n", header=",".join(columns), comments="")
        text = _csv_text(columns, [values[j] for j in order])
        # compared as line lists, which pytest reports cheaply when they differ
        assert text.split("\r\n") == expected.getvalue().split("\r\n")
        assert "\r\n-0," in text and "\r\n9.9998886718268301e-321," in text

        text = _csv_text(columns, [values[j] for j in order], RunConfig(fmt="json"))
        rows = np.array(json.loads(text)["rows"])
        assert rows.tobytes() == np.column_stack([full[j] for j in order]).tobytes()

    def test_fallback_alone_writes_the_same_bytes(self, monkeypatch):
        # Where longdouble is a plain double, the kernel's error bound is over
        # 1/2 and every number but zero, which is exact, is formatted by
        # _fmt17.  That one path must write the same bytes as the kernel.
        tables = _csv_tables()
        numbers = sum(np.size(v) for _, values in tables for v in values)
        zeros = sum(np.count_nonzero(np.asarray(v) == 0) for _, values in tables for v in values)
        formatted = []
        monkeypatch.setattr(cli, "_fmt17", lambda value: formatted.append(value) or f"{value:.17g}")
        kernel = [_csv_text(*table) for table in tables]
        assert 0 < len(formatted) < numbers / 10
        formatted.clear()
        monkeypatch.setattr(cli, "_ERROR_SLOPE", 1.0)
        assert [_csv_text(*table) for table in tables] == kernel
        assert zeros > 0 and len(formatted) == numbers - zeros

    @pytest.mark.parametrize("argv, columns, build", [
        ("density --x0 2 --s 1.5 --sign -1 --t-min 0 --t-max 3.14159 --t-steps 3",
         "t,x,rho_analytic,rho_grid,abs_delta,raw_integral", _density_rows),
        ("evolve --initial ground --op squeeze:r=0.5,phi=0.3", "x,re,im,density", _evolve_rows),
    ])
    def test_files_pin_savetxt_and_json_rows(self, capsys, tmp_path, argv, columns, build):
        # the frozen format, end to end: savetxt of the full rows array, with
        # JSON rows bit-identical to the CSV values
        argv = [*argv.split(), "--grid-n", "8192"]
        expected = io.StringIO()
        np.savetxt(expected, build(), fmt="%.17g", delimiter=",",
                   newline="\r\n", header=columns, comments="")
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "rows.json"
        assert run(capsys, *argv, "--out", str(csv_path))[0] == 0
        assert run(capsys, *argv, "--format", "json", "--out", str(json_path))[0] == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        with open(csv_path, newline="") as handle:
            text = handle.read()
        lines = text.split("\r\n")
        assert lines == expected.getvalue().split("\r\n") and out.split("\r\n") == lines
        csv_rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
        with open(json_path) as handle:
            json_rows = np.array(json.load(handle)["rows"])
        assert json_rows.tobytes() == csv_rows.tobytes()


def _printf_mismatches(x):
    """(value, field, %.17g) for each value of x whose kernel field differs."""
    x = np.asarray(x, dtype=np.float64)
    fields = [col.tobytes().replace(b"\0", b"").decode("ascii") for col in _fields17(x).T]
    return [(v, f, "%.17g" % v) for v, f in zip(x.tolist(), fields) if f != "%.17g" % v]


# NaN payloads of both signs, +-0, +-inf, subnormals and the largest finite double
_SPECIAL_BITS = [
    0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000,
    0xFFFFFFFFFFFFFFFF, 0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
]


class TestFields17:
    # every field of the CSV kernel is the text of '%.17g' % x

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_SPECIAL_BITS)),
                    min_size=1, max_size=100))
    def test_raw_bit_patterns(self, bits):
        assert _printf_mismatches(np.array(bits, dtype=np.uint64).view(np.float64)) == []

    def test_random_doubles(self):
        # about 2% of these are near-ties, which the error bound sends to _fmt17
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
        scaled = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
        assert _printf_mismatches(np.concatenate([bits.view(np.float64), scaled])) == []

    def test_near_ties(self):
        # Each exact product x 10^(16-k) lies within 0.002 of a half-integer,
        # and x87 extended precision rounds it to the wrong side: only the
        # error bound sends these to _fmt17.
        x = [
            5.736632302678879e+280, 3.1840308524721733e-211, 1.6121981551231505e-68,
            3.5467102090433724e-38, 5.4991768101597764e+47, 6.846927541353596e-68,
            3.225747164139698e-78, 1.7887800551475538e-68, 7.018233560401107e+39,
            6.686749228402829e-239, 1.2565321321327867e+143, 6.102004672069592e+47,
            3.3448499066819996e-298, 4.798007607361451e+106, 6.690893857757486e-155,
        ]
        for v in x:
            exact = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
            assert abs(exact - math.floor(exact) - Fraction(1, 2)) < Fraction(1, 500), v
        assert _printf_mismatches(x + [-v for v in x]) == []

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        x = np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)),
            [float(f"1e{j}") for j in range(-323, 309)],
        ])
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
        assert _printf_mismatches(np.concatenate([x, -x])) == []

    def test_exact_ties(self):
        # x = m 2^-j with m odd has x 10^(j-1) = m 5^(j-1) / 2, a tie at 17
        # digits when m 5^(j-1) / 2 lies in [10^16, 10^17)
        ties = []
        for j in range(2, 26):
            low, high = -(-2 * 10**16 // 5 ** (j - 1)), min(2 * 10**17 // 5 ** (j - 1), 2**53)
            for m in {low | 1, (low + high) // 2 | 1, (high - 1) | 1, 3}:
                exact = Fraction(m, 2**j) * 10 ** (j - 1)
                if low <= m < high and 10**16 <= exact < 10**17:
                    assert exact.denominator == 2
                    ties.append(math.ldexp(m, -j))
        assert 2.0**-25 in ties and len(ties) > 60
        assert _printf_mismatches(ties + [-t for t in ties]) == []

    def test_every_fixed_exponent_and_both_notation_switches(self):
        # 1 to 17 significant digits at each exponent from -6 to 18, which
        # holds the fixed notation's -4..16 and its edges at 1e-5/1e-4 and
        # 1e16/1e17; integer values keep their trailing zeros
        x = [float(f"{d[0]}.{d[1:s]}e{e}") for d in ("12345678901234567", "90000000000000009")
             for s in range(1, 18) for e in range(-6, 19)]
        x += [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.9999999999999995e16]
        x = np.array(x)
        assert _printf_mismatches(np.concatenate([x, -x, np.nextafter(x, 0)])) == []

    def test_zero_is_formatted_by_the_kernel(self, monkeypatch):
        def refuse(value):
            raise AssertionError(f"{value!r} reached _fmt17")

        monkeypatch.setattr(cli, "_fmt17", refuse)
        fields = [col.tobytes().replace(b"\0", b"").decode("ascii") for col in _fields17([0.0, -0.0, 0.0]).T]
        assert fields == ["0", "-0", "0"]

    def test_seeded_samples_at_every_exponent_and_the_edges(self):
        rng = np.random.default_rng(31)
        exponents = np.arange(-323, 308)
        x = rng.uniform(1.0, 10.0, (8, exponents.size)) * 10.0**exponents
        edges = [0.0, np.inf, np.nan, 5e-324, 1.5e308, 1e16, 1e17]
        edges += [float(f"1e{j}") for j in range(-323, 309)]
        x = np.concatenate([x.ravel(), edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        assert _printf_mismatches(np.concatenate([x, -x])) == []

    def test_power_table_is_correctly_rounded(self):
        powers = cli._field_tables()[0]
        for k, power in zip(range(-cli._EXP0, cli._EXP0 + 1), powers):
            exact = Fraction(10) ** (16 - k)
            error = abs(Fraction(*power.as_integer_ratio()) - exact)
            for neighbour in (np.nextafter(power, power.dtype.type(np.inf)),
                              np.nextafter(power, power.dtype.type(-np.inf))):
                assert error <= abs(Fraction(*neighbour.as_integer_ratio()) - exact), k


def _writer_peak_bytes(blocks):
    """tracemalloc's peak while writing a density-shaped CSV table."""
    rng = np.random.default_rng(3)
    nrows = 2 * CSV_BLOCK_ROWS
    values = [rng.random((blocks, 1)), np.linspace(-12.0, 12.0, nrows),
              *rng.standard_normal((3, blocks, nrows)), rng.random((blocks, 1))]
    _fields17(np.zeros(1))  # the kernel's tables are built once per process
    with open(os.devnull, "w") as sink:
        return traced_peak(lambda: _write_rows(DENSITY_COLUMNS, *_writer_table(values), RunConfig(), sink))


def test_csv_memory_is_bounded_by_one_chunk():
    assert _writer_peak_bytes(8) < 1.25 * _writer_peak_bytes(2)


def _density_peak_bytes(t_steps):
    """tracemalloc's peak while `density` writes a CSV trace of t_steps times."""
    argv = ["density", "--x0", "2", "--s", "1.5", "--t-min", "0", "--t-max", "3",
            "--grid-n", "1024", "--t-steps", str(t_steps), "--out", os.devnull]
    assert main(argv) == 0  # untraced, so that every cache is built before the peak is read

    def traced():
        assert main(argv) == 0

    return traced_peak(traced)


def test_density_memory_does_not_grow_with_t_steps():
    # each t block is written as it is computed, so the trace is never held whole
    assert _density_peak_bytes(64) < 1.25 * _density_peak_bytes(8)


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(opfactor.__path__)])
def test_every_exported_name_resolves(name):
    # each module owns its public names; a name dropped from the module must leave __all__ too
    module = importlib.import_module(f"opfactor.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# Public module-level functions that no module in src reads, each with the reason it stays.
# A function that loses its last reader in src must earn a row here, or go.
UNREAD_PUBLIC_FUNCTIONS = {
    "algebra.integrate_wei_norman": "perfbench traces its RK4 steps and times it in its layer sweep",
    "algebra.wei_norman_rhs": "the tests' right-hand side of the coefficient ODEs",
    "fock.factored_matrix": "perfbench's layer sweep times it at dim 64 .. 512",
    "grid.apply_phase": "perfbench's layer sweep times the quadratic phase through it",
}


def test_public_functions_unread_in_src_are_the_known_few():
    trees = {}
    for m in pkgutil.iter_modules(opfactor.__path__):
        with open(os.path.join(os.path.dirname(opfactor.__file__), f"{m.name}.py")) as handle:
            trees[m.name] = ast.parse(handle.read())
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{name}.{node.id}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read |= {f"{node.module}.{a.name}" for a in node.names}
    public = {f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public - read == set(UNREAD_PUBLIC_FUNCTIONS)


def _readme_commands():
    """The command lines of README's "Command line" block."""
    with open(os.path.join(REPO, "README.md")) as handle:
        block = handle.read().split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("opfactor ")]


def test_readme_lists_the_spec_tables():
    # each row of README's spec table: option, name, and its keys as `key` (required),
    # `key=default` or `key` (default: ...)
    with open(os.path.join(REPO, "README.md")) as handle:
        section = handle.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    found = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `--") and len(cells) == 3:
            keys = {}
            for key, default, note in re.findall(r"`(\w+)(?:=([^`]*))?`( \(required\))?", cells[2]):
                keys[key] = inspect.Parameter.empty if note else (float(default) if default else None)
            found[(cells[0].strip("`"), cells[1].strip("`"))] = keys
    tables = {"--initial": cli._STATES, "--op": cli._OPERATORS}
    expected = {(option, name): cli._keys(builder)
                for option, table in tables.items() for name, builder in table.items()}
    assert found == expected


class TestImportCost:
    BLOCKED = ("scipy", "numpy.random")

    @classmethod
    def run_blocked(cls, body, cwd=None):
        """Run body after `from opfactor.cli import main` in a fresh interpreter
        in which importing a package of BLOCKED raises ImportError; body calls
        blocked_modules() to list the modules of BLOCKED loaded so far."""
        script = textwrap.dedent(f"""
            import sys

            BLOCKED = {cls.BLOCKED!r}

            def is_blocked(name):
                return any(name == b or name.startswith(b + ".") for b in BLOCKED)

            class Blocker:
                def find_spec(self, name, path=None, target=None):
                    if is_blocked(name):
                        raise ImportError(f"{{name}} is blocked here")
                    return None

            sys.meta_path.insert(0, Blocker())
            from opfactor.cli import main

            def blocked_modules():
                return sorted(m for m in sys.modules if is_blocked(m))
        """) + textwrap.dedent(body)
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(), cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_only_stdlib_numpy_and_opfactor(self):
        # site may have loaded third-party modules already; only what the import adds counts
        script = textwrap.dedent("""
            import sys

            before = set(sys.modules)
            import opfactor.cli

            allowed = set(sys.stdlib_module_names) | {"numpy", "opfactor"}
            added = sorted(set(sys.modules) - before)
            print([m for m in added if m.partition(".")[0] not in allowed
                   or m == "numpy.random" or m.startswith("numpy.random.")])
        """)
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_time_chains_do_not_load_scipy(self, tmp_path):
        self.run_blocked(f"""
            out = {str(tmp_path / "state.csv")!r}
            assert main(["evolve", "--initial", "coherent:x0=1", "--op", "time:t=2,substeps=2",
                         "--op", "displace:x0=0.5,p0=0.2", "--grid-n", "256", "--out", out]) == 0
            assert blocked_modules() == [], blocked_modules()
            assert main(["evolve", "--initial", "ground", "--op", "squeeze:r=0.5,phi=0",
                         "--out", out]) == 0
            assert blocked_modules() == [], blocked_modules()
        """)

    def test_verify_all_does_not_load_scipy(self, tmp_path):
        # Exit 1 is the known red time_diagonal_dim64_t1 (see tests/test_acceptance.py).
        self.run_blocked(f"""
            import json
            out = {str(tmp_path / "report.json")!r}
            assert main(["verify", "all", "--format", "json", "--out", out]) == 1
            assert blocked_modules() == [], blocked_modules()
            with open(out) as handle:
                records = json.load(handle)
            assert len(records) == {sum(map(len, CHECK_NAMES.values()))}
            assert [r["name"] for r in records if not r["passed"]] == ["time_diagonal_dim64_t1"]
        """)

    def test_density_trace_does_not_load_numpy_random(self, tmp_path):
        self.run_blocked(f"""
            out = {str(tmp_path / "trace.csv")!r}
            assert main(["density", "--x0", "2", "--s", "1.5", "--t-min", "0", "--t-max", "1",
                         "--t-steps", "3", "--grid-n", "256", "--out", out]) == 0
            assert blocked_modules() == [], blocked_modules()
            with open(out) as handle:
                assert len(handle.readlines()) == 1 + 3 * 256
        """)

    def test_readme_commands_need_numpy_only(self, tmp_path):
        # `verify all` exits 1 for the known red; every other command exits 0
        commands = _readme_commands()
        assert len(commands) == 6
        self.run_blocked(f"""
            import shlex
            for line in {commands!r}:
                argv = shlex.split(line)[1:]
                expected = 1 if argv[:2] == ["verify", "all"] else 0
                assert main(argv) == expected, line
            assert blocked_modules() == [], blocked_modules()
        """, cwd=tmp_path)

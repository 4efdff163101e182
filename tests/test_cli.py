"""End-to-end tests of the command-line surface."""
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from opfactor.algebra import SqueezeParameter
from opfactor.cli import CSV_BLOCK_ROWS, RunConfig, _write_rows, main, read_wavefunction
from opfactor.grid import MAX_TIME_SUBSTEPS
from opfactor.states import EvenOddSpec, SqueezedStateSpec, coherent_evolved, psi_ss


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_singularity_exit_code(self, capsys):
        code, _, err = run(capsys, "factorize", "oscillator", "--t", str(math.pi / 2))
        assert code == 1
        assert "singular" in err

    def test_squeeze_ode_check(self, capsys):
        code, out, _ = run(
            capsys,
            "factorize", "squeeze", "--r", "0.8", "--phi", "1.0471975512", "--t", "1",
            "--ode-check",
        )
        assert code == 0
        deviation = float(out.strip().splitlines()[-1].split(" = ")[1])
        assert deviation < 1e-8


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
        code, _, err = run(capsys, "evolve", "--initial", "ground", "--op", "time:t=2.0")
        assert code == 2
        assert "substep" in err

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

    def test_unknown_state_rejected(self, capsys):
        code, _, err = run(capsys, "evolve", "--initial", "plane-wave")
        assert code == 2
        assert "unknown initial state" in err

    def test_misspelled_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "evolve", "--initial", "coherent:x=1")
        assert code == 2
        assert "takes keys" in err


class TestVerify:
    def test_fock_dim_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "fock", "--dim", "4")
        assert code == 2
        assert "refusing" in err and ">= 8" in err

    def test_grid_suite_passes(self, capsys):
        code, out, err = run(capsys, "verify", "grid")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())

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

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "grid", "--format", "json", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert all(entry["passed"] for entry in payload)
        assert {"suite", "name", "measured", "tol", "passed"} <= set(payload[0])


class TestDensity:
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
    def test_time_beyond_substep_bound_refused(self, capsys, t_min, t_max):
        # |t| = 2e5 needs 127324 substeps, more than MAX_TIME_SUBSTEPS
        code, _, err = run(
            capsys, "density", "--x0", "2", "--s", "1.5", "--sign", "1",
            f"--t-min={t_min}", f"--t-max={t_max}", "--t-steps", "2", "--grid-n", "64",
        )
        assert code == 2
        assert err.startswith("error:") and str(MAX_TIME_SUBSTEPS) in err

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


class TestOutputFormat:
    def test_csv_bytes(self):
        small = np.array([[-0.0, 1e-320, 0.1], [1.0, 2.5, -1.0 / 3.0]])
        small_text = (
            "a,b,c\r\n"
            "-0,9.9998886718268301e-321,0.10000000000000001\r\n"
            "1,2.5,-0.33333333333333331\r\n"
        )
        # more rows than one block, with the literal rows straddling a block edge
        big = np.random.default_rng(5).standard_normal((2 * CSV_BLOCK_ROWS + 3, 3))
        big[CSV_BLOCK_ROWS - 1:CSV_BLOCK_ROWS + 1] = small
        big_text = io.StringIO()
        np.savetxt(big_text, big, fmt="%.17g", delimiter=",", newline="\r\n",
                   header="a,b,c", comments="")
        for rows, expected in [(small, small_text), (big, big_text.getvalue())]:
            stream = io.StringIO()
            _write_rows(["a", "b", "c"], rows, RunConfig(), stream)
            assert stream.getvalue() == expected


class TestImportCost:
    def test_time_chains_do_not_load_scipy(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            from opfactor.cli import main

            def scipy_modules():
                return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

            out = {str(tmp_path / "state.csv")!r}
            assert main(["evolve", "--initial", "coherent:x0=1", "--op", "time:t=2,substeps=2",
                         "--op", "displace:x0=0.5,p0=0.2", "--grid-n", "256", "--out", out]) == 0
            assert scipy_modules() == [], scipy_modules()
            assert main(["evolve", "--initial", "ground", "--op", "squeeze:r=0.5,phi=0",
                         "--out", out]) == 0
            assert scipy_modules() == [], scipy_modules()
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

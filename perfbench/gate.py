"""Correctness gate and reference error for one CLI invocation's output.

Each check_* function reads the file an invocation wrote, raises GateError
when the output breaks the frozen format or the expected result, and
otherwise returns the invocation's reference error.  References come from
`opfactor.states` closed forms evaluated here, never from the columns the
CLI wrote about itself.
"""
from __future__ import annotations

import json
import math

import numpy as np

from opfactor import states

WAVEFUNCTION_COLUMNS = ["x", "re", "im", "density"]
DENSITY_COLUMNS = ["t", "x", "rho_analytic", "rho_grid", "abs_delta", "raw_integral"]
CHECK_KEYS = {"suite", "name", "measured", "tol", "passed"}

# The documented known red of `verify all`: criterion 2 at dim=64, t=1.0.
KNOWN_RED = {"time_diagonal_dim64_t1": 0.899}
KNOWN_RED_ABS_TOL = 5e-4

# Every row at this stride has each field compared byte for byte with
# f"{value:.17g}"; formatting every value would cost more than the CLI run.
FORMAT_SAMPLE_STRIDE = 61


class GateError(ValueError):
    """The output of one invocation is malformed or wrong."""


def grid_x(x_min: float, x_max: float, n: int) -> np.ndarray:
    """Sample points of opfactor's uniform grid, computed the way Grid.x is."""
    return x_min + ((x_max - x_min) / n) * np.arange(n)


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Read a CSV (CRLF, 17 significant digits) or {config, columns, rows} JSON table."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(b"{"):
        payload = json.loads(data)
        if set(payload) != {"config", "columns", "rows"}:
            raise GateError(f"JSON table keys {sorted(payload)} are not config, columns, rows")
        columns = payload["columns"]
        values = np.asarray(payload["rows"], dtype=float).reshape(-1, len(columns))
    else:
        if not data.endswith(b"\r\n") or data.count(b"\n") != data.count(b"\r\n") \
                or data.count(b"\r") != data.count(b"\r\n"):
            raise GateError("CSV line ends are not all CRLF")
        lines = data[:-2].split(b"\r\n")
        columns = lines[0].decode("ascii").split(",")
        rows = lines[1:]
        commas = len(columns) - 1
        for i, row in enumerate(rows):
            if row.count(b",") != commas:
                raise GateError(f"row {i} has {row.count(b',') + 1} fields, want {len(columns)}")
        try:
            flat = np.array(b",".join(rows).split(b","), dtype=float)
        except ValueError as exc:
            raise GateError(f"unparseable number: {exc}") from exc
        values = flat.reshape(len(rows), len(columns))
        for i in range(0, len(rows), FORMAT_SAMPLE_STRIDE):
            fields = rows[i].split(b",")
            for field, value in zip(fields, values[i]):
                if field != f"{value:.17g}".encode():
                    raise GateError(f"row {i}: {field!r} is not written with 17 significant digits")
    if not np.all(np.isfinite(values)):
        raise GateError("non-finite number in the output")
    return columns, values


def _expect_columns(columns: list[str], want: list[str], rows: int, want_rows: int) -> None:
    if columns != want:
        raise GateError(f"columns {columns} are not {want}")
    if rows != want_rows:
        raise GateError(f"{rows} rows, want {want_rows}")


def check_evolve_coherent(path: str, stdout: str, params: dict, n: int, t: float,
                          x_min: float = -12.0, x_max: float = 12.0) -> float:
    """Gate an `evolve --initial coherent` file; return max |psi - coherent_evolved|.

    The error is taken after the single global-phase alignment at the
    reference's density maximum, as in checks.check_grid_time_coherent.
    """
    columns, v = read_table(path)
    _expect_columns(columns, WAVEFUNCTION_COLUMNS, len(v), n)
    x, psi, density = v[:, 0], v[:, 1] + 1j * v[:, 2], v[:, 3]
    if not np.array_equal(x, grid_x(x_min, x_max, n)):
        raise GateError("x column is not the grid")
    if not np.allclose(density, v[:, 1] ** 2 + v[:, 2] ** 2, rtol=1e-13, atol=0.0):
        raise GateError("density column is not re^2 + im^2")
    norm_lines = [line for line in stdout.splitlines() if line.startswith("norm = ")]
    if len(norm_lines) != 1:
        raise GateError(f"stdout has {len(norm_lines)} 'norm = ' lines, want 1")
    printed = float(norm_lines[0][len("norm = "):])
    norm = math.sqrt(float(np.sum(density)) * (x_max - x_min) / n)
    if abs(printed - norm) > 1e-12:
        raise GateError(f"printed norm {printed!r} differs from the file's norm {norm!r}")

    reference = states.coherent_evolved(x, t, params["x0"], params["p0"])
    i = int(np.argmax(np.abs(reference)))
    ratio = reference[i] / psi[i]
    return float(np.abs(psi * (ratio / abs(ratio)) - reference).max())


def check_density(path: str, params: dict, n: int, t_min: float, t_max: float, t_steps: int,
                  x_min: float = -12.0, x_max: float = 12.0) -> float:
    """Gate a `density` trace; return max |rho_grid - renormalised rho_spm|."""
    columns, v = read_table(path)
    _expect_columns(columns, DENSITY_COLUMNS, len(v), t_steps * n)
    x = grid_x(x_min, x_max, n)
    dx = (x_max - x_min) / n
    spec = states.EvenOddSpec(params["x0"], params["s"], params["sign"])
    worst = 0.0
    for k, t in enumerate(np.linspace(t_min, t_max, t_steps)):
        block = v[k * n:(k + 1) * n]
        t_col, x_col, rho_analytic, rho_grid, abs_delta, raw = block.T
        if not (np.all(t_col == t) and np.array_equal(x_col, x)):
            raise GateError(f"t block {k}: t or x columns are not the requested samples")
        if not np.array_equal(abs_delta, np.abs(rho_analytic - rho_grid)):
            raise GateError(f"t block {k}: abs_delta is not |rho_analytic - rho_grid|")
        if np.any(rho_grid < 0.0) or np.any(rho_analytic < 0.0):
            raise GateError(f"t block {k}: negative density")
        rho_raw = states.rho_spm(x, float(t), spec)
        integral = float(np.sum(rho_raw) * dx)
        rho = rho_raw / integral
        if not (np.all(raw == raw[0]) and abs(raw[0] - integral) <= 1e-12 * abs(integral)):
            raise GateError(f"t block {k}: raw_integral {raw[0]!r} is not {integral!r}")
        if np.abs(rho_analytic - rho).max() > 1e-12 * rho.max():
            raise GateError(f"t block {k}: rho_analytic is not the renormalised rho_spm")
        worst = max(worst, float(np.abs(rho_grid - rho).max()))
    return worst


def check_verify(path: str) -> float:
    """Gate `verify --format json`; return the worst measured/tol of the passing checks.

    The failing checks must be exactly the known red, at its documented value.
    """
    with open(path) as handle:
        records = json.load(handle)
    if not isinstance(records, list) or not records:
        raise GateError("verify output is not a non-empty list of checks")
    names = set()
    failing = {}
    worst = 0.0
    for r in records:
        if not CHECK_KEYS <= set(r):
            raise GateError(f"check record lacks {sorted(CHECK_KEYS - set(r))}")
        if r["name"] in names:
            raise GateError(f"check {r['name']!r} reported twice")
        names.add(r["name"])
        measured, tol = float(r["measured"]), float(r["tol"])
        if r["passed"] != (math.isfinite(measured) and measured <= tol):
            raise GateError(f"check {r['name']!r}: passed flag disagrees with measured/tol")
        if r["passed"]:
            worst = max(worst, measured / tol)
        else:
            failing[r["name"]] = measured
    if set(failing) != set(KNOWN_RED):
        raise GateError(f"failing checks {sorted(failing)} are not the known red {sorted(KNOWN_RED)}")
    for name, value in KNOWN_RED.items():
        if abs(failing[name] - value) > KNOWN_RED_ABS_TOL:
            raise GateError(f"known red {name} measured {failing[name]!r}, want about {value}")
    return worst

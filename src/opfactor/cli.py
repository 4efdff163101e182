"""Command-line surface: factorize, evolve, verify, and density subcommands."""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import checks, states
from .algebra import (
    BlowUpError,
    CausticError,
    GeneratorCoefficients,
    SqueezeParameter,
    integrate_wei_norman,
    squeeze_factorization,
    time_displacement_factorization,
)
from .fock import FockBasis
from .grid import (
    MAX_TIME_SUBSTEPS,
    ChainError,
    Grid,
    WaveFunction,
    apply_chain,
    displacement_factors,
    min_time_substeps,
    squeeze_factors,
    time_displacement_factors,
)

WAVEFUNCTION_COLUMNS = ["x", "re", "im", "density"]
DENSITY_COLUMNS = ["t", "x", "rho_analytic", "rho_grid", "abs_delta", "raw_integral"]
CSV_BLOCK_ROWS = 4096


@dataclass
class RunConfig:
    """Run-wide defaults, overridable from the command line."""

    grid_min: float = -12.0
    grid_max: float = 12.0
    grid_n: int = 2048
    fock_dim: int = 128
    ode_steps: int = 1000
    norm_tol: float = 1e-8
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.grid_max <= self.grid_min:
            raise ValueError("grid_max must exceed grid_min")
        for field in ("grid_n", "fock_dim", "ode_steps", "norm_tol"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")

    def make_grid(self) -> Grid:
        return Grid(self.grid_min, self.grid_max, self.grid_n)

    def summary(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        grid_min=args.grid_min,
        grid_max=args.grid_max,
        grid_n=args.grid_n,
        fock_dim=args.fock_dim,
        ode_steps=args.ode_steps,
        norm_tol=args.tol,
        fmt=args.format,
        out=args.out,
    )


def _parse_kv(text: str, what: str, allowed: dict[str, tuple[str, ...]]) -> tuple[str, dict[str, float]]:
    """Parse 'name:key=value,key=value' option strings against allowed key sets.

    Values must be finite; the keys in _WHOLE_KEYS must be whole numbers and
    come back as int.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in allowed:
        raise ValueError(f"unknown {what} {name!r} (choose from {'|'.join(allowed)})")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"bad {what} parameter {item!r} in {text!r} (need key=value)")
            if key not in allowed[name]:
                raise ValueError(
                    f"{what} {name!r} takes keys {allowed[name]}, not {key!r}"
                )
            try:
                number = float(value)
            except ValueError as exc:
                raise ValueError(f"bad {what} value in {text!r}: {exc}") from exc
            if not math.isfinite(number):
                raise ValueError(f"bad {what} value in {text!r}: {key} must be finite")
            if key in _WHOLE_KEYS:
                if not number.is_integer():
                    raise ValueError(
                        f"bad {what} value in {text!r}: {key} must be a whole number"
                    )
                number = int(number)
            params[key] = number
    return name, params


_WHOLE_KEYS = ("substeps", "sign")

_STATE_KEYS = {
    "ground": (),
    "coherent": ("x0", "p0"),
    "squeezed": ("x0", "p0", "r", "phi"),
    "evenodd": ("x0", "s", "sign"),
}

_OPERATOR_KEYS = {
    "squeeze": ("r", "phi"),
    "displace": ("x0", "p0"),
    "time": ("t", "substeps"),
}


def _initial_state(spec: str, grid: Grid) -> WaveFunction:
    name, p = _parse_kv(spec, "initial state", _STATE_KEYS)
    if name == "ground":
        return WaveFunction.from_callable(grid, states.psi0)
    if name == "coherent":
        return WaveFunction.from_callable(
            grid, lambda x: states.coherent_state(x, p.get("x0", 0.0), p.get("p0", 0.0))
        )
    if name == "squeezed":
        sspec = states.SqueezedStateSpec(
            p.get("x0", 0.0), p.get("p0", 0.0),
            SqueezeParameter(p.get("r", 0.0), p.get("phi", 0.0)),
        )
        return WaveFunction.from_callable(grid, lambda x: states.psi_ss(x, sspec))
    espec = states.EvenOddSpec(p["x0"], p["s"], p.get("sign", 1))
    return WaveFunction.from_callable(
        grid, lambda x: states.psi_spm(x, 0.0, espec), normalize=True
    )


def _operator_factors(spec: str):
    name, p = _parse_kv(spec, "operator", _OPERATOR_KEYS)
    if name == "squeeze":
        return squeeze_factors(SqueezeParameter(p.get("r", 0.0), p.get("phi", 0.0)))
    if name == "displace":
        return displacement_factors(p.get("x0", 0.0), p.get("p0", 0.0))
    return time_displacement_factors(p["t"], p.get("substeps", 1))


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(columns, rows, config: RunConfig, stream) -> None:
    if config.fmt == "csv":
        # one %-format per block of rows; blocks keep the formatted text small
        stream.write(",".join(columns) + "\r\n")
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            stream.write((line * len(block)) % tuple(block.ravel().tolist()))
    else:
        payload = {
            "config": config.summary(),
            "columns": columns,
            "rows": rows.tolist(),
        }
        json.dump(payload, stream, indent=1)
        stream.write("\n")


def _emit(columns, rows, config: RunConfig) -> None:
    if config.out:
        with open(config.out, "w", newline="") as handle:
            _write_rows(columns, rows, config, handle)
    else:
        _write_rows(columns, rows, config, sys.stdout)


def read_wavefunction(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read (x, psi) back from a wavefunction file written by `evolve`."""
    with open(path) as handle:
        head = handle.read(1)
        handle.seek(0)
        if head == "{":
            payload = json.load(handle)
            rows = np.asarray(payload["rows"], dtype=float)
        else:
            reader = csv.reader(handle)
            next(reader)  # header
            rows = np.asarray([[float(v) for v in row] for row in reader])
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


# --- subcommands ---------------------------------------------------------------


def cmd_factorize(args: argparse.Namespace) -> int:
    try:
        if args.family == "squeeze":
            z = SqueezeParameter(args.r, args.phi)
            coeffs = squeeze_factorization(z, args.t)
            generator = GeneratorCoefficients.squeeze(z)
        else:
            coeffs = time_displacement_factorization(args.t)
            generator = GeneratorCoefficients.oscillator()
    except CausticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name in ("delta", "alpha", "beta", "gamma"):
        value = getattr(coeffs, name)
        # adding 0.0 folds IEEE negative zeros into +0
        print(f"{name} = {value.real + 0.0:.15g} {value.imag + 0.0:+.15g}i")

    if args.ode_check:
        try:
            final = integrate_wei_norman(generator, args.t, args.ode_steps).final
        except BlowUpError as exc:
            print(f"error: ode check failed: {exc}", file=sys.stderr)
            return 1
        deviation = max(abs(g - e) for g, e in zip(final.as_tuple(), coeffs.as_tuple()))
        print(f"ode_check_max_deviation = {deviation:.3e}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    try:
        config = _config_from(args)
        grid = config.make_grid()
        psi = _initial_state(args.initial, grid)
        factors = []
        for op in args.op or []:
            factors += _operator_factors(op)
    except KeyError as exc:
        print(f"error: missing required parameter {exc}", file=sys.stderr)
        return 2
    except (ValueError, CausticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    norm_in = psi.norm()
    try:
        out = apply_chain(psi, factors)
    except ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    norm_out = out.norm()
    rows = np.column_stack(
        [grid.x, out.samples.real, out.samples.imag, out.density()]
    )
    _emit(WAVEFUNCTION_COLUMNS, rows, config)

    norm_stream = sys.stdout if config.out else sys.stderr
    print(f"norm = {_fmt17(norm_out)}", file=norm_stream)

    drift = abs(norm_out - norm_in)
    if drift > config.norm_tol:
        print(
            f"error: norm drift {drift:.3e} exceeds tolerance {config.norm_tol:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        config = _config_from(args)
        FockBasis(config.fock_dim)
    except ValueError as exc:
        print(f"error: refusing to run: {exc}", file=sys.stderr)
        return 2

    results = checks.run_checks(
        args.suite,
        grid=config.make_grid(),
        fock_dim=config.fock_dim,
        ode_steps=config.ode_steps,
    )
    stream = open(config.out, "w") if config.out else sys.stdout
    try:
        if config.fmt == "json":
            json.dump(
                [
                    {
                        "suite": r.suite,
                        "name": r.name,
                        "measured": r.measured,
                        "tol": r.tol,
                        "passed": r.passed,
                    }
                    for r in results
                ],
                stream,
                indent=1,
            )
            stream.write("\n")
        else:
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"{status},{r.suite},{r.name},{r.measured:.6e},{r.tol:.1e}", file=stream)
        failures = [r for r in results if not r.passed]
        print(f"# {len(results) - len(failures)}/{len(results)} checks passed", file=sys.stderr)
    finally:
        if config.out:
            stream.close()
    return 1 if failures else 0


def cmd_density(args: argparse.Namespace) -> int:
    try:
        config = _config_from(args)
        grid = config.make_grid()
        spec = states.EvenOddSpec(args.x0, args.s, args.sign)
        if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)) or args.t_steps < 1:
            raise ValueError("need a finite t range and t_steps >= 1")
        t_far = max(abs(args.t_min), abs(args.t_max))
        if min_time_substeps(t_far) > MAX_TIME_SUBSTEPS:
            raise ValueError(
                f"|t| = {t_far:.6g} needs more than {MAX_TIME_SUBSTEPS} time substeps"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    rho, rho_grid, raw_integral = checks.evenodd_grid_densities(grid, spec, ts)
    rows = np.column_stack([
        np.repeat(ts, grid.n),
        np.tile(grid.x, args.t_steps),
        rho.ravel(),
        rho_grid.ravel(),
        np.abs(rho - rho_grid).ravel(),
        np.repeat(raw_integral, grid.n),
    ])
    _emit(DENSITY_COLUMNS, rows, config)
    return 0


# --- parser ---------------------------------------------------------------------


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-min", type=float, default=-12.0, help="left grid edge")
    parser.add_argument("--grid-max", type=float, default=12.0, help="right grid edge")
    parser.add_argument("--grid-n", type=int, default=2048, help="grid points (power of two)")
    parser.add_argument("--fock-dim", "--dim", dest="fock_dim", type=int, default=128,
                        help="truncated number-basis dimension (>= 8)")
    parser.add_argument("--ode-steps", type=int, default=1000, help="RK4 steps")
    parser.add_argument("--tol", type=float, default=1e-8, help="norm-drift tolerance")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfactor",
        description=(
            "Factorize exponentials of the {1, x^2, x d/dx, d^2/dx^2} algebra, "
            "apply them to sampled wavefunctions, and verify against closed forms "
            "and a truncated number-basis oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fact = sub.add_parser("factorize", help="print product coefficients for one family")
    p_fact.add_argument("family", choices=("squeeze", "oscillator"))
    p_fact.add_argument("--t", type=float, default=1.0, help="evolution parameter")
    p_fact.add_argument("--r", type=float, default=0.0, help="squeeze magnitude")
    p_fact.add_argument("--phi", type=float, default=0.0, help="squeeze phase (radians)")
    p_fact.add_argument("--ode-check", action="store_true",
                        help="also integrate the ODE system and print the deviation")
    p_fact.add_argument("--ode-steps", type=int, default=1000)
    p_fact.set_defaults(func=cmd_factorize)

    p_evolve = sub.add_parser("evolve", help="apply operator chains to an initial state")
    p_evolve.add_argument("--initial", required=True,
                          help="ground | coherent:x0=..,p0=.. | squeezed:x0=..,p0=..,r=..,phi=.. "
                               "| evenodd:x0=..,s=..,sign=..")
    p_evolve.add_argument("--op", action="append", default=[],
                          help="squeeze:r=..,phi=.. | displace:x0=..,p0=.. | "
                               "time:t=..,substeps=.. (repeatable; first listed acts first)")
    _add_config_options(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=checks.SUITES)
    _add_config_options(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_density = sub.add_parser("density", help="trace even/odd densities over a time range")
    p_density.add_argument("--x0", type=float, required=True)
    p_density.add_argument("--s", type=float, required=True)
    p_density.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p_density.add_argument("--t-min", type=float, required=True)
    p_density.add_argument("--t-max", type=float, required=True)
    p_density.add_argument("--t-steps", type=int, required=True,
                           help="number of t samples, endpoints included")
    _add_config_options(p_density)
    p_density.set_defaults(func=cmd_density)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

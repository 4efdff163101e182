"""Command-line surface: factorize, evolve, verify, and density subcommands."""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checks, states
from .algebra import (
    ODE_STEPS,
    BlowUpError,
    CausticError,
    GeneratorCoefficients,
    SqueezeParameter,
    squeeze_factorization,
    time_displacement_factorization,
    wei_norman_final,
)
from .fock import MAX_HERMITE, MIN_DIM, FockBasis
from .grid import (
    ChainError,
    Grid,
    WaveFunction,
    apply_chain,
    displacement_factors,
    squeeze_factors,
    time_displacement_factors,
)

WAVEFUNCTION_COLUMNS = ["x", "re", "im", "density"]
DENSITY_COLUMNS = ["t", "x", "rho_analytic", "rho_grid", "abs_delta", "raw_integral"]
CSV_BLOCK_ROWS = 4096
FORMATS = ("csv", "json")


@dataclass
class RunConfig:
    """The options shared by evolve, verify and density: their one set of
    defaults and one set of checks, which build a Grid and a FockBasis."""

    grid_min: float = Grid.x_min
    grid_max: float = Grid.x_max
    grid_n: int = Grid.n
    fock_dim: int = FockBasis.dim
    ode_steps: int = ODE_STEPS
    norm_tol: float = 1e-8
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        self.make_grid()
        FockBasis(self.fock_dim)
        for field in ("ode_steps", "norm_tol"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be positive")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.out:
            folder = os.path.dirname(self.out) or "."
            if os.path.isdir(self.out):
                raise ValueError(f"cannot write --out {self.out!r}: it is a directory")
            if not os.path.isdir(folder):
                raise ValueError(f"cannot write --out {self.out!r}: no directory {folder!r}")

    def make_grid(self) -> Grid:
        return Grid(self.grid_min, self.grid_max, self.grid_n)

    def summary(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


class _Params(dict):
    """Parsed key=value pairs; reading a missing required key is a refusal."""

    def __missing__(self, key):
        raise ValueError(f"missing required parameter {key!r}")


def _parse_kv(text: str, what: str, allowed: dict[str, tuple[str, ...]]) -> tuple[str, _Params]:
    """Parse 'name:key=value,key=value' option strings against allowed key sets.

    Values must be finite; the keys in _WHOLE_KEYS must be whole numbers and
    come back as int.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in allowed:
        raise ValueError(f"unknown {what} {name!r} (choose from {'|'.join(allowed)})")
    params = _Params()
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


def _initial_state(spec: str, grid: Grid, tol: float) -> WaveFunction:
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
    spec = states.EvenOddSpec(p["x0"], p["s"], p.get("sign", 1))
    return checks.evenodd_initial(grid, spec, tol)


def _operator_factors(spec: str):
    name, p = _parse_kv(spec, "operator", _OPERATOR_KEYS)
    if name == "squeeze":
        return squeeze_factors(SqueezeParameter(p.get("r", 0.0), p.get("phi", 0.0)))
    if name == "displace":
        return displacement_factors(p.get("x0", 0.0), p.get("p0", 0.0))
    return time_displacement_factors(p["t"], p.get("substeps"))


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(columns, values, config: RunConfig, stream) -> None:
    """Write a table of numbers to `stream` as CSV or JSON.

    The table's rows come in blocks of equal length.  `values` holds one
    array per column, each broadcasting to (blocks, rows per block): a
    (blocks, 1) array is constant within each block, a 1-D array is a column
    that every block shares, and a (blocks, rows) array has a cell per row.

    CSV formats each number once per distinct position.  A block constant is
    formatted once per block and written straight into the block's line
    template.  The shared column (the first 1-D array, when there is more
    than one block) is formatted once per table, and its text is joined into
    each chunk's template between the cells.  Cells are formatted once per
    row, by one `%` per chunk of CSV_BLOCK_ROWS rows.  With a single block
    nothing repeats, so every column but the constants is written as cells.
    JSON builds the full rows array.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in values))
    blocks, nrows = shape if len(shape) == 2 else (1, *shape)
    views = [np.broadcast_to(v, (blocks, nrows)) for v in values]
    if config.fmt == "json":
        payload = {
            "config": config.summary(),
            "columns": columns,
            "rows": np.column_stack([v.ravel() for v in views]).tolist(),
        }
        json.dump(payload, stream, indent=1)
        stream.write("\n")
        return

    stream.write(",".join(columns) + "\r\n")
    constant = [np.shape(v)[1:] == (1,) for v in values]
    shared = next((j for j, v in enumerate(values) if np.ndim(v) == 1), None) if blocks > 1 else None
    if shared is not None:
        shared_text = [_fmt17(x) for x in values[shared].tolist()]
    cells = [v for j, (v, c) in enumerate(zip(views, constant)) if not c and j != shared]
    for b in range(blocks):
        # formatted numbers hold no '%', so a constant's text is safe in the template
        texts = [_fmt17(float(v[b, 0])) if c else "%.17g" for v, c in zip(views, constant)]
        if shared is not None:
            head = "".join(f + "," for f in texts[:shared])
            tail = "".join("," + f for f in texts[shared + 1:]) + "\r\n"
        else:
            line = ",".join(texts) + "\r\n"
        for start in range(0, nrows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, nrows)
            if shared is not None:
                template = head + (tail + head).join(shared_text[start:stop]) + tail
            else:
                template = line * (stop - start)
            args = [None] * ((stop - start) * len(cells))
            for i, v in enumerate(cells):
                args[i::len(cells)] = v[b, start:stop].tolist()
            stream.write(template % tuple(args))


@contextlib.contextmanager
def _sink(config: RunConfig):
    """The stream a command writes its output to: the --out file, or stdout.

    Either is flushed on leaving, so that a failed write raises OSError here.
    """
    if config.out:
        with open(config.out, "w", newline="") as handle:
            yield handle
    else:
        yield sys.stdout
        sys.stdout.flush()


# --- subcommands ---------------------------------------------------------------


def cmd_factorize(args: argparse.Namespace) -> int:
    if not math.isfinite(args.t) or args.ode_steps < 1:
        raise ValueError("need a finite --t and --ode-steps >= 1")
    try:
        if args.family == "squeeze":
            z = SqueezeParameter(args.r, args.phi)
            coeffs = squeeze_factorization(z, args.t)
            generator = GeneratorCoefficients.squeeze(z)
        else:
            coeffs = time_displacement_factorization(args.t)
            generator = GeneratorCoefficients.oscillator()
    except CausticError as exc:  # a singularity of valid input, not a refusal
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name in ("delta", "alpha", "beta", "gamma"):
        value = getattr(coeffs, name)
        # adding 0.0 folds IEEE negative zeros into +0
        print(f"{name} = {value.real + 0.0:.15g} {value.imag + 0.0:+.15g}i")

    if args.ode_check:
        try:
            final = wei_norman_final(generator, args.t, args.ode_steps)
        except BlowUpError as exc:
            print(f"error: ode check failed: {exc}", file=sys.stderr)
            return 1
        print(f"ode_check_max_deviation = {checks.coeff_distance(final, coeffs):.3e}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    config = _config_from(args)
    grid = config.make_grid()
    psi = _initial_state(args.initial, grid, config.norm_tol)
    norm_in = psi.norm()
    if abs(norm_in - 1.0) > config.norm_tol:
        raise ValueError(f"initial state has norm {norm_in:.6g} on the window; "
                         f"it is off 1 by more than --tol {config.norm_tol:.1e}")
    factors = []
    for op in args.op or []:
        factors += _operator_factors(op)
    out = apply_chain(psi, factors)  # ChainRefusedError is a refusal, ChainError a failure
    norm_out = out.norm()
    values = [grid.x, out.samples.real, out.samples.imag, out.density()]
    with _sink(config) as stream:
        _write_rows(WAVEFUNCTION_COLUMNS, values, config, stream)

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
    config = _config_from(args)
    results = checks.run_checks(
        args.suite,
        grid=config.make_grid(),
        fock_dim=config.fock_dim,
        ode_steps=config.ode_steps,
    )
    with _sink(config) as stream:
        if config.fmt == "json":
            json.dump([{**asdict(r), "passed": r.passed} for r in results], stream, indent=1)
            stream.write("\n")
        else:
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                print(f"{status},{r.suite},{r.name},{r.measured:.6e},{r.tol:.1e}", file=stream)
    failures = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failures)}/{len(results)} checks passed", file=sys.stderr)
    return 1 if failures else 0


def cmd_density(args: argparse.Namespace) -> int:
    config = _config_from(args)
    spec = states.EvenOddSpec(args.x0, args.s, args.sign)
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)) or args.t_steps < 1:
        raise ValueError("need a finite t range and t_steps >= 1")
    # the chain of the farthest t is refused if any t of the range would be
    time_displacement_factors(max(abs(args.t_min), abs(args.t_max)))
    initial = checks.evenodd_initial(config.make_grid(), spec, config.norm_tol)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    rho, rho_grid, raw_integral = checks.evenodd_grid_densities(initial, spec, ts)

    # one block of rows per t: t and raw_integral are block constants, x is shared
    with _sink(config) as stream:
        _write_rows(DENSITY_COLUMNS, [
            ts[:, None], initial.grid.x, rho, rho_grid, np.abs(rho - rho_grid), raw_integral[:, None],
        ], config, stream)
    return 0


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are refusals, which main reports."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e3" for a flag; a negative number in exponent form is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Add the RunConfig flags that evolve, verify and density all read, and
    every RunConfig field as a default, which a field without a flag keeps."""
    parser.add_argument("--grid-min", type=float, help="left grid edge")
    parser.add_argument("--grid-max", type=float, help="right grid edge")
    parser.add_argument("--grid-n", type=int, help="grid points (power of two >= 16)")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, help="output format")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.set_defaults(**asdict(RunConfig()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_fact.add_argument("--ode-steps", type=int, default=RunConfig.ode_steps, help="RK4 steps")
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
    p_verify.add_argument("--fock-dim", "--dim", dest="fock_dim", type=int,
                          help=f"truncated number-basis dimension ({MIN_DIM}..{MAX_HERMITE})")
    p_verify.add_argument("--ode-steps", type=int, help="RK4 steps")
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

    p_evolve.add_argument("--tol", dest="norm_tol", type=float,
                          help="bound on the initial state's norm error and the norm drift")
    p_density.add_argument("--tol", dest="norm_tol", type=float,
                           help="bound on the relative error of the window's t = 0 "
                                "quadrature of rho_spm")

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one stderr line that names no source file."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:  # a refusal, which a command raises before it opens its sink
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChainError as exc:  # a factor that failed on valid input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a failed write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
    return code


if __name__ == "__main__":
    raise SystemExit(main())

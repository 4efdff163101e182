"""Command-line surface: factorize, evolve, verify, and density subcommands."""
from __future__ import annotations

import argparse
import contextlib
import functools
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
    generator_factorization,
    time_periods,
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
CSV_BLOCK_ROWS = 1024
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
            if key in params:
                raise ValueError(f"{what} {name!r} repeats key {key!r} in {text!r}")
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


# --- exact %.17g fields ------------------------------------------------------------

_FIELD = 29  # bytes per field: sign, "0.000", 17 digits and a dot, "e+123"
_EXP0 = 400  # the exponent tables' column of decimal exponent 0
_U = float(np.finfo(np.longdouble).eps) / 2
# |w - |x| 10^(16-k)| <= (2u + u^2) 10^17 for the longdouble product w in _fields17
_ERROR_BOUND = (2 * _U + _U * _U) * 1e17


@functools.cache
def _field_tables():
    """The kernel's lookup tables, built on its first call.

    Per decimal exponent k in [-400, 400]: the correctly rounded longdouble
    10^(16-k), the body slot of the dot, the count of leading digits that
    are always written, and the bytes of the "0.000" prefix and the "e+123"
    suffix, NUL where %g writes none.  Per group of 4 digits: their ASCII
    bytes and the count of trailing zeros (4 for 0000).
    """
    k = np.arange(-_EXP0, _EXP0 + 1)
    powers = np.array([f"1e{16 - e}" for e in k.tolist()]).astype(np.longdouble)
    fixed = (k >= -4) & (k < 17)
    dots = np.where(fixed, np.where(k < 0, 17, k + 1), 1).astype(np.uint8)
    whole = np.where(fixed & (k >= 0), k + 1, 1).astype(np.uint8)
    form = np.zeros((10, k.size), np.uint8)
    prefix = fixed & (k < np.array([[0], [0], [-1], [-2], [-3]]))
    form[:5] = np.frombuffer(b"0.000", np.uint8)[:, None] * prefix
    e = np.abs(k)
    form[5:] = ~fixed * np.array([
        np.full_like(k, ord("e")), np.where(k < 0, ord("-"), ord("+")),
        np.where(e >= 100, e // 100 + ord("0"), 0), e // 10 % 10 + ord("0"), e % 10 + ord("0"),
    ])
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)
    zeros = np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.uint8)
    return powers, dots, whole, form, digits + np.uint8(ord("0")), zeros


def _fields17(x) -> np.ndarray:
    """The `%.17g` text of each number of the 1-D array `x`, as a
    (_FIELD, len(x)) uint8 array: column i holds the text of x[i] with NUL
    bytes among it, which the caller deletes.

    With k = floor(log10|x|), the digits are those of N = round(|x| 10^(16-k)).
    The product w = |x| 10^(16-k) is formed in longdouble, from a correctly
    rounded power, so it is within _ERROR_BOUND of the exact product.  Where
    w is farther than that from a half-integer and 10^16 < rint(w) < 10^17,
    the exact product rounds to rint(w), so N = rint(w) and k is the exponent
    of %.17g.  Every other number, among them zero, NaN, inf, near-ties and
    powers of ten, is formatted by `_fmt17`.  Where longdouble is a plain
    double the bound exceeds 1/2, so that is every number.
    """
    powers, dots, whole, form, digits, trailing = _field_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    fast = (a > 0) & (a < np.inf)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp) + _EXP0
    w = a.astype(np.longdouble) * powers[k]
    r = np.rint(w)
    # w - r is exact, and as w >= 2^10 it is a multiple of 2^-53, so it is
    # exact as a double too; the step down covers the rounding of the limit
    fast &= np.abs((w - r).astype(np.float64)) < np.nextafter(0.5 - _ERROR_BOUND, 0.0)
    N = r.astype(np.uint64)
    fast &= N - np.uint64(10**16 + 1) < np.uint64(9 * 10**16 - 1)

    # N as a leading digit and four groups of 4 digits, each group a table row
    hi, lo = (half.astype(np.intp) for half in np.divmod(N, 100000000))
    h1 = hi // 10000
    lead = h1 // 10000
    g = np.array([h1 - lead * 10000, hi - h1 * 10000, lo // 10000, lo % 10000])
    slot = np.arange(18, dtype=np.uint8)[:, None]
    body = np.zeros((18, n), np.uint8)
    body[0] = lead + np.uint8(ord("0"))
    for i in range(4):
        np.take(digits[i], g, out=body[1 + i:17:4])
    # the significant digits are those up to the last nonzero one
    t = trailing[g]
    places = 17 - (t[3] + (g[3] == 0) * (t[2] + (g[2] == 0) * (t[1] + (g[1] == 0) * t[0])))
    body[:17] *= (slot[:17] < np.maximum(places, whole[k])).view(np.uint8)

    # insert the dot at its slot p: digits before p stay, the rest move up one
    p = dots[k]
    shifted = np.empty_like(body)
    shifted[0] = 0
    shifted[1:] = body[:17]
    body = shifted + (slot < p).view(np.uint8) * (body - shifted)
    body.reshape(-1)[p.astype(np.intp) * n + np.arange(n)] = (places > p) * np.uint8(ord("."))

    out = np.empty((_FIELD, n), np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    np.take(form[:5], k, axis=1, out=out[1:6])
    out[6:24] = body
    np.take(form[5:], k, axis=1, out=out[24:])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(_fmt17(v).ljust(_FIELD, "\0") for v in x[slow].tolist())
        out[:, slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _FIELD).T
    return out


def _write_rows(columns, values, config: RunConfig, stream) -> None:
    """Write a table of numbers to `stream` as CSV or JSON.

    The table's rows come in blocks of equal length.  `values` holds one
    array per column, each broadcasting to (blocks, rows per block): a
    (blocks, 1) array is constant within each block, a 1-D array is a column
    that every block shares, and a (blocks, rows) array has a cell per row.

    CSV formats each number once per distinct position, with `_fields17`,
    whose text is that of `%.17g`.  Block constants are formatted once per
    table, and so is the shared column (the first 1-D array, when there is
    more than one block); their fields are copied into every row.  Cells are
    formatted per chunk of CSV_BLOCK_ROWS rows, all cell columns of a chunk
    in one call, and each chunk is written once its NUL bytes are deleted.
    With a single block nothing repeats, so every column but the constants is
    written as cells.  JSON builds the full rows array.
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
    cells = [j for j, c in enumerate(constant) if not c and j != shared]
    # a row of each block: every column's field, then "," or "\r\n"
    line = np.zeros((blocks, len(values), _FIELD + 2), np.uint8)
    line[:, :, _FIELD] = ord(",")
    line[:, -1, _FIELD:] = np.frombuffer(b"\r\n", np.uint8)
    for j in np.flatnonzero(constant):
        line[:, j, :_FIELD] = _fields17(views[j][:, 0]).T
    if shared is not None:
        shared_fields = _fields17(values[shared]).T
    for b in range(blocks):
        for start in range(0, nrows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, nrows)
            chunk = np.empty((stop - start, *line.shape[1:]), np.uint8)
            chunk[:] = line[b]
            if shared is not None:
                chunk[:, shared, :_FIELD] = shared_fields[start:stop]
            if cells:
                fields = _fields17(np.stack([views[j][b, start:stop] for j in cells], axis=1))
                chunk[:, cells, :_FIELD] = fields.T.reshape(stop - start, len(cells), _FIELD)
            stream.write(chunk.tobytes().translate(None, b"\0").decode("ascii"))


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
    if args.family == "squeeze":
        generator = GeneratorCoefficients.squeeze(SqueezeParameter(args.r, args.phi))
    else:
        generator = GeneratorCoefficients.oscillator()
    coeffs = generator_factorization(generator, args.t)

    for name in ("delta", "alpha", "beta", "gamma"):
        value = getattr(coeffs, name)
        # adding 0.0 folds IEEE negative zeros into +0
        print(f"{name} = {value.real + 0.0:.15g} {value.imag + 0.0:+.15g}i")

    if args.ode_check:
        try:
            deviation = checks.ode_deviation(generator, args.t, args.ode_steps)
        except BlowUpError as exc:
            print(f"error: ode check failed: {exc}", file=sys.stderr)
            return 1
        print(f"ode_check_max_deviation = {deviation:.3e}")
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
    # the samples include both endpoints, so two different ones need two
    fewest = 1 if args.t_min == args.t_max else 2
    if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)) or args.t_steps < fewest:
        raise ValueError("need a finite t range and t_steps >= 2, or 1 where t_min = t_max")
    # |m| grows with |t|, so the two ends refuse any t of the range that spans too many periods
    time_periods(args.t_min)
    time_periods(args.t_max)
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
    except (ChainError, CausticError) as exc:  # a failure, or a singularity, of valid input
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

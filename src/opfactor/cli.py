"""Command-line surface: factorize, evolve, verify, and density subcommands.

`evolve --initial` and `--op` each read one table, `_STATES` and
`_OPERATORS`, with one row per name: a builder whose keyword-only parameters
are the name's keys, with their defaults; a key without one is required.  The
spec parser and the --help text read the keys from the row.  The parser
checks only that a value is a finite number; a value's own rule (a whole
substep count, a sign of +-1) is checked by the function that owns it.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
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
        for flag, value in (("--ode-steps", self.ode_steps), ("--tol", self.norm_tol)):
            if not value > 0:
                raise ValueError(f"{flag} must be positive, got {value!r}")
        if not math.isfinite(self.norm_tol):
            raise ValueError(f"--tol must be finite, got {self.norm_tol!r}")
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


def _keys(builder) -> dict:
    """A table row's keys: its builder's keyword-only parameters, in order.
    A key with a default may be left out; one without is required."""
    params = inspect.signature(builder).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def _build(text: str, what: str, table: dict, *args):
    """Parse a 'name:key=value,key=value' string against table[name]'s keys,
    and call that builder with args and the finite values given."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in table:
        raise ValueError(f"unknown {what} {name!r} (choose from {'|'.join(table)})")
    keys = _keys(table[name])
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"bad {what} parameter {item!r} in {text!r} (need key=value)")
        if key not in keys:
            raise ValueError(f"{what} {name!r} takes keys {tuple(keys)}, not {key!r}")
        if key in params:
            raise ValueError(f"{what} {name!r} repeats key {key!r} in {text!r}")
        try:
            number = float(value)
        except ValueError as exc:
            raise ValueError(f"bad {what} value in {text!r}: {exc}") from exc
        if not math.isfinite(number):
            raise ValueError(f"bad {what} value in {text!r}: {key} must be finite")
        params[key] = number
    for key, default in keys.items():
        if default is inspect.Parameter.empty and key not in params:
            raise ValueError(f"missing required parameter {key!r}")
    return table[name](*args, **params)


def _squeezed(grid: Grid, tol: float, *, x0=0.0, p0=0.0, r=0.0, phi=0.0) -> WaveFunction:
    spec = states.SqueezedStateSpec(x0, p0, SqueezeParameter(r, phi))
    return WaveFunction.from_callable(grid, lambda x: states.psi_ss(x, spec))


# One row per --initial and --op name: the builder of its state, from (grid, tol),
# or of its factor list.  Its keyword-only parameters are the name's keys.
_STATES = {
    "ground": lambda grid, tol: WaveFunction.from_callable(grid, states.psi0),
    "coherent": lambda grid, tol, *, x0=0.0, p0=0.0: WaveFunction.from_callable(
        grid, lambda x: states.coherent_state(x, x0, p0)),
    "squeezed": _squeezed,
    "evenodd": lambda grid, tol, *, x0, s, sign=1: checks.evenodd_initial(
        grid, states.EvenOddSpec(x0, s, sign), tol),
}
_OPERATORS = {
    "squeeze": lambda *, r=0.0, phi=0.0: squeeze_factors(SqueezeParameter(r, phi)),
    "displace": lambda *, x0=0.0, p0=0.0: displacement_factors(x0, p0),
    "time": lambda *, t, substeps=None: time_displacement_factors(t, substeps),
}


def _grammar(table: dict) -> str:
    """A table's --help text: each name, with its keys after a colon."""
    forms = []
    for name, builder in table.items():
        keys = ",".join(f"{key}=.." for key in _keys(builder))
        forms.append(f"{name}:{keys}" if keys else name)
    return " | ".join(forms)


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


# --- exact %.17g fields ------------------------------------------------------------

_FIELD = 29  # bytes per field: sign, "0.000", 17 digits and a dot, "e+123"
_EXP0 = 400  # the exponent tables' column of decimal exponent 0
_U = float(np.finfo(np.longdouble).eps) / 2
_BETA = 2 * _U + _U * _U
# |w - |x| 10^(16-k)| <= beta / (1 - beta) w for the longdouble product w in
# _fields17; the factor 1 + 2^-48 covers the few double roundings of the bound
_ERROR_SLOPE = _BETA / (1 - _BETA) * (1 + 2.0**-48)


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
    rounded power, so it is within _ERROR_SLOPE w of the exact product.
    Where w is farther than that from a half-integer and 10^16 < rint(w) <
    10^17, the exact product rounds to rint(w), so N = rint(w) and k is the
    exponent of %.17g.  Zero is N = 0 at exponent 0, which is exact.  Every
    other number, among them NaN, inf, near-ties and powers of ten, is
    formatted by `_fmt17`.  Where longdouble is a plain double the bound
    exceeds 1/2, so that is every number but zero.
    """
    powers, dots, whole, form, digits, trailing = _field_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    a = np.abs(x)
    fast = a < np.inf
    a[~fast] = 0.0
    k = np.log10(a, out=np.zeros(n), where=a > 0)
    k = np.floor(k, out=k).astype(np.intp) + _EXP0
    w = a.astype(np.longdouble)
    w *= powers[k]
    r = np.rint(w)
    # w - r is exact, and as w is 0 or >= 2^10 it is a multiple of 2^-53, so
    # it is exact as a double too.  a's memory takes the bound plus |w - r| in
    # doubles: the slope's margin covers the bound's roundings, and the sum,
    # rounded, is below 1/2 only where the exact one is
    np.copyto(a, w, casting="same_kind")
    a *= _ERROR_SLOPE
    a += np.abs((w - r).astype(np.float64))
    fast &= a < 0.5
    N = r.astype(np.uint64)
    fast &= (N - np.uint64(10**16 + 1) < np.uint64(9 * 10**16 - 1)) | (N == 0)

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


def _write_rows(columns, fixed: dict, blocks, config: RunConfig, stream) -> None:
    """Write a table of numbers to `stream` as CSV or JSON.

    The table's rows come in blocks of equal length, and `blocks` yields one
    block at a time: the values of its cell columns, in column order, one
    number per row each; a table has at least one cell column.  `fixed` maps
    the index of each other column to its values, known before the first
    block: a (blocks, 1) array is constant within each block, and a 1-D
    array is a column that every block shares.

    CSV formats each number once per distinct position, with `_fields17`,
    whose text is that of `%.17g`.  The shared columns are formatted once per
    table, and the block constants CSV_BLOCK_ROWS blocks at a time; their
    fields are copied into every row.  Cells are formatted per chunk of
    CSV_BLOCK_ROWS rows, all cell columns of a chunk in one call, into the one
    chunk buffer, which is written once its NUL bytes are deleted.  So CSV
    holds one block at a time.  JSON builds the full rows array.
    """
    constants = [j for j, v in fixed.items() if np.ndim(v) == 2]
    shared = [j for j in fixed if j not in constants]
    cells = [j for j in range(len(columns)) if j not in fixed]
    if config.fmt == "json":
        rows = []
        for b, block in enumerate(blocks):
            values = {j: v[b, 0] if j in constants else v for j, v in fixed.items()}
            values |= zip(cells, block)
            rows += np.column_stack(np.broadcast_arrays(*(values[j] for j in sorted(values)))).tolist()
        json.dump({"config": config.summary(), "columns": columns, "rows": rows}, stream, indent=1)
        stream.write("\n")
        return

    stream.write(",".join(columns) + "\r\n")
    # CSV_BLOCK_ROWS rows: every column's field, then "," or "\r\n"
    chunk = np.zeros((CSV_BLOCK_ROWS, len(columns), _FIELD + 2), np.uint8)
    chunk[:, :, _FIELD] = ord(",")
    chunk[:, -1, _FIELD:] = np.frombuffer(b"\r\n", np.uint8)
    if shared:
        shared_fields = _fields17(np.stack([fixed[j] for j in shared], axis=1))
        shared_fields = shared_fields.T.reshape(-1, len(shared), _FIELD)
    for b, block in enumerate(blocks):
        if constants:
            if b % CSV_BLOCK_ROWS == 0:
                group = np.stack([fixed[j][b:b + CSV_BLOCK_ROWS, 0] for j in constants], axis=1)
                constant_fields = _fields17(group).T.reshape(-1, len(constants), _FIELD)
            chunk[:, constants, :_FIELD] = constant_fields[b % CSV_BLOCK_ROWS]
        nrows = len(block[0])
        for start in range(0, nrows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, nrows)
            lines = chunk[:stop - start]
            if shared:
                lines[:, shared, :_FIELD] = shared_fields[start:stop]
            fields = _fields17(np.stack([v[start:stop] for v in block], axis=1))
            lines[:, cells, :_FIELD] = fields.T.reshape(stop - start, len(cells), _FIELD)
            stream.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


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
        r, phi = (0.0 if v is None else v for v in (args.r, args.phi))
        generator = GeneratorCoefficients.squeeze(SqueezeParameter(r, phi))
    elif (args.r, args.phi) != (None, None):
        raise ValueError("factorize oscillator takes no --r or --phi")
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
    psi = _build(args.initial, "initial state", _STATES, grid, config.norm_tol)
    norm_in = psi.norm()
    if abs(norm_in - 1.0) > config.norm_tol:
        raise ValueError(f"initial state has norm {norm_in:.6g} on the window; "
                         f"it is off 1 by more than --tol {config.norm_tol:.1e}")
    factors = []
    for op in args.op or []:
        factors += _build(op, "operator", _OPERATORS)
    out = apply_chain(psi, factors)  # ChainRefusedError is a refusal, ChainError a failure
    norm_out = out.norm()
    block = [grid.x, out.samples.real, out.samples.imag, out.density()]
    with _sink(config) as stream:
        _write_rows(WAVEFUNCTION_COLUMNS, {}, [block], config, stream)

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
            json.dump([{**asdict(r), "measured": r.measured if math.isfinite(r.measured)
                        else str(r.measured), "passed": r.passed} for r in results], stream, indent=1)
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
    raw_integral, sweep = checks.evenodd_grid_sweep(initial, spec, ts)  # refuses any t here

    # one block of rows per t, written as it is computed: t and raw_integral
    # are block constants, x is shared, and the sweep's blocks are the cells
    fixed = {0: ts[:, None], 1: initial.grid.x, 5: raw_integral[:, None]}
    with _sink(config) as stream:
        _write_rows(DENSITY_COLUMNS, fixed, sweep, config, stream)
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
    p_fact.add_argument("--r", type=float, help="squeeze magnitude (squeeze only; default 0)")
    p_fact.add_argument("--phi", type=float, help="squeeze phase in radians (squeeze only; default 0)")
    p_fact.add_argument("--ode-check", action="store_true",
                        help="also integrate the ODE system and print the deviation")
    p_fact.add_argument("--ode-steps", type=int, default=RunConfig.ode_steps, help="RK4 steps")
    p_fact.set_defaults(func=cmd_factorize)

    p_evolve = sub.add_parser("evolve", help="apply operator chains to an initial state")
    p_evolve.add_argument("--initial", required=True, help=_grammar(_STATES))
    p_evolve.add_argument("--op", action="append", default=[],
                          help=_grammar(_OPERATORS) + " (repeatable; first listed acts first)")
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
    except MemoryError as exc:  # valid input that needs more memory than there is
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
    return code


if __name__ == "__main__":
    raise SystemExit(main())

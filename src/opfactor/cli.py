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
from types import SimpleNamespace

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
_EXP0 = 400  # the exponent tables' row of decimal exponent 0
_FAST_K = (-292, 299)  # the exponents whose power 10^(16-k) the tables hold
_CLAMP_BITS = int(np.float64(1e300).view(np.int64))  # 1e300, outside _FAST_K
# numpy scalars, which a ufunc reads without converting a Python float per call
_TINY, _ZERO, _EXP0_FLOAT = np.float64(5e-324), np.float64(0.0), np.float64(_EXP0)
_LOW26 = (1 << 26) - 1  # the low mantissa bits that split a double into 27 + 26 bits
# a bound on the rounding error of t in _fields17, which is below 4e-15 there
_ERROR_BOUND = 2.0**-46


def _powers_of_ten(lowest: int, highest: int) -> np.ndarray:
    """(hi, lo) for j from lowest < 0 to highest, with 10^j = hi + lo: hi is
    10^j correctly rounded and lo the rest, rounded, from plain ints.

    Each 10^j is f 2^-s for an int f of 320 to 420 bits, stepped from 10^0 =
    2^320 2^-320 by one factor of 10 at a time.  Up to 10^160 that is exact;
    each other step truncates below f's last bit, so 10^j is f 2^-s to a
    relative 2^-300, far below lo's last bit.
    """
    steps = []
    f, s = 1 << 320, 320
    for _ in range(-lowest):
        f, s = (f << 4) // 10, s + 4
        if f >> 330:
            f, s = f >> 8, s - 8
        steps.append((f, s))
    steps.reverse()
    f, s = 1 << 320, 320
    for _ in range(highest + 1):
        steps.append((f, s))
        f, s = f * 10 >> 3, s - 3
    his = [float(f) for f, _ in steps]
    ldexp = math.ldexp
    return np.array([[ldexp(hi, -s) for hi, (_, s) in zip(his, steps)],
                     [ldexp(float(f - int(hi)), -s) for hi, (f, s) in zip(his, steps)]])


@functools.cache
def _field_tables():
    """The kernel's lookup tables, built on its first call.

    A field is bytes 1-29 of 4 little-endian words of 8 bytes: the sign, the
    "0.000" prefix and the lead digit D0 in word 0 (bytes 1, 2-6 and 7), the
    digits D1..D16 in words 1 and 2 (bytes 8-23), and the "e+123" suffix in
    bytes 25-29.  A dot before digit D_p goes to byte 7 + p, and D_p..D16
    move up one byte.

    Per decimal exponent k in [-400, 400]: 10^(16-k) as the two-double
    hi + lo, within 2^-106 10^(16-k), and -hi, for k in _FAST_K and 0
    elsewhere; and a field's words of the form of k, with '0' for D0, but the
    masks of the bytes that move in words 1 and 2.  Outside _FAST_K, where
    the kernel writes only zero, the form is that of k = 0.
    Per k and dot (row k + 801 if there is one): words 1 and 2 with '0' in
    every integer digit, which a stripped one reads, and the dot.  Per group
    g of 4 digits: its ASCII bytes as a uint32, with its trailing zeros NUL,
    for the last nonzero group and the zero ones after it, and at g + 10^4
    whole.
    """
    k = np.arange(-_EXP0, _EXP0 + 1)
    powers = np.zeros((3, k.size))
    fast = slice(_FAST_K[0] + _EXP0, _FAST_K[1] + _EXP0 + 1)
    powers[:2, fast] = _powers_of_ten(16 - _FAST_K[1], 16 - _FAST_K[0])[:, ::-1]
    powers[2] = -powers[0]
    e = np.where((k >= _FAST_K[0]) & (k <= _FAST_K[1]), k, 0)[:, None]
    fixed = (e >= -4) & (e < 17)
    dot = np.where(fixed, np.where(e < 0, 17, e + 1), 1)
    whole = np.where(fixed & (e >= 0), e + 1, 1)
    slot = np.arange(32)
    forms = np.zeros((k.size, 32), np.uint8)
    prefix = fixed & (e < 0) & (slot[:5] < 1 - e)
    forms[:, 2:7] = np.where(prefix, np.frombuffer(b"0.000", np.uint8), 0)
    forms[:, 7] = ord("0")
    forms[:, 8:24] = np.where(slot[8:24] >= 7 + dot, 255, 0)
    a = np.abs(e)
    suffix = np.hstack([np.full_like(e, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                        np.where(a >= 100, a // 100 + ord("0"), 0),
                        a // 10 % 10 + ord("0"), a % 10 + ord("0")])
    forms[:, 25:30] = np.where(fixed, 0, suffix)
    has_dot = np.arange(2, dtype=bool)[:, None, None]
    marks = np.where(slot[8:24] < 7 + whole, np.uint8(ord("0")), np.uint8(0))
    marks = marks | np.where(has_dot & (slot[8:24] == 7 + dot), np.uint8(ord(".")), np.uint8(0))
    marks = np.ascontiguousarray(marks.reshape(-1, 16).view(np.uint64).T)
    # group g = 1000 a + 100 b + 10 c + d: bytes a, b, c, d, and its trailing zeros
    chars = np.arange(ord("0"), ord("0") + 10, dtype=np.uint32)
    zero = np.arange(10) == 0
    shape = [(10, 1, 1, 1), (1, 10, 1, 1), (1, 1, 10, 1), (1, 1, 1, 10)]
    chars = sum(chars.reshape(dims) << np.uint32(8 * i) for i, dims in enumerate(shape)).ravel()
    zeros, run = np.uint32(0), True
    for dims in shape[::-1]:
        run = run & zero.reshape(dims)
        zeros = zeros + run.astype(np.uint32)
    # a shift by 32 bits is undefined on uint32, so NUL all of 0000 by hand
    zeros = zeros.ravel()
    stripped = np.where(zeros < 4, chars & np.uint32(2**32 - 1) >> np.uint32(8) * zeros % 32, 0)
    return powers, forms.view(np.uint64), marks, np.concatenate([stripped.astype(np.uint32), chars])


class _Scratch:
    """The kernel's work arrays for up to `size` numbers, which each call of
    `_fields17` on at most that many numbers reuses: rows of 8-byte numbers,
    read as float64, int64 or uint64, and rows of flags."""

    def __init__(self, size: int):
        self.rows = np.empty((14, size), np.uint64)
        self.flags = np.empty((3, size), bool)
        self._views = {}

    def views(self, n: int) -> SimpleNamespace:
        """The kernel's named views of its first n numbers, made once per n.

        Rows are reused once their value is read for the last time, so the
        names below share rows; `_fields17` uses each in its turn.
        """
        if n not in self._views:
            words = self.rows[:, :n]
            f, i = words.view(np.float64), words.view(np.int64)
            # two pairs of digit groups, each pair side by side in two rows,
            # and later the fields, 4 words each, in the same four rows
            pairs = [self.rows[j:j + 2].view(np.int64).reshape(-1, 2)[:n] for j in (4, 6)]
            fields = self.rows[4:8].reshape(-1)[:4 * n].reshape(n, 4)
            flags = self.flags[:, :n]
            self._views[n] = SimpleNamespace(
                ints=i, fast=flags[0], zero=flags[1], flag=flags[2],
                # the product: |x|, then y, y's lo and -y, then (hi, yh) over (lo, yl)
                a=f[0], power=f[1:4], tail=f[2], minus_y=f[3], pair=f[0:2],
                halves=f[3:7:2], y_halves=f[4:7:2], heads=f[3:5], tails=f[5:7],
                terms=f[7:13], k=i[13], log=f[12], t=f[3],
                bits=i[0], hi_bits=i[3], y_bits=i[1], yh_bits=i[4], N=i[0], R=i[1], range=words[1],
                # the digits
                eights=i[10:12], fours=i[8:10], spare_ints=i[2:4], lead=i[12],
                pairs=[pair.reshape(-1) for pair in pairs], indexes=[pair.T for pair in pairs],
                later=i[:3], sign=i[0],
                # the fields
                fields=fields, digits=words[10:12], middle=fields[:, 1:3].T, moved=words[1:3],
                spare=words[8:10], tmp=words[0], dotted=i[0], index=i[3],
                text=fields.view(np.uint8)[:, 1:_FIELD + 1])
        return self._views[n]


def _fields17(x, scratch: _Scratch | None = None) -> np.ndarray:
    """The `%.17g` text of each number of the 1-D array `x`, as a
    (len(x), _FIELD) uint8 array: row i holds the text of x[i] with NUL bytes
    among it, which the caller deletes.  With `scratch`, the kernel allocates
    no array of x's size, and the result is a view of scratch.rows.

    With k = floor(log10|x|), the digits are those of N = round(W), W =
    |x| 10^(16-k).  For k in _FAST_K the table holds 10^(16-k) as y + lo,
    within 2^-106 10^(16-k).  Dekker's exact product gives |x| y = p + e
    with p and e doubles; as p >= 10^16 > 2^53 is an integer, N = p +
    round(W - p), and W - p is e + |x| lo within 2^-106 W + 2^-53 |x lo| +
    2^-53 |e + x lo|, below 4e-15 for W < 10^17.  So where t = e + |x| lo, as
    computed, is farther than _ERROR_BOUND from a half-integer and 10^16 < N <
    10^17, N is exact and k is the exponent of %.17g.  Zero is N = 0.  Every
    other number, among them NaN, inf, near-ties, powers of ten and numbers
    outside _FAST_K, is formatted by `_fmt17`.
    """
    powers, forms, marks, groups = _field_tables()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    v = (scratch or _Scratch(n)).views(n)

    # |x|, and 1e300, outside _FAST_K, for anything larger: positive doubles,
    # inf and NaN among them, order as their bits do
    np.bitwise_and(x.view(np.int64), 2**63 - 1, out=v.bits)
    np.minimum(v.bits, _CLAMP_BITS, out=v.bits)
    np.log10(np.maximum(v.a, _TINY, out=v.log), out=v.log)
    v.log += _EXP0_FLOAT
    np.copyto(v.k, v.log, casting="unsafe")  # log > 0, so truncation is floor
    powers.take(v.k, axis=1, out=v.power, mode="clip")
    terms = v.terms
    np.multiply(v.a, v.minus_y, out=terms[0])  # -p, exactly the negated product
    # |x| = hi + lo in 27 + 26 bits, and y = yh + yl in 26 + 26 bits, yh
    # rounded to its upper 26 bits, where a carry into the exponent is exact
    np.bitwise_and(v.bits, ~_LOW26, out=v.hi_bits)
    np.bitwise_and(np.add(v.y_bits, 2**26, out=v.yh_bits), ~(2**27 - 1), out=v.yh_bits)
    np.subtract(v.pair, v.heads, out=v.tails)
    # -p, the four exact products in Dekker's order, whose sum with -p is
    # the exact |x| y - p, and |x| lo: the six rows sum in this order
    np.multiply(v.halves[None], v.y_halves[:, None], out=terms[1:5].reshape(2, 2, n))
    np.multiply(v.a, v.tail, out=terms[5])
    np.add.reduce(terms, axis=0, out=v.t)
    r = np.rint(v.t, out=terms[1])
    np.abs(np.subtract(v.t, r, out=v.t), out=v.t)
    np.less(v.t, np.float64(0.5 - _ERROR_BOUND), out=v.fast)
    np.copyto(v.ints[:2], terms[:2], casting="unsafe")  # -p and r
    np.subtract(v.R, v.N, out=v.N)
    np.subtract(v.N, 10**16 + 1, out=v.R)
    v.fast &= np.less(v.range, 9 * 10**16 - 1, out=v.flag)
    v.fast |= np.equal(x, _ZERO, out=v.zero)

    # N as a lead digit and four groups of 4 digits: N's upper and lower 8
    # digits split into 4 and 4 side by side
    halves, quarters = v.eights, v.fours
    np.floor_divide(v.N, 10**8, out=halves[0])
    np.subtract(v.N, np.multiply(halves[0], 10**8, out=halves[1]), out=halves[1])
    np.floor_divide(halves, 10**4, out=quarters)  # upper's lead digit and g0, and g2
    halves -= np.multiply(quarters, 10**4, out=v.spare_ints)  # g1 and g3
    np.floor_divide(quarters[0], 10**4, out=v.lead)
    quarters[0] -= np.multiply(v.lead, 10**4, out=v.spare_ints[0])  # g0
    g0, g2 = quarters
    g1, g3 = halves
    # each pair of groups side by side, as the indexes of their chars: a
    # group followed by a nonzero one reads them whole, at g + 10^4; the last
    # nonzero group, and the zero ones after it, read them stripped
    (i0, i1), (i2, i3) = v.indexes
    later = v.later  # g1 | g2 | g3, g2 | g3 and g3
    np.bitwise_or(g2, g3, out=later[1])
    np.bitwise_or(g1, later[1], out=later[0])
    np.minimum(later[:2], 1, out=later[:2])
    np.minimum(g3, 1, out=later[2])
    np.multiply(later, 10**4, out=later)
    np.add(g0, later[0], out=i0)
    np.add(g1, later[1], out=i1)
    np.add(g2, later[2], out=i2)
    np.copyto(i3, g3)
    for word, pair in zip(v.digits, v.pairs):
        groups.take(pair, out=word.view(np.uint32), mode="clip")

    fields, digits, moved, spare = v.fields, v.digits, v.moved, v.spare
    forms.take(v.k, axis=0, out=fields, mode="clip")
    # the digits from the dot's slot on move up one byte: adding 255 m is
    # adding m << 8 less m, and the top byte carries to the next word.  A dot
    # goes before them if any is left after stripping
    np.bitwise_and(v.middle, digits, out=moved)
    np.minimum(np.bitwise_or(moved[0], moved[1], out=v.tmp), 1, out=v.tmp)
    np.add(v.k, np.multiply(v.dotted, forms.shape[0], out=v.dotted), out=v.index)
    digits += np.multiply(moved, 255, out=spare)
    carry = np.right_shift(moved, 56, out=spare)
    digits[1] += carry[0]
    fields[:, 3] |= carry[1]
    np.bitwise_or(digits, marks.take(v.index, axis=1, out=spare, mode="clip"), out=v.middle)
    np.left_shift(v.lead, 56, out=v.lead)
    v.lead |= np.bitwise_and(np.right_shift(x.view(np.int64), 63, out=v.sign), ord("-") << 8, out=v.sign)
    fields[:, 0] |= v.lead.view(np.uint64)
    if np.count_nonzero(v.fast) < n:
        slow = np.flatnonzero(np.logical_not(v.fast, out=v.flag))
        fallback = "".join(_fmt17(value).ljust(_FIELD, "\0") for value in x[slow].tolist())
        v.text[slow] = np.frombuffer(fallback.encode("ascii"), np.uint8).reshape(-1, _FIELD)
    return v.text


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
    CSV_BLOCK_ROWS rows, all cell columns of a chunk in one call, in scratch
    arrays made once per table, into the one chunk buffer, which is written
    once its NUL bytes are deleted.  JSON writes the text of `json.dump(...,
    indent=1)` CSV_BLOCK_ROWS rows at a time.  So either holds one block at a
    time.
    """
    constants = [j for j, v in fixed.items() if np.ndim(v) == 2]
    shared = [j for j in fixed if j not in constants]
    cells = [j for j in range(len(columns)) if j not in fixed]
    if config.fmt == "json":
        head = json.dumps({"config": config.summary(), "columns": columns, "rows": []}, indent=1)
        stream.write(head[:-len("]\n}")])
        sep = "\n  "
        for b, block in enumerate(blocks):
            values = {j: v[b, 0] if j in constants else v for j, v in fixed.items()}
            values |= zip(cells, block)
            table = np.column_stack(np.broadcast_arrays(*(values[j] for j in sorted(values))))
            for start in range(0, len(table), CSV_BLOCK_ROWS):
                text = ",\n  ".join("[\n   " + ",\n   ".join(map(float.__repr__, row)) + "\n  ]"
                                    for row in table[start:start + CSV_BLOCK_ROWS].tolist())
                # json.dump's tokens for non-finite numbers; no finite repr holds "nan" or "inf"
                stream.write(sep + text.replace("nan", "NaN").replace("inf", "Infinity"))
                sep = ",\n  "
        stream.write("]\n}\n" if sep == "\n  " else "\n ]\n}\n")
        return

    stream.write(",".join(columns) + "\r\n")
    # CSV_BLOCK_ROWS rows: every column's field, then "," or "\r\n"
    buffer = bytearray(CSV_BLOCK_ROWS * len(columns) * (_FIELD + 2))
    chunk = np.frombuffer(buffer, np.uint8).reshape(CSV_BLOCK_ROWS, len(columns), _FIELD + 2)
    chunk[:, :, _FIELD] = ord(",")
    chunk[:, -1, _FIELD:] = np.frombuffer(b"\r\n", np.uint8)
    if shared:
        shared_fields = _fields17(np.stack([fixed[j] for j in shared], axis=1)).copy()
        shared_fields = shared_fields.reshape(-1, len(shared), _FIELD)
    values = np.empty((CSV_BLOCK_ROWS, len(cells)))
    scratch = _Scratch(values.size)
    for b, block in enumerate(blocks):
        if constants:
            if b % CSV_BLOCK_ROWS == 0:
                group = np.stack([fixed[j][b:b + CSV_BLOCK_ROWS, 0] for j in constants], axis=1)
                constant_fields = _fields17(group).copy().reshape(-1, len(constants), _FIELD)
            chunk[:, constants, :_FIELD] = constant_fields[b % CSV_BLOCK_ROWS]
        nrows = len(block[0])
        for start in range(0, nrows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, nrows)
            lines = chunk[:stop - start]
            if shared:
                lines[:, shared, :_FIELD] = shared_fields[start:stop]
            cell_values = np.stack([v[start:stop] for v in block], axis=1, out=values[:stop - start])
            fields = _fields17(cell_values, scratch)
            lines[:, cells, :_FIELD] = fields.reshape(stop - start, len(cells), _FIELD)
            text = buffer if stop - start == CSV_BLOCK_ROWS else buffer[:lines.nbytes]
            stream.write(text.translate(None, b"\0").decode("ascii"))


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

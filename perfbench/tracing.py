"""In-process tracing of opfactor's public functions, the set-up breakdown and the layer sweep.

The tracer wraps every public function of the layer modules in every loaded
opfactor namespace that binds it: `grid.apply_factor` finds
`grid.apply_dilation` through the module globals, while `checks` and `cli`
hold their own references from `from .grid import ...`.  Spans stay in
memory while an invocation runs and are reduced to per-layer metrics after
it ends.
"""
from __future__ import annotations

import functools
import inspect
import math
import re
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("algebra", "grid", "fock", "states", "checks", "cli")
GRID_KERNELS = ("apply_dilation", "apply_spectral_d2", "apply_phase", "apply_shift")
FOCK_KERNELS = ("matrix_exponential", "factored_matrix", "hermite_functions")
CLOSED_FORMS = ("squeeze_factorization", "time_displacement_factorization")
SUITES = ("fock", "grid", "analytic")


@dataclass
class Span:
    """One traced call.  `extra` holds the per-function measure, if any: bytes
    for a grid kernel, RK4 steps, a check's suite, or run_checks' (count, failed)."""

    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    extra: object = None


def _grid_bytes(args, kwargs, result):
    """Bytes read plus bytes written by one grid kernel, computed from array sizes."""
    psi = args[0]
    return 0 if result is psi else psi.samples.nbytes + result.samples.nbytes


def _first_suite(args, kwargs, result):
    return result[0].suite if result else None


def _check_counts(args, kwargs, result):
    return len(result), sum(not r.passed for r in result)


def _rk4_steps(args, kwargs, result):
    return len(result.samples) - 1


def _extra_for(layer: str, name: str):
    if layer == "grid" and name in GRID_KERNELS:
        return _grid_bytes
    if layer == "checks" and name.startswith("check_"):
        return _first_suite
    if layer == "checks" and name == "run_checks":
        return _check_counts
    if layer == "algebra" and name == "integrate_wei_norman":
        return _rk4_steps
    return None


@dataclass
class Tracer:
    """Span recorder; install() patches the namespaces, remove() restores them."""

    spans: list[Span] = field(default_factory=list)
    fft_calls: int = 0
    invocation: int = 0
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, qualname: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(qualname, time.perf_counter(), 0.0, parent, self.invocation)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].name.startswith("grid."):
                self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, namespace, attr: str, replacement) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "opfactor" or name.startswith("opfactor.")]
        for layer in LAYERS:
            module = sys.modules[f"opfactor.{layer}"]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{name}", fn, _extra_for(layer, name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, traced)
        for attr in ("fft", "ifft"):
            self._patch(np.fft, attr, self._count_fft(getattr(np.fft, attr)))

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], fft_calls: int, overflow_warnings: int) -> dict[str, float]:
    """Reduce the spans of one invocation to the per-layer metrics."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += t
    m: dict[str, float] = {}
    for layer in ("grid", "fock", "algebra", "checks"):
        m[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    for name in GRID_KERNELS:
        m[f"grid.{name}.calls"] = calls[f"grid.{name}"]
        m[f"grid.{name}.self_s"] = self_s[f"grid.{name}"]
    chains = [s for s in spans if s.name == "grid.apply_chain"]
    m["grid.apply_chain.calls"] = len(chains)
    m["grid.apply_chain.s"] = sum(s.end - s.start for s in chains)
    m["grid.fft_calls"] = fft_calls
    m["grid.bytes_computed"] = sum(s.extra for s in spans
                                   if s.name.startswith("grid.") and s.name[5:] in GRID_KERNELS)
    m["grid.support_overflow_warnings"] = overflow_warnings
    m["cli.self_s"] = sum(t for s, t in zip(spans, own) if s.name.startswith("cli.cmd_"))
    for name in FOCK_KERNELS:
        m[f"fock.{name}.calls"] = calls[f"fock.{name}"]
        m[f"fock.{name}.self_s"] = self_s[f"fock.{name}"]
    m["algebra.integrate_wei_norman.calls"] = calls["algebra.integrate_wei_norman"]
    m["algebra.integrate_wei_norman.steps"] = sum(
        s.extra for s in spans if s.name == "algebra.integrate_wei_norman")
    m["algebra.integrate_wei_norman.self_s"] = self_s["algebra.integrate_wei_norman"]
    m["algebra.closed_form.calls"] = sum(calls[f"algebra.{n}"] for n in CLOSED_FORMS)
    m["states.calls"] = sum(c for n, c in calls.items() if n.startswith("states."))
    m["states.self_s"] = sum(t for n, t in self_s.items() if n.startswith("states."))
    for suite in SUITES:
        m[f"checks.{suite}.s"] = sum(s.end - s.start for s in spans
                                     if s.name.startswith("checks.check_") and s.extra == suite)
    runs = [s.extra for s in spans if s.name == "checks.run_checks"]
    m["checks.count"] = sum(count for count, _ in runs)
    m["checks.failed"] = sum(failed for _, failed in runs)
    return m


def run_traced(call, tracer: Tracer | None) -> tuple[object, float, int]:
    """Run call(), traced unless tracer is None; return (result, wall seconds, overflow warnings).

    Warnings are recorded the same way with and without the tracer, so the
    two walls differ only by the tracing itself.
    """
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            result = call()
            wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    overflow = sum(w.category.__name__ == "SupportOverflowWarning" for w in caught)
    return result, wall, overflow


# --- set-up breakdown ---------------------------------------------------------------

IMPORT_KEYS = {"numpy": "setup.numpy_s", "scipy.linalg": "setup.scipy_linalg_s",
               "scipy.interpolate": "setup.scipy_interpolate_s"}
_IMPORTTIME_LINE = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative first-import seconds of numpy and the scipy parts, and opfactor's own self time."""
    out = {key: 0.0 for key in IMPORT_KEYS.values()}
    out["setup.opfactor_s"] = 0.0
    for line in stderr.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if not match:
            continue
        self_us, cumulative_us, name = int(match[1]), int(match[2]), match[3].strip()
        if name in IMPORT_KEYS:
            out[IMPORT_KEYS[name]] = cumulative_us * 1e-6
        if name == "opfactor" or name.startswith("opfactor."):
            out["setup.opfactor_s"] += self_us * 1e-6
    return out


def setup_breakdown(python: str, env: dict, cwd: str, repeats: int = 3) -> dict[str, float]:
    """Median over fresh `python -X importtime -c "import opfactor.cli"` runs."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import opfactor.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import opfactor.cli failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# --- ROADMAP item-1 layer sweep ----------------------------------------------------------

# Best-of-several figures quoted in ROADMAP.md, shown beside the sweep for information.
ROADMAP_MS = {
    "sweep.dilation.n2048_ms": 1.65,
    "sweep.spectral_d2.n2048_ms": 0.24,
    "sweep.quadratic_phase.n2048_ms": 0.12,
    "sweep.time_chain.n2048_ms": 16.0,
    "sweep.time_chain.n131072_ms": 740.0,
    "sweep.factored_matrix.dim64_ms": 23.0,
    "sweep.factored_matrix.dim128_ms": 50.0,
    "sweep.factored_matrix.dim256_ms": 283.0,
    "sweep.factored_matrix.dim512_ms": 1813.0,
    "sweep.rk4.steps1000_ms": 16.0,
}


def _median_ms(call, min_repeats: int = 3, budget_s: float = 0.2, cap_s: float = 1.5) -> float:
    """Median of at least min_repeats calls, or of as many as fit in cap_s for slow calls."""
    samples = []
    spent = 0.0
    while spent < cap_s and (len(samples) < min_repeats or spent < budget_s) and len(samples) < 50:
        t0 = time.perf_counter()
        call()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
    return statistics.median(samples) * 1e3


def layer_sweep() -> dict[str, float]:
    """Fixed-size timings of each grid kernel, the time chain, factored_matrix and RK4."""
    from opfactor import algebra, fock, grid, states

    out = {}
    for n in (2**11, 2**14, 2**17):
        g = grid.Grid(-12.0, 12.0, n)
        psi = grid.WaveFunction.from_callable(g, lambda x: states.coherent_state(x, 1.0, 0.5))
        g.k  # noqa: B018 - fill the cached wavenumbers before timing
        out[f"sweep.shift.n{n}_ms"] = _median_ms(lambda: grid.apply_shift(psi, 0.37))
        out[f"sweep.spectral_d2.n{n}_ms"] = _median_ms(lambda: grid.apply_spectral_d2(psi, 0.5j))
        out[f"sweep.dilation.n{n}_ms"] = _median_ms(
            lambda: grid.apply_dilation(psi, 1.0 / math.cos(math.pi / 4)))
        out[f"sweep.quadratic_phase.n{n}_ms"] = _median_ms(
            lambda: grid.apply_phase(psi, grid.QuadraticPhase(0.5)))
        if n in (2**11, 2**17):
            chain = grid.time_displacement_factors(2.0 * math.pi, 8)
            out[f"sweep.time_chain.n{n}_ms"] = _median_ms(lambda: grid.apply_chain(psi, chain))
    coeffs = algebra.time_displacement_factorization(0.7)
    for dim in (64, 128, 256, 512):
        out[f"sweep.factored_matrix.dim{dim}_ms"] = _median_ms(
            lambda: fock.factored_matrix(coeffs, dim))
    oscillator = algebra.GeneratorCoefficients.oscillator()
    out["sweep.rk4.steps1000_ms"] = _median_ms(
        lambda: algebra.integrate_wei_norman(oscillator, 1.0, 1000))
    return out

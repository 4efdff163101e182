#!/usr/bin/env python3
"""opfactor benchmark: timed CLI runs of evolve, density and verify, and a traced per-module run.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-period --seed 1 --seconds 30 --trace 0

With --trace 0 one client runs a closed loop of fresh `python -m opfactor.cli`
child processes, one at a time, for --seconds, and reports the end-to-end
metrics named in BENCHMARK.json.  With --trace 1 the same workload runs in
this process with spans around every public function of each module, plus
the set-up breakdown and the fixed-size layer sweep, and the per-layer metrics
are reported instead.  Every output is checked by gate.py.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the full record,
with the machine description and every sample, goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# One BLAS thread, which is at or below nproc on any box.  With one thread
# per CPU on a shared 2-CPU box, verify-all ran 1.5-2x slower (3-5 s against
# 2.1 s) and the spread of ten run means was 0.33 against 0.08: the threads
# synchronise on matrices of dim 64-128 and wait on whichever CPU is slow.
# Set before numpy is imported here or in a child.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

IMPORT_CLI = "import opfactor.cli"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

# Reference errors below this are roundoff; reporting them as measured would
# turn churn in the last digits into a relative regression.
REF_ERR_FLOOR = 1e-10

# 16 oscillator periods, 32 pi, in 128 substeps of pi/4.
EVOLVE_T = 100.53096491487338
EVOLVE_SUBSTEPS = 128
EVOLVE_N = 16384
DENSITY_T = (0.0, 3.14159, 32)
DENSITY_N = 4096


@dataclass(frozen=True)
class Workload:
    """One CLI command line, the range its state is drawn from, and its gate."""

    name: str
    expected_exit: int
    suffix: str
    corners: tuple[dict, ...]
    draw: Callable[[random.Random], dict]
    argv: Callable[[dict, str], list[str]]
    check: Callable[[str, str, dict], float]

    def params(self, seed: int) -> Iterator[dict]:
        """The range corners in seeded order, then seeded uniform draws.

        The reference error spans orders of magnitude across the range and
        peaks at its corners, so every run visits them before drawing.
        """
        rng = random.Random(seed)
        corners = list(self.corners)
        rng.shuffle(corners)
        yield from corners
        while True:
            yield self.draw(rng)


def _make_workloads(gate) -> dict[str, Workload]:
    evolve = Workload(
        name="evolve-period",
        expected_exit=0,
        suffix=".csv",
        corners=tuple({"x0": x0, "p0": p0} for x0 in (-3.0, 3.0) for p0 in (-1.0, 1.0)),
        draw=lambda rng: {"x0": rng.uniform(-3.0, 3.0), "p0": rng.uniform(-1.0, 1.0)},
        argv=lambda p, out: [
            "evolve", "--initial", f"coherent:x0={p['x0']!r},p0={p['p0']!r}",
            "--op", f"time:t={EVOLVE_T!r},substeps={EVOLVE_SUBSTEPS}",
            "--grid-n", str(EVOLVE_N), "--out", out],
        check=lambda out, stdout, p: gate.check_evolve_coherent(out, stdout, p, EVOLVE_N, EVOLVE_T),
    )
    density = Workload(
        name="density-trace",
        expected_exit=0,
        suffix=".csv",
        corners=tuple({"x0": x0, "s": s, "sign": sign}
                      for x0 in (1.5, 2.5) for s in (1.2, 1.8) for sign in (-1, 1)),
        draw=lambda rng: {"x0": rng.uniform(1.5, 2.5), "s": rng.uniform(1.2, 1.8),
                          "sign": rng.choice((-1, 1))},
        argv=lambda p, out: [
            "density", "--x0", repr(p["x0"]), "--s", repr(p["s"]), "--sign", str(p["sign"]),
            "--t-min", repr(DENSITY_T[0]), "--t-max", repr(DENSITY_T[1]),
            "--t-steps", str(DENSITY_T[2]), "--grid-n", str(DENSITY_N), "--out", out],
        check=lambda out, stdout, p: gate.check_density(out, p, DENSITY_N, *DENSITY_T),
    )
    verify = Workload(
        name="verify-all",
        expected_exit=1,
        suffix=".json",
        corners=({},),
        draw=lambda rng: {},
        argv=lambda p, out: ["verify", "all", "--format", "json", "--out", out],
        check=lambda out, stdout, p: gate.check_verify(out),
    )
    return {w.name: w for w in (evolve, density, verify)}


# --- child processes -------------------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: str


class Launcher:
    """Runs `python <args>` children one at a time through launcher.py.

    Start it before numpy is imported here: a child's ru_maxrss includes the
    memory of the process it was forked from.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], env: dict, scratch: str) -> Child:
        stdout_path = os.path.join(scratch, "stdout.txt")
        request = {"argv": [sys.executable, *args], "env": env, "cwd": ROOT,
                   "stdout": stdout_path, "stderr": os.path.join(scratch, "stderr.txt"),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited early")
        r = json.loads(reply)
        with open(stdout_path) as handle:
            stdout = handle.read()
        return Child(r["wall_s"], r["cpu_s"], r["rss_kb"] / 1024.0, r["exit"], stdout)

    def close(self, clean: bool) -> None:
        """Let the launcher finish; otherwise terminate it, which kills its running child."""
        if clean:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait(timeout=CHILD_TIMEOUT_S + 30)
        self.proc.stdout.close()


def gate_invocation(wl: Workload, exit_code: int, out_path: str, stdout: str,
                    params: dict) -> tuple[float | None, str | None]:
    """(reference error, None) for a correct output, (None, reason) otherwise."""
    if exit_code != wl.expected_exit:
        return None, f"exit status {exit_code}, want {wl.expected_exit}"
    try:
        return wl.check(out_path, stdout, params), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def tail(samples: list[float], beyond: int = 10) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest percentile with `beyond` samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None, None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_timed(wl: Workload, seed: int, seconds: float, env: dict, scratch: str,
              launcher: Launcher):
    launcher.run(["-c", IMPORT_CLI], env, scratch)  # warm the file cache and __pycache__
    setup = [launcher.run(["-c", IMPORT_CLI], env, scratch).wall_s for _ in range(SETUP_REPEATS)]

    out_path = os.path.join(scratch, "out" + wl.suffix)
    records = []
    params = wl.params(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < len(wl.corners):
        p = next(params)
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        child = launcher.run(["-m", "opfactor.cli", *wl.argv(p, out_path)], env, scratch)
        ref_err, reason = gate_invocation(wl, child.exit, out_path, child.stdout, p)
        records.append({"params": p, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                        "rss_mb": child.rss_mb, "exit": child.exit,
                        "ref_err": ref_err, "failure": reason})

    # Means, not medians: on a shared box the invocations of one run fall
    # into a fast and a slow CPU mode, and a median flips between the modes
    # as their shares cross one half.
    walls = [r["wall_s"] for r in records]
    errors = [r["ref_err"] for r in records if r["failure"] is None]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(walls),
        "cpu_s": statistics.mean(r["cpu_s"] for r in records),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
        "ref_err": max([REF_ERR_FLOOR, *errors]),
    }
    failed = sum(r["failure"] is not None for r in records)
    pct, value = tail(walls)
    info = {
        "setup_samples_s": setup,
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": {"percentile": pct, "value": value, "samples": len(walls)},
        "failed_frac": failed / len(records),
        "ref_err_unfloored": max(errors, default=None),
        "invocations": records,
    }
    return metrics, len(records), failed, info


# --- traced in-process run ---------------------------------------------------------------


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in this process; returns (exit status, captured stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, stdout.getvalue()


def output_size(path: str) -> tuple[int, int]:
    """(data rows, bytes) of an output file: CSV rows after the header, or JSON records."""
    with open(path, "rb") as handle:
        data = handle.read()
    rows = len(json.loads(data)) if data.startswith(b"[") else data.count(b"\r\n") - 1
    return rows, len(data)


def run_trace(wl: Workload, seed: int, seconds: float, env: dict, scratch: str, tracing):
    import opfactor.cli as cli

    layers = tracing.setup_breakdown(sys.executable, env, ROOT)
    layers.update(tracing.layer_sweep())

    out_path = os.path.join(scratch, "out" + wl.suffix)
    params = wl.params(seed)
    untraced, traced, per_invocation, failures = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        p = next(params)
        argv = wl.argv(p, out_path)
        for tracer in (None, tracing.Tracer(invocation=len(traced))):
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
            (code, stdout), wall, overflow = tracing.run_traced(lambda: call_cli(cli, argv), tracer)
            _, reason = gate_invocation(wl, code, out_path, stdout, p)
            failures.append(reason)
            if tracer is None:
                untraced.append(wall)
                continue
            traced.append(wall)
            m = tracing.layer_metrics(tracer.spans, tracer.fft_calls, overflow)
            m["cli.out_rows"], m["cli.out_bytes"] = (
                output_size(out_path) if os.path.exists(out_path) else (0, 0))
            per_invocation.append(m)

    for key in per_invocation[0]:
        layers[key] = statistics.median(m[key] for m in per_invocation)
    layers["trace.traced_wall_s"] = statistics.median(traced)
    layers["trace.untraced_wall_s"] = statistics.median(untraced)
    layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
    failed = sum(f is not None for f in failures)
    info = {"failures": [f for f in failures if f], "roadmap_ms": tracing.ROADMAP_MS,
            "per_invocation": per_invocation}
    return layers, len(failures), failed, info


# --- machine and report ------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:]))
    return head


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level and kind:
            caches[f"L{level}{kind[0].lower()}"] = _read(f"{base}/{index}/size")
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opfactor", "cli.py")):
        print(f"error: no opfactor sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    os.environ.update(BLAS_ENV)
    # SIGTERM unwinds through the finally below, which stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    launcher = None if args.trace else Launcher()
    clean = False
    try:
        code = _measure(args, spec, launcher)
        clean = True
        return code
    finally:
        if launcher is not None:
            launcher.close(clean)


def _measure(args, spec: dict, launcher: Launcher | None) -> int:
    sys.path.insert(0, SRC)
    import gate
    import tracing

    workloads = _make_workloads(gate)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    wl = workloads[args.workload]

    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    scratch = os.path.join(OUT_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    if args.trace:
        values, attempted, failed, info = run_trace(wl, args.seed, args.seconds, env, scratch,
                                                    tracing)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, info = run_timed(wl, args.seed, args.seconds, env, scratch,
                                                    launcher)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "machine": machine(args.seed), "metrics": metrics, "info": info}
    with open(os.path.join(OUT_DIR, f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"# machine {json.dumps(record['machine'])}")
    for name, m in metrics.items():
        roadmap = tracing.ROADMAP_MS.get(name)
        note = f"   (ROADMAP: {roadmap:g} ms)" if roadmap is not None else ""
        print(f"{name:42s} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        t = info["wall_s_tail"]
        where = (f"p{t['percentile']:.0f} = {t['value']:.6g} s" if t["value"] is not None
                 else "n/a (fewer than 11 samples)")
        print(f"# wall_s median {info['wall_s_median']:.6g} s, tail {where}, "
              f"over {t['samples']} invocations; "
              f"failed_frac {info['failed_frac']:.6g}; "
              f"ref_err before floor {info['ref_err_unfloored']}")
    for r in info.get("invocations", []):
        if r["failure"]:
            print(f"# FAILED {r['params']}: {r['failure']}")
    for reason in info.get("failures", []):
        print(f"# FAILED {reason}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

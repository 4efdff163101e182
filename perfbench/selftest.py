"""Self-test of the benchmark harness: the gate must flag corrupted outputs, and
the span arithmetic must be right on a small synthetic tree.

Run from the repository root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from opfactor import cli  # noqa: E402

N = 2048


def _cli(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _change_digit(data: bytes, row: int, column: int) -> bytes:
    """Replace the first digit of one CSV field (row 0 is the first data row)."""
    lines = data.split(b"\r\n")
    fields = lines[row + 1].split(b",")
    field = bytearray(fields[column])
    i = next(k for k, c in enumerate(field) if chr(c).isdigit())
    field[i] = ord(str((int(chr(field[i])) + 1) % 10))
    fields[column] = bytes(field)
    lines[row + 1] = b",".join(fields)
    return b"\r\n".join(lines)


def _drop_row(data: bytes, row: int) -> bytes:
    lines = data.split(b"\r\n")
    del lines[row + 1]
    return b"\r\n".join(lines)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT_DIR)
        cls.evolve_params = {"x0": 1.0, "p0": 0.5}
        cls.evolve_t = math.pi / 4
        cls.evolve_path = os.path.join(cls.tmp.name, "evolve.csv")
        code, cls.evolve_stdout = _cli([
            "evolve", "--initial", "coherent:x0=1.0,p0=0.5",
            "--op", f"time:t={cls.evolve_t!r},substeps=1", "--grid-n", str(N),
            "--out", cls.evolve_path])
        assert code == 0
        cls.density_params = {"x0": 2.0, "s": 1.5, "sign": -1}
        cls.density_path = os.path.join(cls.tmp.name, "density.csv")
        code, _ = _cli(["density", "--x0", "2.0", "--s", "1.5", "--sign", "-1", "--t-min", "0",
                        "--t-max", "1.0", "--t-steps", "3", "--grid-n", str(N),
                        "--out", cls.density_path])
        assert code == 0
        cls.verify_path = os.path.join(cls.tmp.name, "verify.json")
        code, _ = _cli(["verify", "all", "--format", "json", "--out", cls.verify_path])
        assert code == 1

    @classmethod
    def tearDownClass(cls) -> None:
        cls.tmp.cleanup()

    def _write(self, name: str, data: bytes) -> str:
        path = os.path.join(self.tmp.name, name)
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    def _evolve(self, path: str) -> float:
        return gate.check_evolve_coherent(path, self.evolve_stdout, self.evolve_params, N,
                                          self.evolve_t)

    def _density(self, path: str) -> float:
        return gate.check_density(path, self.density_params, N, 0.0, 1.0, 3)

    def test_clean_outputs_pass(self) -> None:
        self.assertLess(self._evolve(self.evolve_path), 1e-6)
        self.assertLess(self._density(self.density_path), 1e-4)
        self.assertAlmostEqual(gate.check_verify(self.verify_path), 0.566, places=3)

    def test_evolve_changed_digit_is_flagged(self) -> None:
        data = _read_bytes(self.evolve_path)
        for column in range(4):
            with self.subTest(column=column), self.assertRaises(gate.GateError):
                self._evolve(self._write("bad.csv", _change_digit(data, N // 2, column)))

    def test_evolve_dropped_row_is_flagged(self) -> None:
        data = _read_bytes(self.evolve_path)
        with self.assertRaises(gate.GateError):
            self._evolve(self._write("bad.csv", _drop_row(data, N // 2)))

    def test_evolve_lf_line_ends_are_flagged(self) -> None:
        data = _read_bytes(self.evolve_path)
        with self.assertRaises(gate.GateError):
            self._evolve(self._write("bad.csv", data.replace(b"\r\n", b"\n")))

    def test_evolve_json_table(self) -> None:
        path = os.path.join(self.tmp.name, "evolve.json")
        code, stdout = _cli(["evolve", "--initial", "coherent:x0=1.0,p0=0.5",
                             "--op", f"time:t={self.evolve_t!r},substeps=1",
                             "--grid-n", str(N), "--format", "json", "--out", path])
        self.assertEqual(code, 0)
        self.assertLess(gate.check_evolve_coherent(path, stdout, self.evolve_params, N,
                                                   self.evolve_t), 1e-6)
        payload = _read_json(path)
        del payload["config"]
        with self.assertRaises(gate.GateError):
            gate.read_table(self._write("bad.json", json.dumps(payload).encode()))

    def test_density_changed_digit_is_flagged(self) -> None:
        data = _read_bytes(self.density_path)
        for column in range(6):
            with self.subTest(column=column), self.assertRaises(gate.GateError):
                self._density(self._write("bad.csv", _change_digit(data, N + N // 2, column)))

    def test_density_dropped_row_is_flagged(self) -> None:
        data = _read_bytes(self.density_path)
        with self.assertRaises(gate.GateError):
            self._density(self._write("bad.csv", _drop_row(data, 2 * N)))

    def test_verify_extra_failing_check_is_flagged(self) -> None:
        records = _read_json(self.verify_path)
        victim = next(r for r in records if r["passed"])
        victim["measured"], victim["passed"] = 10.0 * victim["tol"], False
        with self.assertRaises(gate.GateError):
            gate.check_verify(self._write("bad.json", json.dumps(records).encode()))

    def test_verify_known_red_value_is_pinned(self) -> None:
        records = _read_json(self.verify_path)
        red = next(r for r in records if r["name"] == "time_diagonal_dim64_t1")
        red["measured"] = 0.799
        with self.assertRaises(gate.GateError):
            gate.check_verify(self._write("bad.json", json.dumps(records).encode()))

    def test_verify_flag_disagreeing_with_measurement_is_flagged(self) -> None:
        records = _read_json(self.verify_path)
        next(r for r in records if r["passed"])["passed"] = False
        with self.assertRaises(gate.GateError):
            gate.check_verify(self._write("bad.json", json.dumps(records).encode()))


class SpanTest(unittest.TestCase):
    def test_self_times_on_a_synthetic_tree(self) -> None:
        spans = [
            tracing.Span("cli.cmd_evolve", 0.0, 10.0, None, 0),
            tracing.Span("grid.apply_chain", 1.0, 4.0, 0, 0),
            tracing.Span("grid.apply_dilation", 2.0, 3.0, 1, 0),
            tracing.Span("states.psi0", 5.0, 6.0, 0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_are_covered_once(self) -> None:
        spans = [
            tracing.Span("a", 0.0, 10.0, None, 0),
            tracing.Span("b", 1.0, 5.0, 0, 0),
            tracing.Span("c", 4.0, 12.0, 0, 0),
        ]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_layer_metrics_reduce_a_tree(self) -> None:
        spans = [
            tracing.Span("cli.cmd_evolve", 0.0, 10.0, None, 0),
            tracing.Span("grid.apply_chain", 1.0, 4.0, 0, 0),
            tracing.Span("grid.apply_dilation", 2.0, 3.0, 1, 0, extra=64),
            tracing.Span("states.psi0", 5.0, 6.0, 0, 0),
        ]
        m = tracing.layer_metrics(spans, fft_calls=2, overflow_warnings=1)
        self.assertEqual(m["cli.self_s"], 6.0)
        self.assertEqual(m["grid.self_s"], 3.0)
        self.assertEqual(m["grid.apply_chain.s"], 3.0)
        self.assertEqual(m["grid.apply_dilation.calls"], 1)
        self.assertEqual(m["grid.apply_dilation.self_s"], 1.0)
        self.assertEqual(m["grid.bytes_computed"], 64)
        self.assertEqual((m["states.calls"], m["states.self_s"]), (1, 1.0))
        self.assertEqual((m["grid.fft_calls"], m["grid.support_overflow_warnings"]), (2, 1))

    def test_tracer_counts_calls_through_every_binding(self) -> None:
        from opfactor import checks, grid

        tracer = tracing.Tracer()
        g = grid.Grid(-12.0, 12.0, N)
        (result, _, _) = tracing.run_traced(lambda: checks.check_dilation_gaussian(g), tracer)
        self.assertTrue(result[0].passed)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, ["checks.check_dilation_gaussian", "grid.apply_dilation"])
        self.assertIs(checks.apply_dilation, grid.apply_dilation)  # patches removed

    def test_tail_needs_ten_samples_beyond(self) -> None:
        self.assertEqual(run.tail([1.0] * 10), (None, None))
        pct, value = run.tail([float(v) for v in range(20)])
        self.assertEqual((pct, value), (50.0, 9.0))


if __name__ == "__main__":
    unittest.main()

"""Independent references that only the tests use: scipy's general matrix
exponential and a reader for the files `opfactor evolve` writes.

The package itself needs numpy only; scipy is a test dependency
(`pip install -e .[test]`).
"""
import csv
import json

import numpy as np

EXPM_NORM_BOUND = 1e6


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential via scaling and squaring with Pade approximants."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    norm1 = float(np.linalg.norm(m, 1))
    if norm1 > EXPM_NORM_BOUND:
        raise OverflowError(f"matrix 1-norm {norm1:.3e} exceeds {EXPM_NORM_BOUND:.0e}")
    from scipy.linalg import expm  # only the tests that compare against expm pay the import

    return expm(m)


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

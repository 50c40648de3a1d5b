"""Small array coercion and text formatting helpers used across modules."""

from __future__ import annotations

import csv
import io

import numpy as np

from .exceptions import ConfigError, DataError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a single row."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    return arr


def as_finite_matrix(a, name: str = "X") -> np.ndarray:
    """:func:`as_matrix` for data a fit consumes: NaN or inf raises DataError."""
    arr = as_matrix(a, name)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} holds non-finite values (nan or inf)")
    return arr


def as_labels(labels, n: int) -> np.ndarray:
    """A length-n label vector for a fit: NaN or inf in real-valued labels
    raises DataError, a wrong shape ConfigError."""
    arr = np.asarray(labels)
    if arr.shape != (n,):
        raise ConfigError(f"labels must have length n={n}, got shape {arr.shape}")
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
        raise DataError("labels hold non-finite values (nan or inf)")
    return arr


def as_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be 1-dimensional, got ndim={arr.ndim}")
    return arr


def sym(a: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize to wash out round-off from matrix products."""
    return 0.5 * (a + a.T)


# Rows converted to Python floats at a time by float_rows: large enough that
# the per-chunk overhead vanishes, small enough to bound the memory it holds.
ROW_CHUNK = 1024


def float_rows(matrix, sep: str):
    """Yield each row of a 2-D float array as one line of text, without a line end.

    Every cell is exactly ``repr(float(v))``, the shortest string that reads
    back as the same double, and cells are joined by ``sep``. Rows are turned
    into Python floats ``ROW_CHUNK`` at a time, so a caller that writes each
    line as it comes never holds the whole file as text.
    """
    matrix = np.asarray(matrix, dtype=float)
    for start in range(0, matrix.shape[0], ROW_CHUNK):
        for row in matrix[start:start + ROW_CHUNK].tolist():
            yield sep.join(map(repr, row))


def csv_cells(cells) -> str:
    """One CSV row as ``csv.writer`` writes it (its quoting), without the line end."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()[:-2]

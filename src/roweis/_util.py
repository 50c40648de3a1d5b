"""Small array coercion and text formatting helpers used across modules."""

from __future__ import annotations

import contextlib

import numpy as np

from .exceptions import ConfigError, DataError


def as_matrix(a, name: str) -> np.ndarray:
    """Coerce to a 2-D float64 array; 1-D input becomes a single row."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    return arr


def as_finite_matrix(a) -> np.ndarray:
    """:func:`as_matrix` for the data X a fit consumes: NaN or inf raises DataError."""
    arr = as_matrix(a, "X")
    if not np.all(np.isfinite(arr)):
        raise DataError("X holds non-finite values (nan or inf)")
    return arr


def as_features(a, n_features: int) -> np.ndarray:
    """:func:`as_finite_matrix` for data a fitted model embeds: ConfigError
    unless it has the model's ``n_features`` rows."""
    arr = as_finite_matrix(a)
    if arr.shape[0] != n_features:
        raise ConfigError(f"model expects {n_features} features, data has {arr.shape[0]}")
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


def as_number(value, name: str, whole: bool = False):
    """``value`` as a Python float (an int when ``whole``), which JSON writes
    and reads back as it was; ConfigError for a bool, a non-number, a number
    past float's range or a ``whole`` one with a fraction."""
    number = None
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past float's range
            number = float(value)
    if number is None or (whole and not number.is_integer()):
        raise ConfigError(f"{name} must be a {'whole ' if whole else ''}number, got {value!r}")
    return int(value) if whole else number


def classes(labels) -> tuple[np.ndarray, np.ndarray]:
    """(ids, inverse) of ``np.unique``: the class grouping every fit and the
    stratified split share."""
    # return_inverse also keeps np.unique from importing numpy.ma (about 1 MB).
    return np.unique(labels, return_inverse=True)


def as_square(a, name: str) -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {arr.shape}")
    return arr


def sym(a: np.ndarray) -> np.ndarray:
    """Explicitly symmetrize to wash out round-off from matrix products.

    The result is 0.5 * (a + a.T) bit for bit; the halving is done in place,
    so no second n x n temporary is made.
    """
    out = a + a.T
    out *= 0.5
    return out


# sym_in_place works on tiles of this order, so its temporaries stay small.
SYM_TILE = 128


def sym_in_place(a: np.ndarray) -> np.ndarray:
    """:func:`sym` of a square array written over it, which is returned.

    Each pair of mirrored tiles becomes 0.5 * (a_ij + a_ji) from one
    tile-sized temporary; IEEE addition commutes, so both halves get the
    bits of ``sym(a)`` and no n x n copy is made.
    """
    n = a.shape[0]
    for i in range(0, n, SYM_TILE):
        rows = slice(i, i + SYM_TILE)
        for j in range(i, n, SYM_TILE):
            cols = slice(j, j + SYM_TILE)
            tile = a[rows, cols] + a[cols, rows].T
            tile *= 0.5
            a[rows, cols] = tile
            a[cols, rows] = tile.T
    return a


# Cells converted to Python floats at a time by float_rows (at least one row):
# large enough that the per-chunk overhead vanishes, small enough that the
# floats it holds (about 32 bytes a cell) stay near 0.5 MB, however wide the rows.
FLOAT_CELLS = 1 << 14


def float_rows(matrix, sep: str):
    """Yield each row of a 2-D float array as one line of text, without a line end.

    Every cell is exactly ``repr(float(v))``, the shortest string that reads
    back as the same double, and cells are joined by ``sep``. Rows are turned
    into Python floats about ``FLOAT_CELLS`` cells at a time, so a caller
    that writes each line as it comes never holds the whole file as text.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows = max(1, FLOAT_CELLS // max(matrix.shape[1], 1))
    for start in range(0, matrix.shape[0], rows):
        for row in matrix[start:start + rows].tolist():
            yield sep.join(map(repr, row))


"""Small array coercion helpers used across modules."""

from __future__ import annotations

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

"""Reference code the tests compare the package against.

* ``centering_matrix``, ``total_scatter``, ``class_means``,
  ``between_scatter`` and ``xor_class`` were library functions that nothing
  in the package called; they live on here as test oracles.
* ``symmetric_eig`` and ``generalized_eig`` are the eigensolvers as they were
  before they stopped copying their inputs (no ``sym`` of an exactly
  symmetric matrix, no n x n identity for the shift). The package must match
  them bit for bit.
* ``squared_distances`` and ``gram`` are the kernel builders as they were
  before they worked in place; the package must match them bit for bit.
* ``project_kernel`` is kernel-model projection as one product over all new
  points, with the training Gram built on every call: the formula the
  blocked ``kernel_rda.project`` is checked against.

Do not change them to match the package.
"""

from __future__ import annotations

import numpy as np

from roweis import kernels
from roweis._util import as_features, as_matrix, as_square
from roweis.exceptions import ConfigError, NumericalError
from roweis.linalg import (
    CONSTRAINT_COND_MAX,
    EigPair,
    RegPolicy,
    _check_psd_spectrum,
    _fix_signs,
    _lapack_errors,
)
from roweis.scatter import ClassPartition, _check_partition


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------- dead library code

def centering_matrix(n: int) -> np.ndarray:
    """Return the n x n matrix that subtracts the mean, I - (1/n) 11'.

    Idempotent, symmetric, and annihilates constant vectors.
    """
    if n < 1:
        raise ConfigError(f"centering matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def total_scatter(x) -> np.ndarray:
    """Sum of outer products of deviations from the global mean."""
    x = as_matrix(x, "X")
    if x.shape[1] < 1:
        raise ConfigError("total_scatter needs at least one sample")
    centered = x - x.mean(axis=1, keepdims=True)
    return _sym(centered @ centered.T)


def class_means(x, part: ClassPartition) -> np.ndarray:
    """d x c matrix whose column j is the mean of class j."""
    x = as_matrix(x, "X")
    _check_partition(x, part)
    return np.column_stack([x[:, idx].mean(axis=1) for idx in part.index_sets])


def between_scatter(x, part: ClassPartition) -> np.ndarray:
    """Size-weighted scatter of the class means around the global mean."""
    x = as_matrix(x, "X")
    _check_partition(x, part)
    mu = x.mean(axis=1)
    out = np.zeros((x.shape[0], x.shape[0]))
    for idx in part.index_sets:
        gap = x[:, idx].mean(axis=1) - mu
        out += idx.size * np.outer(gap, gap)
    return _sym(out)


def xor_class(x1: float, x2: float) -> int:
    """0 when the coordinates share a sign, 1 otherwise."""
    return int((x1 > 0) != (x2 > 0))


# ---------------------------------------------------------------- eigensolvers

def _require_symmetric(a: np.ndarray, name: str) -> None:
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > 1e-10:
        raise ConfigError(f"{name} is not symmetric: max |A - A.T| = {gap:.3e} > {1e-10:.1e}")


@_lapack_errors
def symmetric_eig(a) -> EigPair:
    a = as_square(a, "A")
    _require_symmetric(a, "A")
    values, vectors = np.linalg.eigh(_sym(a))
    values = values[::-1].copy()
    vectors = _fix_signs(vectors[:, ::-1].copy())
    return EigPair(vectors=vectors, values=values)


@_lapack_errors
def generalized_eig(a, b, reg: RegPolicy | None = None, complement=None) -> EigPair:
    reg = reg or RegPolicy()
    a = as_square(a, "A")
    b = as_square(b, "B")
    if a.shape != b.shape:
        raise ConfigError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    _require_symmetric(a, "A")
    _require_symmetric(b, "B")
    a_s = _sym(a)
    b_s = _sym(b)

    b_vals = np.linalg.eigvalsh(b_s)
    b_norm = float(np.linalg.norm(b_s, "fro"))
    if complement is not None:
        b_vals = np.sort(np.append(b_vals, complement.value))
        b_norm = float(np.hypot(b_norm, complement.value * np.sqrt(complement.count)))
    _check_psd_spectrum(b_vals, b_norm, "constraint matrix B")
    lam_min, lam_max = float(b_vals[0]), float(b_vals[-1])

    unit = reg.unit(b_s, complement)
    candidates = [0.0]
    shift = reg.base_scale * unit
    while shift <= reg.max_scale * unit * (1.0 + 1e-12):
        candidates.append(shift)
        shift *= reg.growth

    def healthy(s: float) -> bool:
        if s == candidates[-1] and s > 0.0:
            return True
        return lam_min + s > max(lam_max + s, 0.0) / CONSTRAINT_COND_MAX

    chol = None
    shift = 0.0
    for candidate in candidates:
        if not healthy(candidate):
            continue
        try:
            target = b_s if candidate == 0.0 else b_s + candidate * np.eye(b_s.shape[0])
            chol = np.linalg.cholesky(target)
            shift = candidate
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericalError("constraint matrix stayed singular")

    y = np.linalg.solve(chol, a_s)
    c = _sym(np.linalg.solve(chol, y.T))
    values, q = np.linalg.eigh(c)
    values = values[::-1].copy()
    vectors = np.linalg.solve(chol.T, q[:, ::-1])
    vectors = _fix_signs(vectors)
    return EigPair(vectors=vectors, values=values, shift=shift)


# ---------------------------------------------------------------- kernels

def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(a * a, axis=0)[:, None]
        + np.sum(b * b, axis=0)[None, :]
        - 2.0 * (a.T @ b)
    )
    return np.clip(sq, 0.0, None)


def gram(spec: kernels.KernelSpec, a, b) -> np.ndarray:
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if spec.family == "linear":
        return a.T @ b
    if spec.family == "rbf":
        return np.exp(-spec.gamma * squared_distances(a, b))
    if spec.family == "polynomial":
        return (a.T @ b + spec.offset) ** spec.degree
    raise ConfigError(f"no data kernel {spec.family!r}")


def project_kernel(model, x_any) -> np.ndarray:
    """coeffs' K_new over all new points at once, K_new centered with the
    training Gram for the trick variants."""
    x_any = as_features(x_any, model.train_x.shape[0])
    k_new = gram(model.kernel, model.train_x, x_any)
    if model.variant != "direct":
        k_train = _sym(gram(model.kernel, model.train_x, model.train_x))
        k_new = kernels.center_test_kernel(k_train, k_new)
    return model.coeffs.T @ k_new

"""Kernel functions, Gram matrices, and centering.

Data matrices store samples column-wise (d x n). Gram matrices follow the
same convention: ``gram(spec, A, B)[i, j]`` is the kernel between column i of
A and column j of B. The RBF bandwidth defaults to the median heuristic,
gamma = 1 / (2 * median^2) over pairwise training distances; resolve it once
on the training side (:func:`resolve_gamma`) so that out-of-sample Gram
matrices reuse the training bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import as_matrix, as_square, classes
from .exceptions import ConfigError

FAMILIES = ("linear", "rbf", "polynomial", "delta")

# median_heuristic_gamma recomputes, NEAR_BLOCK pairs at a time, the squared
# distances within NEAR_RTOL * 2 max |a|^2, the expansion's round-off: equal
# columns measured up to 13 eps (|a|^2 + |b|^2) at d <= 3000.
NEAR_RTOL = 64 * np.finfo(float).eps
NEAR_BLOCK = 1024


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    gamma applies to rbf (None means "median heuristic, not yet resolved"),
    degree and offset apply to polynomial. The delta family compares labels
    for equality and is only valid through :func:`delta_kernel` /
    :func:`label_gram`.
    """

    family: str = "linear"
    gamma: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not math.isfinite(self.offset):
            raise ConfigError(f"offset must be finite, got {self.offset}")
        if self.family == "polynomial" and self.degree < 1:
            raise ConfigError(f"polynomial degree must be >= 1, got {self.degree}")

    def to_dict(self) -> dict:
        out = {"family": self.family}
        if self.family == "rbf":
            out["gamma"] = self.gamma
        if self.family == "polynomial":
            out["degree"] = self.degree
            out["offset"] = self.offset
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "KernelSpec":
        return cls(
            family=data.get("family", "linear"),
            gamma=data.get("gamma"),
            degree=int(data.get("degree", 2)),
            offset=float(data.get("offset", 1.0)),
        )


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i|^2 + |b_j|^2 - 2 a_i'b_j, clipped at 0. Every step after the
    first works in place, so two result-sized arrays are the most alive."""
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :]
    cross = a.T @ b
    cross *= 2.0
    sq -= cross
    del cross
    return np.clip(sq, 0.0, None, out=sq)


def median_heuristic_gamma(x) -> float:
    """gamma = 1 / (2 * median^2) over pairwise distances of the columns of x.

    Falls back to 1.0 when no strictly positive distance exists. Equal
    columns get exactly 0 wherever they sit, so they never enter the median:
    pairs within the expansion's round-off are recomputed from differences.
    """
    x = as_matrix(x, "X")
    n = x.shape[1]
    if n < 2:
        return 1.0
    d2 = squared_distances(x, x)
    i, j = np.triu_indices(n, k=1)
    pairs = d2[i, j]
    del d2
    near = np.flatnonzero(pairs <= NEAR_RTOL * 2.0 * float(np.max(np.sum(x * x, axis=0))))
    for start in range(0, near.size, NEAR_BLOCK):
        block = near[start:start + NEAR_BLOCK]
        diff = x[:, i[block]] - x[:, j[block]]
        pairs[block] = np.sum(diff * diff, axis=0)
    dists = np.sqrt(pairs, out=pairs)
    positive = dists[dists > 0.0]
    if positive.size == 0:
        return 1.0
    # np.median's bits without np.median, which imports numpy.ma (about 1 MB).
    low, high = (positive.size - 1) // 2, positive.size // 2
    med = float(np.partition(positive, (low, high))[low:high + 1].mean())
    return 1.0 / (2.0 * med * med)


def resolve_gamma(spec: KernelSpec, x) -> KernelSpec:
    """Pin an unresolved RBF bandwidth to the median heuristic over x."""
    if spec.family == "rbf" and spec.gamma is None:
        return replace(spec, gamma=median_heuristic_gamma(x))
    return spec


def gram(spec: KernelSpec, a, b) -> np.ndarray:
    """Gram matrix between the columns of a and the columns of b."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ConfigError(f"dimension mismatch: A has d={a.shape[0]}, B has d={b.shape[0]}")
    if spec.family == "linear":
        return a.T @ b
    if spec.family == "rbf":
        if spec.gamma is None:
            raise ConfigError("rbf gamma is unresolved; call resolve_gamma on the training data first")
        k = squared_distances(a, b)
        k *= -spec.gamma
        return np.exp(k, out=k)
    if spec.family == "polynomial":
        k = a.T @ b
        k += spec.offset
        k **= spec.degree
        return k
    raise ConfigError("delta kernels compare labels; use delta_kernel or label_gram")


def is_categorical(labels) -> bool:
    """True when a label vector holds class ids rather than real targets.

    Integers, booleans, and strings are categorical; floats only when every
    value is a whole number.
    """
    arr = np.asarray(labels)
    if arr.dtype.kind in "iub":
        return True
    if arr.dtype.kind in "USO":
        return True
    if arr.dtype.kind == "f":
        return bool(np.all(np.isfinite(arr)) and np.all(arr == np.rint(arr)))
    return False


def _check_class_labels(y: np.ndarray, name: str) -> None:
    if y.ndim != 1:
        raise ConfigError(f"{name} expects 1-D label vectors")
    if not is_categorical(y):
        raise ConfigError(f"{name} needs categorical labels, got real-valued targets")


def delta_kernel(y1, y2) -> np.ndarray:
    """Label-equality kernel: entry (i, j) is 1 when y1[i] == y2[j]."""
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    for y in (y1, y2):
        _check_class_labels(y, "delta_kernel")
    return (y1[:, None] == y2[None, :]).astype(float)


def class_indicator(labels) -> np.ndarray:
    """n x c class-indicator matrix E with E @ E.T == delta_kernel(labels, labels).

    Column j marks the samples of the j-th class in ``np.unique`` order, the
    grouping :func:`roweis.scatter.within_scatter` uses. This is the exact
    low-rank factor of the delta label kernel, so supervised fits on class
    labels never need the n x n kernel itself.
    """
    labels = np.asarray(labels)
    _check_class_labels(labels, "class_indicator")
    ids, inverse = classes(labels)
    out = np.zeros((labels.size, ids.size))
    out[np.arange(labels.size), inverse] = 1.0
    return out


def label_gram(spec: KernelSpec, y1, y2) -> np.ndarray:
    """Kernel matrix over label vectors, treating each label as a 1-D point."""
    if spec.family == "delta":
        return delta_kernel(y1, y2)
    a = np.asarray(y1, dtype=float)[None, :]
    b = np.asarray(y2, dtype=float)[None, :]
    return gram(spec, a, b)


def resolve_label_kernel(spec: KernelSpec | None, labels) -> KernelSpec:
    """``spec``, or when None the default for the labels (the equality kernel
    for class ids, an RBF over real targets), with an unresolved RBF
    bandwidth pinned to the median heuristic over the labels."""
    if spec is None:
        spec = KernelSpec(family="delta" if is_categorical(labels) else "rbf")
    if spec.family == "rbf" and spec.gamma is None:
        return replace(spec, gamma=median_heuristic_gamma(np.asarray(labels, dtype=float)[None, :]))
    return spec


def double_center(k) -> np.ndarray:
    """Pre- and post-multiply by the centering matrix: H K H.

    Computed through row/column means so every row and column of the result
    sums to zero to round-off.
    """
    k = as_square(k, "K")
    row = k.mean(axis=1, keepdims=True)
    col = k.mean(axis=0, keepdims=True)
    out = k - row
    out -= col
    out += k.mean()
    return out

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
from dataclasses import dataclass, fields, replace

import numpy as np

from ._util import as_matrix, as_number, as_square, classes
from .exceptions import ConfigError

# The parameters each kernel family reads, in to_dict's order.
PARAMETERS = {"linear": (), "rbf": ("gamma",), "polynomial": ("degree", "offset"), "delta": ()}
FAMILIES = tuple(PARAMETERS)

# median_heuristic_gamma recomputes, NEAR_BLOCK pairs at a time, the squared
# distances within NEAR_RTOL * 2 max |a|^2, the expansion's round-off: equal
# columns measured up to 13 eps (|a|^2 + |b|^2) at d <= 3000.
NEAR_RTOL = 64 * np.finfo(float).eps
NEAR_BLOCK = 1024

# Entries of an n x m result that squared_distances and median_heuristic_gamma
# touch per block of rows (at least one row): their temporaries stay this
# small, and a result of up to this many entries is one block.
ROW_BLOCK = 1 << 15


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    gamma applies to rbf (None means "median heuristic, not yet resolved"),
    degree and offset apply to polynomial (PARAMETERS). The delta family
    compares labels for equality; it is a label kernel only, and enters a
    fit through its exact factor E, :func:`class_indicator`, or the class
    sums Xc E. Its numbers are Python floats, degree an int; a bool, a
    string or a fractional degree raises ConfigError. Every given value is
    checked, then the parameters the family does not read are reset to
    their defaults, so two specs that compute the same kernel are equal and
    :meth:`to_dict` reads back as it was.
    """

    family: str = "linear"
    gamma: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", as_number(self.gamma, "gamma"))
        object.__setattr__(self, "degree", as_number(self.degree, "degree", whole=True))
        object.__setattr__(self, "offset", as_number(self.offset, "offset"))
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if not math.isfinite(self.offset):
            raise ConfigError(f"offset must be finite, got {self.offset}")
        if self.family == "polynomial" and self.degree < 1:
            raise ConfigError(f"polynomial degree must be >= 1, got {self.degree}")
        for field in fields(self)[1:]:
            if field.name not in PARAMETERS[self.family]:
                object.__setattr__(self, field.name, field.default)

    def to_dict(self) -> dict:
        return {"family": self.family, **{name: getattr(self, name) for name in PARAMETERS[self.family]}}

    @classmethod
    def from_dict(cls, data: dict) -> "KernelSpec":
        return cls(**{key: data[key] for key in ("family", "gamma", "degree", "offset") if key in data})


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i|^2 + |b_j|^2 - 2 a_i'b_j, clipped at 0, in one result-sized array.

    The result starts as -2 a'b, and the sums of squared norms are added to
    it in row blocks of about ROW_BLOCK entries. x + (-y) == x - y in IEEE
    arithmetic, so the bits are those of the norms' sum minus the doubled
    product.
    """
    out = a.T @ b
    out *= -2.0
    norms_a, norms_b = np.sum(a * a, axis=0), np.sum(b * b, axis=0)
    rows = max(1, ROW_BLOCK // max(out.shape[1], 1))
    for start in range(0, out.shape[0], rows):
        block = slice(start, start + rows)
        out[block] += norms_a[block, None] + norms_b
    return np.clip(out, 0.0, None, out=out)


def _upper_pairs(d2: np.ndarray) -> np.ndarray:
    """The strict upper triangle of the square, C-ordered ``d2``, row by row
    (the order of ``np.triu_indices``), moved to the front of d2's own
    buffer: the result is a view of d2. Rows are gathered about ROW_BLOCK
    entries at a time, and a block's entries land at or before where its
    rows began, so no row is overwritten before it is read."""
    n = d2.shape[0]
    flat = d2.reshape(-1)
    cols = np.arange(n)
    rows = max(1, ROW_BLOCK // n)
    at = 0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = d2[start:stop][cols > np.arange(start, stop)[:, None]]
        flat[at:at + block.size] = block
        at += block.size
    return flat[:at]


def median_heuristic_gamma(x) -> float:
    """gamma = 1 / (2 * median^2) over pairwise distances of the columns of x.

    Falls back to 1.0 when no strictly positive distance exists. Equal
    columns get exactly 0 wherever they sit, so they never enter the median:
    pairs within the expansion's round-off are recomputed from differences.
    The pairs live in the distance matrix's own buffer, and the median is
    selected there in place, offset by the count of zero distances: the
    order statistics of a multiset do not depend on its order.
    """
    x = as_matrix(x, "X")
    n = x.shape[1]
    if n < 2:
        return 1.0
    pairs = _upper_pairs(squared_distances(x, x))
    near = np.flatnonzero(pairs <= NEAR_RTOL * 2.0 * float(np.max(np.sum(x * x, axis=0))))
    # Pair k lies in row i of the upper triangle when row_start[i] <= k < row_start[i + 1].
    row_start = np.arange(n - 1)
    row_start = row_start * (2 * n - 1 - row_start) // 2
    for start in range(0, near.size, NEAR_BLOCK):
        block = near[start:start + NEAR_BLOCK]
        i = np.searchsorted(row_start, block, side="right") - 1
        diff = x[:, i] - x[:, block - row_start[i] + i + 1]
        pairs[block] = np.sum(diff * diff, axis=0)
    dists = np.sqrt(pairs, out=pairs)
    positive = int(np.count_nonzero(dists > 0.0))
    if positive == 0:
        return 1.0
    # np.median's bits over the positive distances without np.median, which
    # imports numpy.ma (about 1 MB), nor a copy of them. The zeros partition
    # before them, and NaNs (neither) after them.
    zeros = int(np.count_nonzero(dists <= 0.0))
    low, high = zeros + (positive - 1) // 2, zeros + positive // 2
    dists.partition((low, high))
    med = float(dists[low:high + 1].mean())
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
    raise ConfigError("delta kernels compare class labels; a fit takes them through class_indicator or Xc E")


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


def class_indicator(labels) -> np.ndarray:
    """n x c class-indicator matrix E: (E E')[i, j] is 1 when labels i and j
    are equal, the delta label kernel.

    Column j marks the samples of the j-th class in ``np.unique`` order.
    This is the exact low-rank factor of the delta label kernel, so the
    kernel-trick fits on class labels never need the n x n kernel itself;
    the other fits take the class sums Xc E in its place.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ConfigError("class_indicator expects 1-D label vectors")
    if not is_categorical(labels):
        raise ConfigError("class_indicator needs categorical labels, got real-valued targets")
    ids, inverse = classes(labels)
    out = np.zeros((labels.size, ids.size))
    out[np.arange(labels.size), inverse] = 1.0
    return out


def label_points(spec: KernelSpec, labels) -> np.ndarray:
    """Labels as the real numbers a non-delta label kernel compares;
    ConfigError for labels that are not numbers, such as string class ids."""
    try:
        return np.asarray(labels, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(
            f"the {spec.family} label kernel needs numeric labels; use the delta "
            "label kernel for class ids that are not numbers"
        ) from None


def label_gram(spec: KernelSpec, y1, y2) -> np.ndarray:
    """Kernel matrix over label vectors, treating each label as a 1-D point;
    the delta family has none here (see :func:`class_indicator`)."""
    return gram(spec, label_points(spec, y1)[None, :], label_points(spec, y2)[None, :])


def resolve_label_kernel(spec: KernelSpec | None, labels) -> KernelSpec:
    """``spec``, or when None the default for the labels (the equality kernel
    for class ids, an RBF over real targets), with an unresolved RBF
    bandwidth pinned to the median heuristic over the labels."""
    if spec is None:
        spec = KernelSpec(family="delta" if is_categorical(labels) else "rbf")
    if spec.family == "rbf" and spec.gamma is None:
        return replace(spec, gamma=median_heuristic_gamma(label_points(spec, labels)[None, :]))
    return spec


def double_center(k) -> np.ndarray:
    """Pre- and post-multiply by the centering matrix: H K H, written over k.

    Computed through row/column means so every row and column of the result
    sums to zero to round-off. The means are taken first, then subtracted
    and added back in place, so a square float64 ``k`` is overwritten and
    returned; other input is converted to a new array first.
    """
    k = as_square(k, "K")
    row = k.mean(axis=1, keepdims=True)
    col = k.mean(axis=0, keepdims=True)
    grand = k.mean()
    k -= row
    k -= col
    k += grand
    return k

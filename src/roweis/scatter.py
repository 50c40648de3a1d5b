"""Class partitions and the within-class scatter matrix.

Samples are stored column-wise. The scatter is d x d, symmetric, and
positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_matrix, sym
from .exceptions import ConfigError


@dataclass(frozen=True)
class ClassPartition:
    """Deterministic grouping of sample indices by class label."""

    class_ids: np.ndarray
    index_sets: tuple
    sizes: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "ClassPartition":
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ConfigError("labels must be 1-dimensional")
        if labels.size == 0:
            raise ConfigError("labels are empty")
        ids, inverse = np.unique(labels, return_inverse=True)
        index_sets = tuple(np.flatnonzero(inverse == j) for j in range(ids.size))
        sizes = np.array([idx.size for idx in index_sets])
        return cls(class_ids=ids, index_sets=index_sets, sizes=sizes)

    @property
    def n_classes(self) -> int:
        return int(self.sizes.size)

    @property
    def n_samples(self) -> int:
        return int(self.sizes.sum())


def _check_partition(x: np.ndarray, part: ClassPartition) -> None:
    if part.n_samples != x.shape[1]:
        raise ConfigError(
            f"partition covers {part.n_samples} samples but X has {x.shape[1]} columns"
        )
    if np.any(part.sizes < 1):
        raise ConfigError("every class must contain at least one sample")


def within_scatter(x, part: ClassPartition) -> np.ndarray:
    """Sum over classes of the scatter around each class mean."""
    x = as_matrix(x, "X")
    _check_partition(x, part)
    out = np.zeros((x.shape[0], x.shape[0]))
    for idx in part.index_sets:
        block = x[:, idx]
        centered = block - block.mean(axis=1, keepdims=True)
        out += centered @ centered.T
    return sym(out)

"""The within-class scatter matrix.

Samples are stored column-wise and grouped by their labels, the classes in
``np.unique`` order (the order :func:`roweis.kernels.class_indicator` uses).
The scatter is d x d, symmetric, and positive semidefinite.
"""

from __future__ import annotations

import numpy as np

from ._util import as_labels, as_matrix, classes, sym


def within_scatter(x, labels) -> np.ndarray:
    """Sum over the classes of ``labels`` (a 1-D vector, one label per
    column of X) of the scatter around each class mean."""
    x = as_matrix(x, "X")
    labels = as_labels(labels, x.shape[1])
    ids, inverse = classes(labels)
    out = np.zeros((x.shape[0], x.shape[0]))
    for j in range(ids.size):
        block = x[:, np.flatnonzero(inverse == j)]
        centered = block - block.mean(axis=1, keepdims=True)
        out += centered @ centered.T
    return sym(out)

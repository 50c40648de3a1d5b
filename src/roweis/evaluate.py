"""Downstream evaluation of embeddings: nearest-neighbor error and OLS RMSE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import as_matrix
from .exceptions import ConfigError
from .kernels import squared_distances


@dataclass(frozen=True)
class EvalReport:
    """A metric value with its per-repetition breakdown.

    ``std`` is the population standard deviation over repetitions and
    ``value`` equals ``mean``.
    """

    metric: str
    value: float
    per_seed_values: tuple
    mean: float
    std: float

    def __post_init__(self):
        if self.metric == "error-rate" and not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ConfigError(f"error rate out of range: {self.value}")
        if self.metric == "rmse" and self.value < 0.0:
            raise ConfigError(f"rmse must be non-negative: {self.value}")

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "EvalReport":
        arr = np.asarray(values, dtype=float)
        return cls(
            metric=metric,
            value=float(arr.mean()),
            per_seed_values=tuple(float(v) for v in arr),
            mean=float(arr.mean()),
            std=float(arr.std()),
        )


def knn_classify(train_emb, train_y, test_emb, test_y) -> EvalReport:
    """Euclidean 1-nearest-neighbor error rate on embedded data.

    Embeddings are p x n with samples in columns. Distance ties resolve to
    the smallest training index (argmin order).
    """
    train_emb = as_matrix(train_emb, "train_emb")
    test_emb = as_matrix(test_emb, "test_emb")
    train_y = np.asarray(train_y)
    test_y = np.asarray(test_y)
    if train_emb.shape[1] == 0:
        raise ConfigError("training embedding is empty")
    if train_emb.shape[0] != test_emb.shape[0]:
        raise ConfigError("train and test embeddings have different dimensionality")

    pred = train_y[np.argmin(squared_distances(train_emb, test_emb), axis=0)]
    error = float(np.mean(pred != test_y)) if test_y.size else 0.0
    return EvalReport.from_values("error-rate", [error])


def linear_regression_rmse(train_emb, train_y, test_emb, test_y) -> EvalReport:
    """Ordinary least squares with intercept on the training embedding,
    scored by RMSE on the test embedding.

    Falls back to a lightly ridged solve when the system is not
    overdetermined.
    """
    train_emb = as_matrix(train_emb, "train_emb")
    test_emb = as_matrix(test_emb, "test_emb")
    train_y = np.asarray(train_y, dtype=float)
    test_y = np.asarray(test_y, dtype=float)
    p, n = train_emb.shape
    if train_y.shape != (n,):
        raise ConfigError("training labels do not match the embedding")

    a = np.vstack([np.ones(n), train_emb]).T
    if n > p:
        beta, *_ = np.linalg.lstsq(a, train_y, rcond=None)
    else:
        gram_reg = a.T @ a + 1e-8 * np.eye(p + 1)
        beta = np.linalg.solve(gram_reg, a.T @ train_y)
    a_test = np.vstack([np.ones(test_emb.shape[1]), test_emb]).T
    pred = a_test @ beta
    rmse = float(np.sqrt(np.mean((pred - test_y) ** 2))) if test_y.size else 0.0
    return EvalReport.from_values("rmse", [rmse])


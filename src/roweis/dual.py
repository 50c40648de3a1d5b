"""Dual form of the r2 = 0 slice, efficient when samples are scarce.

With an orthonormality constraint (r2 = 0) the objective matrix factors as
R1 = W W' with

    W = Xc                          when r1 = 0,
    W = Xc Upsilon                  when r1 = 1,
    W = [sqrt(r1) Xc Upsilon, sqrt(1 - r1) Xc]   otherwise,

where Upsilon Upsilon' = K_y. For class labels Upsilon is the n x c
class-indicator matrix E, so W is d x (n + c) at most and no n x n array is
built. For real-valued targets Upsilon comes from an eigendecomposition of
the dense RBF label kernel (see :func:`roweis.rda.label_factor`).

The projection basis is recovered from the small-side factor: eigenvectors
of W'W when that is the smaller problem, a truncated SVD of W otherwise. Embeddings and reconstructions never need
the d x d eigenproblem, which is the point when n << d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._util import as_finite_matrix, as_matrix
from .exceptions import ConfigError, NumericalError
from .linalg import EIG_NOISE_RTOL, incomplete_svd, symmetric_eig
from .rda import default_label_kernel, label_factor

# Singular values below this fraction of the largest are dropped before the
# inversion used in projection.
SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class DualRdaModel:
    """Small-side factorization of the fitted subspace.

    factor is W (d x k); right_vectors and sigma hold the retained right
    singular vectors and singular values of W. The implied basis W V / sigma
    has orthonormal columns and matches the primal eigenvectors up to sign.
    """

    right_vectors: np.ndarray
    sigma: np.ndarray
    factor: np.ndarray
    mean: np.ndarray
    r1: float
    notes: tuple = ()

    @property
    def n_features(self) -> int:
        return int(self.factor.shape[0])

    @property
    def n_components(self) -> int:
        return int(self.sigma.size)


def fit_dual(
    x,
    labels=None,
    r1: float = 0.0,
    *,
    r2: float = 0.0,
    p: int | None = None,
    label_kernel: kernels.KernelSpec | None = None,
) -> DualRdaModel:
    """Fit through the small-side factor; only r2 = 0 has this form."""
    if r2 != 0.0:
        raise ConfigError("the dual form exists only for r2 = 0")
    if not 0.0 <= r1 <= 1.0:
        raise ConfigError(f"r1 must lie in [0, 1], got {r1}")
    x = as_finite_matrix(x, "X")
    d, n = x.shape
    if n < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {n}")
    if r1 > 0 and labels is None:
        raise ConfigError("labels are required when r1 > 0")

    mean = x.mean(axis=1)
    centered = x - mean[:, None]

    if r1 == 0.0:
        w = centered
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ConfigError(f"labels must have length n={n}, got shape {labels.shape}")
        spec = kernels.resolve_label_kernel(label_kernel or default_label_kernel(labels), labels)
        q = centered @ label_factor(spec, labels)
        if r1 == 1.0:
            w = q
        else:
            w = np.hstack([np.sqrt(r1) * q, np.sqrt(1.0 - r1) * centered])

    if w.shape[1] < d:
        pair = symmetric_eig(w.T @ w)
        values = np.clip(pair.values, 0.0, None)
        # The square root would lift eigensolver noise on a rank-deficient
        # Gram matrix above the singular-value cutoff; zero it first.
        if values.size and values[0] > 0.0:
            values[values < EIG_NOISE_RTOL * values[0]] = 0.0
        sigma = np.sqrt(values)
        right = pair.vectors
    else:
        fac = incomplete_svd(w, k=min(w.shape))
        sigma = fac.singular
        right = fac.right

    if sigma.size == 0 or sigma[0] <= 0.0:
        raise NumericalError("the data carry no variance; nothing to project onto")
    keep = sigma >= SINGULAR_RTOL * sigma[0]
    sigma = sigma[keep]
    right = right[:, keep]

    notes = []
    if p is not None:
        if p < 1:
            raise ConfigError(f"p must be a positive integer, got {p}")
        if p > sigma.size:
            notes.append(f"requested p={p} exceeds the {sigma.size} usable directions; truncated")
            p = sigma.size
        sigma = sigma[:p]
        right = right[:, :p]

    return DualRdaModel(
        right_vectors=right.copy(),
        sigma=sigma.copy(),
        factor=w.copy(),
        mean=mean,
        r1=r1,
        notes=tuple(notes),
    )


def _check_width(model: DualRdaModel, x: np.ndarray) -> None:
    if x.shape[0] != model.n_features:
        raise ConfigError(
            f"model expects {model.n_features} features, data has {x.shape[0]}"
        )


def project_dual(model: DualRdaModel, x_any) -> np.ndarray:
    """sigma^{-1} V' W' (x - mean); identical to the primal embedding up to sign."""
    x_any = as_matrix(x_any, "X")
    _check_width(model, x_any)
    inner = model.factor.T @ (x_any - model.mean[:, None])
    return (model.right_vectors.T @ inner) / model.sigma[:, None]


def reconstruct_dual(model: DualRdaModel, x_any) -> np.ndarray:
    """Map the embedding back through the implied basis W V / sigma."""
    emb = project_dual(model, x_any)
    basis = (model.factor @ model.right_vectors) / model.sigma[None, :]
    return basis @ emb + model.mean[:, None]

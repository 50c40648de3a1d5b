"""Kernelized two-factor subspace learning.

Two routes into the feature space:

* The direct method writes every feature-space direction as a combination of
  the pulled training points, phi(u) = Phi(X) theta, which turns the primal
  problem into the n x n generalized eigenproblem (M, L) with

      M = K_x (H P H) K_x,
      L = r2 * N + (1 - r2) * K_x,      N = sum_j K_j H_j K_j',

  where K_j collects the Gram columns of class j and H_j centers within the
  class. This works for every (r1, r2). Embeddings are Theta' K.

* The kernel-trick method rides the dual factorization and exists for the
  two corners r1 = 0 (kernel PCA) and r1 = 1 (kernel SPCA) of the r2 = 0
  edge, where the data appear only through inner products. Kernel SPCA
  factors K_y = Upsilon Upsilon'; for class labels Upsilon is the n x c
  class-indicator matrix, so its core Upsilon' Kc Upsilon is c x c. Any
  other label kernel, such as the RBF over real targets, is built as a dense
  n x n matrix and factored through its eigendecomposition.

The direct method still builds the dense P = r1 K_y + (1 - r1) I, also for
class labels. At r1 = 1 with two classes M has rank one, and a second
requested component lies in the null space of M, where round-off alone sets
its direction. A factored M moves that component by O(1) against the dense
one, so the rewrite waits for the feature-map form of the direct method.

fit_direct drops K_x and P once M and L are built, and the solver copies
neither M nor L, so the numpy arrays a fit holds peak at about six n x n
(LAPACK's workspace comes on top).

Embeddings of new points use the kernel between the retained training matrix
and the new points; the trick variants center that kernel with training
statistics (Schoelkopf, Smola & Mueller 1998) so the embedding agrees with
projecting mean-centered feature vectors. :func:`project` builds, centers and
multiplies out that kernel PROJECT_BLOCK new points at a time, so memory does
not grow with the number of points. The centering statistics, the row means
and grand mean of the training Gram matrix, are computed on a model's first
projection and kept on the object (:attr:`KernelRdaModel.train_centering`),
never in its model file. No reconstruction is offered: it would need the
pulled training data, which a kernel never exposes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._util import as_features, as_square, sym
from .exceptions import ConfigError, NumericalError
from .linalg import generalized_eig, symmetric_eig
from .rda import (
    RoweisConfig,
    _first_usable,
    _fit_inputs,
    _resolved_label_kernel,
    _select_dimension,
    blend_label_kernel,
    count_valid,
    label_factor,
)
from .scatter import ClassPartition

# Trick-variant directions with singular value below this fraction of the
# largest are numerically meaningless (the projection divides by sigma).
TRICK_SINGULAR_RTOL = 1e-6

# New points embedded at a time by project; keep it a multiple of 64. BLAS
# picks its kernel by the product's shape, so a block's columns can differ
# from those of one product over all points in the last bits. With OpenBLAS
# on one thread, for 700 training points and 4000 new points, 1024 gave
# bitwise equal embeddings at p = 1, 2 and 70; 512 did at p = 1 and 70 only;
# 3 and 374 did at none of them.
PROJECT_BLOCK = 1024


@dataclass(frozen=True)
class KernelRdaModel:
    """Fitted feature-space subspace.

    coeffs (n x p) right-multiplied against the appropriate train-vs-new
    kernel produces the embedding. The trick variants keep their raw pieces
    (right_vectors, sigma, and the label-kernel factor upsilon) alongside.
    """

    variant: str  # direct | trick_pca | trick_spca
    coeffs: np.ndarray
    eigvals: np.ndarray
    train_x: np.ndarray
    kernel: kernels.KernelSpec
    r1: float
    r2: float
    label_kernel: kernels.KernelSpec | None = None
    right_vectors: np.ndarray | None = None
    sigma: np.ndarray | None = None
    upsilon: np.ndarray | None = None
    shift: float = 0.0
    notes: tuple = ()

    @property
    def n_components(self) -> int:
        return int(self.coeffs.shape[1])

    @functools.cached_property
    def train_centering(self) -> tuple[np.ndarray, float]:
        """Row means (n x 1) and grand mean of the training Gram matrix.

        The trick variants center every train-vs-new kernel with these.
        They are computed on first use and kept on the object, never written
        to the model file.
        """
        k_train = sym(kernels.gram(self.kernel, self.train_x, self.train_x))
        return k_train.mean(axis=1, keepdims=True), k_train.mean()


def kernel_objective_matrix(k_x, p) -> np.ndarray:
    """M = K_x (H P H) K_x; the feature-space objective in coefficient space."""
    k_x = as_square(k_x, "K_x")
    p = as_square(p, "P")
    if p.shape != k_x.shape:
        raise ConfigError(f"shape mismatch: K_x is {k_x.shape}, P is {p.shape}")
    return sym(k_x @ kernels.double_center(p) @ k_x)


def kernel_within_scatter(k_x, part: ClassPartition) -> np.ndarray:
    """N = sum_j K_j H_j K_j'; the within-class scatter seen through the kernel.

    K_j is the column slice of the training Gram matrix for class j, so no
    kernel value is recomputed.
    """
    k_x = as_square(k_x, "K_x")
    if part.n_samples != k_x.shape[0]:
        raise ConfigError(
            f"partition covers {part.n_samples} samples but K_x is {k_x.shape}"
        )
    out = np.zeros_like(k_x)
    for idx in part.index_sets:
        block = k_x[:, idx]
        centered = block - block.mean(axis=1, keepdims=True)
        out += centered @ centered.T
    return sym(out)


def kernel_constraint_matrix(n_mat, k_x, r2: float) -> np.ndarray:
    """L = r2 * N + (1 - r2) * K_x."""
    n_mat = as_square(n_mat, "N")
    k_x = as_square(k_x, "K_x")
    if n_mat.shape != k_x.shape:
        raise ConfigError(f"shape mismatch: N is {n_mat.shape}, K_x is {k_x.shape}")
    if not 0.0 <= r2 <= 1.0:
        raise ConfigError(f"r2 must lie in [0, 1], got {r2}")
    if r2 == 0.0:
        return sym(k_x)
    if r2 == 1.0:
        return sym(n_mat)
    return sym(r2 * n_mat + (1.0 - r2) * k_x)


def fit_direct(x, labels, config: RoweisConfig, kernel: kernels.KernelSpec) -> KernelRdaModel:
    """Representation-theory fit, valid on the whole (r1, r2) square."""
    r1, r2 = config.r1, config.r2
    x, labels = _fit_inputs(x, labels, r1, r2)
    n = x.shape[1]

    kernel = kernels.resolve_gamma(kernel, x)
    k_x = sym(kernels.gram(kernel, x, x))

    if r1 > 0:
        resolved_label = _resolved_label_kernel(config.label_kernel, labels)
        p_mat = blend_label_kernel(kernels.label_gram(resolved_label, labels, labels), r1)
    else:
        resolved_label, p_mat = None, np.eye(n)
    m_mat = kernel_objective_matrix(k_x, p_mat)
    del p_mat

    n_classes = None
    if r2 > 0:
        part = ClassPartition.from_labels(labels)
        n_classes = part.n_classes
        l_mat = kernel_constraint_matrix(kernel_within_scatter(k_x, part), k_x, r2)
    else:
        l_mat = k_x
    del k_x

    pair = generalized_eig(m_mat, l_mat, config.reg)
    valid = count_valid(pair.values, config.valid_eig_threshold)
    if valid == 0:
        raise NumericalError("no positive eigenvalues; the kernel carries no usable variance")
    cap = min(n, n_classes) - 1 if r2 == 1.0 else n - 1
    p, notes = _select_dimension(pair.values, valid, cap, config)

    return KernelRdaModel(
        variant="direct",
        coeffs=pair.vectors[:, :p].copy(),
        eigvals=pair.values[:p].copy(),
        train_x=x.copy(),
        kernel=kernel,
        r1=r1,
        r2=r2,
        label_kernel=resolved_label,
        shift=pair.shift,
        notes=tuple(notes),
    )


def _leading_directions(pair, p: int | None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(right vectors, sigma, notes) of the first p eigendirections whose
    singular value is numerically trustworthy (all of them for p=None)."""
    values = np.clip(pair.values, 0.0, None)
    if values.size == 0 or values[0] <= 0.0:
        raise NumericalError("no positive eigenvalues; the centered kernel is degenerate")
    sigma = np.sqrt(values)
    # sigma is non-increasing, so the trustworthy directions lead.
    p, notes = _first_usable(p, int(np.count_nonzero(sigma >= TRICK_SINGULAR_RTOL * sigma[0])))
    return pair.vectors[:, :p], sigma[:p], notes


def fit_kernel_pca(x, kernel: kernels.KernelSpec, p: int | None = None) -> KernelRdaModel:
    """Kernel-trick fit of the (0, 0) corner.

    Eigendecomposes the double-centered training Gram matrix; the training
    embedding is sigma * V' and new points go through the centered
    train-vs-new kernel.
    """
    x, _ = _fit_inputs(x, None, 0.0, 0.0)
    kernel = kernels.resolve_gamma(kernel, x)
    k_x = sym(kernels.gram(kernel, x, x))
    right, sigma, notes = _leading_directions(symmetric_eig(kernels.double_center(k_x)), p)
    return KernelRdaModel(
        variant="trick_pca",
        coeffs=right / sigma[None, :],
        eigvals=sigma**2,
        train_x=x.copy(),
        kernel=kernel,
        r1=0.0,
        r2=0.0,
        right_vectors=right.copy(),
        sigma=sigma.copy(),
        notes=notes,
    )


def fit_kernel_spca(
    x,
    labels,
    kernel_x: kernels.KernelSpec,
    kernel_y: kernels.KernelSpec | None = None,
    p: int | None = None,
) -> KernelRdaModel:
    """Kernel-trick fit of the (1, 0) corner.

    Factors the label kernel as Upsilon Upsilon' (the n x c class indicator
    for class labels) and eigendecomposes Upsilon' Kc Upsilon, the small-side
    square of the feature-space factor Phi_c(X) Upsilon.
    """
    x, labels = _fit_inputs(x, labels, 1.0, 0.0)
    kernel_x = kernels.resolve_gamma(kernel_x, x)
    spec_y = _resolved_label_kernel(kernel_y, labels)
    k_x = sym(kernels.gram(kernel_x, x, x))
    upsilon = label_factor(spec_y, labels)
    core = sym(upsilon.T @ kernels.double_center(k_x) @ upsilon)
    right, sigma, notes = _leading_directions(symmetric_eig(core), p)
    return KernelRdaModel(
        variant="trick_spca",
        coeffs=(upsilon @ right) / sigma[None, :],
        eigvals=sigma**2,
        train_x=x.copy(),
        kernel=kernel_x,
        r1=1.0,
        r2=0.0,
        label_kernel=spec_y,
        right_vectors=right.copy(),
        sigma=sigma.copy(),
        upsilon=upsilon.copy(),
        notes=notes,
    )


def project(model: KernelRdaModel, x_any) -> np.ndarray:
    """Embed new points through the kernel against the training matrix.

    The train-vs-new kernel is built, centered and multiplied out
    PROJECT_BLOCK columns at a time, so memory stays O(n_train * PROJECT_BLOCK)
    whatever the number of new points.
    """
    x_any = as_features(x_any, model.train_x.shape[0])
    out = np.empty((model.n_components, x_any.shape[1]))
    for start in range(0, x_any.shape[1], PROJECT_BLOCK):
        cols = slice(start, start + PROJECT_BLOCK)
        k_new = kernels.gram(model.kernel, model.train_x, x_any[:, cols])
        if model.variant != "direct":
            # kernels.center_test_kernel's arithmetic, in place, on the
            # training statistics computed once per model.
            row_means, grand_mean = model.train_centering
            k_new -= k_new.mean(axis=0, keepdims=True)
            k_new -= row_means
            k_new += grand_mean
        out[:, cols] = model.coeffs.T @ k_new
    return out

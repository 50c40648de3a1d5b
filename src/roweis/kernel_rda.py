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

Embeddings of new points use the kernel between the retained training matrix
and the new points; the trick variants center that kernel with training
statistics so the embedding agrees with projecting mean-centered feature
vectors. No reconstruction is offered: it would need the pulled training
data, which a kernel never exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._util import as_finite_matrix, as_matrix, as_square, sym
from .exceptions import ConfigError, NumericalError
from .linalg import RegPolicy, generalized_eig, symmetric_eig
from .rda import (
    RoweisConfig,
    blend_label_kernel,
    choose_dimensionality,
    count_valid,
    default_label_kernel,
    label_factor,
)
from .scatter import ClassPartition

# Trick-variant directions with singular value below this fraction of the
# largest are numerically meaningless (the projection divides by sigma).
TRICK_SINGULAR_RTOL = 1e-6


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
    def n_train(self) -> int:
        return int(self.train_x.shape[1])

    @property
    def n_components(self) -> int:
        return int(self.coeffs.shape[1])


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
    x = as_finite_matrix(x, "X")
    d, n = x.shape
    if n < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {n}")
    r1, r2 = config.r1, config.r2
    if (r1 > 0 or r2 > 0) and labels is None:
        raise ConfigError("labels are required when r1 > 0 or r2 > 0")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ConfigError(f"labels must have length n={n}, got shape {labels.shape}")
    if r2 > 0 and not kernels.is_categorical(labels):
        raise ConfigError(
            "r2 > 0 uses the within-class scatter, which needs class labels; "
            "got real-valued targets"
        )

    kernel = kernels.resolve_gamma(kernel, x)
    k_x = sym(kernels.gram(kernel, x, x))

    resolved_label = None
    if r1 > 0:
        spec = config.label_kernel or default_label_kernel(labels)
        resolved_label = kernels.resolve_label_kernel(spec, labels)
        k_y = kernels.label_gram(resolved_label, labels, labels)
        p_mat = blend_label_kernel(k_y, r1)
    else:
        p_mat = np.eye(n)
    m_mat = kernel_objective_matrix(k_x, p_mat)

    n_classes = None
    if r2 > 0:
        part = ClassPartition.from_labels(labels)
        n_classes = part.n_classes
        l_mat = kernel_constraint_matrix(kernel_within_scatter(k_x, part), k_x, r2)
    else:
        l_mat = k_x

    pair = generalized_eig(m_mat, l_mat, config.reg)
    valid = count_valid(pair.values, config.valid_eig_threshold)
    if valid == 0:
        raise NumericalError("no positive eigenvalues; the kernel carries no usable variance")
    cap = min(n, n_classes) - 1 if r2 == 1.0 else n - 1

    notes = []
    if config.p is not None:
        p = config.p
        if p > cap:
            notes.append(f"requested p={p} exceeds the rank bound {cap}; truncated")
            p = cap
    else:
        usable = max(min(valid, cap), 1)
        p = min(choose_dimensionality(np.clip(pair.values, 0.0, None), config.auto_dim_ratio), usable)

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


def _positive_directions(pair, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep eigendirections whose singular value is numerically trustworthy."""
    values = np.clip(pair.values, 0.0, None)
    if values.size == 0 or values[0] <= 0.0:
        raise NumericalError("no positive eigenvalues; the centered kernel is degenerate")
    sigma = np.sqrt(values)
    keep = sigma >= TRICK_SINGULAR_RTOL * sigma[0]
    return pair.vectors[:, keep], sigma[keep]


def fit_kernel_pca(x, kernel: kernels.KernelSpec, p: int | None = None) -> KernelRdaModel:
    """Kernel-trick fit of the (0, 0) corner.

    Eigendecomposes the double-centered training Gram matrix; the training
    embedding is sigma * V' and new points go through the centered
    train-vs-new kernel.
    """
    x = as_finite_matrix(x, "X")
    if x.shape[1] < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {x.shape[1]}")
    kernel = kernels.resolve_gamma(kernel, x)
    k_x = sym(kernels.gram(kernel, x, x))
    pair = symmetric_eig(kernels.double_center(k_x))
    right, sigma = _positive_directions(pair, x.shape[1])
    right, sigma, notes = _truncate_trick(right, sigma, p)
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
    x = as_finite_matrix(x, "X")
    n = x.shape[1]
    if n < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {n}")
    if labels is None:
        raise ConfigError("labels are required for the supervised corner")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ConfigError(f"labels must have length n={n}, got shape {labels.shape}")

    kernel_x = kernels.resolve_gamma(kernel_x, x)
    spec_y = kernels.resolve_label_kernel(kernel_y or default_label_kernel(labels), labels)
    k_x = sym(kernels.gram(kernel_x, x, x))
    upsilon = label_factor(spec_y, labels)
    core = sym(upsilon.T @ kernels.double_center(k_x) @ upsilon)
    pair = symmetric_eig(core)
    right, sigma = _positive_directions(pair, n)
    right, sigma, notes = _truncate_trick(right, sigma, p)
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


def _truncate_trick(right, sigma, p):
    notes = []
    if p is not None:
        if p < 1:
            raise ConfigError(f"p must be a positive integer, got {p}")
        if p > sigma.size:
            notes.append(f"requested p={p} exceeds the {sigma.size} usable directions; truncated")
            p = sigma.size
        right = right[:, :p]
        sigma = sigma[:p]
    return right, sigma, tuple(notes)


def project(model: KernelRdaModel, x_any) -> np.ndarray:
    """Embed new points through the kernel against the training matrix."""
    x_any = as_matrix(x_any, "X")
    if x_any.shape[0] != model.train_x.shape[0]:
        raise ConfigError(
            f"model expects {model.train_x.shape[0]} features, data has {x_any.shape[0]}"
        )
    k_new = kernels.gram(model.kernel, model.train_x, x_any)
    if model.variant != "direct":
        k_train = sym(kernels.gram(model.kernel, model.train_x, model.train_x))
        k_new = kernels.center_test_kernel(k_train, k_new)
    return model.coeffs.T @ k_new

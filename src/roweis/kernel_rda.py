"""Kernelized two-factor subspace learning.

Two routes into the feature space:

* The direct method writes every feature-space direction as a combination of
  the pulled training points, phi(u) = Phi(X) theta, which turns the primal
  problem into the n x n generalized eigenproblem (M, L) with

      M = K_x (H P H) K_x = (K_x H) P (K_x H)',
      L = r2 * N + (1 - r2) * K_x,      N = sum_j K_j H_j K_j',

  where K_j collects the Gram columns of class j and H_j centers within the
  class (Mika et al. 1999, "Fisher discriminant analysis with kernels").
  It is solved in K_x's numerical range. One eigh(K_x) per training set
  keeps the m eigenpairs (V_m, lambda_m) with |lambda| above
  EIG_NOISE_RTOL of the largest. With G = V_m' K_x = Lambda_m V_m' and
  theta = V_m z, the problem is m x m: V_m' M V_m and V_m' L V_m (with
  the diagonal metric lambda_m) are :func:`roweis.rda.objective` and
  :func:`roweis.rda.constraint` of the class moments of G H, so class
  labels need no n x n P (V_m' N V_m is S_W of G H). At r2 = 0 L is
  diag(lambda_m) itself, which the solver takes as the vector lambda_m and
  factors in closed form, 1 / sqrt(lambda_m + shift), so those solves
  scale instead of multiplying by an m x m factor. L is 0 on the
  other n - m dimensions, a zero complement, so the solve shifts as the
  n x n one does (Schoelkopf et al. 1999, "Input space versus feature space
  in kernel-based methods"). This works for every (r1, r2). Coefficients
  are theta = V_m z. It saves work when K_x has low numerical rank (m much
  smaller than n); at full rank it is the n x n problem in another basis,
  plus the eigh, and V_m is held beside the solve.

* The kernel-trick method exists for the two corners r1 = 0 (kernel PCA) and
  r1 = 1 (kernel SPCA) of the r2 = 0 edge, where the data appear only
  through inner products. Both solve the core Upsilon' Kc Upsilon with
  :func:`roweis.linalg.symmetric_eig`: kernel PCA takes Upsilon = I, kernel
  SPCA factors K_y = Upsilon Upsilon'. For class labels Upsilon is the n x c
  class-indicator matrix, so the core is c x c. Any other label kernel, such
  as the RBF over real targets, is built as a dense n x n matrix and factored
  through its eigendecomposition.

Every fit keeps the components :func:`roweis.rda.select_components` allows
on its eigenvalues (sigma^2 for the trick fits), as the primal fit does. The
direct fit's rank cap is min(n, c) - 1 at r2 = 1 and n - 1 otherwise, and
it has at most m eigenvalues; the trick fits have no cap beyond the order
of their core. So at r1 = 1 with two classes, where M has rank one, the
direct fit returns one component: the directions of M's null space are set
by round-off alone.

One training set is fitted at many (r1, r2) by :func:`fit_direct_grid`
(:func:`fit_direct` is its one-config case): the input check, the
bandwidths, K_x, its eigh and the moments of G H once, then
:func:`roweis.rda._solve_grid` with the metric lambda_m, the zero
complement and the lift V_m.

Every model embeds new points as coeffs' k(X, x) - offset, k(X, x) the kernel
between the retained training matrix and the new points; the direct fit's
offset is 0.0. The trick fits center k(X, x) with the training Gram's row
means r and grand mean g (Schoelkopf, Smola & Mueller 1998), a fixed affine
map: C' (k - colmeans(k) - r + g) = (H C)' k - (H C)' r for raw coefficients
C. :func:`fold_centering` folds it into coeffs = H C and offset = (H C)' r
once, at the fit and at load, so projecting builds no training Gram.
:func:`project` works PROJECT_BLOCK new points at a time, and
:func:`project_grid` builds each block once for all the models of a grid.
No reconstruction is offered: it would need the pulled training data, which
a kernel never exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from ._util import as_features, sym, sym_in_place
from .exceptions import ConfigError
from .linalg import EIG_NOISE_RTOL, _numerical, symmetric_eig
from .rda import RoweisConfig, _fit_inputs, _held_moments, _solve_grid, label_factor, select_components

# New points embedded at a time by project; keep it a multiple of 64. BLAS
# picks its kernel by the product's shape, so a block's columns can differ
# from those of one product over all points in the last bits. With OpenBLAS
# on one thread, for 700 training points and 4000 new points, 1024 gave
# bitwise equal embeddings at p = 1, 2 and 70; 512 did at p = 1 and 70 only;
# 3 and 374 did at none of them.
PROJECT_BLOCK = 1024


@dataclass(frozen=True)
class KernelRdaModel:
    """Fitted feature-space subspace: new points x embed as coeffs' k(X, x)
    minus offset. The trick variants keep their raw pieces (right_vectors,
    sigma, and the label-kernel factor upsilon), which their files hold.
    """

    variant: str  # kernel-direct | kernel-pca | kernel-spca
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
    offset: np.ndarray | float = 0.0

    @property
    def n_components(self) -> int:
        return int(self.coeffs.shape[1])


def fit_direct(x, labels, config: RoweisConfig, kernel: kernels.KernelSpec) -> KernelRdaModel:
    """Representation-theory fit, valid on the whole (r1, r2) square.

    The one-config case of :func:`fit_direct_grid`.
    """
    return fit_direct_grid(x, labels, [config], kernel)[0]


def fit_direct_grid(x, labels, configs, kernel: kernels.KernelSpec) -> list[KernelRdaModel]:
    """Direct fits of one training set at every config, in the configs' order.

    Each result equals :func:`fit_direct` at its config bit for bit. The
    work the configs share is done once (see the module docstring); the
    inputs are checked against the largest r1 and r2, and every model shares
    one copy of the training matrix. No config may be robust.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("fit_direct_grid needs at least one config")
    if any(config.robust for config in configs):
        raise ConfigError("the kernel direct fit has no robust form; robust=True applies to rda.fit only")
    x, labels = _fit_inputs(x, labels, max(c.r1 for c in configs), max(c.r2 for c in configs))
    n = x.shape[1]

    kernel = kernels.resolve_gamma(kernel, x)
    train_x = x.copy()
    vectors, values, coords = _gram_range(kernel, x)
    moments, _, ids, coords = _held_moments(coords, labels, configs)  # ids: the classes, keyed for r2 = 1
    solved = _solve_grid(moments, labels, configs, lambda r2: ids.size - 1 if r2 == 1.0 else n - 1, coords,
                         lift=vectors, metric=values, count=n - values.size)
    return [KernelRdaModel(variant="kernel-direct", coeffs=pair.vectors, eigvals=pair.values, train_x=train_x,
                           kernel=kernel, r1=config.r1, r2=config.r2, label_kernel=spec, shift=pair.shift,
                           notes=notes)
            for config, (pair, _, notes, spec) in zip(configs, solved)]


def _gram_range(kernel: kernels.KernelSpec, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V_m, lambda_m, G H): K_x's eigenpairs with |lambda| above
    EIG_NOISE_RTOL of the largest, and G = V_m' K_x = Lambda_m V_m' with its
    rows centered. G H is taken as V_m' (K_x H), so constant data, whose
    K_x H is exactly 0, give G H = 0 and no components, as the n x n solve
    did. K_x is centered in place and dies here. It is symmetrized as a
    copy: symmetrized in place, the experiments bundle's max RSS rose by
    0.5 MB (n = 280, malloc's heap layout around this eigh), while the
    direct fit on n = 700 gained only 0.2 MB."""
    k_x = sym(kernels.gram(kernel, x, x))
    with _numerical("fit_direct_grid"):
        values, vectors = np.linalg.eigh(k_x)
    keep = np.abs(values) > EIG_NOISE_RTOL * np.abs(values).max()
    values, vectors = values[keep], vectors[:, keep]
    k_x -= k_x.mean(axis=1, keepdims=True)
    return vectors, values, vectors.T @ k_x


def fit_kernel_pca(x, kernel: kernels.KernelSpec, p: int | None = None) -> KernelRdaModel:
    """Kernel-trick fit of the (0, 0) corner: the unlabeled case of :func:`_fit_trick`."""
    return _fit_trick(x, None, RoweisConfig(0.0, 0.0, p), kernel)


def fit_kernel_spca(
    x,
    labels,
    kernel_x: kernels.KernelSpec,
    kernel_y: kernels.KernelSpec | None = None,
    p: int | None = None,
) -> KernelRdaModel:
    """Kernel-trick fit of the (1, 0) corner: the labeled case of :func:`_fit_trick`."""
    return _fit_trick(x, labels, RoweisConfig(1.0, 0.0, p, kernel_y), kernel_x)


def fold_centering(right, sigma, upsilon, row_means) -> tuple[np.ndarray, np.ndarray]:
    """(H C, (H C)' r) for a trick fit's raw coefficients C = Upsilon V / sigma
    (V / sigma without Upsilon) and r its training Gram's row means; see the
    module docstring. Centering Upsilon before the product rounds less."""
    if upsilon is None:
        coeffs = right - right.mean(axis=0)
    else:
        coeffs = (upsilon - upsilon.mean(axis=0)) @ right
    coeffs /= sigma
    return coeffs, row_means @ coeffs


def _fit_trick(x, labels, config: RoweisConfig, kernel) -> KernelRdaModel:
    """The kernel-trick fit at ``config``'s (r1, 0): kernel PCA without
    labels (r1 = 0), kernel SPCA with them (r1 = 1). Solves the core
    Upsilon' Kc Upsilon = V diag(sigma^2) V' and keeps the components
    select_components allows on sigma^2. The training embedding is sigma * V'.
    """
    x, labels = _fit_inputs(x, labels, config.r1, 0.0)
    kernel = kernels.resolve_gamma(kernel, x)
    gram = sym_in_place(kernels.gram(kernel, x, x))
    row_means = gram.mean(axis=1)
    # core is a one-item list, so symmetric_eig gets the centered Gram (or
    # Upsilon' Kc Upsilon) with no reference kept here, and can free it.
    core = [kernels.double_center(gram)]
    del gram
    upsilon = label_kernel = None
    if labels is not None:
        label_kernel = kernels.resolve_label_kernel(config.label_kernel, labels)
        upsilon = label_factor(label_kernel, labels)
        core = [sym_in_place(upsilon.T @ core.pop() @ upsilon)]
    pair = symmetric_eig(core.pop())
    sigma = np.sqrt(np.clip(pair.values, 0.0, None))
    p, notes = select_components(sigma**2, sigma.size, config.p)
    right, sigma = pair.vectors[:, :p].copy(), sigma[:p].copy()
    coeffs, offset = fold_centering(right, sigma, upsilon, row_means)
    return KernelRdaModel(
        variant="kernel-pca" if upsilon is None else "kernel-spca",
        coeffs=coeffs,
        eigvals=sigma**2,
        train_x=x.copy(),
        kernel=kernel,
        r1=config.r1,
        r2=0.0,
        label_kernel=label_kernel,
        right_vectors=right,
        sigma=sigma,
        upsilon=upsilon,
        notes=notes,
        offset=offset,
    )


def project(model: KernelRdaModel, x_any) -> np.ndarray:
    """Embed new points through the kernel against the training matrix.

    The one-model case of :func:`project_grid`.
    """
    return project_grid([model], x_any)[0]


def project_grid(models, x_any) -> list[np.ndarray]:
    """Embed new points with every model of a grid fitted on one training set.

    The models must share the training matrix and the kernel, as the models
    of :func:`fit_direct_grid` do. The train-vs-new kernel is built
    PROJECT_BLOCK columns at a time, once per block for all the models, and
    each model multiplies it out and subtracts its offset, so memory stays
    O(n_train * PROJECT_BLOCK) whatever the number of new points. Each
    embedding equals the model's own :func:`project` bit for bit.
    """
    models = list(models)
    if not models:
        raise ConfigError("project_grid needs at least one model")
    first = models[0]
    for model in models[1:]:
        if model.kernel != first.kernel or not (
            model.train_x is first.train_x or np.array_equal(model.train_x, first.train_x)
        ):
            raise ConfigError("project_grid needs models fitted on one training set with one kernel")
    x_any = as_features(x_any, first.train_x.shape[0])
    outs = [np.empty((model.n_components, x_any.shape[1])) for model in models]
    for start in range(0, x_any.shape[1], PROJECT_BLOCK):
        cols = slice(start, start + PROJECT_BLOCK)
        k_new = kernels.gram(first.kernel, first.train_x, x_any[:, cols])
        for model, out in zip(models, outs):
            out[:, cols] = model.coeffs.T @ k_new
            out[:, cols] -= np.reshape(model.offset, (-1, 1))
    return outs

"""Reference code the tests compare the package against.

* ``centering_matrix``, ``total_scatter``, ``class_means``,
  ``between_scatter``, ``xor_class`` and ``objective_matrix`` (the dense
  R1 = Xc P Xc') were library functions that nothing in the package called;
  they live on here as test oracles.
* ``ClassPartition`` is the grouping of samples by label that the package
  built and passed along before ``within_scatter`` took the labels
  themselves; ``class_means``, ``between_scatter`` and
  ``kernel_within_scatter`` take it.
* ``kernel_within_scatter`` is the kernel direct fit's own copy of the
  within-class scatter loop, which it later took from ``within_scatter``;
  the two agree bit for bit.
* ``constraint_matrix`` (R2 = r2 S_W + (1 - r2) I) and
  ``kernel_constraint_matrix`` (L = r2 N + (1 - r2) K_x) are the two
  constraint builders from a given scatter that ``rda.constraint`` replaced;
  it must give their bits from the data and the labels.
* ``symmetric_eig`` and ``generalized_eig`` are the eigensolvers as they were
  before they stopped copying their inputs (no ``sym`` of an exactly
  symmetric matrix, no n x n identity for the shift), on the package's
  shift ladder constants. ``symmetric_eig`` must match the package bit for
  bit. ``generalized_eig`` solves against the Cholesky factor with three
  ``np.linalg.solve`` calls, where the package multiplies by the factor's
  inverse; the package must give its shift bit for bit and its spectrum,
  separated components and ``U' B' U = I`` within tolerances.
* ``squared_distances`` and ``gram`` are the kernel builders as they were
  before they worked in place; the package must match them bit for bit. So
  must ``double_center``, which now works in place too.
* ``median_heuristic_gamma`` is the package's bandwidth with its median
  taken by ``np.median``, which the package no longer calls (it imports
  ``numpy.ma``), on this file's ``squared_distances``; the package must
  give its bits.
* ``sym_copying``, ``squared_distances_copying``, ``double_center_copying``
  and ``median_heuristic_gamma_copying`` are ``_util.sym`` and the kernel
  builders as they were before the kernel fits kept one n x n array: the
  symmetrized copy, the norms' sum and the doubled product as two
  result-sized arrays, the centered copy of K, and the bandwidth over
  ``np.triu_indices``' index arrays and a copy of the positive distances.
  ``_util.sym_in_place``, ``kernels.squared_distances``,
  ``kernels.double_center`` and ``kernels.median_heuristic_gamma`` must
  give their bits.
* ``blend_label_kernel`` is P = r1 K_y + (1 - r1) I, the dense label side of
  the objective that ``rda.objective`` built for real-valued targets before
  it blended (Xc K_y) Xc' with Xc Xc'.
* ``delta_kernel`` is the dense n x n label-equality kernel the package
  built before every delta label kernel went through its exact factor,
  ``kernels.class_indicator``, and ``label_gram`` the package's
  ``kernels.label_gram`` with the delta branch it had then: the dense K_y
  of any label kernel.
* ``label_term`` is the label term ``rda.objective`` takes beside the class
  moments for a resolved label kernel: nothing for the delta kernel, whose
  term comes from the class sums, and K_y otherwise, as its keywords.
* ``within_scatter`` is the package's within-class scatter loop as it was
  before one pass of class statistics (``scatter.class_moments``) gave
  every fit its S_W; the pass must agree with it to round-off.
* ``fit_dual``, ``fit_kernel_pca`` and ``fit_kernel_spca`` are the dual and
  kernel-trick fits as they were before they shared one small-side solve
  (``leading_directions``, since folded into ``kernel_rda._fit_trick``) and
  one component rule (``roweis.rda.select_components``): the dual's own
  factor W = [sqrt(r1) Xc Upsilon, sqrt(1 - r1) Xc], its W'W branch (basis W V /
  sigma) and its truncated SVD of W (``incomplete_svd``), the trick fits'
  ``_leading_directions``, which zeroed no eigensolver noise before the
  square root, and their own cuts (singular values below 1e-10 and 1e-6 of
  the largest). The trick fits return at most their columns, each with
  their eigenpair bit for bit, and fold them into coeffs and offset with
  the package's ``kernel_rda.fold_centering``, as a loaded model file is.
  The package's dual fit is now ``rda.fit`` at r2 = 0 and must agree with
  this one within tolerances, on the components the one rule keeps.
* ``project_kernel`` is kernel-model projection as one product over all new
  points. For the trick variants it takes the raw coefficients
  Upsilon V / sigma against the new points' kernel centered by
  ``center_test_kernel`` with the training Gram built on every call: the
  formula the blocked ``kernel_rda.project``, which subtracts the folded
  offset instead, is checked against.
* ``fit_direct`` is the kernel direct fit of one config as the dense n x n
  shifted solve (M, L) it was before ``kernel_rda.fit_direct_grid`` moved
  into K_x's numerical range, on the package's ``rda.objective``,
  ``generalized_eig`` and ``select_components``. The package must agree with
  it within tolerances: its embeddings, spectrum and shift, and exactly in
  dims and notes. ``kernel_objective_matrix`` is the dense
  M = K_x (H P H) K_x the package built before ``rda.objective`` took over;
  ``rda.objective`` of K_x H must agree with it within round-off.
  ``sweep_rows``, ``regression_benchmark_table`` and ``embedding_panels``
  are the CLI sweep and the experiments as per-config loops over the
  package's one-config ``rda.fit`` and ``kernel_rda.fit_direct``: every
  grid point validates, resolves its bandwidths, builds its Grams and
  label terms and factors its constraint anew, and the table's cells take
  their mean and population standard deviation as the package's one-score
  report did. Below 1024 new points ``project_kernel`` equals the
  blocked projection bit for bit, so these loops give the package's outputs
  byte for byte.
* ``fit_centered`` is the d <= n fit on the centered data Xc, as the
  package's ``"dense"`` route solved it before every d <= n fit took the
  class statistics of X itself: the sample mean, the one pass over Xc
  (``rda._held_moments``) and the package's eigen core, ``rda._solve_grid``.
  Its models record route ``"dense"``. The package must agree with it
  within round-off: its spectrum, mean, shift and separated components,
  and exactly in dims, config and notes.
* ``stratified_train_indices`` is the stratified branch of
  ``datasets.train_test_split`` with the leftover allocation it had before
  it handed one more sample to the leading ``remainder`` classes in one
  step: a loop that skipped full classes and a second loop that took
  samples back when the floors overshot the target. The package must pick
  the same training indices.

Do not change them to match the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from roweis import datasets, evaluate, experiments, kernel_rda, kernels, rda
from roweis._util import as_features, as_labels, as_matrix, as_square, classes, sym
from roweis.exceptions import ConfigError, NumericalError
from roweis.linalg import (
    CONSTRAINT_COND_MAX,
    EIG_NOISE_RTOL,
    SHIFT_BASE_SCALE,
    SHIFT_GROWTH,
    SHIFT_MAX_SCALE,
    EigPair,
    _check_psd_spectrum,
    _fix_signs,
    _numerical,
    _sign_flips,
)
from roweis.linalg import factor_constraint
from roweis.linalg import generalized_eig as package_generalized_eig
from roweis.kernel_rda import KernelRdaModel, fold_centering
from roweis.rda import _fit_inputs, label_factor, select_components


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

def objective_matrix(x, p) -> np.ndarray:
    """R1 = Xc P Xc' with Xc centered by its own mean. Reduces to the total
    scatter when P = I."""
    x = as_matrix(x, "X")
    p = as_square(p, "P")
    if p.shape[0] != x.shape[1]:
        raise ConfigError(f"P must be n x n with n={x.shape[1]}, got {p.shape}")
    centered = x - x.mean(axis=1, keepdims=True)
    return sym(centered @ p @ centered.T)


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


def _require_symmetric(a: np.ndarray, name: str) -> None:
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > 1e-10:
        raise ConfigError(f"{name} is not symmetric: max |A - A.T| = {gap:.3e} > {1e-10:.1e}")


@_numerical("symmetric_eig")
def symmetric_eig(a) -> EigPair:
    a = as_square(a, "A")
    _require_symmetric(a, "A")
    values, vectors = np.linalg.eigh(_sym(a))
    values = values[::-1].copy()
    vectors = _fix_signs(vectors[:, ::-1].copy())
    return EigPair(vectors=vectors, values=values)


def _shift_unit(b: np.ndarray, complement=None) -> float:
    """B's mean diagonal, complement included; 1.0 if not positive, so a shift exists."""
    trace, order = float(np.trace(b)), b.shape[0]
    if complement is not None:
        trace += complement.value * complement.count
        order += complement.count
    mean_diag = trace / order
    return mean_diag if mean_diag > 0.0 else 1.0


@_numerical("generalized_eig")
def generalized_eig(a, b, complement=None) -> EigPair:
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

    unit = _shift_unit(b_s, complement)
    candidates = [0.0]
    shift = SHIFT_BASE_SCALE * unit
    while shift <= SHIFT_MAX_SCALE * unit * (1.0 + 1e-12):
        candidates.append(shift)
        shift *= SHIFT_GROWTH

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


def median_heuristic_gamma(x) -> float:
    x = as_matrix(x, "X")
    n = x.shape[1]
    if n < 2:
        return 1.0
    i, j = np.triu_indices(n, k=1)
    pairs = squared_distances(x, x)[i, j]
    near = np.flatnonzero(pairs <= kernels.NEAR_RTOL * 2.0 * float(np.max(np.sum(x * x, axis=0))))
    diff = x[:, i[near]] - x[:, j[near]]
    pairs[near] = np.sum(diff * diff, axis=0)
    dists = np.sqrt(pairs)
    positive = dists[dists > 0.0]
    if positive.size == 0:
        return 1.0
    med = float(np.median(positive))
    return 1.0 / (2.0 * med * med)


def double_center(k) -> np.ndarray:
    k = as_square(k, "K")
    return k - k.mean(axis=1, keepdims=True) - k.mean(axis=0, keepdims=True) + k.mean()


# ---------------------------------------------------------------- kernel builders that copy

def sym_copying(a: np.ndarray) -> np.ndarray:
    out = a + a.T
    out *= 0.5
    return out


def squared_distances_copying(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a * a, axis=0)[:, None] + np.sum(b * b, axis=0)[None, :]
    cross = a.T @ b
    cross *= 2.0
    sq -= cross
    del cross
    return np.clip(sq, 0.0, None, out=sq)


def double_center_copying(k) -> np.ndarray:
    k = as_square(k, "K")
    row = k.mean(axis=1, keepdims=True)
    col = k.mean(axis=0, keepdims=True)
    out = k - row
    out -= col
    out += k.mean()
    return out


def median_heuristic_gamma_copying(x) -> float:
    x = as_matrix(x, "X")
    n = x.shape[1]
    if n < 2:
        return 1.0
    d2 = squared_distances_copying(x, x)
    i, j = np.triu_indices(n, k=1)
    pairs = d2[i, j]
    del d2
    near = np.flatnonzero(pairs <= kernels.NEAR_RTOL * 2.0 * float(np.max(np.sum(x * x, axis=0))))
    for start in range(0, near.size, kernels.NEAR_BLOCK):
        block = near[start:start + kernels.NEAR_BLOCK]
        diff = x[:, i[block]] - x[:, j[block]]
        pairs[block] = np.sum(diff * diff, axis=0)
    dists = np.sqrt(pairs, out=pairs)
    positive = dists[dists > 0.0]
    if positive.size == 0:
        return 1.0
    low, high = (positive.size - 1) // 2, positive.size // 2
    med = float(np.partition(positive, (low, high))[low:high + 1].mean())
    return 1.0 / (2.0 * med * med)


def blend_label_kernel(k_y, r1: float) -> np.ndarray:
    if r1 == 0.0:
        return np.eye(k_y.shape[0])
    if r1 == 1.0:
        return _sym(k_y)
    return _sym(r1 * k_y + (1.0 - r1) * np.eye(k_y.shape[0]))


def delta_kernel(y1, y2) -> np.ndarray:
    return (np.asarray(y1)[:, None] == np.asarray(y2)[None, :]).astype(float)


def label_gram(spec, y1, y2) -> np.ndarray:
    if spec.family == "delta":
        return delta_kernel(y1, y2)
    return kernels.label_gram(spec, y1, y2)


def label_term(spec, labels) -> dict:
    if spec is None or spec.family == "delta":
        return {}
    return {"gram": kernels.label_gram(spec, labels, labels)}


def kernel_objective_matrix(k_x, p) -> np.ndarray:
    return _sym(k_x @ double_center(p) @ k_x)


def constraint_matrix(s_w, r2: float) -> np.ndarray:
    s_w = as_square(s_w, "S_W")
    if r2 == 0.0:
        return np.eye(s_w.shape[0])
    if r2 == 1.0:
        return _sym(s_w)
    return _sym(r2 * s_w + (1.0 - r2) * np.eye(s_w.shape[0]))


def kernel_constraint_matrix(n_mat, k_x, r2: float) -> np.ndarray:
    if r2 == 0.0:
        return _sym(k_x)
    if r2 == 1.0:
        return _sym(n_mat)
    return _sym(r2 * n_mat + (1.0 - r2) * k_x)


def center_test_kernel(k_train, k_test) -> np.ndarray:
    """Center a train-vs-test kernel with training statistics.

    For an explicit feature map phi this reproduces the inner products of the
    train-mean-centered features, phi_c(X).T @ phi_c(X_t).
    """
    k_train = as_square(k_train, "K_train")
    k_test = as_matrix(k_test, "K_test")
    if k_test.shape[0] != k_train.shape[0]:
        raise ConfigError(
            f"shape mismatch: K_train is {k_train.shape}, K_test has {k_test.shape[0]} rows"
        )
    col_test = k_test.mean(axis=0, keepdims=True)
    row_train = k_train.mean(axis=1, keepdims=True)
    return k_test - col_test - row_train + k_train.mean()


def project_kernel(model, x_any) -> np.ndarray:
    """coeffs' K_new over all new points at once for the direct variant; for
    the trick variants the raw coefficients Upsilon V / sigma against K_new
    centered with the training Gram."""
    x_any = as_features(x_any, model.train_x.shape[0])
    k_new = gram(model.kernel, model.train_x, x_any)
    if model.variant == "kernel-direct":
        return model.coeffs.T @ k_new
    k_train = _sym(gram(model.kernel, model.train_x, model.train_x))
    right = model.right_vectors if model.upsilon is None else model.upsilon @ model.right_vectors
    return (right / model.sigma[None, :]).T @ center_test_kernel(k_train, k_new)


# ---------------------------------------------------------------- small-side fits

# The dual's cut: singular values below this fraction of the largest.
SINGULAR_RTOL = 1e-10
# The trick fits' cut, coarser because embedding a new point divides by sigma.
TRICK_SINGULAR_RTOL = 1e-6


@dataclass(frozen=True)
class SvdFactor:
    """Truncated singular value decomposition ``W ~ left @ diag(singular) @ right.T``."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray


@_numerical("incomplete_svd")
def incomplete_svd(w, k: int) -> SvdFactor:
    """Rank-k truncated SVD of a rectangular matrix.

    Exact reconstruction when k >= rank(W).
    """
    w = as_matrix(w, "W")
    limit = min(w.shape)
    if not 1 <= k <= limit:
        raise ConfigError(f"k must be in [1, {limit}] for shape {w.shape}, got {k}")
    left, singular, right_t = np.linalg.svd(w, full_matrices=False)
    signs = _sign_flips(left[:, :k])  # the right factor's too, so the product is unchanged
    right = right_t[:k].T.copy() * signs
    return SvdFactor(left=left[:, :k] * signs, singular=singular[:k].copy(), right=right)


def _first_usable(p, usable: int) -> tuple[int, tuple]:
    if p is None:
        return usable, ()
    if p < 1:
        raise ConfigError(f"p must be a positive integer, got {p}")
    if p > usable:
        return usable, (f"requested p={p} exceeds the {usable} usable directions; truncated",)
    return p, ()


def fit_dual(x, labels=None, r1: float = 0.0, p=None, label_kernel=None) -> rda.RdaModel:
    x, labels = _fit_inputs(x, labels, r1, 0.0)
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    if r1 == 0.0:
        w = centered
    else:
        label_kernel = kernels.resolve_label_kernel(label_kernel, labels)
        q = centered @ label_factor(label_kernel, labels)
        w = q if r1 == 1.0 else np.hstack([np.sqrt(r1) * q, np.sqrt(1.0 - r1) * centered])

    if w.shape[1] < x.shape[0]:
        pair = symmetric_eig(w.T @ w)
        values = np.clip(pair.values, 0.0, None)
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
    p, notes = _first_usable(p, int(np.count_nonzero(sigma >= SINGULAR_RTOL * sigma[0])))
    sigma = sigma[:p]
    return rda.RdaModel(
        basis=(w @ right[:, :p]) / sigma[None, :],
        eigvals=sigma**2,
        mean=mean,
        config=rda.RoweisConfig(r1=r1, p=p, label_kernel=label_kernel),
        notes=notes,
        route="dual",
    )


def _leading_directions(pair, p):
    values = np.clip(pair.values, 0.0, None)
    if values.size == 0 or values[0] <= 0.0:
        raise NumericalError("no positive eigenvalues; the centered kernel is degenerate")
    sigma = np.sqrt(values)
    p, notes = _first_usable(p, int(np.count_nonzero(sigma >= TRICK_SINGULAR_RTOL * sigma[0])))
    return pair.vectors[:, :p], sigma[:p], notes


def fit_kernel_pca(x, kernel, p=None) -> KernelRdaModel:
    x, _ = _fit_inputs(x, None, 0.0, 0.0)
    kernel = kernels.resolve_gamma(kernel, x)
    k_x = _sym(gram(kernel, x, x))
    right, sigma, notes = _leading_directions(symmetric_eig(double_center(k_x)), p)
    coeffs, offset = fold_centering(right.copy(), sigma.copy(), None, k_x.mean(axis=1))
    return KernelRdaModel(
        variant="kernel-pca", coeffs=coeffs, eigvals=sigma**2, train_x=x.copy(), kernel=kernel,
        config=rda.RoweisConfig(0.0, 0.0, p=sigma.size), right_vectors=right.copy(), sigma=sigma.copy(),
        notes=notes, offset=offset,
    )


def fit_kernel_spca(x, labels, kernel_x, kernel_y=None, p=None) -> KernelRdaModel:
    x, labels = _fit_inputs(x, labels, 1.0, 0.0)
    kernel_x = kernels.resolve_gamma(kernel_x, x)
    spec_y = kernels.resolve_label_kernel(kernel_y, labels)
    k_x = _sym(gram(kernel_x, x, x))
    upsilon = label_factor(spec_y, labels)
    core = _sym(upsilon.T @ double_center(k_x) @ upsilon)
    right, sigma, notes = _leading_directions(symmetric_eig(core), p)
    coeffs, offset = fold_centering(right.copy(), sigma.copy(), upsilon.copy(), k_x.mean(axis=1))
    return KernelRdaModel(
        variant="kernel-spca", coeffs=coeffs, eigvals=sigma**2, train_x=x.copy(), kernel=kernel_x,
        config=rda.RoweisConfig(1.0, 0.0, p=sigma.size, label_kernel=spec_y), right_vectors=right.copy(),
        sigma=sigma.copy(),
        upsilon=upsilon.copy(), notes=notes, offset=offset,
    )


# ---------------------------------------------------------------- per-config loops

def fit_centered(x, labels, config) -> rda.RdaModel:
    x, labels = _fit_inputs(x, labels, config.r1, config.r2)
    d, n = x.shape
    if n < d:
        raise ConfigError("the centered-data fit is the d <= n oracle")
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    moments, _, _, coords = rda._held_moments(centered, labels, [config])
    solved = rda._solve_grid(moments, labels, [config], lambda r2: min(d, n - 1), coords)
    return rda._models([config], solved, mean, "dense")[0]


def fit_direct(x, labels, config, kernel) -> KernelRdaModel:
    r1, r2 = config.r1, config.r2
    x, labels = _fit_inputs(x, labels, r1, r2)
    n = x.shape[1]

    kernel = kernels.resolve_gamma(kernel, x)
    k_x = _sym(gram(kernel, x, x))

    resolved_label = kernels.resolve_label_kernel(config.label_kernel, labels) if r1 > 0 else None
    k_c = k_x - k_x.mean(axis=1, keepdims=True)
    m_mat = rda.objective(rda._held_moments(k_c, labels, [config])[0], r1, k_c, **label_term(resolved_label, labels))

    n_classes = None
    if r2 > 0:
        part = ClassPartition.from_labels(labels)
        n_classes = part.n_classes
        l_mat = kernel_constraint_matrix(kernel_within_scatter(k_x, part), k_x, r2)
    else:
        l_mat = k_x

    pair = package_generalized_eig(m_mat, factor_constraint(l_mat))
    cap = min(n, n_classes) - 1 if r2 == 1.0 else n - 1
    p, notes = select_components(pair.values, cap, config.p)
    return KernelRdaModel(
        variant="kernel-direct",
        coeffs=pair.vectors[:, :p].copy(),
        eigvals=pair.values[:p].copy(),
        train_x=x.copy(),
        kernel=kernel,
        config=replace(config, p=p, label_kernel=resolved_label),
        shift=pair.shift,
        notes=tuple(notes),
    )


def sweep_rows(variant, train, test, r1_values, r2_values, p, data_kernel, label_kernel) -> list:
    """The rows of ``roweis sweep``: one fit, two projections and one metric per point."""
    rows = []
    for r1 in r1_values:
        for r2 in r2_values:
            config = rda.RoweisConfig(r1=float(r1), r2=float(r2), p=p, label_kernel=label_kernel)
            if variant == "primal":
                model = rda.fit(train.X, train.y, config)
                emb_train, emb_test = rda.project(model, train.X), rda.project(model, test.X)
            else:
                model = kernel_rda.fit_direct(train.X, train.y, config, data_kernel)
                emb_train, emb_test = project_kernel(model, train.X), project_kernel(model, test.X)
            if train.kind == "classification":
                metric, value = "error-rate", evaluate.knn_classify(emb_train, train.y, emb_test, test.y)
            else:
                metric, value = "rmse", evaluate.linear_regression_rmse(emb_train, train.y, emb_test, test.y)
            s = rda.supervision_level(float(r1), float(r2))
            rows.append([repr(float(r1)), repr(float(r2)), repr(s), metric, repr(value)])
    return rows


def _rmse_for_split(train, test, method: str, r1: float) -> float:
    reg_kernel = kernels.KernelSpec(family="rbf")
    config = rda.RoweisConfig(r1=r1, r2=0.0, p=2, label_kernel=reg_kernel)
    if method == "linear":
        model = rda.fit(train.X, train.y if r1 > 0 else None, config)
        emb_train = rda.project(model, train.X)
        emb_test = rda.project(model, test.X)
    else:
        model = kernel_rda.fit_direct(train.X, train.y if r1 > 0 else None, config,
                                      kernels.KernelSpec(family="rbf"))
        emb_train = project_kernel(model, train.X)
        emb_test = project_kernel(model, test.X)
    return evaluate.linear_regression_rmse(emb_train, train.y, emb_test, test.y)


def regression_benchmark_table(bench_ids=(1, 2, 3), r1_values=experiments.BENCH_R1_VALUES,
                               repetitions=50, n=100, train_fraction=0.7, base_seed=0) -> list:
    cells = {(m, r1, b): [] for m in ("linear", "kernel") for r1 in r1_values for b in bench_ids}
    for bench_id in bench_ids:
        for rep in range(repetitions):
            seed = experiments._cell_seed(base_seed, bench_id, rep)
            ds = datasets.gen_regression_benchmark(bench_id, n, seed)
            train, test = datasets.train_test_split(ds, train_fraction, seed)
            for method in ("linear", "kernel"):
                for r1 in r1_values:
                    cells[(method, r1, bench_id)].append(_rmse_for_split(train, test, method, r1))
    out = []
    for (m, r1, b), values in cells.items():
        arr = np.asarray(values, dtype=float)
        out.append(experiments.BenchCell(m, r1, b, tuple(float(v) for v in arr), float(arr.mean()), float(arr.std())))
    return out


def embedding_panels(dataset_name, n=400, seed=7, train_fraction=0.7,
                     r_values=experiments.PANEL_R_VALUES) -> list:
    generate = {"xor": datasets.gen_xor, "rings": datasets.gen_rings}[dataset_name]
    ds = generate(n, seed)
    train, test = datasets.train_test_split(ds, train_fraction, seed)
    kernel = kernels.resolve_gamma(kernels.KernelSpec(family="rbf"), train.X)
    panels = []
    for r1 in r_values:
        for r2 in r_values:
            config = rda.RoweisConfig(r1=r1, r2=r2, p=2)
            model = kernel_rda.fit_direct(train.X, train.y, config, kernel)
            panels.append(experiments.Panel(
                dataset=dataset_name, config=config,
                train_emb=project_kernel(model, train.X), test_emb=project_kernel(model, test.X),
                train_y=train.y, test_y=test.y,
            ))
    return panels


# ---------------------------------------------------------------- datasets

def stratified_train_indices(labels, train_fraction: float, seed: int) -> np.ndarray:
    """Sorted training indices of a stratified split (every class with at
    least two members), leftover slots allocated one class at a time."""
    labels = np.asarray(labels)
    n = labels.size
    rng = np.random.default_rng(seed)
    target = min(max(int(np.floor(train_fraction * n + 0.5)), 1), n - 1)
    ids, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse)
    exact = train_fraction * counts
    takes = np.floor(exact).astype(int)
    remainder = target - int(takes.sum())
    if remainder > 0:
        for j in np.argsort(-(exact - takes), kind="stable"):
            if remainder == 0:
                break
            if takes[j] < counts[j]:
                takes[j] += 1
                remainder -= 1
    elif remainder < 0:
        for j in np.argsort(exact - takes, kind="stable"):
            if remainder == 0:
                break
            if takes[j] > 0:
                takes[j] -= 1
                remainder += 1
    train_idx = [rng.permutation(np.flatnonzero(inverse == j))[: takes[j]] for j in range(ids.size)]
    return np.sort(np.concatenate(train_idx))

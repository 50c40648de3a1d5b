"""Primal two-factor subspace learning.

The method maximizes tr(U' R1 U) subject to U' R2 U = I, where

    R1 = Xc P Xc'          with  P = r1 * K_y + (1 - r1) * I,
    R2 = r2 * S_W + (1 - r2) * I,

Xc is the train-mean-centered data, K_y a kernel over the labels, and S_W the
within-class scatter. The two mixing factors r1, r2 in [0, 1] control how the
labels enter the objective and the constraint:

    r1 = 0, r2 = 0   plain PCA (total scatter, orthonormal basis)
    r1 = 0, r2 = 1   Fisher discriminant analysis
    r1 = 1, r2 = 0   supervised PCA (label-dependence objective)
    r1 = 1, r2 = 1   double supervised discriminant analysis

Everything in between is a valid method; (r1 + r2) / 2 measures how strongly
the labels are used. Fitting solves the generalized eigenproblem (R1, R2).

How the label side is computed depends on the label kernel. For class labels
(the delta kernel) K_y = E E' exactly, with E the n x c class-indicator
matrix, so

    R1 = r1 (Xc E)(Xc E)' + (1 - r1) Xc Xc'

costs O(dn + d^2 c) and no n x n array is built; the second term is skipped
at r1 = 1. Real-valued targets use an RBF label kernel, which has no such
factor, and go through the dense P. :func:`blend_label_kernel` and
:func:`objective_matrix` are that dense route and the oracle the factored one
is tested against. :func:`label_factor` returns an n x k Upsilon with
Upsilon Upsilon' = K_y for the dual and kernel-trick fits.

Which matrices the solver sees depends on the shape (the model's ``route``):

* ``"dense"`` (d <= n): R1 and R2 are built d x d and solved as they are.
* ``"span"`` (n < d): everything lives in span(Xc). Take an orthonormal Q
  (d x n, thin QR of Xc; any Q whose span holds span(Xc) will do, so no rank
  is decided) and Z = Q' Xc. Then R1 = Q R1(Z) Q', and S_W = Q S_W(Z) Q'
  because every sample minus its class mean lies in span(Xc). So R2 maps
  span(Q) into itself and is (1 - r2) I on the complement. Its spectrum is
  the n x n block's plus d - n copies of 1 - r2, and R1 vanishes on the
  complement. The n x n problem (R1(Z), R2(Z)) therefore has exactly the
  nonzero eigenpairs of the d x d one, and U = Q U_Z. The complement is
  handed to :func:`generalized_eig` and :func:`robustify` as a
  :class:`~roweis.linalg.Complement`, so the PSD check, the diagonal shift
  (its unit is trace / d), the health test and the robust 98% cut all see
  the full spectrum and come out as on the dense route. This holds for
  every (r1, r2), not only for the r2 = 0 slice the dual form covers.

One case falls back to the dense route: a robust fit whose 98% cut lands
strictly inside the cluster of eigenvalues tied with 1 - r2 (the minimum of
R2, since S_W is PSD). Exactly, that tail holds only copies of 1 - r2 and the
repair changes nothing; in floating point the dense route averages the
round-off of those copies over whichever basis LAPACK returns for the tied
eigenspace, which no block computation reproduces. An all-flat cluster (R2 =
I at r2 = 0) has nothing to average and stays on the span route.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import kernels, scatter
from ._util import as_finite_matrix, as_labels, as_matrix, as_square, sym
from .exceptions import ConfigError, NumericalError
from .linalg import (
    Complement,
    EigPair,
    RegPolicy,
    _fix_signs,
    generalized_eig,
    psd_factor,
    require_symmetric,
    symmetric_eig,
)

# Cumulative eigenvalue mass treated as the reliable part of a spectrum when
# repairing a near-singular constraint matrix.
SPECTRUM_MASS = 0.98

# Eigenvalues within this fraction of the largest of a complement's value
# count as tied with it when robustify places its cut.
TIE_RTOL = 1e-10

# How a primal fit was solved: on the d x d matrices, or in the span of the
# centered data (n < d).
ROUTES = ("dense", "span")

DEFAULT_VALID_EIG_THRESHOLD = 1e-9
DEFAULT_AUTO_DIM_RATIO = 0.01


@dataclass(frozen=True)
class RoweisConfig:
    """Fit configuration: mixing factors, target dimension, kernels, policies.

    p=None selects the dimensionality automatically from the eigenvalue
    ratios (threshold ``auto_dim_ratio``). label_kernel=None picks the
    equality kernel for class labels and an RBF with the median-heuristic
    bandwidth for real-valued targets.
    """

    r1: float = 0.0
    r2: float = 0.0
    p: int | None = None
    label_kernel: kernels.KernelSpec | None = None
    robust: bool = False
    reg: RegPolicy = RegPolicy()
    valid_eig_threshold: float = DEFAULT_VALID_EIG_THRESHOLD
    auto_dim_ratio: float = DEFAULT_AUTO_DIM_RATIO

    def __post_init__(self):
        for name in ("r1", "r2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.p is not None and self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p}")
        if self.valid_eig_threshold <= 0:
            raise ConfigError("valid_eig_threshold must be positive")


@dataclass(frozen=True)
class RdaModel:
    """Fitted projection basis plus the statistics needed out of sample.

    ``shift`` is the diagonal loading the constraint needed and ``route`` the
    solver route taken (one of ROUTES); neither affects projection.
    """

    basis: np.ndarray
    eigvals: np.ndarray
    mean: np.ndarray
    config: RoweisConfig
    shift: float = 0.0
    notes: tuple = ()
    route: str = "dense"

    @property
    def n_features(self) -> int:
        return int(self.basis.shape[0])

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[1])


def supervision_level(r1: float, r2: float) -> float:
    """How strongly the labels are used, on a 0 (unsupervised) to 1 scale."""
    for name, value in (("r1", r1), ("r2", r2)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return (r1 + r2) / 2.0


def blend_label_kernel(k_y, r1: float) -> np.ndarray:
    """P = r1 * K_y + (1 - r1) * I; the label side of the objective."""
    k_y = as_square(k_y, "K_y")
    if not 0.0 <= r1 <= 1.0:
        raise ConfigError(f"r1 must lie in [0, 1], got {r1}")
    if r1 == 0.0:
        return np.eye(k_y.shape[0])
    if r1 == 1.0:
        return sym(k_y)
    return sym(r1 * k_y + (1.0 - r1) * np.eye(k_y.shape[0]))


def objective_matrix(x, p) -> np.ndarray:
    """R1 = Xc P Xc' with Xc centered by its own mean. Reduces to the total
    scatter when P = I."""
    x = as_matrix(x, "X")
    p = as_square(p, "P")
    if p.shape[0] != x.shape[1]:
        raise ConfigError(f"P must be n x n with n={x.shape[1]}, got {p.shape}")
    centered = x - x.mean(axis=1, keepdims=True)
    return sym(centered @ p @ centered.T)


def constraint_matrix(s_w, r2: float) -> np.ndarray:
    """R2 = r2 * S_W + (1 - r2) * I; the label side of the constraint."""
    s_w = as_square(s_w, "S_W")
    if not 0.0 <= r2 <= 1.0:
        raise ConfigError(f"r2 must lie in [0, 1], got {r2}")
    if r2 == 0.0:
        return np.eye(s_w.shape[0])
    if r2 == 1.0:
        return sym(s_w)
    return sym(r2 * s_w + (1.0 - r2) * np.eye(s_w.shape[0]))


def robustify(s, reg: RegPolicy | None = None, complement: Complement | None = None):
    """Repair a near-singular PSD matrix by flattening its eigenvalue tail.

    The leading eigenvalues carrying SPECTRUM_MASS of the total are kept; the
    remaining ones are replaced by their mean, which makes the result full
    rank whenever the tail still carries mass. An all-zero spectrum returns a
    small multiple of the identity instead.

    With ``complement``, ``s`` is the block of a larger matrix that is
    ``complement.value * I`` elsewhere (see :class:`roweis.linalg.Complement`).
    The cut and the tail mean are taken over the full spectrum, and the
    repaired block comes back with the repaired complement. The result is
    None when the cut lands strictly inside the cluster of eigenvalues tied
    with ``complement.value`` and that cluster is not exactly flat: the full
    repair then averages part of a degenerate eigenspace, and which part
    depends on the basis an eigensolver picks for it.
    """
    reg = reg or RegPolicy()
    s = as_square(s, "S")
    require_symmetric(s, name="S")
    pair = symmetric_eig(s)
    values = np.clip(pair.values, 0.0, None)
    count = 0 if complement is None else complement.count
    tied = 0.0 if complement is None else max(complement.value, 0.0)
    # The complement's copies go after every block eigenvalue >= their value.
    at = int(np.count_nonzero(values >= tied)) if count else values.size
    spectrum = np.concatenate([values[:at], np.full(count, tied), values[at:]])
    total = float(spectrum.sum())
    if total <= 0.0:
        small = reg.base_scale * np.eye(s.shape[0])
        return small if complement is None else (small, Complement(reg.base_scale, count))
    ratios = np.cumsum(spectrum) / total
    head = int(np.searchsorted(ratios, SPECTRUM_MASS) + 1)
    if head >= spectrum.size:
        return sym(s) if complement is None else (sym(s), complement)
    tail_mean = float(spectrum[head:].mean())
    if complement is not None:
        tol = TIE_RTOL * float(spectrum[0])
        lo = int(np.count_nonzero(spectrum > tied + tol))
        hi = int(np.count_nonzero(spectrum >= tied - tol))
        if lo < head < hi and np.any(spectrum[lo:] != tied):
            return None
    position = np.arange(values.size)
    position[at:] += count
    repaired = values.copy()
    repaired[position >= head] = tail_mean
    out = sym((pair.vectors * repaired) @ pair.vectors.T)
    if complement is None:
        return out
    return out, Complement(tail_mean if head <= at else complement.value, count)


def choose_dimensionality(eigvals, ratio_threshold: float) -> int:
    """Number of eigenvalues whose share of the total is at least the threshold."""
    values = np.asarray(eigvals, dtype=float)
    if np.any(values < 0):
        raise ConfigError("eigenvalues must be non-negative")
    total = float(values.sum())
    if total <= 0.0:
        raise NumericalError("spectrum has no positive eigenvalues")
    p = int(np.count_nonzero(values / total >= ratio_threshold))
    return max(p, 1)


def default_label_kernel(labels) -> kernels.KernelSpec:
    """Equality kernel for class labels, RBF over the targets otherwise."""
    if kernels.is_categorical(labels):
        return kernels.KernelSpec(family="delta")
    return kernels.KernelSpec(family="rbf")


def _resolved_label_kernel(config: RoweisConfig, labels) -> kernels.KernelSpec:
    spec = config.label_kernel or default_label_kernel(labels)
    return kernels.resolve_label_kernel(spec, labels)


def label_factor(spec: kernels.KernelSpec, labels) -> np.ndarray:
    """Upsilon with Upsilon Upsilon' = K_y for a resolved label kernel.

    The delta kernel gives the n x c class-indicator matrix. Any other kernel
    is built densely and factored through an n x n eigendecomposition.
    """
    if spec.family == "delta":
        return kernels.class_indicator(labels)
    return psd_factor(kernels.label_gram(spec, labels, labels)).T


def _label_objective(centered: np.ndarray, labels, spec: kernels.KernelSpec, r1: float) -> np.ndarray:
    """R1 = Xc P Xc' for r1 > 0, from the class-indicator factor when K_y is delta."""
    if spec.family != "delta":
        p_mat = blend_label_kernel(kernels.label_gram(spec, labels, labels), r1)
        return sym(centered @ p_mat @ centered.T)
    q = centered @ kernels.class_indicator(labels)
    r1_mat = q @ q.T
    if r1 < 1.0:
        r1_mat = r1 * r1_mat + (1.0 - r1) * (centered @ centered.T)
    return sym(r1_mat)


def count_valid(values: np.ndarray, threshold: float) -> int:
    """Eigenvalues above threshold * largest; 0 for an empty or non-positive spectrum."""
    if values.size == 0 or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values > threshold * values[0]))


def _select_dimension(values, valid, cap, config) -> tuple[int, list]:
    notes = []
    if config.p is not None:
        p = config.p
        if p > cap:
            notes.append(f"requested p={p} exceeds the rank bound {cap}; truncated")
            p = cap
    else:
        usable = max(min(valid, cap), 1)
        p = min(choose_dimensionality(np.clip(values, 0.0, None), config.auto_dim_ratio), usable)
    return p, notes


def _solve(centered, scatter_data, labels, spec, config, complement=None) -> EigPair | None:
    """Build R1 and R2 from ``centered`` and solve them; None if the robust
    repair cannot be done on a block (see :func:`robustify`).

    ``scatter_data`` is what the within-class scatter is taken of: the raw
    data on the dense route, the same coordinates as ``centered`` on the span
    route (S_W does not depend on the mean).
    """
    r1, r2 = config.r1, config.r2
    if r1 > 0:
        r1_mat = _label_objective(centered, labels, spec, r1)
    else:
        r1_mat = sym(centered @ centered.T)

    if r2 > 0:
        part = scatter.ClassPartition.from_labels(labels)
        r2_mat = constraint_matrix(scatter.within_scatter(scatter_data, part), r2)
    else:
        r2_mat = np.eye(centered.shape[0])
    if config.robust and complement is None:
        r2_mat = robustify(r2_mat, config.reg)
    elif config.robust:
        repaired = robustify(r2_mat, config.reg, complement)
        if repaired is None:
            return None
        r2_mat, complement = repaired
    return generalized_eig(r1_mat, r2_mat, config.reg, complement)


def fit(x, labels, config: RoweisConfig) -> RdaModel:
    """Fit the projection basis for the given mixing factors.

    Labels are required as soon as r1 > 0 or r2 > 0, and must be class ids
    (not real targets) when r2 > 0, because the within-class scatter needs a
    hard partition of the samples. With fewer samples than features the
    problem is solved in the span of the centered data (route "span"),
    otherwise on the full d x d matrices (route "dense").
    """
    x = as_finite_matrix(x, "X")
    d, n = x.shape
    if n < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {n}")
    r1, r2 = config.r1, config.r2
    if (r1 > 0 or r2 > 0) and labels is None:
        raise ConfigError("labels are required when r1 > 0 or r2 > 0")
    if labels is not None:
        labels = as_labels(labels, n)
    if r2 > 0 and not kernels.is_categorical(labels):
        raise ConfigError(
            "r2 > 0 uses the within-class scatter, which needs class labels; "
            "got real-valued targets"
        )

    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    resolved_spec = _resolved_label_kernel(config, labels) if r1 > 0 else None

    pair, route = None, "dense"
    if n < d:
        # Any orthonormal Q whose span holds span(Xc) is exact: no rank cut.
        q = np.linalg.qr(centered)[0]
        z = q.T @ centered
        block = _solve(z, z, labels, resolved_spec, config, Complement(1.0 - r2, d - n))
        if block is not None:
            pair = EigPair(_fix_signs(q @ block.vectors), block.values, block.shift)
            route = "span"
    if pair is None:
        pair = _solve(centered, x, labels, resolved_spec, config)

    valid = count_valid(pair.values, config.valid_eig_threshold)
    if valid == 0:
        raise NumericalError("no positive eigenvalues; the data carry no variance")
    cap = min(d, n - 1)
    p, notes = _select_dimension(pair.values, valid, cap, config)

    fitted = dataclasses.replace(config, p=p, label_kernel=resolved_spec or config.label_kernel)
    return RdaModel(
        basis=pair.vectors[:, :p].copy(),
        eigvals=pair.values[:p].copy(),
        mean=mean,
        config=fitted,
        shift=pair.shift,
        notes=tuple(notes),
        route=route,
    )


def _check_width(model: RdaModel, x: np.ndarray) -> None:
    if x.shape[0] != model.n_features:
        raise ConfigError(
            f"model expects {model.n_features} features, data has {x.shape[0]}"
        )


def project(model: RdaModel, x_any) -> np.ndarray:
    """Embed columns of x_any: U' (x - training mean)."""
    x_any = as_matrix(x_any, "X")
    _check_width(model, x_any)
    return model.basis.T @ (x_any - model.mean[:, None])


def reconstruct(model: RdaModel, x_any) -> np.ndarray:
    """Map back from the subspace: U U' (x - mean) + mean."""
    x_any = as_matrix(x_any, "X")
    _check_width(model, x_any)
    centered = x_any - model.mean[:, None]
    return model.basis @ (model.basis.T @ centered) + model.mean[:, None]

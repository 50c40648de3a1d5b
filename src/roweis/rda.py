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
At r2 = 0 the constraint is I, so a fit solves the plain eigenproblem of R1
(:func:`~roweis.linalg.symmetric_eig`) with no shift, robust or not: the
robust repair of an exact identity returns it bit for bit.

:func:`objective` builds R1 for every fit, the kernel direct fit's M
included, as the blend (1 - r1) Xc Xc' + r1 Xc K_y Xc'. For class labels
(the delta kernel) K_y = E E' exactly, with E the n x c class-indicator
matrix, so the label term (Xc E)(Xc E)' needs no n x n array (the
``"classes"`` route's class sums are Xc E, with no E). Real-valued targets
use an RBF label kernel, which has no such factor: their label term is
(Xc K_y) Xc', with K_y built n x n. The eigen core builds E or K_y once per
grid and hands it to :func:`objective`.

:func:`constraint` builds R2 for every generalized fit, the kernel direct
fit's L = r2 * N + (1 - r2) * K_x included, in the form the solver's
factor takes. S_W (or N) is built only for r2 > 0 and is scaled in place,
so it dies with its R2. The direct fit's L at r2 = 0 is diag(lambda_m),
returned as the vector lambda_m itself and factored in closed form.

Which matrices the solver sees depends on the shapes and the config's label
kernel alone (the model's ``route``, :func:`class_grouping`), robust or not:

* ``"classes"`` (d <= n; r1 = r2 = 0, or the label term the class factor E
  or none, at any class count c): R1 and R2 are sums of three d x d terms,
  the total scatter S_T = Xc Xc', the pooled within-class scatter S_W and
  the class-mean term (Xc E)(Xc E)', and Xc E = (M - mu 1') diag(n_c) for
  the d x c class means M. So the fit needs only each class's count n_c
  and mean and one S_W (:class:`ClassStats`, O(d^2 + c d)), never X. They
  are merged over STATS_BLOCK-column slabs of X in row order with the
  pairwise update of Chan, Golub & LeVeque 1983 ("Algorithms for computing
  the sample variance", Am. Stat.; :func:`merge_slab`). At r1 = r2 = 0 the
  whole set is one class. :func:`fit_blocks` owns the slabs, this route's
  rules and its solve: it takes X in column blocks, as one block from
  :func:`fit_grid` or as a CSV's parse blocks from the command line, whose
  fit so never holds X.
* ``"dense"`` (d <= n otherwise: a label Gram K_y, or real-valued
  targets): R1 and R2 are built d x d from the centered data and solved as
  they are.
* ``"span"`` (n < d): everything lives in span(Xc). Take an orthonormal Q
  (d x n, thin QR of Xc; any Q whose span holds span(Xc) will do, so no rank
  is decided) and Z = Q' Xc. Then R1 = Q R1(Z) Q', and S_W = Q S_W(Z) Q'
  because every sample minus its class mean lies in span(Xc). So R2 maps
  span(Q) into itself and is (1 - r2) I on the complement. Its spectrum is
  the n x n block's plus d - n copies of 1 - r2, and R1 vanishes on the
  complement. The n x n problem (R1(Z), R2(Z)) therefore has exactly the
  nonzero eigenpairs of the d x d one, and U = Q U_Z. The complement is
  handed to :func:`robustify` and :func:`factor_constraint` as a
  :class:`~roweis.linalg.Complement`, so the PSD check, the diagonal shift
  (its unit is trace / d), the health test and the robust 98% cut all see
  the full spectrum and come out as on the dense route. This holds for
  every (r1, r2); :func:`roweis.dual.fit_dual` is this fit at r2 = 0.
  When the robust 98% cut lands inside the eigenvalues tied with 1 - r2
  (the bottom of R2's spectrum, since S_W is PSD), the tail holds only
  copies of 1 - r2 and the exact repair changes nothing, so the block is
  kept as it is.

All three routes, and the kernel direct fit's range, are configurations of one
eigen core, :func:`_solve_grid`: coordinates, R2's metric, a complement and
a lift; :func:`fit_grid` is the core at many configs, and :func:`fit` at
one. Every fit entry point takes its components from
:func:`select_components`, on its spectrum and its shape's rank cap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import kernels, scatter
from ._util import as_features, as_finite_matrix, as_labels, as_square, classes, sym
from .exceptions import ConfigError, DataError, NumericalError
from .linalg import (
    EIG_NOISE_RTOL,
    SHIFT_BASE_SCALE,
    Complement,
    EigPair,
    _fix_signs,
    factor_constraint,
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

# How a fit was solved: from class statistics, on the d x d matrices, or in
# the span of the centered data (n < d). "dual" appears only in older model
# files.
ROUTES = ("classes", "dense", "span", "dual")

# Columns of X per slab of the class statistics: fit_blocks re-slices any
# blocks into these, so the bits of a "classes" fit do not depend on how X
# comes in, held (fit_grid) or streamed (the command line).
STATS_BLOCK = 1024

# select_components: eigenvalues above this fraction of the largest count as
# valid, and p=None keeps those whose share of the spectrum is at least
# DEFAULT_AUTO_DIM_RATIO.
DEFAULT_VALID_EIG_THRESHOLD = 1e-9
DEFAULT_AUTO_DIM_RATIO = 0.01


@dataclass(frozen=True)
class RoweisConfig:
    """Fit configuration: mixing factors, target dimension, label kernel, robust.

    p=None selects the dimensionality automatically from the eigenvalue
    shares (see :func:`select_components`). label_kernel=None picks
    the equality kernel for class labels and an RBF with the
    median-heuristic bandwidth for real-valued targets.
    """

    r1: float = 0.0
    r2: float = 0.0
    p: int | None = None
    label_kernel: kernels.KernelSpec | None = None
    robust: bool = False

    def __post_init__(self):
        supervision_level(self.r1, self.r2)  # r1 and r2 must lie in [0, 1]
        if self.p is not None and self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p}")


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


class ClassMoments:
    """The second moments of the centered data Xc that a ``"classes"`` fit
    solves from: ``scatter_total`` = Xc Xc' (S_T), ``scatter_within`` = S_W
    and ``class_sums`` = Xc E, the d x c sums of Xc over each class. The eigen
    core takes them in place of Xc, with the class ids as its labels, and the
    delta kernel's label term is (Xc E)(Xc E)'. (A plain class: a dataclass
    costs every command about 9 KB more at import.)"""

    __slots__ = ("scatter_total", "scatter_within", "class_sums")

    def __init__(self, scatter_total, scatter_within, class_sums):
        self.scatter_total, self.scatter_within, self.class_sums = scatter_total, scatter_within, class_sums


class ClassStats:
    """What :func:`merge_slab` keeps of the columns so far, O(d^2 + c d):
    the class ``keys`` in order of first appearance (None before any), each
    one's count and mean (``counts``, the d x c ``means``), S_W (``within``)
    and a d x m scratch buffer (``work``)."""

    __slots__ = ("keys", "counts", "means", "within", "work")

    def __init__(self, d: int):
        self.keys, self.counts, self.means = None, np.zeros(0), np.zeros((d, 0))
        self.within, self.work = np.zeros((d, d)), np.zeros(0)


def supervision_level(r1: float, r2: float) -> float:
    """How strongly the labels are used, on a 0 (unsupervised) to 1 scale."""
    for name, value in (("r1", r1), ("r2", r2)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    return (r1 + r2) / 2.0


def robustify(s, complement: Complement | None = None):
    """Repair a near-singular PSD matrix by flattening its eigenvalue tail.

    Returns (repaired, complement), the complement None when none was
    given. The leading eigenvalues carrying SPECTRUM_MASS of the total are
    kept; the remaining ones are replaced by their mean, which makes the
    result full rank whenever the tail still carries mass. An all-zero
    spectrum returns a small multiple of the identity instead.

    With ``complement``, ``s`` is the block of a larger matrix that is
    ``complement.value * I`` elsewhere (see :class:`roweis.linalg.Complement`).
    The cut and the tail mean are taken over the full spectrum, and the
    repaired block comes back with the repaired complement. A cut strictly
    inside the cluster tied with ``complement.value`` (within TIE_RTOL) whose
    tail lies wholly in that cluster is exactly a no-op: the symmetrized
    block and the complement come back unchanged. Smaller eigenvalues after
    such a cut raise ConfigError; R2 >= (1 - r2) I never has them.
    """
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
        complement = None if complement is None else Complement(SHIFT_BASE_SCALE, count)
        return SHIFT_BASE_SCALE * np.eye(s.shape[0]), complement
    ratios = np.cumsum(spectrum) / total
    head = int(np.searchsorted(ratios, SPECTRUM_MASS) + 1)
    if head >= spectrum.size:
        return sym(s), complement
    tail_mean = float(spectrum[head:].mean())
    if complement is not None:
        tol = TIE_RTOL * float(spectrum[0])
        lo = int(np.count_nonzero(spectrum > tied + tol))
        hi = int(np.count_nonzero(spectrum >= tied - tol))
        if lo < head < hi:
            if hi < spectrum.size:
                raise ConfigError("the robust cut splits the tied eigenvalues above smaller ones")
            return sym(s), complement
    position = np.arange(values.size)
    position[at:] += count
    repaired = values.copy()
    repaired[position >= head] = tail_mean
    if complement is not None:
        complement = Complement(tail_mean if head <= at else complement.value, count)
    return sym((pair.vectors * repaired) @ pair.vectors.T), complement


def _label_kernel_scale(spec: kernels.KernelSpec, labels) -> float:
    """max |K_y| without K_y: 1 for delta and RBF; a linear or polynomial
    entry, a power of |y_i y_j + offset|, peaks on a pair of extreme labels."""
    if spec.family in ("delta", "rbf"):
        return 1.0
    points = kernels.label_points(spec, labels)
    ends = np.array([points.min(), points.max()])
    return float(np.abs(kernels.label_gram(spec, ends, ends)).max())


def label_factor(spec: kernels.KernelSpec, labels) -> np.ndarray:
    """Upsilon with Upsilon Upsilon' = K_y for a resolved label kernel, for
    the kernel-trick fits.

    The delta kernel gives the n x c class-indicator matrix. Any other kernel
    is built densely and factored through an n x n eigendecomposition.
    """
    if spec.family == "delta":
        return kernels.class_indicator(labels)
    return psd_factor(kernels.label_gram(spec, labels, labels)).T


def objective(centered, r1: float, factor=None, gram=None) -> np.ndarray:
    """R1 = (1 - r1) Xc Xc' + r1 Xc K_y Xc' for every fit: Xc is the centered
    data, its span coordinates, or K_x H for the kernel direct fit. The label
    term is (Xc F)(Xc F)' for a ``factor`` F with F F' = K_y (E for class
    labels), built after ``centered`` is dropped, and (Xc K_y) Xc' for a
    ``gram`` K_y, built before Xc Xc'. At r1 = 0 neither is needed. For
    :class:`ClassMoments` Xc Xc' is their S_T and Xc E their class sums,
    so they take neither."""
    part = q = None
    if isinstance(centered, ClassMoments):
        q = centered.class_sums if r1 > 0 else None
        out = centered.scatter_total.copy() if r1 < 1 else None
    else:
        if r1 > 0 and factor is not None:
            q = centered @ factor
        elif r1 > 0:
            part = centered @ gram
            part = part @ centered.T
        out = centered @ centered.T if r1 < 1 else None
    del centered
    if q is not None:
        part = q @ q.T
    if part is None:
        return sym(out)
    if out is None:
        return sym(part)
    # In place, and the bits of r1 part + (1 - r1) Xc Xc': IEEE addition commutes.
    out *= 1.0 - r1
    part *= r1
    out += part
    del part
    return sym(out)


def constraint(data, labels, r2: float, metric=None) -> np.ndarray:
    """R2 = r2 * S_W + (1 - r2) * diag(metric), in the form
    :func:`~roweis.linalg.factor_constraint` takes: S_W is
    :func:`roweis.scatter.within_scatter` of ``data``, and ``metric`` is a
    vector, all ones (R2's identity) when None. The kernel direct fit passes
    K_x's kept eigenvalues, the metric of its L in K_x's eigenbasis, and is
    added on the diagonal, not built as a matrix. At r2 = 0 it returns the
    metric itself: diag(metric), or None for R2 = I, which needs no factor.
    For :class:`ClassMoments` S_W is theirs."""
    if r2 == 0:
        return metric
    if isinstance(data, ClassMoments):
        out = data.scatter_within.copy()
    else:
        out = scatter.within_scatter(data, labels)
    if r2 == 1:
        return out
    # In place, and the bits of r2 S_W + (1 - r2) diag(metric): off the
    # diagonal the metric adds (1 - r2) * 0.0 = +0.0.
    out *= r2
    out += 0.0
    out.flat[::out.shape[0] + 1] += (1.0 - r2) * (1.0 if metric is None else metric)
    return sym(out)


def _fit_inputs(x, labels, r1: float, r2: float):
    """(X, labels) checked as every fit entry point needs them.

    X must be finite with at least 2 samples and at least one feature (a
    0 x n X raises DataError). Labels are required as soon as
    r1 > 0 or r2 > 0, are checked whenever given, and must be class ids (not
    real targets) when r2 > 0, because the within-class scatter needs a hard
    partition of the samples.
    """
    x = as_finite_matrix(x)
    n = x.shape[1]
    if n < 2:
        raise ConfigError(f"fitting needs at least 2 samples, got {n}")
    if x.shape[0] == 0:
        raise DataError("X has no features: fitting needs at least one")
    if (r1 > 0 or r2 > 0) and labels is None:
        raise ConfigError("labels are required when r1 > 0 or r2 > 0")
    if labels is not None:
        labels = as_labels(labels, n)
    if r2 > 0 and not kernels.is_categorical(labels):
        raise ConfigError(
            "r2 > 0 uses the within-class scatter, which needs class labels; "
            "got real-valued targets"
        )
    return x, labels


def select_components(values, cap: int, p: int | None, floor: float = 0.0) -> tuple[int, tuple]:
    """(p, notes): how many leading eigenpairs a fit returns, and why fewer
    than requested.

    This is the one component rule of every fit entry point. ``values`` is
    the non-increasing spectrum the fit solved (sigma^2 for the kernel-trick
    fits) and ``cap`` the rank bound of its shape. An
    eigenvalue is valid when it exceeds DEFAULT_VALID_EIG_THRESHOLD of the
    largest, and no fit returns more than min(valid, cap) components: past
    them round-off sets the directions. p=None keeps the eigenvalues whose
    share of the spectrum is at least DEFAULT_AUTO_DIM_RATIO (at least one);
    a larger requested p is cut, with a note. Eigenvalues at or below
    ``floor`` count as zero.
    """
    if p is not None and p < 1:
        raise ConfigError(f"p must be a positive integer, got {p}")
    values = np.asarray(values, dtype=float)
    if values.size == 0 or values[0] <= floor:
        raise NumericalError("no positive eigenvalues; the data carry no variance")
    usable = min(int(np.count_nonzero(values > max(DEFAULT_VALID_EIG_THRESHOLD * values[0], floor))), cap)
    if p is None:
        positive = np.clip(values, 0.0, None)
        share = positive / float(positive.sum())
        return min(max(int(np.count_nonzero(share >= DEFAULT_AUTO_DIM_RATIO)), 1), usable), ()
    if p > usable:
        return usable, (f"requested p={p} exceeds the {usable} valid components; truncated",)
    return p, ()


def _solve_grid(centered, labels, configs, cap, lift=None, metric=None, count=0) -> list:
    """The one eigen core of the generalized fits: (EigPair, p, notes,
    resolved label kernel) per config, in the configs' order.

    ``centered`` are the coordinates a fit solves in, S_W's included: the
    centered data (dense route), Z = Q' Xc (span route), the kernel range's
    G H, or the :class:`ClassMoments` of the centered data ("classes"
    route). The problem is the block of one with ``count`` more dimensions,
    where R1 is 0 and R2 is (1 - r2) I, or 0 with a ``metric`` (see
    :func:`constraint`); the factor and :func:`robustify` see them as a
    :class:`~roweis.linalg.Complement`.
    Each config keeps what :func:`select_components` allows under
    ``cap(r2)``, and only those columns are lifted: ``lift @ U``, sign-fixed.

    R2 depends only on (r2, robust and r2 > 0): the robust repair of I is I
    bit for bit. So the configs are solved grouped by it: each distinct R2 is
    built by one :func:`constraint` call (and robustified), factored once
    (:func:`~roweis.linalg.factor_constraint`) and dropped, and every R1 of
    the group is solved against that factor. A group at r2 = 0 without a
    metric, robust or not, has R2 = I and solves R1 alone with
    :func:`~roweis.linalg.symmetric_eig`. With a metric (the kernel range)
    that group's R2 is the metric vector, factored in closed form, and each
    solve scales R1's rows and columns by the factor instead of multiplying
    by it. Label bandwidths are resolved once per label kernel, and each
    distinct resolved one's term (E or K_y, see :func:`objective`) is built
    once; class moments need neither. R1 is handed over with no reference
    kept, and so is ``centered`` at the last config, so each is freed after
    its last product if the caller keeps none either. Each result equals a
    lone solve bit for bit.
    Eigenvalues at or below EIG_NOISE_RTOL ||centered||_F^2 ((1 - r1) + r1
    max|K_y|) / unit, the factor's unit (1 without a factor), are round-off
    at the scale of R1's inputs: a spectrum of them is refused as one of
    zeros. For class moments ||Xc||_F^2 is tr(S_T).
    """
    configs = list(configs)
    moments = isinstance(centered, ClassMoments)
    noise = EIG_NOISE_RTOL * float(np.trace(centered.scatter_total) if moments else np.vdot(centered, centered))
    groups: dict = {}
    for i, config in enumerate(configs):
        groups.setdefault((config.r2, config.robust and config.r2 > 0), []).append(i)
    specs: dict = {}
    terms: dict = {}
    out: list = [None] * len(configs)
    shared, left = [centered], len(configs)
    del centered
    for (r2, robust), members in groups.items():
        factor = None
        if r2 > 0 or metric is not None:
            complement = Complement((1.0 - r2) * (metric is None), count) if count else None
            r2_mat = constraint(shared[0], labels, r2, metric)
            if robust:
                r2_mat, complement = robustify(r2_mat, complement)
            factor = factor_constraint(r2_mat, complement)
            del r2_mat
        for i in members:
            config = configs[i]
            if config.r1 > 0 and config.label_kernel not in specs:
                spec = kernels.resolve_label_kernel(config.label_kernel, labels)
                if spec not in terms:
                    terms[spec] = _label_kernel_scale(spec, labels), (
                        {} if moments else {"factor": kernels.class_indicator(labels)} if spec.family == "delta"
                        else {"gram": kernels.label_gram(spec, labels, labels)})
                specs[config.label_kernel] = spec, *terms[spec]
            spec, scale, term = specs[config.label_kernel] if config.r1 > 0 else (None, 1.0, {})
            left -= 1
            # No reference to R1 is kept here, nor to ``centered`` at the last
            # config, so the solver frees the one and objective the other.
            r1_mat = [objective(shared[0] if left else shared.pop(), config.r1, **term)]
            pair = symmetric_eig(r1_mat.pop()) if factor is None else generalized_eig(r1_mat.pop(), factor)
            floor = noise * ((1.0 - config.r1) + config.r1 * scale) / (1.0 if factor is None else factor.unit)
            p, notes = select_components(pair.values, cap(r2), config.p, floor=floor)
            vectors = pair.vectors[:, :p].copy() if lift is None else _fix_signs(lift @ pair.vectors[:, :p])
            out[i] = (EigPair(vectors, pair.values[:p].copy(), pair.shift), p, notes, spec)
            del pair  # its full eigenbasis, before the next config's work
        del factor
    return out


def fit(x, labels, config: RoweisConfig) -> RdaModel:
    """Fit the projection basis at one config: the one-config case of :func:`fit_grid`."""
    return fit_grid(x, labels, [config])[0]


def fit_grid(x, labels, configs) -> list[RdaModel]:
    """Fits of one training set at every config, in the configs' order, each
    equal to :func:`fit` at its config bit for bit. The inputs are checked
    once (:func:`_fit_inputs`, at the largest r1 and r2). The configs are
    parted by :func:`class_grouping`, and each part is solved by one
    :func:`_solve_grid` call: from one pass of class statistics
    (:func:`fit_blocks`, with X as one block), or from X with the mean, and
    the span route's QR, taken once."""
    configs = list(configs)
    if not configs:
        raise ConfigError("fit_grid needs at least one config")
    x, labels = _fit_inputs(x, labels, max(c.r1 for c in configs), max(c.r2 for c in configs))
    d, n = x.shape
    ids = keys = None
    if any(config.r1 > 0 or config.r2 > 0 for config in configs):
        ids, keys = classes(labels)
    parts: dict = {}
    for i, config in enumerate(configs):
        parts.setdefault(class_grouping(config, ids, d, n), []).append(i)
    models: list = [None] * len(configs)
    for grouping, members in parts.items():
        part = [configs[i] for i in members]
        if grouping is None:
            fitted = _fit_data(x, labels, part)
        else:
            # The keys are class positions, so they read as ids[positions].
            fitted = fit_blocks([(x, keys)], n, d, part, lambda found: ids[found])
        for i, model in zip(members, fitted):
            models[i] = model
    return models


def _fit_data(x, labels, configs) -> list[RdaModel]:
    """The fits that hold X: the mean and the centered data once, then the
    span route's QR (n < d) or the d x d matrices ("dense")."""
    d, n = x.shape
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    rank = min(d, n - 1)
    if n < d:
        # Any orthonormal Q whose span holds span(Xc) is exact: no rank cut.
        q = np.linalg.qr(centered)[0]
        solved = _solve_grid(q.T @ centered, labels, configs, lambda r2: rank, lift=q, count=d - n)
        return _models(configs, solved, mean, "span")
    solved = _solve_grid(centered, labels, configs, lambda r2: rank)
    return _models(configs, solved, mean, "dense")


def _models(configs, solved, mean, route) -> list[RdaModel]:
    """The RdaModel of each config from its :func:`_solve_grid` result."""
    return [RdaModel(basis=pair.vectors, eigvals=pair.values, mean=mean,
                     config=dataclasses.replace(config, p=p, label_kernel=spec or config.label_kernel),
                     shift=pair.shift, notes=notes, route=route)
            for config, (pair, p, notes, spec) in zip(configs, solved)]


def class_grouping(config: RoweisConfig, ids, d: int, n: int) -> str | None:
    """How a fit of ``config`` on d x n data groups its samples for the
    ``"classes"`` route, or None when it must hold X.

    "all" (one group) when it uses no labels (r1 = r2 = 0); "classes" when
    its label term is the class factor E or none (r1 = 0, or a delta label
    kernel, given or the default for class ids), for the class ids ``ids``
    (the distinct labels, in ``np.unique`` order, or None before they are
    read), however many; never when n < d (the span route). A label Gram K_y
    and real-valued targets under the delta kernel (which the dense route
    refuses) keep X.
    """
    if n < d:
        return None
    if config.r1 == 0 and config.r2 == 0:
        return "all"
    gram = config.r1 > 0 and config.label_kernel is not None and config.label_kernel.family != "delta"
    if gram or not (ids is None or kernels.is_categorical(ids)):
        return None
    return "classes"


def fit_blocks(blocks, n: int, d: int, configs, read_keys) -> list[RdaModel] | None:
    """Fits at every config on the ``"classes"`` route from a d x n X given
    in column blocks, in the configs' order; None where that route would not
    give :func:`fit_grid`'s fits of X bit for bit, and the caller fits X.

    ``blocks`` yields (features, keys) in column order: a d x k array and
    the k columns' class keys, any sortable spelling of their labels
    (ignored when every config is at r1 = r2 = 0). They are re-sliced into
    STATS_BLOCK-column slabs merged into one :class:`ClassStats`
    (:func:`merge_slab`), so the bits do not depend on the blocks.
    ``read_keys`` turns the list of distinct keys into their labels. Gives
    up on n < 2, on blocks of fewer than n columns, on two keys that read as
    one label, and wherever :func:`class_grouping` refuses.

    Then, in the labels' ``np.unique`` order (ids None for one class), with
    the d x c class means M, counts n_c and mu = M n_c / n: Xc E = (M - mu
    1') diag(n_c) and S_T = S_W + (Xc E)(M - mu 1')'. These
    :class:`ClassMoments` and the configs go to :func:`_solve_grid` as from
    :func:`fit_grid`, with rank cap min(d, n - 1).
    """
    configs = list(configs)
    by_class = any(config.r1 > 0 or config.r2 > 0 for config in configs)
    if n < 2 or any(class_grouping(config, None, d, n) is None for config in configs):
        return None
    stats = ClassStats(d)
    slab = np.empty((d, min(n, STATS_BLOCK)))
    pieces: list = []
    filled = seen = 0
    for part, keys in blocks:
        seen += part.shape[1]
        at = 0
        while at < part.shape[1]:
            take = min(slab.shape[1] - filled, part.shape[1] - at)
            slab[:, filled:filled + take] = part[:, at:at + take]
            if by_class:
                pieces.append(keys[at:at + take])
            filled, at = filled + take, at + take
            if filled == slab.shape[1]:
                merge_slab(stats, slab, np.concatenate(pieces) if by_class else None)
                filled, pieces = 0, []
        del part, keys  # one block live at a time
    if filled:
        merge_slab(stats, slab[:, :filled], np.concatenate(pieces) if by_class else None)
    if seen < n:
        return None
    ids, order = None, slice(None)
    if by_class:
        ids, inverse = classes(read_keys(stats.keys.tolist()))
        if ids.size < stats.keys.size or any(class_grouping(config, ids, d, n) != "classes" for config in configs):
            return None
        order = np.argsort(inverse)
    counts, means = stats.counts[order], stats.means[:, order]
    mean = means @ (counts / counts.sum())
    deltas = means - mean[:, None]
    sums = deltas * counts
    moments = ClassMoments(scatter_total=sym(stats.within + sums @ deltas.T), scatter_within=sym(stats.within),
                           class_sums=sums)
    solved = _solve_grid(moments, ids, configs, lambda r2: min(d, n - 1))
    return _models(configs, solved, mean, "classes")


def merge_slab(stats: ClassStats, slab, keys) -> None:
    """Merge the d x m ``slab`` into ``stats`` by its columns' class keys
    (None: one class), with no loop over the classes and no slab-sized
    allocation past the first slab: one scatter-add for the slab's class
    means, one product of its centered columns for its within-class scatter,
    and the pairwise update (Chan, Golub & LeVeque 1983) of all its classes
    at once. For counts a and b and delta = m_b - m_a of the means, the mean
    gains delta b / (a + b) and S_W the rank-c sum of (a b / (a + b)) delta
    delta'. Classes go in order of first appearance, so the bits depend on
    the columns and their order, not on the keys' spelling nor the layout.
    """
    d, m = slab.shape
    one = keys is None  # one class: nothing to sort
    keys = np.zeros(m, dtype=int) if one else np.asarray(keys)
    known = keys[:0] if stats.keys is None else stats.keys
    both = np.concatenate([known, keys])
    found, inverse = (both[:1], np.zeros(both.size, dtype=int)) if one else classes(both)
    first = np.full(found.size, inverse.size)
    np.minimum.at(first, inverse, np.arange(inverse.size))  # a known key's first is its position
    opens = np.bincount(first, minlength=inverse.size) > 0
    # Each column's class position: the known keep theirs, the new follow by first appearance.
    slots = (np.cumsum(opens) - 1)[first[inverse[known.size:]]]
    stats.keys = np.concatenate([known, keys[opens[known.size:]]])
    if stats.keys.size > known.size:
        stats.counts = np.concatenate([stats.counts, np.zeros(stats.keys.size - known.size)])
        stats.means = np.concatenate([stats.means, np.zeros((d, stats.keys.size - known.size))], axis=1)
    per = np.bincount(slots, weights=np.ones(m))  # the counts, as floats
    present = np.flatnonzero(per)
    local = (np.cumsum(per > 0) - 1)[slots]
    count = per[present]
    sums = np.zeros((present.size, d))
    np.add.at(sums, local, slab.T)
    means = sums.T / count
    if stats.work.size < d * m:
        stats.work = np.empty(d * m)  # kept from slab to slab
    centered = stats.work[:d * m].reshape(d, m)
    np.take(means, local, axis=1, out=centered, mode="clip")  # "raise" would buffer ``out``
    np.subtract(slab, centered, out=centered)
    before = stats.counts[present]
    total = before + count
    delta = means - stats.means[:, present]
    stats.means[:, present] += delta * (count / total)
    stats.counts[present] = total
    stats.within += centered @ centered.T + (delta * (before * count / total)) @ delta.T


def project(model: RdaModel, x_any) -> np.ndarray:
    """Embed columns of x_any: U' (x - training mean)."""
    x_any = as_features(x_any, model.n_features)
    return model.basis.T @ (x_any - model.mean[:, None])


def reconstruct(model: RdaModel, x_any) -> np.ndarray:
    """Map back from the subspace: U U' (x - mean) + mean."""
    return model.basis @ project(model, x_any) + model.mean[:, None]

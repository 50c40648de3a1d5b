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

:func:`objective` and :func:`constraint` build R1 and R2 for every fit, the
kernel direct fit's M and L = r2 N + (1 - r2) K_x included, from the
:class:`~roweis.scatter.ClassMoments` of its coordinates Xc, taken in one
pass (:func:`roweis.scatter.class_moments`): S_T = Xc Xc', the pooled
within-class scatter S_W and the class sums Xc E, with E the n x c
class-indicator matrix. For class labels (the delta kernel) K_y = E E', so
the label term Xc K_y Xc' is (Xc E)(Xc E)'. A label Gram K_y (real-valued
targets, or a linear, RBF or polynomial label kernel) has no such factor:
its term (Xc K_y) Xc' needs Xc and K_y, built once per grid. The direct
fit's L at r2 = 0 is diag(lambda_m), returned as the vector lambda_m itself
and factored in closed form.

Which coordinates the pass sees depends on the shape alone (the model's
``route``), whatever the label kernel, robust or not:

* ``"classes"`` (d <= n): X itself, so the statistics hold O(d^2 + c d) at
  any class count c. Xc = X - mean is built only for a label Gram.
  :func:`fit_grid` takes the moments of X held as one block, and
  :func:`fit_blocks` of X streamed in column blocks (a CSV's parse
  blocks), never holding X; both give the same bits.
* ``"span"`` (n < d): Z = Q' Xc, for an orthonormal Q (d x n, thin QR of
  Xc; any Q whose span holds span(Xc) will do, so no rank is decided).
  R1 and S_W live in span(Xc), since every sample minus its class mean
  lies there, so R2 is (1 - r2) I on the complement, where R1 vanishes: the
  n x n problem of Z has exactly the nonzero eigenpairs of the d x d one,
  with U = Q U_Z, for every (r1, r2) (:func:`roweis.dual.fit_dual` is this
  fit at r2 = 0). The complement goes to :func:`robustify` and
  :func:`factor_constraint` as a :class:`~roweis.linalg.Complement`, so the
  PSD check, the shift (its unit is trace / d), the health test and the
  robust 98% cut see the full spectrum and come out as in the d x d one.
  A robust cut inside the eigenvalues tied with 1 - r2 (the bottom of R2's
  spectrum) leaves the block as it is: its tail holds only those copies.

Both routes, and the kernel direct fit's range (G H), are configurations
of one eigen core, :func:`_solve_grid`: class moments, R2's metric, a
complement and a lift; :func:`fit_grid` is the core at many configs, and
:func:`fit` at one. Every fit entry point takes its components from
:func:`select_components`, on its spectrum and its shape's rank cap.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import kernels, scatter
from ._util import as_features, as_finite_matrix, as_labels, as_number, as_square, classes, sym, sym_in_place
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

# How a fit was solved: from the class statistics of X (d <= n) or in the
# span of the centered data (n < d). "dense" (the centered data, for a
# label Gram) and "dual" appear only in older model files.
ROUTES = ("classes", "dense", "span", "dual")

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
    median-heuristic bandwidth for real-valued targets. The one check of a
    fit's settings: r1 and r2 are held as Python floats, p as an int, robust
    as a bool, a label kernel as a KernelSpec; anything else raises ConfigError.
    """

    r1: float = 0.0
    r2: float = 0.0
    p: int | None = None
    label_kernel: kernels.KernelSpec | None = None
    robust: bool = False

    def __post_init__(self):
        for name in ("r1", "r2"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        supervision_level(self.r1, self.r2)  # r1 and r2 must lie in [0, 1]
        if self.p is not None:
            object.__setattr__(self, "p", as_number(self.p, "p", whole=True))
            if self.p < 1:
                raise ConfigError(f"p must be a positive integer, got {self.p}")
        if not isinstance(self.robust, bool):
            raise ConfigError(f"robust must be True or False, got {self.robust!r}")
        if not isinstance(self.label_kernel, (kernels.KernelSpec, type(None))):
            raise ConfigError(f"label_kernel must be a KernelSpec or None, got {self.label_kernel!r}")


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
    route: str
    shift: float = 0.0
    notes: tuple = ()

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


def objective(moments, r1: float, coords=None, gram=None) -> np.ndarray:
    """R1 = (1 - r1) Xc Xc' + r1 Xc K_y Xc' for every fit, from the
    :class:`~roweis.scatter.ClassMoments` of Xc: their S_T, and the label
    term (Xc E)(Xc E)' from their class sums for class labels (the delta
    kernel), or (Xc K_y) Xc' for a label ``gram`` K_y with Xc ``coords``."""
    part = None
    if r1 > 0 and gram is not None:
        part = coords @ gram
        part = part @ coords.T
    elif r1 > 0:
        part = moments.class_sums @ moments.class_sums.T
    out = moments.scatter_total.copy() if r1 < 1 else None
    if part is None:
        return sym_in_place(out)
    if out is None:
        return sym_in_place(part)
    # In place, and the bits of r1 part + (1 - r1) Xc Xc': IEEE addition commutes.
    out *= 1.0 - r1
    part *= r1
    out += part
    del part
    return sym_in_place(out)


def constraint(moments, r2: float, metric=None) -> np.ndarray:
    """R2 = r2 * S_W + (1 - r2) * diag(metric), in the form
    :func:`~roweis.linalg.factor_constraint` takes: S_W is that of the
    :class:`~roweis.scatter.ClassMoments` ``moments``, and ``metric`` is a
    vector, all ones (R2's identity) when None. The kernel direct fit passes
    K_x's kept eigenvalues, added on the diagonal, not built as a matrix.
    At r2 = 0 it returns the metric itself: diag(metric), or None for R2 = I,
    which needs no factor."""
    if r2 == 0:
        return metric
    out = moments.scatter_within.copy()
    if r2 == 1:
        return out
    # In place, and the bits of r2 S_W + (1 - r2) diag(metric): off the
    # diagonal the metric adds (1 - r2) * 0.0 = +0.0.
    out *= r2
    out += 0.0
    out.flat[::out.shape[0] + 1] += (1.0 - r2) * (1.0 if metric is None else metric)
    return sym_in_place(out)


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
    ``floor`` count as zero. ``p`` is a :class:`RoweisConfig`'s, checked there.
    """
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


def _solve_grid(moments, labels, configs, cap, coords=None, lift=None, metric=None, count=0) -> list:
    """The one eigen core of the generalized fits: (EigPair, p, notes,
    resolved label kernel) per config, in the configs' order.

    ``moments`` are the :class:`~roweis.scatter.ClassMoments` of the
    coordinates a fit solves in, and ``coords`` those coordinates, for a
    label Gram K_y. The problem is the block of one with ``count`` more
    dimensions, where R1 is 0 and R2 is (1 - r2) I, or 0 with a ``metric``:
    a :class:`~roweis.linalg.Complement` to the factor and :func:`robustify`.
    Each config keeps what :func:`select_components` allows under
    ``cap(r2)``; only those columns are lifted, ``lift @ U``, sign-fixed.

    R2 depends only on (r2, robust and r2 > 0): the robust repair of I is I
    bit for bit. So each distinct R2 is built by one :func:`constraint` call
    (and robustified), factored once and dropped, and every R1 of its group
    is solved against that factor; at r2 = 0, R2 = I needs no factor (R1
    alone, :func:`~roweis.linalg.symmetric_eig`) and a metric vector is
    factored in closed form. Label bandwidths are resolved once per label
    kernel and each distinct label Gram is built once. R1 is handed over
    with no reference kept, and S_W and S_T are dropped from ``moments``
    after their last use. Each result equals a lone solve bit for bit.
    Eigenvalues at or below EIG_NOISE_RTOL tr(S_T) ((1 - r1) + r1
    max|K_y|) / unit, the factor's unit (1 without a factor), are round-off
    at the scale of R1's inputs: a spectrum of them is refused as one of
    zeros.
    """
    configs = list(configs)
    noise = EIG_NOISE_RTOL * float(np.trace(moments.scatter_total))
    groups: dict = {}
    for i, config in enumerate(configs):
        groups.setdefault((config.r2, config.robust and config.r2 > 0), []).append(i)
    # The last group that builds R2 from S_W, and the last config whose R1 takes S_T.
    last_within = [group for group in groups if group[0] > 0][-1:]
    last_total = [i for members in groups.values() for i in members if configs[i].r1 < 1][-1:]
    specs: dict = {}
    terms: dict = {}
    out: list = [None] * len(configs)
    for (r2, robust), members in groups.items():
        factor = None
        if r2 > 0 or metric is not None:
            complement = Complement((1.0 - r2) * (metric is None), count) if count else None
            r2_mat = constraint(moments, r2, metric)
            if [(r2, robust)] == last_within:
                moments.scatter_within = None
            if robust:
                r2_mat, complement = robustify(r2_mat, complement)
            factor = factor_constraint(r2_mat, complement)
            del r2_mat
        for i in members:
            config = configs[i]
            if config.r1 > 0 and config.label_kernel not in specs:
                spec = kernels.resolve_label_kernel(config.label_kernel, labels)
                if spec not in terms:
                    # Class sums stand in for E; on real targets label_gram refuses the delta kernel.
                    delta = spec.family == "delta" and kernels.is_categorical(labels)
                    terms[spec] = _label_kernel_scale(spec, labels), (
                        None if delta else kernels.label_gram(spec, labels, labels))
                specs[config.label_kernel] = spec, *terms[spec]
            spec, scale, gram = specs[config.label_kernel] if config.r1 > 0 else (None, 1.0, None)
            # No reference to R1 is kept here, so the solver frees it.
            r1_mat = [objective(moments, config.r1, coords, gram)]
            if [i] == last_total:
                moments.scatter_total = None
            pair = symmetric_eig(r1_mat.pop()) if factor is None else generalized_eig(r1_mat.pop(), factor)
            floor = noise * ((1.0 - config.r1) + config.r1 * scale) / (1.0 if factor is None else factor.unit)
            p, notes = select_components(pair.values, cap(r2), config.p, floor=floor)
            vectors = pair.vectors[:, :p].copy() if lift is None else _fix_signs(lift @ pair.vectors[:, :p])
            out[i] = (EigPair(vectors, pair.values[:p].copy(), pair.shift), p, notes, spec)
            del pair  # its full eigenbasis, before the next config's work
        del factor
    return out


def _held_moments(coords, labels, configs) -> tuple:
    """:func:`roweis.scatter.class_moments` of coordinates held as one block
    (X, Z or G H) for ``configs`` (keyed by class labels some config uses,
    S_W for r2 > 0), and ``coords`` where a config needs them (:func:`_uses_gram`)."""
    keyed = labels is not None and kernels.is_categorical(labels) and any(c.r1 > 0 or c.r2 > 0 for c in configs)
    ids, keys = classes(labels) if keyed else (None, None)
    # The keys are class positions, so they read as ids[positions].
    read_keys = (lambda found: ids[found]) if keyed else None
    found = scatter.class_moments([(coords, keys)], *coords.shape, read_keys, any(c.r2 > 0 for c in configs))
    return *found, coords if any(_uses_gram(config, labels) for config in configs) else None


def _uses_gram(config: RoweisConfig, labels) -> bool:
    """Whether the label term of ``config`` is a label Gram K_y (not delta,
    or the default RBF over real targets), which needs the coordinates."""
    if config.r1 == 0:
        return False
    if config.label_kernel is not None:
        return config.label_kernel.family != "delta"
    return labels is not None and not kernels.is_categorical(labels)


def fit(x, labels, config: RoweisConfig) -> RdaModel:
    """Fit the projection basis at one config: the one-config case of :func:`fit_grid`."""
    return fit_grid(x, labels, [config])[0]


def fit_grid(x, labels, configs) -> list[RdaModel]:
    """Fits of one training set at every config, in the configs' order, each
    equal to :func:`fit` at its config bit for bit: the inputs checked once
    (:func:`_fit_inputs`, at the largest r1 and r2), one pass of class
    statistics (:func:`_held_moments`) and one :func:`_solve_grid` call.
    For d <= n the pass sees X, and Xc = X - mean is built only where a
    config needs it; for n < d it sees the span route's Z."""
    configs = list(configs)
    if not configs:
        raise ConfigError("fit_grid needs at least one config")
    x, labels = _fit_inputs(x, labels, max(c.r1 for c in configs), max(c.r2 for c in configs))
    d, n = x.shape
    lift = None
    if n < d:
        mean = x.mean(axis=1)
        coords = x - mean[:, None]
        # Any orthonormal Q whose span holds span(Xc) is exact: no rank cut.
        lift = np.linalg.qr(coords)[0]
        coords = lift.T @ coords
        moments, _, _, coords = _held_moments(coords, labels, configs)
    else:
        moments, mean, _, coords = _held_moments(x, labels, configs)
        if coords is not None:
            coords = x - mean[:, None]  # Xc, for a label Gram
    solved = _solve_grid(moments, labels, configs, lambda r2: min(d, n - 1), coords, lift=lift, count=max(d - n, 0))
    return _models(configs, solved, mean, "classes" if lift is None else "span")


def _models(configs, solved, mean, route) -> list[RdaModel]:
    """The RdaModel of each config from its :func:`_solve_grid` result."""
    return [RdaModel(basis=pair.vectors, eigvals=pair.values, mean=mean,
                     config=dataclasses.replace(config, p=p, label_kernel=spec or config.label_kernel),
                     shift=pair.shift, notes=notes, route=route)
            for config, (pair, p, notes, spec) in zip(configs, solved)]


def fit_blocks(blocks, n: int, d: int, configs, read_keys) -> list[RdaModel] | None:
    """:func:`fit_grid`'s fits of a d x n X given in column blocks, bit for
    bit, never holding X; None where they cannot be had so, and the caller
    fits X. ``blocks`` and ``read_keys`` go to the pass,
    :func:`roweis.scatter.class_moments`, keyed when the labels are in use.
    Gives up on n < max(d, 2), a label Gram, a short stream, two keys that
    read as one label, and labels in use that are not class ids (those of
    the first block are read before the rest)."""
    configs = list(configs)
    keyed = any(config.r1 > 0 or config.r2 > 0 for config in configs)
    if n < max(d, 2) or any(_uses_gram(config, None) for config in configs):
        return None
    if keyed:
        blocks = _ids_first(blocks, read_keys)
    found = scatter.class_moments(blocks, d, n, read_keys if keyed else None, any(c.r2 > 0 for c in configs))
    if found is None or (keyed and not kernels.is_categorical(found[2])):
        return None
    moments, mean, ids = found
    solved = _solve_grid(moments, ids, configs, lambda r2: min(d, n - 1))
    return _models(configs, solved, mean, "classes")


def _ids_first(blocks, read_keys):
    """``blocks``, ended before the first if its distinct keys do not read as
    class ids, so the pass gives up before the rest is parsed. Checked as the
    pass takes it: read before the pass's buffers, it cost ``tall`` 0.12 MB."""
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None or not kernels.is_categorical(read_keys(list(dict.fromkeys(first[1])))):
        return
    yield first
    del first  # before the next block is parsed
    yield from blocks


def project(model: RdaModel, x_any) -> np.ndarray:
    """Embed columns of x_any: U' (x - training mean)."""
    x_any = as_features(x_any, model.n_features)
    return model.basis.T @ (x_any - model.mean[:, None])


def reconstruct(model: RdaModel, x_any) -> np.ndarray:
    """Map back from the subspace: U U' (x - mean) + mean."""
    return model.basis @ project(model, x_any) + model.mean[:, None]

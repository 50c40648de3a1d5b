"""The factored label side against the dense n x n computation it replaces.

For class labels the primal, dual and kernel-SPCA fits build the label side
from the n x c class-indicator matrix. Each route is compared here with the
dense oracle: ``objective_matrix(x, blend_label_kernel(delta_kernel(y, y), r1))``
for the primal objective and ``psd_factor(delta_kernel(y, y))`` for the dual
and kernel-trick label factor. Spectra must agree to 1e-10 relative to the
leading eigenvalue, embeddings up to the sign of each component.
"""

import numpy as np
import pytest

from roweis import kernels
from roweis.dual import fit_dual
from roweis.kernel_rda import fit_kernel_spca
from roweis.kernel_rda import project as project_kernel
from roweis.linalg import factor_constraint, generalized_eig, psd_factor
from roweis.rda import (
    RoweisConfig,
    fit,
    label_factor,
    project,
)
from roweis.scatter import within_scatter

from conftest import align_rows
from oracle import blend_label_kernel, constraint_matrix, objective_matrix

SPECTRUM_RTOL = 1e-10
EMBEDDING_RTOL = 1e-8

LABEL_KINDS = ("int", "string", "float", "noncontiguous", "singleton")
SHAPES = {"tall": (6, 40), "wide": (50, 12)}
R1_VALUES = (0.25, 0.5, 1.0)
DATA_KERNEL = kernels.KernelSpec("rbf", gamma=0.05)


def make_labels(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.permutation(np.arange(n) % 3)
    if kind == "int":
        return base
    if kind == "string":
        return np.array(["setosa", "versicolor", "virginica"])[base]
    if kind == "float":
        return base.astype(float) + 1.0
    if kind == "noncontiguous":
        return np.array([42, -7, 10])[base]
    if kind == "singleton":
        out = base.copy()
        out[-1] = 99
        return out
    raise ValueError(kind)


def make_data(d: int, n: int, labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Class-shifted Gaussian points; columns 1 and 3 duplicate columns 0 and 2."""
    _, codes = np.unique(labels, return_inverse=True)
    centers = 2.0 * rng.standard_normal((d, codes.max() + 1))
    x = centers[:, codes] + rng.standard_normal((d, n))
    x[:, 1] = x[:, 0]
    x[:, 3] = x[:, 2]
    return x


def case(kind: str, shape: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    d, n = SHAPES[shape]
    labels = make_labels(kind, n, rng)
    return make_data(d, n, labels, rng), labels


def dense_label_factor(labels) -> np.ndarray:
    return psd_factor(kernels.delta_kernel(labels, labels)).T


def spectrum_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest spectrum difference relative to the leading eigenvalue; missing
    entries on either side count as zero eigenvalues."""
    size = max(got.size, want.size)
    a = np.pad(got, (0, size - got.size))
    b = np.pad(want, (0, size - want.size))
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(want)))


def assert_rows_match(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    aligned = align_rows(want, got)
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(aligned, want, rtol=0.0, atol=EMBEDDING_RTOL * scale)


def dense_primal(x, labels, r1: float, r2: float):
    r1_mat = objective_matrix(x, blend_label_kernel(kernels.delta_kernel(labels, labels), r1))
    if r2 > 0:
        r2_mat = constraint_matrix(within_scatter(x, labels), r2)
    else:
        r2_mat = np.eye(x.shape[0])
    return generalized_eig(r1_mat, factor_constraint(r2_mat))


def dense_dual_svd(x, labels, r1: float):
    centered = x - x.mean(axis=1, keepdims=True)
    q = centered @ dense_label_factor(labels)
    w = q if r1 == 1.0 else np.hstack([np.sqrt(r1) * q, np.sqrt(1.0 - r1) * centered])
    left, singular, _ = np.linalg.svd(w, full_matrices=False)
    return left, singular, centered


def dense_spca(x, labels):
    kc = kernels.double_center(kernels.gram(DATA_KERNEL, x, x))
    upsilon = dense_label_factor(labels)
    values, vectors = np.linalg.eigh(upsilon.T @ kc @ upsilon)
    return values[::-1], upsilon @ vectors[:, ::-1], kc


class TestLabelFactor:
    def test_delta_factor_is_the_class_indicator(self, rng):
        labels = make_labels("noncontiguous", 10, rng)
        np.testing.assert_array_equal(
            label_factor(kernels.KernelSpec("delta"), labels), kernels.class_indicator(labels)
        )

    def test_rbf_factor_reproduces_the_dense_kernel(self, rng):
        targets = rng.standard_normal(15)
        spec = kernels.resolve_label_kernel(kernels.KernelSpec("rbf"), targets)
        upsilon = label_factor(spec, targets)
        np.testing.assert_allclose(
            upsilon @ upsilon.T, kernels.label_gram(spec, targets, targets), atol=1e-10
        )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kind", LABEL_KINDS)
class TestAgainstDenseOracle:
    @pytest.mark.parametrize("r1", R1_VALUES)
    @pytest.mark.parametrize("r2", (0.0, 0.5))
    def test_primal(self, kind, shape, r1, r2):
        x, labels = case(kind, shape)
        model = fit(x, labels, RoweisConfig(r1=r1, r2=r2))
        pair = dense_primal(x, labels, r1, r2)
        p = model.n_components
        assert spectrum_gap(model.eigvals, pair.values[:p]) <= SPECTRUM_RTOL
        centered = x - x.mean(axis=1, keepdims=True)
        assert_rows_match(project(model, x), pair.vectors[:, :p].T @ centered)

    @pytest.mark.parametrize("r1", R1_VALUES)
    def test_dual(self, kind, shape, r1):
        x, labels = case(kind, shape)
        model = fit_dual(x, labels, r1)
        left, singular, centered = dense_dual_svd(x, labels, r1)
        k = model.n_components
        assert spectrum_gap(model.eigvals, singular[:k] ** 2) <= SPECTRUM_RTOL
        assert_rows_match(project(model, x), left[:, :k].T @ centered)

    def test_kernel_spca(self, kind, shape):
        x, labels = case(kind, shape)
        model = fit_kernel_spca(x, labels, DATA_KERNEL)
        values, directions, kc = dense_spca(x, labels)
        m = model.n_components
        assert spectrum_gap(model.eigvals, values[:m]) <= SPECTRUM_RTOL
        want = (directions[:, :m] / np.sqrt(values[:m])[None, :]).T @ kc
        assert_rows_match(project_kernel(model, x), want)
        assert model.upsilon.shape == (x.shape[1], np.unique(labels).size)


def test_class_label_fits_never_build_the_delta_kernel(monkeypatch):
    x, labels = case("noncontiguous", "tall")

    def forbidden(*args, **kwargs):
        raise AssertionError("the n x n delta kernel was built")

    monkeypatch.setattr(kernels, "delta_kernel", forbidden)
    assert fit(x, labels, RoweisConfig(r1=0.5, r2=0.5)).n_components >= 1
    assert fit(x, labels, RoweisConfig(r1=1.0, r2=0.0)).n_components >= 1
    assert fit_dual(x, labels, 0.5).n_components >= 1
    assert fit_kernel_spca(x, labels, DATA_KERNEL).n_components >= 1

import dataclasses

import numpy as np
import pytest

import oracle
from roweis import kernels
from roweis.dual import fit_dual
from roweis.exceptions import ConfigError, NumericalError
from roweis.kernel_rda import fit_kernel_pca, fit_kernel_spca
from roweis.linalg import incomplete_svd
from roweis.rda import RdaModel, RoweisConfig, fit, project, reconstruct

from conftest import align_rows, labeled_blobs


def right_vectors(model, x):
    """V with W = Xc at r1 = 0: the training embedding sigma V' divided by sigma."""
    return project(model, x).T / np.sqrt(model.eigvals)[None, :]


class TestFitDual:
    def test_rejects_constraint_mixing(self, rng):
        with pytest.raises(ConfigError):
            fit_dual(rng.standard_normal((3, 8)), None, 0.0, r2=0.5)

    def test_requires_labels_when_supervised(self, rng):
        with pytest.raises(ConfigError):
            fit_dual(rng.standard_normal((3, 8)), None, 0.7)

    def test_unsupervised_factor_is_centered_data(self, rng):
        x = rng.standard_normal((3, 8))
        model = fit_dual(x, None, 0.0)
        assert isinstance(model, RdaModel) and model.route == "dual"
        w = x - x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(w @ (w.T @ model.basis), model.basis * model.eigvals, atol=1e-9)

    def test_training_projection_is_sigma_v(self, rng):
        x = rng.standard_normal((4, 10))
        model = fit_dual(x, None, 0.0)
        v = right_vectors(model, x)
        np.testing.assert_allclose(v.T @ v, np.eye(model.n_components), atol=1e-9)
        centered = x - model.mean[:, None]
        np.testing.assert_allclose(centered @ v / np.sqrt(model.eigvals), model.basis, atol=1e-9)

    def test_projection_row_norms_equal_singulars(self, rng):
        x = rng.standard_normal((4, 12))
        model = fit_dual(x, None, 0.0)
        emb = project(model, x)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), np.sqrt(model.eigvals), rtol=1e-9)

    def test_zero_singulars_truncated(self, rng):
        base = rng.standard_normal((4, 2))
        x = base @ rng.standard_normal((2, 10))  # rank 2 data
        model = fit_dual(x, None, 0.0)
        assert model.n_components <= 2
        assert np.all(model.eigvals > 0)

    def test_requested_p_truncates(self, rng):
        x = rng.standard_normal((4, 10))
        model = fit_dual(x, None, 0.0, p=2)
        assert model.n_components == 2


class TestPrimalDualAgreement:
    @pytest.mark.parametrize("r1", [0.0, 0.5, 1.0])
    def test_training_and_out_of_sample(self, r1):
        rng = np.random.default_rng(17)
        x, labels = labeled_blobs(rng, d=3, n=15, c=3)
        x_new = rng.standard_normal((3, 6))
        primal = fit(x, labels if r1 > 0 else None, RoweisConfig(r1, 0.0))
        dual = fit_dual(x, labels if r1 > 0 else None, r1)
        p = min(primal.n_components, dual.n_components)
        for data in (x, x_new):
            a = project(primal, data)[:p]
            b = align_rows(a, project(dual, data)[:p])
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_duplicate_of_training_point_embeds_identically(self, rng):
        x = rng.standard_normal((3, 9))
        model = fit_dual(x, None, 0.0)
        np.testing.assert_allclose(
            project(model, x[:, 4:5]), project(model, x)[:, 4:5], atol=1e-9
        )

    def test_reconstruction_matches_primal(self, rng):
        x, labels = labeled_blobs(rng, d=4, n=12, c=2)
        x_new = rng.standard_normal((4, 5))
        primal = fit(x, labels, RoweisConfig(0.5, 0.0, p=3))
        dual = fit_dual(x, labels, 0.5, p=3)
        np.testing.assert_allclose(
            reconstruct(dual, x_new), reconstruct(primal, x_new), atol=1e-8
        )


class TestReconstructDual:
    def test_full_rank_formula(self, rng):
        x = rng.standard_normal((3, 10))
        model = fit_dual(x, None, 0.0)
        centered = x - model.mean[:, None]
        v = np.linalg.svd(centered, full_matrices=False)[2].T
        expected = centered @ v @ v.T + model.mean[:, None]
        np.testing.assert_allclose(reconstruct(model, x), expected, atol=1e-9)

    def test_mean_is_fixed_point(self, rng):
        x = rng.standard_normal((3, 10))
        model = fit_dual(x, None, 0.0)
        np.testing.assert_allclose(
            reconstruct(model, model.mean[:, None])[:, 0], model.mean, atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        model = fit_dual(rng.standard_normal((3, 8)), None, 0.0)
        with pytest.raises(ConfigError):
            project(model, rng.standard_normal((5, 2)))


class TestRouteEquivalence:
    def test_small_side_eig_matches_svd(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((30, 8))  # n < d triggers the eigen route
        model = fit_dual(x, None, 0.0)
        w = x - x.mean(axis=1, keepdims=True)
        fac = incomplete_svd(w, k=min(w.shape))
        keep = fac.singular >= 1e-10 * fac.singular[0]
        np.testing.assert_allclose(np.sqrt(model.eigvals), fac.singular[keep], atol=1e-9)
        v = right_vectors(model, x)
        aligned = align_rows(v.T, fac.right[:, keep].T).T
        np.testing.assert_allclose(v, aligned, atol=1e-7)

    def test_tall_data_uses_eig_route_and_agrees_with_primal(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((120, 10))
        primal = fit(x, None, RoweisConfig(0.0, 0.0))
        dual = fit_dual(x, None, 0.0)
        p = min(primal.n_components, dual.n_components)
        a = project(primal, x)[:p]
        b = align_rows(a, project(dual, x)[:p])
        np.testing.assert_allclose(a, b, atol=1e-8)


# The shared small-side solve against the fits as they were before it.

DATA_KERNELS = {
    "linear": kernels.KernelSpec("linear"),
    "rbf median": kernels.KernelSpec("rbf"),
    "rbf 0.7": kernels.KernelSpec("rbf", gamma=0.7),
    "poly 2": kernels.KernelSpec("polynomial", degree=2),
    "poly 3": kernels.KernelSpec("polynomial", degree=3, offset=0.5),
}
# (label kernel, real-valued targets?): None is the default for the labels.
LABEL_KERNELS = {
    "classes": (None, False),
    "classes linear": (kernels.KernelSpec("linear"), False),
    "targets rbf": (None, True),
    "targets linear": (kernels.KernelSpec("linear"), True),
    "targets poly": (kernels.KernelSpec("polynomial", degree=2), True),
}
PS = (None, 1, 3, 500)


def small_side_data(seed: int, d: int, n: int, shape: str, targets: bool):
    """(X, labels): full rank, rank 2, or with duplicated samples."""
    rng = np.random.default_rng(seed)
    x, labels = labeled_blobs(rng, d, n, 3)
    if shape == "rank 2":
        x = rng.standard_normal((d, 2)) @ rng.standard_normal((2, n))
    elif shape == "duplicates":
        x[:, n // 2:] = x[:, : n - n // 2]
    if targets:
        labels = np.round(x[0] - 0.5 * x[-1] ** 2, 1)  # real-valued, with ties
    return x, labels


def assert_same_model(got, want):
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


SHAPES = ("full rank", "rank 2", "duplicates")


class TestSharedSmallSideSolve:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kernel", sorted(DATA_KERNELS))
    def test_kernel_pca_is_bit_identical(self, kernel, shape):
        x, _ = small_side_data(1, 4, 40, shape, False)
        for p in PS:
            want = oracle.fit_kernel_pca(x, DATA_KERNELS[kernel], p=p)
            assert_same_model(fit_kernel_pca(x, DATA_KERNELS[kernel], p=p), want)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("labels", sorted(LABEL_KERNELS))
    @pytest.mark.parametrize("kernel", sorted(DATA_KERNELS))
    def test_kernel_spca_is_bit_identical(self, kernel, labels, shape):
        label_kernel, targets = LABEL_KERNELS[labels]
        x, y = small_side_data(2, 4, 40, shape, targets)
        for p in PS:
            want = oracle.fit_kernel_spca(x, y, DATA_KERNELS[kernel], label_kernel, p=p)
            assert_same_model(fit_kernel_spca(x, y, DATA_KERNELS[kernel], label_kernel, p=p), want)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("labels", sorted(LABEL_KERNELS))
    @pytest.mark.parametrize("r1", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("d", (3, 30), ids=("svd of W", "eig of W'W"))
    def test_dual_is_bit_identical(self, d, r1, labels, shape):
        label_kernel, targets = LABEL_KERNELS[labels]
        x, y = small_side_data(3, d, 12, shape, targets)
        for p in PS:
            want = oracle.fit_dual(x, y, r1, p=p, label_kernel=label_kernel)
            assert_same_model(fit_dual(x, y, r1, p=p, label_kernel=label_kernel), want)

    def test_no_variance_is_refused_alike(self):
        x = np.ones((3, 10))
        labels = np.arange(10) % 2
        for fit_new, fit_old in [
            (lambda: fit_dual(x), lambda: oracle.fit_dual(x)),
            (lambda: fit_kernel_pca(x, DATA_KERNELS["linear"]),
             lambda: oracle.fit_kernel_pca(x, DATA_KERNELS["linear"])),
            (lambda: fit_kernel_spca(x, labels, DATA_KERNELS["linear"]),
             lambda: oracle.fit_kernel_spca(x, labels, DATA_KERNELS["linear"])),
        ]:
            for fit_any in (fit_new, fit_old):
                with pytest.raises(NumericalError):
                    fit_any()

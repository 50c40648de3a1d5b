import dataclasses

import numpy as np
import pytest

import oracle
from roweis import kernels
from roweis.dual import fit_dual
from roweis.exceptions import ConfigError, NumericalError
from roweis.kernel_rda import KernelRdaModel, fit_kernel_pca, fit_kernel_spca
from roweis.rda import RdaModel, RoweisConfig, fit, project, reconstruct, select_components

from conftest import align_columns, align_rows, labeled_blobs


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

    @pytest.mark.parametrize("shape, route", [((8, 3), "span"), ((3, 8), "classes")])
    def test_unsupervised_factor_is_centered_data(self, rng, shape, route):
        # W = Xc: the primal fit's span route when n < d, the d x d
        # eigenproblem of W W' (from the statistics of one class) otherwise.
        x = rng.standard_normal(shape)
        model = fit_dual(x, None, 0.0)
        assert isinstance(model, RdaModel) and model.route == route
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

    @pytest.mark.parametrize("p", [None, 2, 60], ids=["p=None", "p=2", "p above the rank"])
    @pytest.mark.parametrize("r1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d, n", [(3, 15), (200, 40)], ids=["d<n", "d>n"])
    def test_same_components_as_primal(self, d, n, r1, p):
        # One component rule: the same count, the same notes, and the same
        # eigenpairs (up to sign) on both sides of d = n.
        rng = np.random.default_rng(5)
        x, labels = labeled_blobs(rng, d=d, n=n, c=4)
        y = labels if r1 > 0 else None
        primal = fit(x, y, RoweisConfig(r1, 0.0, p=p))
        dual = fit_dual(x, y, r1, p=p)
        assert dual.n_components == primal.n_components
        assert dual.notes == primal.notes
        np.testing.assert_allclose(dual.eigvals, primal.eigvals, rtol=0.0, atol=1e-8 * primal.eigvals[0])
        basis = align_columns(primal.basis, dual.basis)
        np.testing.assert_allclose(basis, primal.basis, rtol=0.0, atol=1e-8)

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
        x = rng.standard_normal((30, 8))  # n < d takes the span route
        model = fit_dual(x, None, 0.0)
        assert model.route == "span" and model.n_components == 7
        w = x - x.mean(axis=1, keepdims=True)
        fac = oracle.incomplete_svd(w, k=min(w.shape))
        keep = slice(0, model.n_components)
        np.testing.assert_allclose(np.sqrt(model.eigvals), fac.singular[keep], atol=1e-9)
        v = right_vectors(model, x)
        aligned = align_rows(v.T, fac.right[:, keep].T).T
        np.testing.assert_allclose(v, aligned, atol=1e-7)

    def test_dense_route_matches_the_svd_on_ill_conditioned_factors(self):
        # W = Xc with singular values spread down to 1e-12 of the largest and
        # at least d columns: the d x d eigenproblem of W W' against the SVD
        # of W (the route it replaced), on every component it returns.
        basis_gap = value_gap = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 9))
            n = d + 1 + int(rng.integers(0, 8))
            sigma = np.sort(10.0 ** rng.uniform(-12.0, 0.0, d))[::-1]
            sigma[0] = 1.0
            left = np.linalg.qr(rng.standard_normal((d, d)))[0]
            # Orthonormal right factors orthogonal to the ones vector: W is centered.
            right = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, d))]))[0][:, 1:]
            x = (left * sigma) @ right.T + rng.standard_normal((d, 1))
            got, want = fit_dual(x, p=d), oracle.fit_dual(x, p=d)
            assert got.route == "classes"
            k = got.n_components
            assert k == select_components(want.eigvals, want.eigvals.size, d)[0]
            value_gap = max(value_gap, np.max(np.abs(got.eigvals - want.eigvals[:k])) / want.eigvals[0])
            basis = align_columns(want.basis[:, :k], got.basis)
            basis_gap = max(basis_gap, np.max(np.abs(basis - want.basis[:, :k])))
        assert basis_gap <= 1e-6 and value_gap <= 1e-14, (basis_gap, value_gap)


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


# Arrays with one entry or column per component.
COMPONENT_ARRAYS = ("coeffs", "offset", "right_vectors", "eigvals", "sigma")


def product_scales(model, k: int) -> dict:
    """{name: scale} of the arrays of a trick fit formed by a matrix product
    over its first k columns: coeffs = (H Upsilon) V / sigma and offset =
    r' coeffs, r the training Gram's row means. The scale is the largest
    entry of the product of its factors' absolute values (|A| |B|, and
    |r|' |A| |B| for the offset), which bounds its round-off.
    OpenBLAS takes another kernel for a product with few columns, so with
    fewer columns kept than the oracle's these may differ from its columns
    in the last bits. Centering cancels the constant part of a component's
    raw coefficients, so the scale can exceed the largest entry itself."""
    right = np.abs(model.right_vectors[:, :k]) / model.sigma[:k]
    n = right.shape[0] if model.upsilon is None else model.upsilon.shape[0]
    factor = oracle.centering_matrix(n) if model.upsilon is None else model.upsilon - model.upsilon.mean(axis=0)
    row_means = oracle._sym(oracle.gram(model.kernel, model.train_x, model.train_x)).mean(axis=1)
    coeffs = np.abs(factor) @ right
    return {"coeffs": float(np.max(coeffs)), "offset": float(np.max(np.abs(row_means) @ coeffs))}


def assert_leading_columns(got, want, p):
    """``got`` returns the components the one rule keeps of ``want``'s
    spectrum: the solver's outputs for each bit for bit as ``want`` has them,
    and the products formed from them to within 1e-15 of their scale."""
    assert type(got) is type(want)
    k = got.n_components
    assert (k, got.notes) == select_components(want.eigvals, want.eigvals.size, p)
    scales = product_scales(want, k) if isinstance(want, KernelRdaModel) else {}
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "notes":
            continue
        if isinstance(b, np.ndarray):
            if field.name in COMPONENT_ARRAYS:
                b = b[..., :k]
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            if field.name in scales:
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15 * scales[field.name], err_msg=field.name)
            else:
                assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


SHAPES = ("full rank", "rank 2", "duplicates")


class TestSharedSmallSideSolve:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kernel", sorted(DATA_KERNELS))
    def test_kernel_pca_keeps_the_oracles_leading_columns(self, kernel, shape):
        x, _ = small_side_data(1, 4, 40, shape, False)
        for p in PS:
            want = oracle.fit_kernel_pca(x, DATA_KERNELS[kernel], p=p)
            assert_leading_columns(fit_kernel_pca(x, DATA_KERNELS[kernel], p=p), want, p)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("labels", sorted(LABEL_KERNELS))
    @pytest.mark.parametrize("kernel", sorted(DATA_KERNELS))
    def test_kernel_spca_keeps_the_oracles_leading_columns(self, kernel, labels, shape):
        label_kernel, targets = LABEL_KERNELS[labels]
        x, y = small_side_data(2, 4, 40, shape, targets)
        for p in PS:
            want = oracle.fit_kernel_spca(x, y, DATA_KERNELS[kernel], label_kernel, p=p)
            assert_leading_columns(fit_kernel_spca(x, y, DATA_KERNELS[kernel], label_kernel, p=p), want, p)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("labels", sorted(LABEL_KERNELS))
    @pytest.mark.parametrize("r1", (0.0, 0.5, 1.0))
    def test_dual_keeps_the_oracles_leading_columns(self, r1, labels, shape):
        # The dual fit is now rda.fit at r2 = 0 (here on the span route): the
        # same components as the oracle's W V / sigma, within round-off.
        label_kernel, targets = LABEL_KERNELS[labels]
        x, y = small_side_data(3, 30, 12, shape, targets)
        for p in PS:
            want = oracle.fit_dual(x, y, r1, p=p, label_kernel=label_kernel)
            got = fit_dual(x, y, r1, p=p, label_kernel=label_kernel)
            assert got.route == "span"
            k = got.n_components
            assert (k, got.notes) == select_components(want.eigvals, want.eigvals.size, p)
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.config == dataclasses.replace(want.config, p=k)
            np.testing.assert_allclose(got.eigvals, want.eigvals[:k], rtol=0.0, atol=1e-12 * want.eigvals[0])
            want_basis = want.basis[:, :k]
            np.testing.assert_allclose(got.basis @ got.basis.T, want_basis @ want_basis.T, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("d", (3, 30), ids=["d<n", "d>n"])
    def test_dual_is_the_primal_fit_at_r2_zero(self, d):
        x, y = small_side_data(4, d, 12, "full rank", False)
        for r1 in (0.0, 0.5, 1.0):
            for p in (None, 2):
                got = fit_dual(x, y, r1, p=p)
                want = fit(x, y, RoweisConfig(r1, 0.0, p=p))
                assert got.route == want.route == ("classes" if d < 12 else "span")
                assert (got.config, got.notes, got.shift) == (want.config, want.notes, want.shift)
                for name in ("basis", "eigvals", "mean"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("labels", sorted(LABEL_KERNELS))
    @pytest.mark.parametrize("r1", (0.0, 0.5, 1.0))
    def test_dual_classes_route_agrees_with_the_oracles_svd(self, r1, labels, shape):
        # W has at least d columns: the d x d eigenproblem of W W' replaced
        # the oracle's SVD of W. It is solved from the class statistics of
        # X, whose mean is the sample mean to round-off, with Xc beside
        # them for a label Gram.
        label_kernel, targets = LABEL_KERNELS[labels]
        x, y = small_side_data(3, 3, 12, shape, targets)
        for p in PS:
            want = oracle.fit_dual(x, y, r1, p=p, label_kernel=label_kernel)
            got = fit_dual(x, y, r1, p=p, label_kernel=label_kernel)
            assert got.route == "classes" and want.route == "dual"
            k = got.n_components
            assert k == select_components(want.eigvals, want.eigvals.size, p)[0]
            np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-15 * np.abs(x).max())
            assert got.config == dataclasses.replace(want.config, p=k)
            np.testing.assert_allclose(got.eigvals, want.eigvals[:k], rtol=0.0, atol=1e-14 * want.eigvals[0])
            basis = align_columns(want.basis[:, :k], got.basis)
            np.testing.assert_allclose(basis, want.basis[:, :k], rtol=0.0, atol=1e-6)

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

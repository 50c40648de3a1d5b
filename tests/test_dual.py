import numpy as np
import pytest

from roweis.dual import fit_dual
from roweis.exceptions import ConfigError
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

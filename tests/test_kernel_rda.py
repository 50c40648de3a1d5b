import tracemalloc

import numpy as np
import pytest

from roweis import datasets, kernels, rda
from roweis.cli import main
from roweis.dual import fit_dual
from roweis.exceptions import ConfigError, NumericalError
from roweis.kernel_rda import (
    PROJECT_BLOCK,
    fit_direct,
    fit_direct_grid,
    fit_kernel_pca,
    fit_kernel_spca,
    project,
)
from roweis.linalg import EIG_NOISE_RTOL
from roweis.rda import RoweisConfig, fit, objective
from roweis.rda import project as project_primal

from conftest import align_rows, labeled_blobs, moments
import oracle
from oracle import (
    ClassPartition, blend_label_kernel, centering_matrix, delta_kernel, project_kernel, within_scatter,
)
from test_kernels import poly_feature_map


def normalized_rows(emb: np.ndarray) -> np.ndarray:
    centered = emb - emb.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return centered / norms


def pairwise_distances(emb: np.ndarray) -> np.ndarray:
    return np.sqrt(kernels.squared_distances(emb, emb))


def row_centered(k: np.ndarray) -> np.ndarray:
    """K H: the Gram with its row means taken out, the direct fit's data."""
    return k - k.mean(axis=1, keepdims=True)


class TestKernelObjectiveMatrix:
    """The direct fit's M = K_x (H P H) K_x is ``rda.objective`` of K_x H."""

    def test_identity_mix(self, rng):
        x = rng.standard_normal((2, 6))
        k = kernels.gram(kernels.KernelSpec("linear"), x, x)
        h = centering_matrix(6)
        np.testing.assert_allclose(objective(moments(row_centered(k)), 0.0), k @ h @ k, atol=1e-10)

    def test_identity_gram(self, rng):
        labels = rng.permutation(np.arange(5) % 2)
        p = 0.4 * delta_kernel(labels, labels) + 0.6 * np.eye(5)
        h = centering_matrix(5)
        got = objective(moments(row_centered(np.eye(5)), labels), 0.4)
        np.testing.assert_allclose(got, h @ p @ h, atol=1e-12)

    def test_symmetric(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=10, c=2)
        k = kernels.gram(kernels.KernelSpec("rbf", gamma=0.4), x, x)
        m = objective(moments(row_centered(k), labels), 1.0)
        assert np.max(np.abs(m - m.T)) <= 1e-10

    @pytest.mark.parametrize("r1", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("label_kernel", [
        kernels.KernelSpec("delta"), kernels.KernelSpec("rbf", gamma=0.8), kernels.KernelSpec("linear"),
        kernels.KernelSpec("polynomial", degree=2)], ids=lambda s: s.family)
    def test_matches_the_dense_objective(self, rng, label_kernel, r1):
        x, labels = labeled_blobs(rng, d=3, n=40, c=3)
        if label_kernel.family != "delta":
            labels = x[0] - 0.5 * x[1]
        k = kernels.gram(kernels.KernelSpec("rbf", gamma=0.3), x, x)
        p_mat = blend_label_kernel(oracle.label_gram(label_kernel, labels, labels), r1)
        want = oracle.kernel_objective_matrix(k, p_mat)
        k_c = row_centered(k)
        keys = labels if label_kernel.family == "delta" else None
        got = objective(moments(k_c, keys), r1, k_c, **oracle.label_term(label_kernel, labels))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


class TestKernelWithinScatter:
    """N = sum_j K_j H_j K_j' is the oracle's ``within_scatter`` of the Gram matrix."""

    @pytest.mark.parametrize("spec", [kernels.KernelSpec("rbf", gamma=0.4), kernels.KernelSpec("linear"),
                                      kernels.KernelSpec("polynomial", degree=3)], ids=lambda s: s.family)
    @pytest.mark.parametrize("n, c", [(1, 1), (7, 3), (40, 2), (65, 5)])
    def test_equals_the_kernel_builder_bit_for_bit(self, rng, spec, n, c):
        x = rng.standard_normal((3, n))
        labels = rng.permutation(np.arange(n) % c)
        k = kernels.gram(spec, x, x)
        part = ClassPartition.from_labels(labels)
        assert np.array_equal(within_scatter(k, labels), oracle.kernel_within_scatter(k, part))

    def test_singleton_classes_vanish(self, rng):
        x = rng.standard_normal((2, 4))
        k = kernels.gram(kernels.KernelSpec("rbf", gamma=1.0), x, x)
        np.testing.assert_allclose(within_scatter(k, [0, 1, 2, 3]), 0.0, atol=1e-12)

    def test_single_class_is_centered_square(self, rng):
        x = rng.standard_normal((2, 6))
        k = kernels.gram(kernels.KernelSpec("linear"), x, x)
        h = centering_matrix(6)
        np.testing.assert_allclose(within_scatter(k, np.zeros(6, dtype=int)), k @ h @ k, atol=1e-10)

    def test_feature_space_quadratic_form(self, rng):
        # theta' N theta equals the explicit within-class scatter quadratic
        # form in the polynomial feature space.
        x, labels = labeled_blobs(rng, d=2, n=10, c=2)
        spec = kernels.KernelSpec("polynomial", degree=2, offset=1.0)
        k = kernels.gram(spec, x, x)
        n_mat = within_scatter(k, labels)
        phi = poly_feature_map(x, 2, 1.0)
        s_w_phi = within_scatter(phi, labels)
        for _ in range(10):
            theta = rng.standard_normal(10)
            direction = phi @ theta
            lhs = float(theta @ n_mat @ theta)
            rhs = float(direction @ s_w_phi @ direction)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))

    def test_positive_semidefinite(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=12, c=3)
        k = kernels.gram(kernels.KernelSpec("rbf", gamma=0.3), x, x)
        n_mat = within_scatter(k, labels)
        assert np.linalg.eigvalsh(n_mat).min() >= -1e-10 * max(np.trace(n_mat), 1.0)


class TestKernelConstraint:
    """``rda.constraint`` builds the direct fit's L = r2 * N + (1 - r2) * K_x
    in K_x's eigenbasis: with G = Lambda V' = V' K_x and the eigenvalues as
    the metric vector, it is V' L V."""

    def test_edges_and_midpoint(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=15, c=3)
        k = kernels.gram(kernels.KernelSpec("rbf", gamma=0.5), x, x)
        n_mat = oracle.kernel_within_scatter(k, ClassPartition.from_labels(labels))
        values, vectors = np.linalg.eigh(k)
        for r2 in (0.0, 0.5, 1.0):
            want = vectors.T @ oracle.kernel_constraint_matrix(n_mat, k, r2) @ vectors
            # At r2 = 0, L is diag(lambda) there, which the eigen core hands
            # to the solver as the eigenvalues themselves.
            got = np.diag(values) if r2 == 0.0 else rda.constraint(moments(values[:, None] * vectors.T, labels), r2,
                                                                   metric=values)
            np.testing.assert_allclose(got, want, atol=1e-10 * np.abs(want).max())


class TestFitDirect:
    def test_linear_kernel_unsupervised_matches_primal_pca(self, rng):
        x = rng.standard_normal((3, 25))
        primal = fit(x, None, RoweisConfig(0.0, 0.0, p=3))
        direct = fit_direct(x, None, RoweisConfig(0.0, 0.0, p=3), kernels.KernelSpec("linear"))
        a = normalized_rows(project_primal(primal, x))
        b = normalized_rows(project(direct, x))
        b = align_rows(a, b)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_hard_constraint_with_two_classes_keeps_one_direction(self):
        rng = np.random.default_rng(31)
        from roweis.datasets import gen_rings

        ds = gen_rings(60, 3)
        kern = kernels.resolve_gamma(kernels.KernelSpec("rbf"), ds.X)
        model = fit_direct(ds.X, ds.y, RoweisConfig(1.0, 1.0), kern)
        assert model.n_components == 1

    def test_generalized_residual_on_retained_directions(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=14, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        model = fit_direct(x, labels, RoweisConfig(0.6, 0.5), kern)
        k = kernels.gram(kern, x, x)
        p_mat = 0.6 * delta_kernel(labels, labels) + 0.4 * np.eye(14)
        m_mat = oracle.kernel_objective_matrix(k, p_mat)
        n_mat = within_scatter(k, labels)
        l_eff = oracle.kernel_constraint_matrix(n_mat, k, 0.5) + model.shift * np.eye(14)
        residual = np.linalg.norm(
            m_mat @ model.coeffs - l_eff @ model.coeffs @ np.diag(model.eigvals), "fro"
        )
        assert residual <= 1e-8 * np.linalg.norm(m_mat, "fro")

    def test_rejects_regression_targets_with_class_constraint(self, rng):
        x = rng.standard_normal((3, 10))
        with pytest.raises(ConfigError):
            fit_direct(x, rng.standard_normal(10), RoweisConfig(0.0, 1.0), kernels.KernelSpec("rbf", gamma=1.0))


class TestProjectDirect:
    def test_training_projection_is_coeffs_against_gram(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=12, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.7)
        model = fit_direct(x, labels, RoweisConfig(1.0, 0.0, p=2), kern)
        k = kernels.gram(kern, x, x)
        np.testing.assert_allclose(project(model, x), model.coeffs.T @ k, atol=1e-12)

    def test_duplicated_point_embeds_identically(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=12, c=2)
        model = fit_direct(x, labels, RoweisConfig(1.0, 0.0, p=2), kernels.KernelSpec("rbf", gamma=0.7))
        np.testing.assert_allclose(project(model, x[:, 3:4]), project(model, x)[:, 3:4], atol=1e-12)

    def test_batch_matches_single_point_projection(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=10, c=2)
        x_new = rng.standard_normal((2, 5))
        model = fit_direct(x, labels, RoweisConfig(0.5, 0.5, p=2), kernels.KernelSpec("rbf", gamma=0.7))
        batch = project(model, x_new)
        singles = np.column_stack([project(model, x_new[:, j : j + 1])[:, 0] for j in range(5)])
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestKernelPca:
    def test_linear_kernel_matches_primal_pca(self, rng):
        x = rng.standard_normal((3, 20))
        primal = fit(x, None, RoweisConfig(0.0, 0.0, p=3))
        trick = fit_kernel_pca(x, kernels.KernelSpec("linear"))
        p = min(3, trick.n_components)
        a = project_primal(primal, x)[:p]
        b = align_rows(a, project(trick, x)[:p])
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_out_of_sample_formula_consistent_on_training_data(self, rng):
        x = rng.standard_normal((3, 15))
        model = fit_kernel_pca(x, kernels.KernelSpec("rbf", gamma=0.6))
        stored = model.sigma[:, None] * model.right_vectors.T
        np.testing.assert_allclose(project(model, x), stored, atol=1e-8)

    def test_degenerate_kernel_rejected(self):
        x = np.ones((2, 6))
        with pytest.raises(NumericalError):
            fit_kernel_pca(x, kernels.KernelSpec("rbf", gamma=1.0))

    def test_line_data_has_one_positive_direction(self, rng):
        direction = np.array([[1.0], [2.0]])
        x = direction @ rng.standard_normal((1, 10))
        model = fit_kernel_pca(x, kernels.KernelSpec("linear"))
        assert model.n_components == 1


class TestKernelSpca:
    def test_linear_kernels_match_dual_form(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=16, c=3)
        x_new = rng.standard_normal((3, 4))
        trick = fit_kernel_spca(x, labels, kernels.KernelSpec("linear"), kernels.KernelSpec("delta"))
        dual = fit_dual(x, labels, 1.0)
        p = min(trick.n_components, dual.n_components)
        for data in (x, x_new):
            a = project_primal(dual, data)[:p]
            b = align_rows(a, project(trick, data)[:p])
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_distinct_labels_reduce_to_kernel_pca(self, rng):
        x = rng.standard_normal((3, 8))
        labels = np.arange(8)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        spca = fit_kernel_spca(x, labels, kern, kernels.KernelSpec("delta"))
        pca = fit_kernel_pca(x, kern)
        p = min(spca.n_components, pca.n_components)
        a = project(pca, x)[:p]
        b = align_rows(a, project(spca, x)[:p])
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_balanced_classes_separate_in_leading_dimension(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=20, c=2, spread=4.0)
        model = fit_kernel_spca(x, labels, kernels.KernelSpec("rbf"), kernels.KernelSpec("delta"))
        lead = project(model, x)[0]
        gap = abs(lead[labels == 0].mean() - lead[labels == 1].mean())
        pooled = lead.std()
        assert gap > pooled

    def test_requires_labels(self, rng):
        with pytest.raises(ConfigError):
            fit_kernel_spca(rng.standard_normal((2, 6)), None, kernels.KernelSpec("linear"))


class TestTrickDirectAgreement:
    def test_supervised_corner_spans_the_same_subspace(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=14, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.4)
        trick = fit_kernel_spca(x, labels, kern, kernels.KernelSpec("delta"))
        direct = fit_direct(x, labels, RoweisConfig(1.0, 0.0), kern)
        p = min(trick.n_components, direct.n_components)
        d_trick = pairwise_distances(normalized_rows(project(trick, x)[:p]))
        d_direct = pairwise_distances(normalized_rows(project(direct, x)[:p]))
        np.testing.assert_allclose(d_trick, d_direct, atol=1e-6)


class TestDenseShiftedSolveAgreement:
    """The direct fit solves M theta = mu (L + s I) theta in K_x's numerical
    range; ``oracle.fit_direct``, the dense n x n shifted solve, is the
    reference. The two differ only by round-off, and the shift, through the
    trace, only in its last bits."""

    CASES = {
        "rings-rbf": (datasets.gen_rings, kernels.KernelSpec("rbf")),
        "xor-rbf": (datasets.gen_xor, kernels.KernelSpec("rbf")),
        "xor-linear": (datasets.gen_xor, kernels.KernelSpec("linear")),
        "xor-poly2": (datasets.gen_xor, kernels.KernelSpec("polynomial", degree=2)),
    }

    @pytest.mark.parametrize("r1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("r2", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_dense_solve(self, case, r1, r2):
        generate, kern = self.CASES[case]
        ds = generate(300, 3)
        config = RoweisConfig(r1, r2)
        got = fit_direct(ds.X, ds.y, config, kern)
        want = oracle.fit_direct(ds.X, ds.y, config, kern)
        assert got.n_components == want.n_components
        assert got.notes == want.notes
        assert got.shift == pytest.approx(want.shift, rel=1e-12)
        np.testing.assert_allclose(got.eigvals, want.eigvals, rtol=1e-10, atol=0.0)
        emb_want = project(want, ds.X)
        emb_got = align_rows(emb_want, project(got, ds.X))
        scale = np.abs(emb_want).max(axis=1, keepdims=True)
        assert np.all(np.abs(emb_got - emb_want) <= 1e-8 * scale)

    def test_indefinite_kernel_fails_and_fits_where_the_dense_solve_does(self):
        ds = datasets.gen_xor(300, 3)
        kern = kernels.KernelSpec("polynomial", degree=3, offset=-1.0)
        for r2 in (0.0, 0.5):
            config = RoweisConfig(0.5, r2)
            with pytest.raises(NumericalError, match="not positive semidefinite") as want:
                oracle.fit_direct(ds.X, ds.y, config, kern)
            with pytest.raises(NumericalError, match="not positive semidefinite") as got:
                fit_direct(ds.X, ds.y, config, kern)
            head, _, lowest = str(got.value).rpartition(" ")
            want_head, _, want_lowest = str(want.value).rpartition(" ")
            assert head == want_head and float(lowest) == pytest.approx(float(want_lowest), rel=1e-3)
        config = RoweisConfig(0.5, 1.0)
        got, want = fit_direct(ds.X, ds.y, config, kern), oracle.fit_direct(ds.X, ds.y, config, kern)
        assert got.n_components == want.n_components
        assert got.shift == pytest.approx(want.shift, rel=1e-12)
        np.testing.assert_allclose(got.eigvals, want.eigvals, rtol=1e-10, atol=0.0)

    def test_constant_data_carry_no_variance(self):
        # K_x H is exactly 0, so the range's G H is too, as the dense M was.
        x, labels = np.ones((2, 6)), np.arange(6) % 2
        for config in (RoweisConfig(0.0, 0.0), RoweisConfig(0.5, 0.5), RoweisConfig(1.0, 1.0)):
            with pytest.raises(NumericalError, match="no positive eigenvalues"):
                oracle.fit_direct(x, labels, config, kernels.KernelSpec("rbf", gamma=1.0))
            with pytest.raises(NumericalError, match="no positive eigenvalues"):
                fit_direct(x, labels, config, kernels.KernelSpec("rbf", gamma=1.0))

    @pytest.mark.parametrize("r2", (0.0, 1.0))
    def test_a_round_off_spectrum_is_refused_as_the_primal_fit_refuses_it(self, tmp_path, r2):
        # Each class holds one (0, 0) and one (1, 1), so the class means agree
        # and R1 is 0 at r1 = 1. The direct fit's spectrum is round-off alone
        # (about 6e-32 at r2 = 0 and 1e-26 at r2 = 1); it must be refused as a
        # spectrum of zeros, by the fit and by the command line (exit 4).
        x, labels = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]), np.array([0, 1, 0, 1])
        config = RoweisConfig(1.0, r2)
        with pytest.raises(NumericalError, match="no positive eigenvalues"):
            fit(x, labels, config)
        with pytest.raises(NumericalError, match="no positive eigenvalues"):
            fit_direct(x, labels, config, kernels.KernelSpec("rbf", gamma=1.0))
        path = tmp_path / "twins.csv"
        path.write_text("f1,f2,label\n0,0,0\n0,0,1\n1,1,0\n1,1,1\n")
        argv = ["fit", "--data", path, "--label-col", "label", "--variant", "kernel", "--kernel", "rbf",
                "--gamma", 1, "--r1", 1, "--r2", r2, "--out", tmp_path / "m.txt"]
        assert main([str(a) for a in argv]) == 4


class TestDimensionalityBound:
    def test_valid_count_with_hard_constraint(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=12, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        model = fit_direct(x, labels, RoweisConfig(1.0, 1.0), kern)
        above = int(np.count_nonzero(model.eigvals > 1e-9 * model.eigvals[0]))
        assert above <= min(12, 2) - 1

    def test_no_reconstruction_surface(self):
        import roweis.kernel_rda as module

        assert not hasattr(module, "reconstruct")


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def p2_models(rng, n: int) -> dict:
    """One model per variant, each with p = 2, on three rbf-separable blobs."""
    x, labels = labeled_blobs(rng, d=2, n=n, c=3)
    kern = kernels.KernelSpec("rbf", gamma=0.3)
    return {
        "direct": fit_direct(x, labels, RoweisConfig(0.5, 0.5, p=2), kern),
        "trick_pca": fit_kernel_pca(x, kern, p=2),
        "trick_spca": fit_kernel_spca(x, labels, kern, p=2),
    }


VARIANTS = ["direct", "trick_pca", "trick_spca"]


class TestBlockedProjection:
    """project works PROJECT_BLOCK new points at a time; the one-shot formula
    over all points, kept in tests/oracle.py, is the reference."""

    @pytest.mark.parametrize("n_new", [1, PROJECT_BLOCK, 2 * PROJECT_BLOCK + 37],
                             ids=["one point", "one block", "blocks and a tail"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_the_one_shot_formula(self, rng, variant, n_new):
        model = p2_models(rng, 60)[variant]
        x_new = 4.0 * rng.standard_normal((2, n_new))
        got, want = project(model, x_new), project_kernel(model, x_new)
        assert got.shape == want.shape == (2, n_new)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_project_builds_no_training_gram(self, rng, monkeypatch, variant):
        # The trick fits' centering is folded into coeffs and offset at the
        # fit, so projecting needs only the train-vs-new kernel.
        model = p2_models(rng, 40)[variant]
        shapes = []
        real_gram = kernels.gram

        def counting_gram(spec, a, b):
            out = real_gram(spec, a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(kernels, "gram", counting_gram)
        for n_new in (1, 5, PROJECT_BLOCK + 3):
            project(model, rng.standard_normal((2, n_new)))
        assert shapes == [(40, 1), (40, 5), (40, PROJECT_BLOCK), (40, 3)]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_memory_stays_below_a_quarter_of_the_full_kernel(self, rng, variant):
        n_train, n_new = 300, 20000
        model = p2_models(rng, n_train)[variant]
        x_new = rng.standard_normal((2, n_new))
        assert traced_peak(lambda: project(model, x_new)) < n_train * n_new * 8 / 4


class TestFitDirectMemory:
    @pytest.mark.parametrize("r1, r2", [(0.5, 0.5), (1.0, 0.0), (0.0, 0.0)])
    def test_peak_is_at_most_ten_gram_sized_arrays(self, r1, r2):
        n = 400
        x, labels = labeled_blobs(np.random.default_rng(3), d=2, n=n, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        peak = traced_peak(lambda: fit_direct(x, labels, RoweisConfig(r1, r2, p=2), kern))
        assert peak <= 10 * n * n * 8

    @pytest.mark.parametrize("r1, r2", [(0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 0.5), (1.0, 1.0)])
    def test_single_config_peak_stays_at_the_gram_sized_arrays_it_needs(self, r1, r2):
        # K_x and its eigh, then V_m and G H (m x n each, K_x freed once G H
        # is formed) beside the m x m constraint factor and M or the solver's
        # arrays: no n x n P. Here K_x keeps m = 260 of 300 eigenpairs, and
        # the measured peak is 4.0 n^2 doubles at each config, under the 4.3
        # bound; where K_x has full numerical rank (m = n) it is 5.0.
        n = 300
        x, labels = labeled_blobs(np.random.default_rng(3), d=2, n=n, c=3)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        peak = traced_peak(lambda: fit_direct_grid(x, labels, [RoweisConfig(r1, r2, p=2)], kern))
        assert peak <= 4.3 * n * n * 8

    def test_full_rank_zero_r2_grid_holds_no_dense_factor(self):
        # Where K_x has full numerical rank (m = n), V_m is held beside the
        # m x m solve; at r2 = 0 the factor is the vector 1 / sqrt(lambda_m)
        # and the solve scales instead of multiplying by an m x m inverse,
        # so the grid peaks at about 4.1 n^2 doubles (5.1 with a dense factor).
        n = 300
        x, labels = labeled_blobs(np.random.default_rng(3), d=2, n=n, c=3)
        kern = kernels.KernelSpec("rbf", gamma=5.0)
        values = np.linalg.eigvalsh(kernels.gram(kern, x, x))
        assert np.count_nonzero(np.abs(values) > EIG_NOISE_RTOL * np.abs(values).max()) == n
        configs = [RoweisConfig(r1, 0.0, p=2) for r1 in (0.0, 0.5, 1.0)]
        peak = traced_peak(lambda: fit_direct_grid(x, labels, configs, kern))
        assert peak <= 4.3 * n * n * 8

    def test_class_labels_build_no_label_gram(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "label_gram", lambda *a: calls.append(a))
        x, labels = labeled_blobs(rng, d=2, n=30, c=3)
        configs = [RoweisConfig(r1, r2, p=2) for r1 in (0.0, 0.5, 1.0) for r2 in (0.0, 0.5)]
        fit_direct_grid(x, labels, configs, kernels.KernelSpec("rbf", gamma=0.5))
        assert not calls


class TestInPlaceBuilders:
    """The builders that now work in place give the bits of the one-line
    formulas kept in tests/oracle.py, and leave their inputs alone, except
    double_center, which centers the array it is given and returns it."""

    @staticmethod
    def gram_like(rng, n):
        k = rng.standard_normal((n, n))
        k[rng.random((n, n)) < 0.3] = 0.0
        k[rng.random((n, n)) < 0.1] = -0.0
        return k + k.T

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_bit_identical_to_the_formulas(self, n):
        rng = np.random.default_rng(n)
        k, other = self.gram_like(rng, n), self.gram_like(rng, n)
        labels = rng.integers(0, 3, size=n)
        part = ClassPartition.from_labels(labels)
        metric = np.diag(k).copy()
        before = k.tobytes(), other.tobytes(), metric.tobytes()
        owned = k.copy()
        pairs = [(kernels.double_center(owned), oracle.double_center(k))]
        assert pairs[0][0] is owned
        # At r2 = 0 a metric's constraint is the vector itself
        # (test_rda.py::TestConstraint), and no fit builds R2 = I.
        n_mat, s_w = oracle.kernel_within_scatter(other, part), within_scatter(other, labels)
        assert rda.constraint(moments(s_w=n_mat), 0.0, metric=metric) is metric
        for r in (0.3, 1.0):
            pairs.append((
                rda.constraint(moments(s_w=n_mat), r, metric=metric),
                oracle.kernel_constraint_matrix(n_mat, np.diag(metric), r),
            ))
            pairs.append((rda.constraint(moments(s_w=s_w), r), oracle.constraint_matrix(s_w, r)))
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (k.tobytes(), other.tobytes(), metric.tobytes()) == before

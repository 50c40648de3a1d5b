import numpy as np
import pytest

from roweis import kernels, rda
from roweis.exceptions import ConfigError, NumericalError
from roweis.linalg import Complement, factor_constraint, symmetric_eig
from roweis.rda import (
    RdaModel,
    RoweisConfig,
    constraint,
    fit,
    objective,
    project,
    reconstruct,
    robustify,
    select_components,
    supervision_level,
)

from conftest import align_columns, align_rows, labeled_blobs, moments, with_complement
from oracle import (
    blend_label_kernel,
    centering_matrix,
    constraint_matrix,
    delta_kernel,
    kernel_constraint_matrix,
    objective_matrix,
    total_scatter,
    within_scatter,
)

# A label Gram: a fit at r1 > 0 with it keeps X.
RBF = kernels.KernelSpec("rbf", gamma=0.5)


class TestBlendLabelKernel:
    """rda.objective blends the label term (Xc K_y) Xc' with Xc Xc', for a
    label kernel without a class factor, as P = r1 K_y + (1 - r1) I does."""

    @staticmethod
    def targets(rng):
        x = rng.standard_normal((3, 12))
        return x - x.mean(axis=1, keepdims=True), x[0] + 0.3 * rng.standard_normal(12)

    def test_r1_zero_gives_identity(self, rng):
        xc, y = self.targets(rng)
        got = objective(moments(xc), 0.0)
        np.testing.assert_allclose(got, xc @ xc.T, rtol=0.0, atol=1e-14 * np.abs(got).max())

    def test_r1_one_gives_kernel(self, rng):
        xc, y = self.targets(rng)
        spec = kernels.KernelSpec("rbf", gamma=0.5)
        got = objective(moments(xc), 1.0, xc, kernels.label_gram(spec, y, y))
        want = xc @ kernels.label_gram(spec, y, y) @ xc.T
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())

    def test_midpoint(self, rng):
        xc, y = self.targets(rng)
        spec = kernels.KernelSpec("rbf", gamma=0.5)
        for r1 in (0.3, 0.5):
            want = objective_matrix(xc, blend_label_kernel(kernels.label_gram(spec, y, y), r1))
            got = objective(moments(xc), r1, xc, kernels.label_gram(spec, y, y))
            assert np.array_equal(got, got.T)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())

    def test_out_of_range(self):
        # The range check on r1 is the config's.
        with pytest.raises(ConfigError):
            RoweisConfig(r1=1.5)


class TestObjectiveMatrix:
    def test_identity_mix_equals_total_scatter(self, rng):
        x = rng.standard_normal((4, 9))
        np.testing.assert_allclose(
            objective_matrix(x, np.eye(9)), total_scatter(x), atol=1e-10
        )

    def test_identical_columns_give_zero(self):
        x = np.tile(np.array([[2.0], [1.0]]), (1, 6))
        np.testing.assert_allclose(objective_matrix(x, np.eye(6)), 0.0, atol=1e-12)

    def test_matches_dependence_form_with_explicit_centering(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=12, c=3)
        k_y = delta_kernel(labels, labels)
        h = centering_matrix(12)
        expected = x @ h @ k_y @ h @ x.T
        np.testing.assert_allclose(objective_matrix(x, k_y), expected, atol=1e-10)


class TestConstraint:
    # Class means 1 and 11 on the first feature, 0 on the second: S_W = diag(4, 0).
    X = np.array([[0.0, 2.0, 10.0, 12.0], [0.0, 0.0, 0.0, 0.0]])
    LABELS = [0, 0, 1, 1]

    def test_r2_zero(self):
        # A metric's R2 at r2 = 0 is diag(metric) alone, returned as the
        # vector itself, which is factored in closed form
        # (test_linalg.py::TestDiagonalFactor); R2 = I is the all-ones metric.
        ones = np.ones(2)
        assert constraint(moments(self.X, self.LABELS), 0.0, metric=ones) is ones
        np.testing.assert_array_equal(factor_constraint(ones).chol_inv, np.ones(2))
        metric = np.array([2.0, 3.0])
        assert constraint(moments(self.X, self.LABELS), 0.0, metric=metric) is metric

    def test_r2_one(self):
        np.testing.assert_allclose(constraint(moments(self.X, self.LABELS), 1.0), np.diag([4.0, 0.0]))
        got = constraint(moments(self.X, self.LABELS), 1.0, metric=np.array([2.0, 3.0]))
        np.testing.assert_allclose(got, np.diag([4.0, 0.0]))

    def test_midpoint(self):
        np.testing.assert_allclose(constraint(moments(self.X, self.LABELS), 0.5), np.diag([2.5, 0.5]))
        got = constraint(moments(self.X, self.LABELS), 0.5, metric=np.array([2.0, 3.0]))
        np.testing.assert_allclose(got, np.diag([3.0, 1.5]))

    @pytest.mark.parametrize("r2", [0.0, 0.3, 0.5, 1.0])
    def test_vector_metric_is_its_diagonal_matrix_bit_for_bit(self, rng, r2):
        # The kernel direct fit's metric, K_x's kept eigenvalues, comes as a
        # vector and is added on the diagonal in place: the bits of the
        # one-line formula with the metric as a diagonal matrix. At r2 = 0
        # the formula is diag(metric), returned as the vector: its factor's
        # bits are those of the matrix's.
        x = rng.standard_normal((6, 20))
        labels = rng.integers(0, 3, size=20)
        metric = rng.random(6) + 0.5
        s_w = within_scatter(x, labels)
        want = kernel_constraint_matrix(s_w, np.diag(metric), r2)
        if r2 == 0.0:
            got, want = factor_constraint(constraint(moments(s_w=s_w), r2, metric=metric)), factor_constraint(want)
            assert got.shift == want.shift and got.chol_inv.tobytes() == np.diag(want.chol_inv).tobytes()
            return
        got = constraint(moments(s_w=s_w), r2, metric=metric)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRobustify:
    def test_hand_spectrum(self, rng):
        # Spectrum [97, 2, 0.9, 0.1]: the first two carry 99% of the mass,
        # so the tail [0.9, 0.1] is replaced by its mean 0.5.
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        s = (q * [97.0, 2.0, 0.9, 0.1]) @ q.T
        repaired, complement = robustify(s)
        expected = (q * [97.0, 2.0, 0.5, 0.5]) @ q.T
        np.testing.assert_allclose(repaired, expected, atol=1e-9)
        assert complement is None

    def test_well_conditioned_matrix_unchanged(self):
        s = np.diag([4.0, 3.0, 2.9])
        repaired, complement = robustify(s)
        np.testing.assert_allclose(repaired, s, atol=1e-9)
        assert complement is None

    @pytest.mark.parametrize("d, complement", [
        (3, None), (50, None), (64, None), (65, None), (100, None), (300, None), (40, Complement(1.0, 260)),
    ])
    def test_identity_unchanged(self, d, complement):
        # Bit for bit: eigh of an exact identity returns the identity basis,
        # so the repair rebuilds I exactly. This is why a robust fit at
        # r2 = 0, where R2 = I, solves the plain problem (test_grid.py).
        repaired, outside = robustify(np.eye(d), complement)
        assert repaired.tobytes() == np.eye(d).tobytes() and outside == complement

    def test_zero_matrix_becomes_scaled_identity(self):
        out, complement = robustify(np.zeros((3, 3)))
        assert np.allclose(out, out[0, 0] * np.eye(3)) and out[0, 0] > 0
        assert complement is None

    def test_full_rank_when_tail_keeps_mass(self, rng):
        # Rank 8 of 12 with comparable eigenvalues: the 98% mass point lands
        # before the rank, so the flattened tail mean is positive.
        g = rng.standard_normal((12, 8))
        repaired, _ = robustify(g @ g.T)
        assert np.linalg.eigvalsh(repaired).min() > 0

    def test_exact_tail_of_zeros_stays_singular(self):
        # 98% of the mass needs both positive eigenvalues, so the replaced
        # tail is all zeros and its mean cannot repair the rank.
        s = np.diag([1.0, 1.0, 0.0, 0.0])
        repaired, _ = robustify(s)
        np.testing.assert_allclose(repaired, s, atol=1e-12)


class TestRobustifyWithComplement:
    """The block plus complement form against robustify of the full matrix."""

    @pytest.mark.parametrize(
        "spectrum, value, count",
        [
            ([97.0, 2.0, 0.9], 0.1, 1),  # complement in the flattened tail
            ([60.0, 30.0, 0.5], 3.0, 2),  # complement kept in the head
            ([5.0, 4.0, 3.0], 0.0, 2),  # zero complement below the cut
        ],
    )
    def test_matches_the_full_repair(self, rng, spectrum, value, count):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        block = (q * spectrum) @ q.T
        repaired, outside = robustify(block, complement=Complement(value, count))
        full, _ = robustify(with_complement(block, value, count))
        np.testing.assert_allclose(with_complement(repaired, outside.value, count), full, atol=1e-9)

    def test_exactly_flat_tie_is_left_alone(self):
        repaired, outside = robustify(np.eye(3), complement=Complement(1.0, 200))
        np.testing.assert_allclose(repaired, np.eye(3), atol=1e-12)
        assert outside.value == 1.0

    def test_cut_inside_a_noisy_tie_leaves_the_block(self):
        # 3 + 1e-14 and the 200 copies of 3 are tied and end the spectrum;
        # the cut lands inside them, so the exact repair is a no-op and the
        # block and complement come back as they are, as the full repair
        # gives them up to round-off.
        block = np.diag([10.0, 3.0 + 1e-14, 3.0])
        repaired, outside = robustify(block, complement=Complement(3.0, 200))
        assert np.array_equal(repaired, block) and outside == Complement(3.0, 200)
        full, _ = robustify(with_complement(block, 3.0, 200))
        np.testing.assert_allclose(with_complement(repaired, outside.value, 200), full, atol=1e-12)

    def test_cut_inside_an_exact_tie_leaves_the_block(self):
        # As with a tie that is not exact: the cut lands after the first 0.1,
        # and the tail mean of three copies of 0.1 is not 0.1 bit for bit,
        # so a repair would change both the block and the complement.
        block = np.diag([15.0, 0.1, 0.1])
        repaired, outside = robustify(block, complement=Complement(0.1, 2))
        assert np.array_equal(repaired, block) and outside == Complement(0.1, 2)

    def test_cut_splitting_a_tie_above_smaller_values_is_refused(self):
        # The cut lands among the copies of 3, and 1 follows them: no
        # constraint R2 >= (1 - r2) I has a value below its complement's.
        block = np.diag([10.0, 3.0 + 1e-14, 1.0])
        with pytest.raises(ConfigError, match="robust cut"):
            robustify(block, complement=Complement(3.0, 200))


class TestSupervisionLevel:
    def test_corners_and_midpoint(self):
        assert supervision_level(0.0, 0.0) == 0.0
        assert supervision_level(1.0, 1.0) == 1.0
        assert supervision_level(1.0, 0.0) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            supervision_level(-0.1, 0.0)


class TestSelectComponents:
    def test_share_rule_for_p_none(self):
        # Shares 0.9, 0.095 and 0.005: the 1% rule keeps two.
        assert select_components([90.0, 9.5, 0.5, 0.0], 4, None) == (2, ())

    def test_single_eigenvalue(self):
        assert select_components([3.0], 1, None) == (1, ())

    def test_uniform_spectrum(self):
        assert select_components([1.0, 1.0, 1.0, 1.0], 4, None) == (4, ())

    def test_all_zero_rejected(self):
        with pytest.raises(NumericalError):
            select_components([0.0, 0.0], 2, None)
        with pytest.raises(NumericalError):
            select_components([], 0, 1)

    def test_requested_p_is_kept_up_to_the_valid_count(self):
        values = [4.0, 2.0, 1.0, 1e-10, -1e-14]
        assert select_components(values, 5, 2) == (2, ())
        assert select_components(values, 5, 3) == (3, ())
        # 1e-10 of the largest is not valid: round-off sets its direction.
        assert select_components(values, 5, 4) == (3, ("requested p=4 exceeds the 3 valid components; truncated",))

    def test_cap_bounds_the_valid_count(self):
        assert select_components([4.0, 2.0, 1.0], 2, None) == (2, ())
        assert select_components([4.0, 2.0, 1.0], 2, 3) == (2, ("requested p=3 exceeds the 2 valid components; truncated",))

    def test_negative_eigenvalues_have_no_share(self):
        assert select_components([1.0, 0.5, -0.5], 3, None) == (2, ())

    @pytest.mark.parametrize("p", [0, -2])
    def test_p_below_one_rejected(self, p):
        with pytest.raises(ConfigError, match="positive integer"):
            select_components([1.0], 1, p)


class TestFit:
    def test_one_dimensional_data_is_one_feature(self, rng):
        x = rng.standard_normal(12)
        got, want = fit(x, None, RoweisConfig()), fit(x[None, :], None, RoweisConfig())
        assert got.n_features == 1
        assert np.array_equal(got.basis, want.basis) and np.array_equal(got.mean, want.mean)

    def test_unsupervised_corner_is_pca(self, rng):
        x = rng.standard_normal((5, 30))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=5))
        oracle = symmetric_eig(total_scatter(x))
        np.testing.assert_allclose(model.eigvals, oracle.values[:5], rtol=1e-10)
        np.testing.assert_allclose(
            align_columns(oracle.vectors, model.basis), oracle.vectors, atol=1e-8
        )

    # d = 12: 3 classes of 12 features hold more than 30 samples, which the
    # class statistics take as they are; a label Gram at r1 > 0 keeps X.
    @pytest.mark.parametrize("d, spec, route", [(6, None, "classes"), (12, None, "classes"), (12, RBF, "dense"),
                                                (60, None, "span")],
                             ids=["6-classes", "12-classes", "12-gram-dense", "60-span"])
    @pytest.mark.parametrize("r1", [0.0, 0.5, 1.0])
    def test_r2_zero_skips_the_factorization_and_the_solves(self, rng, monkeypatch, d, spec, route, r1):
        # R2 = I, so a fit that is not robust solves R1 alone: no constraint
        # spectrum, no Cholesky factor, no triangular solves.
        x, labels = labeled_blobs(rng, d, 30, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("a fit at r2 = 0 worked on its identity constraint")

        for name in ("eigvalsh", "cholesky", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        model = fit(x, labels, RoweisConfig(r1=r1, r2=0.0, p=2, label_kernel=spec))
        monkeypatch.undo()
        assert model.route == ("classes" if r1 == 0 and d <= 30 else route) and model.shift == 0.0
        k = delta_kernel(labels, labels) if spec is None else kernels.label_gram(spec, labels, labels)
        r1_mat = objective_matrix(x, blend_label_kernel(k, r1))
        scale = float(model.eigvals[0])
        np.testing.assert_allclose(r1_mat @ model.basis, model.basis * model.eigvals, atol=1e-10 * scale)
        np.testing.assert_allclose(model.basis.T @ model.basis, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("route, d", [("dense", 2), ("span", 12)])
    def test_the_targets_units_do_not_change_what_a_fit_keeps(self, rng, route, d):
        # With a linear label kernel R1 = (Xc y)(Xc y)' scales with the
        # targets' square: at 1e-8 its eigenvalue is near 1e-15, far below a
        # noise floor scaled by the data alone.
        x, y = rng.standard_normal((d, 10)), rng.standard_normal(10)
        config = RoweisConfig(1.0, 0.0, label_kernel=kernels.KernelSpec("linear"))
        ref, small = fit(x, y, config), fit(x, 1e-8 * y, config)
        assert small.route == ref.route == route
        assert small.config.p == ref.config.p == 1
        np.testing.assert_allclose(small.eigvals, 1e-16 * ref.eigvals, rtol=1e-10)
        np.testing.assert_allclose(align_columns(ref.basis, small.basis), ref.basis, atol=1e-10)

    @pytest.mark.parametrize("route, d, spec", [("classes", 3, None), ("classes", 12, None), ("dense", 12, RBF),
                                                ("span", 40, None)], ids=["classes-3", "classes-12", "dense-12",
                                                                          "span-40"])
    def test_the_datas_units_do_not_change_what_a_discriminant_fit_keeps(self, rng, route, d, spec):
        # At r2 = 1 R1 and R2 both scale with the data's square, so the
        # spectrum does not move; the noise floor scales with the data too
        # and is divided by the factor's unit, R2's mean diagonal. At 1e8
        # the undivided floor would lie above the dense route's spectrum
        # (the span route's singular R2 is shifted, which lifts its own).
        x, labels = labeled_blobs(rng, d, 20, 3)
        config = RoweisConfig(0.5, 1.0, label_kernel=spec)
        ref, big = fit(x, labels, config), fit(1e8 * x, labels, config)
        assert big.route == ref.route == route
        assert big.config.p == ref.config.p and big.eigvals.size == ref.eigvals.size
        np.testing.assert_allclose(big.eigvals, ref.eigvals, rtol=1e-6)

    @pytest.mark.parametrize("spec", [
        kernels.KernelSpec("linear"),
        kernels.KernelSpec("polynomial", degree=3, offset=-0.7),
        kernels.KernelSpec("polynomial", degree=2, offset=2.0),
    ])
    def test_the_label_kernel_scale_is_its_largest_entry(self, rng, spec):
        y = rng.standard_normal(15) + 0.3
        assert rda._label_kernel_scale(spec, y) == pytest.approx(np.abs(kernels.label_gram(spec, y, y)).max())

    def test_discriminant_corner_matches_direction_sweep(self):
        rng = np.random.default_rng(11)
        x, labels = labeled_blobs(rng, d=2, n=40, c=2, spread=4.0)
        model = fit(x, labels, RoweisConfig(0.0, 1.0, p=1))
        s_t, s_w = total_scatter(x), within_scatter(x, labels)

        def ratio(u):
            return float(u @ s_t @ u) / float(u @ s_w @ u)

        sweep = max(
            ratio(np.array([np.cos(t), np.sin(t)]))
            for t in np.deg2rad(np.arange(0.0, 180.0, 1.0))
        )
        lead = model.basis[:, 0]
        assert ratio(lead / np.linalg.norm(lead)) >= sweep * (1.0 - 1e-9)

    def test_double_supervised_corner_solves_its_pencil(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=24, c=3)
        model = fit(x, labels, RoweisConfig(1.0, 1.0))
        k_y = delta_kernel(labels, labels)
        h = centering_matrix(24)
        r1_mat = x @ h @ k_y @ h @ x.T
        r2_eff = within_scatter(x, labels) + model.shift * np.eye(3)
        residual = np.linalg.norm(
            r1_mat @ model.basis - r2_eff @ model.basis @ np.diag(model.eigvals), "fro"
        )
        assert residual <= 1e-8 * np.linalg.norm(r1_mat, "fro")

    def test_constraint_is_normalized_at_fit_time(self, rng):
        x, labels = labeled_blobs(rng, d=4, n=40, c=2)
        model = fit(x, labels, RoweisConfig(0.3, 0.7))
        r2 = constraint_matrix(within_scatter(x, labels), 0.7) + model.shift * np.eye(4)
        gram = model.basis.T @ r2 @ model.basis
        np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)

    def test_mixing_grid_keeps_matrices_psd(self, rng):
        x, labels = labeled_blobs(rng, d=3, n=20, c=2)
        k_y = delta_kernel(labels, labels)
        s_w = within_scatter(x, labels)
        for r1 in np.linspace(0, 1, 5):
            for r2 in np.linspace(0, 1, 5):
                r1_mat = objective_matrix(x, blend_label_kernel(k_y, r1))
                r2_mat = constraint_matrix(s_w, r2)
                for m in (r1_mat, r2_mat):
                    assert np.max(np.abs(m - m.T)) <= 1e-10
                    assert np.linalg.eigvalsh(m).min() >= -1e-9 * max(np.trace(m), 1.0)

    def test_valid_count_bounded_by_rank(self, rng):
        x, labels = labeled_blobs(rng, d=12, n=8, c=2)
        model = fit(x, labels, RoweisConfig(0.0, 0.0))
        assert model.n_components <= min(12, 8 - 1)

    def test_label_renaming_is_invisible(self, rng):
        x, labels = labeled_blobs(rng, d=4, n=30, c=3)
        renamed = np.array(["abc"[int(v)] for v in labels])
        a = fit(x, labels, RoweisConfig(1.0, 0.0))
        b = fit(x, renamed, RoweisConfig(1.0, 0.0))
        np.testing.assert_allclose(a.basis, b.basis, atol=1e-14)
        np.testing.assert_allclose(a.eigvals, b.eigvals, atol=1e-14)

    def test_requested_p_above_rank_bound_is_truncated(self, rng):
        x = rng.standard_normal((3, 8))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=9))
        assert model.n_components == 3
        assert model.notes

    def test_auto_dimension_uses_ratio_threshold(self, rng):
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        spectrum = np.array([100.0, 50.0, 0.001, 0.0008, 0.0005, 0.0002])
        x = basis @ np.diag(np.sqrt(spectrum)) @ rng.standard_normal((6, 500))
        model = fit(x, None, RoweisConfig(0.0, 0.0))
        assert model.n_components == 2

    def test_errors(self, rng):
        x = rng.standard_normal((3, 10))
        targets = rng.standard_normal(10)
        with pytest.raises(ConfigError):
            fit(x, targets, RoweisConfig(0.0, 0.5))
        with pytest.raises(ConfigError):
            fit(x, None, RoweisConfig(0.5, 0.0))
        with pytest.raises(ConfigError):
            fit(x[:, :1], None, RoweisConfig(0.0, 0.0))
        with pytest.raises(ConfigError):
            RoweisConfig(1.2, 0.0)

    def test_regression_targets_allowed_on_orthonormal_edge(self, rng):
        x = rng.standard_normal((3, 20))
        targets = x[0] * 2.0 + rng.standard_normal(20) * 0.1
        model = fit(x, targets, RoweisConfig(1.0, 0.0, p=1))
        assert model.config.label_kernel.family == "rbf"
        assert model.config.label_kernel.gamma is not None


class TestProjectReconstruct:
    def test_axis_basis_picks_first_coordinate(self, rng):
        x = rng.standard_normal((2, 7))
        model = RdaModel(
            basis=np.array([[1.0], [0.0]]),
            eigvals=np.array([1.0]),
            mean=x.mean(axis=1),
            config=RoweisConfig(0.0, 0.0, p=1),
        )
        centered = x - x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(project(model, x), centered[:1], atol=1e-12)

    def test_projecting_the_mean_gives_zero(self, rng):
        x = rng.standard_normal((3, 9))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=2))
        np.testing.assert_allclose(project(model, model.mean[:, None]), 0.0, atol=1e-12)

    def test_projected_energy_equals_scatter_trace(self, rng):
        x = rng.standard_normal((4, 25))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=4))
        emb = project(model, x)
        energy = np.linalg.norm(emb, "fro") ** 2
        trace = float(np.trace(model.basis.T @ total_scatter(x) @ model.basis))
        assert energy == pytest.approx(trace, rel=1e-9)

    def test_full_rank_reconstruction_is_identity(self, rng):
        x = rng.standard_normal((3, 20))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=3))
        np.testing.assert_allclose(reconstruct(model, x), x, atol=1e-9)

    def test_reconstructing_the_mean_returns_it(self, rng):
        x = rng.standard_normal((3, 9))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=1))
        np.testing.assert_allclose(
            reconstruct(model, model.mean[:, None])[:, 0], model.mean, atol=1e-12
        )

    def test_pca_line_beats_axis_projections(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal(60)
        x = np.vstack([t, 0.8 * t]) + 0.05 * rng.standard_normal((2, 60))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=1))
        centered = x - x.mean(axis=1, keepdims=True)
        pca_err = np.linalg.norm(centered - (reconstruct(model, x) - x.mean(axis=1, keepdims=True)), "fro") ** 2
        for axis in (0, 1):
            e = np.zeros((2, 1))
            e[axis, 0] = 1.0
            axis_err = np.linalg.norm(centered - e @ (e.T @ centered), "fro") ** 2
            assert pca_err <= axis_err + 1e-9

    def test_dimension_mismatch(self, rng):
        x = rng.standard_normal((3, 9))
        model = fit(x, None, RoweisConfig(0.0, 0.0, p=1))
        with pytest.raises(ConfigError):
            project(model, rng.standard_normal((4, 2)))
        with pytest.raises(ConfigError):
            reconstruct(model, rng.standard_normal((2, 2)))

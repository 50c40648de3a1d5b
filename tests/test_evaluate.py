import numpy as np
import pytest

from roweis.evaluate import EvalReport, knn_classify, linear_regression_rmse
from roweis.exceptions import ConfigError


class TestKnn:
    def test_coincident_point_takes_its_label(self):
        train = np.array([[0.0, 1.0, 2.0]])
        report = knn_classify(train, np.array([5, 6, 7]), np.array([[1.0]]), np.array([6]))
        assert report.value == 0.0

    def test_separated_embeddings_have_zero_error(self):
        train = np.array([[0.0, 0.1, 5.0, 5.1]])
        y = np.array([0, 0, 1, 1])
        test = np.array([[0.05, 5.05]])
        assert knn_classify(train, y, test, np.array([0, 1])).value == 0.0

    def test_hand_distance_comparison(self):
        # Test point 0.9 sits closer to the training point at 1 (label B).
        train = np.array([[0.0, 1.0]])
        report = knn_classify(train, np.array(["A", "B"]), np.array([[0.9]]), np.array(["B"]))
        assert report.value == 0.0

    def test_tie_breaks_to_smallest_training_index(self):
        train = np.array([[0.0, 2.0]])
        report = knn_classify(train, np.array([0, 1]), np.array([[1.0]]), np.array([0]))
        assert report.value == 0.0  # equidistant: index 0 wins

    def test_training_order_permutation_invariant_without_ties(self, rng):
        train = rng.standard_normal((2, 20))
        y = rng.integers(0, 2, 20)
        test = rng.standard_normal((2, 10))
        test_y = rng.integers(0, 2, 10)
        base = knn_classify(train, y, test, test_y).value
        perm = rng.permutation(20)
        assert knn_classify(train[:, perm], y[perm], test, test_y).value == base

    def test_empty_training_rejected(self):
        with pytest.raises(ConfigError):
            knn_classify(np.empty((1, 0)), np.array([]), np.array([[1.0]]), np.array([0]))


class TestLinearRegression:
    def test_exactly_linear_targets(self, rng):
        emb = rng.standard_normal((2, 30))
        beta = np.array([1.5, -2.0])
        y = beta @ emb + 0.7
        test_emb = rng.standard_normal((2, 10))
        test_y = beta @ test_emb + 0.7
        assert linear_regression_rmse(emb, y, test_emb, test_y).value <= 1e-10

    def test_constant_targets(self, rng):
        emb = rng.standard_normal((1, 15))
        y = np.full(15, 3.0)
        report = linear_regression_rmse(emb, y, rng.standard_normal((1, 5)), np.full(5, 3.0))
        assert report.value <= 1e-10

    def test_closed_form_prediction(self):
        emb = np.array([[0.0, 1.0, 2.0]])
        y = 2.0 * emb[0] + 1.0
        report = linear_regression_rmse(emb, y, np.array([[3.0]]), np.array([7.0]))
        assert report.value <= 1e-10

    def test_beats_constant_predictor_on_training_data(self, rng):
        emb = rng.standard_normal((2, 40))
        y = rng.standard_normal(40)
        fit_rmse = linear_regression_rmse(emb, y, emb, y).value
        const_rmse = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        assert fit_rmse <= const_rmse + 1e-12

    def test_underdetermined_falls_back_to_ridge(self, rng):
        emb = rng.standard_normal((5, 4))
        y = rng.standard_normal(4)
        report = linear_regression_rmse(emb, y, emb, y)
        assert np.isfinite(report.value)


class TestEvalReport:
    def test_error_rate_range_enforced(self):
        with pytest.raises(ConfigError):
            EvalReport.from_values("error-rate", [1.5])

    def test_rmse_nonnegative(self):
        with pytest.raises(ConfigError):
            EvalReport.from_values("rmse", [-0.1])

    def test_population_std(self):
        report = EvalReport.from_values("rmse", [1.0, 3.0])
        assert report.std == 1.0

    def test_single_repetition_has_zero_std(self):
        report = EvalReport.from_values("rmse", [2.5])
        assert report.std == 0.0 and report.mean == 2.5

    def test_mean_is_exact_arithmetic_mean(self):
        values = [0.25, 0.5, 1.0, 0.125]
        report = EvalReport.from_values("rmse", values)
        assert report.mean == float(np.mean(values))
        assert report.per_seed_values == tuple(values)

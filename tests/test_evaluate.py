import numpy as np
import pytest

from roweis import experiments
from roweis.evaluate import knn_classify, linear_regression_rmse
from roweis.exceptions import ConfigError


class TestKnn:
    def test_coincident_point_takes_its_label(self):
        train = np.array([[0.0, 1.0, 2.0]])
        error = knn_classify(train, np.array([5, 6, 7]), np.array([[1.0]]), np.array([6]))
        assert error == 0.0

    def test_separated_embeddings_have_zero_error(self):
        train = np.array([[0.0, 0.1, 5.0, 5.1]])
        y = np.array([0, 0, 1, 1])
        test = np.array([[0.05, 5.05]])
        assert knn_classify(train, y, test, np.array([0, 1])) == 0.0

    def test_hand_distance_comparison(self):
        # Test point 0.9 sits closer to the training point at 1 (label B).
        train = np.array([[0.0, 1.0]])
        error = knn_classify(train, np.array(["A", "B"]), np.array([[0.9]]), np.array(["B"]))
        assert error == 0.0

    def test_tie_breaks_to_smallest_training_index(self):
        train = np.array([[0.0, 2.0]])
        error = knn_classify(train, np.array([0, 1]), np.array([[1.0]]), np.array([0]))
        assert error == 0.0  # equidistant: index 0 wins

    def test_training_order_permutation_invariant_without_ties(self, rng):
        train = rng.standard_normal((2, 20))
        y = rng.integers(0, 2, 20)
        test = rng.standard_normal((2, 10))
        test_y = rng.integers(0, 2, 10)
        base = knn_classify(train, y, test, test_y)
        perm = rng.permutation(20)
        assert knn_classify(train[:, perm], y[perm], test, test_y) == base

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
        assert linear_regression_rmse(emb, y, test_emb, test_y) <= 1e-10

    def test_constant_targets(self, rng):
        emb = rng.standard_normal((1, 15))
        y = np.full(15, 3.0)
        rmse = linear_regression_rmse(emb, y, rng.standard_normal((1, 5)), np.full(5, 3.0))
        assert rmse <= 1e-10

    def test_closed_form_prediction(self):
        emb = np.array([[0.0, 1.0, 2.0]])
        y = 2.0 * emb[0] + 1.0
        rmse = linear_regression_rmse(emb, y, np.array([[3.0]]), np.array([7.0]))
        assert rmse <= 1e-10

    def test_beats_constant_predictor_on_training_data(self, rng):
        emb = rng.standard_normal((2, 40))
        y = rng.standard_normal(40)
        fit_rmse = linear_regression_rmse(emb, y, emb, y)
        const_rmse = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
        assert fit_rmse <= const_rmse + 1e-12

    def test_underdetermined_falls_back_to_ridge(self, rng):
        emb = rng.standard_normal((5, 4))
        y = rng.standard_normal(4)
        rmse = linear_regression_rmse(emb, y, emb, y)
        assert np.isfinite(rmse)


def table_of(monkeypatch, per_rep: list) -> list:
    """The regression table's cells when the split of repetition k scores
    ``per_rep[k]`` for every method and r1."""
    monkeypatch.setattr(experiments, "_cell_seed", lambda base_seed, bench_id, rep: rep)
    monkeypatch.setattr(experiments, "_split_rmse", lambda job: [per_rep[job[2]]] * 6)
    return experiments.regression_benchmark_table(repetitions=len(per_rep))


class TestBenchCell:
    def test_error_rate_is_a_fraction(self, rng):
        y = rng.integers(0, 3, 30)
        error = knn_classify(rng.standard_normal((2, 30)), y, rng.standard_normal((2, 20)), rng.integers(0, 3, 20))
        assert 0.0 <= error <= 1.0

    def test_rmse_nonnegative(self, rng):
        emb, y = rng.standard_normal((2, 30)), rng.standard_normal(30)
        assert linear_regression_rmse(emb, y, rng.standard_normal((2, 10)), rng.standard_normal(10)) >= 0.0

    def test_population_std(self, monkeypatch):
        assert all(cell.std == 1.0 for cell in table_of(monkeypatch, [1.0, 3.0]))

    def test_single_repetition_has_zero_std(self, monkeypatch):
        assert all(cell.std == 0.0 and cell.mean == 2.5 for cell in table_of(monkeypatch, [2.5]))

    def test_mean_is_exact_arithmetic_mean(self, monkeypatch):
        values = [0.25, 0.5, 1.0, 0.125]
        for cell in table_of(monkeypatch, values):
            assert cell.mean == float(np.mean(values))
            assert cell.values == tuple(values)

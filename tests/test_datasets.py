import numpy as np
import pytest

from roweis import experiments
from roweis.datasets import (
    Dataset,
    gen_regression_benchmark,
    gen_rings,
    gen_xor,
    load_csv,
    save_csv,
    train_test_split,
)
from roweis.exceptions import ConfigError, DataError

from oracle import xor_class


class TestXor:
    def test_sign_convention(self):
        assert xor_class(0.5, 0.5) == 0
        assert xor_class(0.5, -0.5) == 1
        assert xor_class(-0.5, -0.5) == 0

    def test_labels_follow_coordinates(self):
        ds = gen_xor(100, 3)
        expected = np.array([xor_class(a, b) for a, b in ds.X.T])
        np.testing.assert_array_equal(ds.y, expected)

    def test_two_balanced_classes(self):
        ds = gen_xor(101, 5)
        counts = np.bincount(ds.y)
        assert counts.size == 2
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_margin_respected(self):
        ds = gen_xor(200, 9, margin=0.1)
        assert np.min(np.abs(ds.X)) >= 0.1

    def test_deterministic_per_seed(self):
        a, b = gen_xor(50, 4), gen_xor(50, 4)
        np.testing.assert_array_equal(a.X, b.X)
        assert not np.array_equal(a.X, gen_xor(50, 5).X)

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            gen_xor(3, 0)


class TestRings:
    def test_noise_free_radii_are_ordered(self):
        ds = gen_rings(60, 2, noise=0.0)
        radii = np.linalg.norm(ds.X, axis=0)
        assert radii[ds.y == 0].max() < radii[ds.y == 1].min()

    def test_balanced(self):
        counts = np.bincount(gen_rings(99, 1).y)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_rings(40, 8).X, gen_rings(40, 8).X)

    @pytest.mark.parametrize("kwargs", [
        {"noise": float("nan")}, {"noise": float("inf")}, {"noise": -0.1},
        {"inner": float("nan")}, {"inner": -1.0}, {"outer": float("inf")}, {"outer": 1.0}, {"inner": 4.0},
    ], ids=["nan noise", "inf noise", "negative noise", "nan inner", "negative inner", "inf outer",
            "outer at inner", "inner past outer"])
    def test_bad_parameters_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError, match="inner < outer"):
            gen_rings(20, 0, **kwargs)


class TestRegressionBenchmarks:
    def test_first_surface_formula(self):
        ds = gen_regression_benchmark(1, 200, 11, noise_scale=0.0)
        x = ds.X
        expected = x[0] / (0.5 + (x[1] + 1.5) ** 2) + (1.0 + x[1]) ** 2
        np.testing.assert_allclose(ds.y, expected, atol=1e-12)
        # Hand anchor: x1=1, x2=-1.5 gives 1/0.5 + 0.25 = 2.25.
        assert 1.0 / (0.5 + 0.0) + 0.25 == pytest.approx(2.25)

    def test_second_surface_formula_and_support(self):
        ds = gen_regression_benchmark(2, 300, 12, noise_scale=0.0)
        x = ds.X
        np.testing.assert_allclose(ds.y, np.sin(np.pi * x[1] + 1.0) ** 2, atol=1e-12)
        assert x.min() >= 0.0 and x.max() <= 1.0
        # The corner where every coordinate is small is excluded.
        assert np.all(x.max(axis=0) > 0.7)
        # Hand anchor: x2=0 gives sin^2(1).
        assert np.sin(np.pi * 0.0 + 1.0) ** 2 == pytest.approx(0.7080734182735712)

    def test_third_is_pure_noise(self):
        ds = gen_regression_benchmark(3, 50, 13, noise_scale=0.0)
        assert ds.X.shape == (10, 50)
        np.testing.assert_allclose(ds.y, 0.0)

    def test_shapes_and_determinism(self):
        a = gen_regression_benchmark(2, 80, 4)
        assert a.X.shape == (4, 80)
        b = gen_regression_benchmark(2, 80, 4)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_invalid_id(self):
        with pytest.raises(ConfigError):
            gen_regression_benchmark(4, 10, 0)

    @pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), -1.0])
    def test_bad_noise_scale_is_a_config_error(self, noise_scale):
        with pytest.raises(ConfigError, match="noise_scale"):
            gen_regression_benchmark(1, 10, 0, noise_scale=noise_scale)


class TestDataset:
    X = np.zeros((2, 3))

    def test_accepts_class_ids_and_finite_targets(self):
        assert Dataset(X=self.X, y=np.array(["a", "b", "a"]), kind="classification").n == 3
        assert Dataset(X=self.X, y=np.array([0.5, -1.0, 2.0]), kind="regression").n == 3

    def test_x_must_be_two_dimensional(self):
        with pytest.raises(DataError, match="2-dimensional"):
            Dataset(X=np.zeros(3), y=np.zeros(3), kind="regression")

    def test_one_label_per_sample(self):
        with pytest.raises(DataError, match="does not match 3 samples"):
            Dataset(X=self.X, y=np.zeros(2), kind="regression")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown dataset kind"):
            Dataset(X=self.X, y=np.zeros(3), kind="ranking")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_x(self, bad):
        x = self.X.copy()
        x[1, 2] = bad
        with pytest.raises(DataError, match="X contains NaN or Inf"):
            Dataset(X=x, y=np.zeros(3), kind="regression")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_real_labels(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(X=self.X, y=np.array([0.0, bad, 1.0]), kind="regression")


class TestSplit:
    def test_paper_sizes(self):
        ds = gen_xor(400, 7)
        train, test = train_test_split(ds, 0.7, 7)
        assert train.n == 280 and test.n == 120

    def test_stratification_balanced(self):
        ds = gen_rings(200, 3)
        train, test = train_test_split(ds, 0.5, 3)
        for part in (train, test):
            counts = np.bincount(part.y)
            assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_union_covers_everything(self):
        ds = gen_xor(50, 2)
        train, test = train_test_split(ds, 0.7, 2)
        merged = np.sort(np.concatenate([train.X[0], test.X[0]]))
        np.testing.assert_allclose(merged, np.sort(ds.X[0]))

    def test_deterministic(self):
        ds = gen_xor(60, 1)
        a_train, _ = train_test_split(ds, 0.7, 9)
        b_train, _ = train_test_split(ds, 0.7, 9)
        np.testing.assert_array_equal(a_train.X, b_train.X)

    def test_tiny_class_falls_back_with_warning(self):
        x = np.arange(10, dtype=float)[None, :]
        y = np.array([0] * 9 + [1])
        ds = Dataset(X=x, y=y, kind="classification")
        with pytest.warns(UserWarning):
            train, test = train_test_split(ds, 0.7, 0)
        assert train.n + test.n == 10

    def test_regression_split_plain(self):
        ds = gen_regression_benchmark(1, 40, 5)
        train, test = train_test_split(ds, 0.7, 5)
        assert train.n == 28 and test.n == 12

    def test_invalid_fraction(self):
        ds = gen_xor(20, 0)
        with pytest.raises(ConfigError):
            train_test_split(ds, 1.0, 0)


class TestSeeds:
    """numpy refuses a negative seed with a ValueError; every place a seed
    enters it raises ConfigError naming the seed instead."""

    @pytest.mark.parametrize("make", [
        lambda seed: gen_xor(20, seed),
        lambda seed: gen_rings(20, seed),
        lambda seed: gen_regression_benchmark(1, 20, seed),
        lambda seed: train_test_split(gen_xor(20, 0), 0.7, seed),
        lambda seed: experiments._cell_seed(seed, 1, 0),
    ], ids=["xor", "rings", "bench", "split", "cell seed"])
    def test_negative_seed_is_config_error(self, make):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            make(-1)
        make(0)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_table_needs_a_repetition(self, reps):
        with pytest.raises(ConfigError, match=f"repetitions must be at least 1, got {reps}"):
            experiments.regression_benchmark_table(repetitions=reps, n=20)


class TestCsv:
    def test_round_trip_with_int_labels(self, tmp_path):
        ds = gen_xor(20, 3)
        path = tmp_path / "xor.csv"
        save_csv(path, ds.X, ds.y)
        x, y, names = load_csv(path, label_col="label")
        np.testing.assert_array_equal(x, ds.X)
        np.testing.assert_array_equal(y, ds.y)
        assert names == ["f1", "f2"]

    def test_round_trip_regression_targets(self, tmp_path):
        ds = gen_regression_benchmark(2, 15, 1)
        path = tmp_path / "bench.csv"
        save_csv(path, ds.X, ds.y)
        x, y, _ = load_csv(path, label_col="label")
        np.testing.assert_array_equal(x, ds.X)
        np.testing.assert_array_equal(y, ds.y)

    def test_label_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,a\n3.0,4.0,b\n")
        x, y, _ = load_csv(path, label_col=2)
        np.testing.assert_allclose(x, [[1.0, 3.0], [2.0, 4.0]])
        assert y.tolist() == ["a", "b"]

    def test_headerless_numeric(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,2.5\n3.5,4.5\n")
        x, y, _ = load_csv(path)
        assert y is None
        np.testing.assert_allclose(x, [[1.5, 3.5], [2.5, 4.5]])

    def test_missing_value_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1.0,2.0\n3.0,\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_non_numeric_feature_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\noops,4.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_feature_reports_row_and_column(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2,label\n1.0,2.0,0\n3.0,{token},1\n")
        with pytest.raises(DataError, match="row 3 column 2 is not finite"):
            load_csv(path, label_col="label")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_label_reports_row_and_column(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,f2,label\n1.0,2.0,0.5\n3.0,4.0,{token}\n")
        with pytest.raises(DataError, match="row 3 column 3 is not finite"):
            load_csv(path, label_col="label")

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv(path, label_col="missing")

    # Text is an index only when it is a minus sign at most and decimal
    # digits; int() refuses the others, so they are column names.
    @pytest.mark.parametrize("text", ["²", "--1", "+1", " 1"])
    def test_label_text_that_int_refuses_is_a_name(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text("f1,f2\n1.0,2.0\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(path, label_col=text)

    def test_binary_file_is_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xff\xfe\x00binary")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path)

    def test_header_only_gives_zero_samples(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f1,f2\n")
        x, y, _ = load_csv(path)
        assert x.shape == (2, 0)
        assert y is None

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import roweis
from roweis.exceptions import ConfigError
from roweis.kernels import (
    KernelSpec,
    class_indicator,
    double_center,
    gram,
    is_categorical,
    label_gram,
    median_heuristic_gamma,
    resolve_gamma,
)
from roweis.rda import RoweisConfig, fit
import oracle
from oracle import ClassPartition, center_test_kernel


def poly_feature_map(x: np.ndarray, degree: int, offset: float) -> np.ndarray:
    """Explicit monomial feature map with (x'z + c)^D = phi(x)' phi(z).

    Expands the multinomial: one feature per exponent vector alpha with
    |alpha| <= D, weighted by sqrt(D! / (alpha! k!) * c^k) where k = D - |alpha|.
    """
    d, n = x.shape
    rows = []
    for alpha in itertools.product(range(degree + 1), repeat=d):
        total = sum(alpha)
        if total > degree:
            continue
        k = degree - total
        coeff = math.factorial(degree) / (
            math.prod(math.factorial(a) for a in alpha) * math.factorial(k)
        )
        coeff *= offset**k
        mono = np.ones(n)
        for i, a in enumerate(alpha):
            mono = mono * x[i] ** a
        rows.append(np.sqrt(coeff) * mono)
    return np.vstack(rows)


class TestKernelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="sigmoid")

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="rbf", gamma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, value):
        with pytest.raises(ConfigError, match="gamma"):
            KernelSpec(family="rbf", gamma=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_offset(self, value):
        with pytest.raises(ConfigError, match="offset"):
            KernelSpec(family="polynomial", offset=value)

    def test_rejects_degree_zero(self):
        with pytest.raises(ConfigError):
            KernelSpec(family="polynomial", degree=0)

    def test_dict_round_trip(self):
        spec = KernelSpec(family="polynomial", degree=3, offset=0.5)
        assert KernelSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("field, value", [
        ("degree", 2.5), ("degree", True), ("degree", "3"), ("degree", math.inf),
        pytest.param("degree", 10**400, id="degree-past-float"),
        ("gamma", True), ("gamma", "0.5"), ("offset", "1"), ("offset", False),
        pytest.param("offset", 10**400, id="offset-past-float"),
    ])
    def test_rejects_a_bool_a_string_or_a_fractional_degree(self, field, value):
        with pytest.raises(ConfigError, match=field):
            KernelSpec(family="polynomial" if field != "gamma" else "rbf", **{field: value})

    def test_numbers_are_held_as_python_numbers(self):
        rbf = KernelSpec(family="rbf", gamma=np.float32(0.5))
        poly = KernelSpec(family="polynomial", degree=np.float64(3.0), offset=np.int64(2))
        assert (rbf.gamma, poly.degree, poly.offset) == (0.5, 3, 2.0)
        assert [type(v) for v in (rbf.gamma, poly.degree, poly.offset)] == [float, int, float]
        for spec in (rbf, poly):
            assert KernelSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestGram:
    def test_rbf_self_similarity_is_one(self, rng):
        x = rng.standard_normal((3, 4))
        k = gram(KernelSpec("rbf", gamma=0.7), x, x)
        np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)

    def test_rbf_hand_value(self):
        # exp(-gamma * |a - b|^2) at gamma=1, a=0, b=1.
        k = gram(KernelSpec("rbf", gamma=1.0), np.array([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(k, [[0.36787944117144233]], rtol=1e-12)

    def test_linear_identity(self):
        k = gram(KernelSpec("linear"), np.eye(2), np.eye(2))
        np.testing.assert_allclose(k, np.eye(2))

    def test_polynomial_matches_explicit_map(self, rng):
        x = rng.standard_normal((2, 5))
        z = rng.standard_normal((2, 3))
        for degree in (1, 2, 3):
            spec = KernelSpec("polynomial", degree=degree, offset=1.0)
            phi_x = poly_feature_map(x, degree, 1.0)
            phi_z = poly_feature_map(z, degree, 1.0)
            np.testing.assert_allclose(gram(spec, x, z), phi_x.T @ phi_z, atol=1e-9)

    def test_symmetric_on_self(self, rng):
        x = rng.standard_normal((3, 8))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.3), KernelSpec("polynomial")):
            k = gram(spec, x, x)
            assert np.max(np.abs(k - k.T)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            gram(KernelSpec("linear"), np.eye(2), np.eye(3))

    def test_unresolved_rbf_gamma_rejected(self):
        with pytest.raises(ConfigError):
            gram(KernelSpec("rbf"), np.eye(2), np.eye(2))

    def test_delta_family_rejected_for_vectors(self):
        with pytest.raises(ConfigError):
            gram(KernelSpec("delta"), np.eye(2), np.eye(2))


def delta_of(labels) -> np.ndarray:
    """The delta label kernel as the fits take it: E E' of the class indicator."""
    e = class_indicator(labels)
    return e @ e.T


class TestDeltaKernel:
    def test_three_point_example(self):
        np.testing.assert_array_equal(delta_of([0, 0, 1]), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_all_equal_gives_ones(self):
        np.testing.assert_array_equal(delta_of([3, 3, 3]), np.ones((3, 3)))

    def test_all_distinct_gives_identity(self):
        np.testing.assert_array_equal(delta_of([1, 2, 3]), np.eye(3))

    def test_string_labels(self):
        np.testing.assert_array_equal(delta_of(np.array(["a", "b", "b"])), [[1, 0, 0], [0, 1, 1], [0, 1, 1]])

    def test_rejects_regression_targets(self):
        x = np.arange(8.0).reshape(2, 4)
        config = RoweisConfig(r1=1.0, label_kernel=KernelSpec("delta"))
        with pytest.raises(ConfigError):
            fit(x, np.array([0.5, 1.2, 0.5, 2.0]), config)

    def test_positive_semidefinite(self, rng):
        assert np.linalg.eigvalsh(delta_of(rng.integers(0, 3, size=20))).min() >= -1e-10

    def test_is_categorical(self):
        assert is_categorical([0, 1, 2])
        assert is_categorical(np.array(["a", "b"]))
        assert is_categorical(np.array([0.0, 1.0, 2.0]))
        assert not is_categorical(np.array([0.1, 1.0]))


class TestClassIndicator:
    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0, 0, 1, 2, 1]),
            np.array(["b", "a", "b", "c"]),
            np.array([3.0, -7.0, 3.0, 10.0]),
            np.array([10, -3, 10, 42, 7, 7]),
            np.array([5]),
        ],
    )
    def test_factors_the_delta_kernel(self, labels):
        e = class_indicator(labels)
        assert e.shape == (labels.size, np.unique(labels).size)
        np.testing.assert_array_equal(e @ e.T, oracle.delta_kernel(labels, labels))

    def test_columns_follow_the_class_partition(self):
        labels = np.array(["z", "a", "m", "a", "z", "z"])
        e = class_indicator(labels)
        part = ClassPartition.from_labels(labels)
        for j, idx in enumerate(part.index_sets):
            np.testing.assert_array_equal(np.flatnonzero(e[:, j]), idx)

    def test_rejects_regression_targets(self):
        with pytest.raises(ConfigError):
            class_indicator([0.5, 1.2])

    def test_rejects_matrix_labels(self):
        with pytest.raises(ConfigError):
            class_indicator(np.zeros((2, 2), dtype=int))


class TestDoubleCenter:
    def test_constant_kernel_annihilated(self):
        np.testing.assert_allclose(double_center(np.ones((4, 4))), 0.0, atol=1e-14)

    def test_idempotent(self, rng):
        k = rng.standard_normal((6, 6))
        once = double_center(k)
        np.testing.assert_allclose(double_center(once.copy()), once, atol=1e-10)

    def test_matches_explicit_feature_centering(self, rng):
        x = rng.standard_normal((2, 7))
        k = gram(KernelSpec("linear"), x, x)
        xc = x - x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(double_center(k), xc.T @ xc, atol=1e-10)

    def test_row_and_column_sums_vanish(self, rng):
        for n in (3, 20, 100):
            k = rng.standard_normal((n, n))
            centered = double_center(k.copy())
            assert np.max(np.abs(centered.sum(axis=0))) <= 1e-10 * max(1.0, np.abs(k).max() * n)
            assert np.max(np.abs(centered.sum(axis=1))) <= 1e-10 * max(1.0, np.abs(k).max() * n)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            double_center(np.ones((2, 3)))


class TestCenterTestKernel:
    def test_reduces_to_double_centering_on_training_data(self, rng):
        x = rng.standard_normal((3, 6))
        k = gram(KernelSpec("linear"), x, x)
        np.testing.assert_allclose(center_test_kernel(k, k), double_center(k), atol=1e-10)

    def test_explicit_map_oracle_polynomial(self, rng):
        x = rng.standard_normal((2, 3))
        t = rng.standard_normal((2, 2))
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        k_x = gram(spec, x, x)
        k_t = gram(spec, x, t)
        phi_x = poly_feature_map(x, 2, 1.0)
        phi_t = poly_feature_map(t, 2, 1.0)
        mean = phi_x.mean(axis=1, keepdims=True)
        expected = (phi_x - mean).T @ (phi_t - mean)
        np.testing.assert_allclose(center_test_kernel(k_x, k_t), expected, atol=1e-10)

    def test_explicit_map_oracle_linear_and_poly_up_to_3(self, rng):
        for degree in (1, 2, 3):
            for d in (1, 2, 3):
                x = rng.standard_normal((d, 5))
                t = rng.standard_normal((d, 4))
                spec = (
                    KernelSpec("linear")
                    if degree == 1
                    else KernelSpec("polynomial", degree=degree, offset=1.0)
                )
                phi = (lambda a: a) if degree == 1 else (lambda a: poly_feature_map(a, degree, 1.0))
                phi_x, phi_t = phi(x), phi(t)
                mean = phi_x.mean(axis=1, keepdims=True)
                expected = (phi_x - mean).T @ (phi_t - mean)
                got = center_test_kernel(gram(spec, x, x), gram(spec, x, t))
                np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_identical_training_points(self):
        x = np.ones((2, 4))
        t = np.array([[1.0, 2.0], [0.0, 1.0]])
        spec = KernelSpec("rbf", gamma=0.5)
        centered = center_test_kernel(gram(spec, x, x), gram(spec, x, t))
        # Every training point matches the training mean, so all rows agree
        # and each column sums to zero.
        np.testing.assert_allclose(centered, np.zeros_like(centered), atol=1e-12)
        np.testing.assert_allclose(centered.sum(axis=0), 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            center_test_kernel(np.eye(3), np.ones((2, 4)))


class TestBandwidth:
    def test_median_heuristic_hand_check(self):
        x = np.array([[0.0, 1.0, 3.0]])
        dists = [1.0, 3.0, 2.0]
        expected = 1.0 / (2.0 * np.median(dists) ** 2)
        assert median_heuristic_gamma(x) == pytest.approx(expected)

    def test_degenerate_data_falls_back(self):
        assert median_heuristic_gamma(np.ones((2, 5))) == 1.0

    def test_kernel_fits_leave_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma (about 1 MB); resolving a bandwidth from
        # the data, for X and for real-valued targets, must not need it.
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from roweis import cli, kernel_rda
            from roweis.kernels import KernelSpec
            from roweis.rda import RoweisConfig
            x = np.random.default_rng(0).standard_normal((2, 40))
            classes, targets = (x[0] > 0).astype(int), x[0] + x[1]
            rbf = KernelSpec("rbf")
            models = [
                kernel_rda.fit_kernel_pca(x, rbf),
                kernel_rda.fit_kernel_spca(x, classes, rbf),
                kernel_rda.fit_kernel_spca(x, targets, rbf),
                kernel_rda.fit_direct(x, targets, RoweisConfig(0.5, 0.0), rbf),
            ]
            for model in models:
                kernel_rda.project(model, x)
            data, model = sys.argv[1] + "/rings.csv", sys.argv[1] + "/m.txt"
            assert cli.main(["gen", "rings", "--n", "60", "--seed", "1", "--out", data]) == 0
            assert cli.main(["fit", "--data", data, "--label-col", "label", "--variant", "kernel",
                             "--r1", "0.5", "--r2", "0.5", "--out", model]) == 0
            print("numpy.ma" in sys.modules)
        """)
        src = str(Path(roweis.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    def test_resolve_gamma_pins_value(self, rng):
        x = rng.standard_normal((3, 10))
        resolved = resolve_gamma(KernelSpec("rbf"), x)
        assert resolved.gamma == pytest.approx(median_heuristic_gamma(x))
        assert resolve_gamma(resolved, rng.standard_normal((3, 4))).gamma == resolved.gamma

    def test_label_gram_refuses_delta(self):
        # The delta kernel enters a fit only as its factor, class_indicator.
        with pytest.raises(ConfigError, match="class_indicator"):
            label_gram(KernelSpec("delta"), [0, 1], [0, 1])

    def test_label_gram_rbf_over_targets(self):
        k = label_gram(KernelSpec("rbf", gamma=1.0), [0.0], [1.0])
        np.testing.assert_allclose(k, [[0.36787944117144233]], rtol=1e-12)


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.7), KernelSpec("polynomial"),
                                  KernelSpec("polynomial", degree=3, offset=0.5)],
                         ids=["linear", "rbf", "square", "cubic"])
def test_gram_matches_the_out_of_place_builder_bit_for_bit(rng, spec):
    x, y = rng.standard_normal((3, 40)), rng.standard_normal((3, 25))
    for a, b in ((x, x), (x, y), (x, y[:, 7:8])):
        assert gram(spec, a, b).tobytes() == oracle.gram(spec, a, b).tobytes()

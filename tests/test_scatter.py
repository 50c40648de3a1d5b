import numpy as np
import pytest

from roweis import kernel_rda, kernels, rda, scatter
from roweis.exceptions import ConfigError, NumericalError

from conftest import labeled_blobs
from oracle import ClassPartition, between_scatter, class_means, total_scatter, within_scatter


def numerical_rank(matrix: np.ndarray) -> int:
    values = np.linalg.eigvalsh(matrix)
    return int(np.count_nonzero(values > 1e-9 * max(values.max(), 0.0)))


class TestTotalScatter:
    def test_one_dimensional_pair(self):
        # Deviations from the mean 3 are -1 and +1: sum of squares is 2.
        np.testing.assert_allclose(total_scatter(np.array([[2.0, 4.0]])), [[2.0]])

    def test_identical_columns(self):
        x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        np.testing.assert_allclose(total_scatter(x), np.zeros((2, 2)), atol=1e-12)

    def test_single_sample(self):
        np.testing.assert_allclose(total_scatter(np.array([[3.0], [1.0]])), np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            total_scatter(np.empty((2, 0)))


class TestClassPartition:
    def test_from_labels(self):
        part = ClassPartition.from_labels([1, 0, 1, 2])
        assert part.n_classes == 3
        assert part.sizes.tolist() == [1, 2, 1]
        assert sorted(np.concatenate(part.index_sets).tolist()) == [0, 1, 2, 3]


class TestClassMeans:
    def test_singleton_classes_return_points(self):
        x = np.array([[1.0, 5.0], [2.0, 6.0]])
        part = ClassPartition.from_labels([0, 1])
        np.testing.assert_allclose(class_means(x, part), x)

    def test_midpoint(self):
        x = np.array([[0.0, 2.0]])
        part = ClassPartition.from_labels([0, 0])
        np.testing.assert_allclose(class_means(x, part), [[1.0]])

    def test_identical_classes_identical_means(self):
        x = np.array([[1.0, 3.0, 1.0, 3.0]])
        part = ClassPartition.from_labels([0, 0, 1, 1])
        means = class_means(x, part)
        np.testing.assert_allclose(means[:, 0], means[:, 1])


class TestWithinScatter:
    def test_singleton_classes_give_zero(self):
        x = np.array([[1.0, 5.0, 9.0]])
        np.testing.assert_allclose(within_scatter(x, [0, 1, 2]), [[0.0]])

    def test_single_class_equals_total(self, rng):
        x = rng.standard_normal((3, 10))
        np.testing.assert_allclose(within_scatter(x, np.zeros(10, dtype=int)), total_scatter(x), atol=1e-12)

    def test_two_class_hand_sum(self):
        # Class means 1 and 11; each point deviates by 1, four points total.
        x = np.array([[0.0, 2.0, 10.0, 12.0]])
        np.testing.assert_allclose(within_scatter(x, [0, 0, 1, 1]), [[4.0]])

    @pytest.mark.parametrize("labels", [[], [[0, 1], [1, 0]], [0, 1, 0]], ids=["empty", "2-D", "short"])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(ConfigError):
            within_scatter(np.ones((2, 4)), labels)


class TestBetweenScatter:
    def test_single_class_zero(self, rng):
        x = rng.standard_normal((2, 6))
        part = ClassPartition.from_labels(np.zeros(6, dtype=int))
        np.testing.assert_allclose(between_scatter(x, part), np.zeros((2, 2)), atol=1e-12)

    def test_equal_class_means_zero(self):
        x = np.array([[-1.0, 1.0, -1.0, 1.0]])
        part = ClassPartition.from_labels([0, 0, 1, 1])
        np.testing.assert_allclose(between_scatter(x, part), [[0.0]], atol=1e-12)

    def test_additivity(self, rng):
        x, labels = labeled_blobs(rng, d=4, n=30, c=3)
        part = ClassPartition.from_labels(labels)
        s_t = total_scatter(x)
        gap = np.linalg.norm(between_scatter(x, part) + within_scatter(x, labels) - s_t, "fro")
        assert gap <= 1e-9 * np.linalg.norm(s_t, "fro")


class TestScatterInvariants:
    def test_additivity_spd_and_ranks_over_random_datasets(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            c = int(rng.integers(2, 5))
            n = int(rng.integers(c * 2, 40))
            x, labels = labeled_blobs(rng, d=d, n=n, c=c)
            part = ClassPartition.from_labels(labels)
            s_t, s_w, s_b = total_scatter(x), within_scatter(x, labels), between_scatter(x, part)
            assert np.linalg.norm(s_b + s_w - s_t, "fro") <= 1e-9 * np.linalg.norm(s_t, "fro")
            for s in (s_t, s_w, s_b):
                assert np.linalg.eigvalsh(s).min() >= -1e-9 * np.trace(s_t)
            assert numerical_rank(s_b) <= c - 1
            assert numerical_rank(s_t) <= min(d, n - 1)
            assert numerical_rank(s_w) <= min(d, n - 1)

    def test_label_count_mismatch_rejected(self, rng):
        x = rng.standard_normal((2, 5))
        with pytest.raises(ConfigError):
            within_scatter(x, [0, 1, 0])


# ---------------------------------------------------------------- the pass against the oracle

def pass_cases():
    """(name, n, labels of n): random shapes and degenerate ones."""
    out = []
    for trial in range(3):
        out.append((f"random {trial}", 60 + 37 * trial, lambda n: np.arange(n) % (2 + n % 3)))
    out.append(("singleton classes", 40, lambda n: np.concatenate([[7, 8], np.arange(n - 2) % 3])))
    out.append(("duplicate points", 40, lambda n: np.arange(n) % 3))
    out.append(("c = n/2", 2 * scatter.STATS_BLOCK + 6, lambda n: np.arange(n) // 2))
    out.append(("one class", 50, lambda n: np.zeros(n, dtype=int)))
    out.append(("string keys", 45, lambda n: np.array(["emu", "cat", "dog"])[np.arange(n) % 3]))
    return out


PASS_CASES = pass_cases()


def coordinates_and_moments(route, x, labels, monkeypatch):
    """The coordinates a fit of ``route`` solves in and the class moments its
    eigen core receives (copied before the core drops them)."""
    seen = []
    solve = rda._solve_grid

    def capture(moments, *args, **kwargs):
        seen.append((moments.scatter_total.copy(), moments.scatter_within.copy(), moments.class_sums.copy(),
                     kwargs.get("lift")))
        return solve(moments, *args, **kwargs)

    monkeypatch.setattr(rda, "_solve_grid", capture)
    monkeypatch.setattr(kernel_rda, "_solve_grid", capture)
    config = rda.RoweisConfig(0.5, 0.5)
    kernel = kernels.KernelSpec("rbf", gamma=0.5)
    with monkeypatch.context() as patch:
        if route == "dense":
            patch.setattr(rda, "class_grouping", lambda *args: None)
        try:
            if route == "kernel":
                kernel_rda.fit_direct(x, labels, config, kernel)
            else:
                assert rda.fit(x, labels, config).route == route
        except (NumericalError, ConfigError):
            pass  # refused by the solver, after the moments were taken
    s_t, s_w, sums, lift = seen[0]
    centered = x - x.mean(axis=1)[:, None]
    if route == "kernel":
        return kernel_rda._gram_range(kernel, x)[2], (s_t, s_w, sums)
    return (lift.T @ centered if route == "span" else x if route == "classes" else centered), (s_t, s_w, sums)


@pytest.mark.parametrize("route", ["classes", "dense", "span", "kernel"])
@pytest.mark.parametrize("name, n, make_labels", PASS_CASES, ids=[case[0] for case in PASS_CASES])
def test_the_pass_matches_the_oracle_on_every_route(monkeypatch, route, name, n, make_labels):
    if route in ("span", "kernel"):
        n = min(n, 300)  # an n x n problem
    rng = np.random.default_rng(n)
    labels = make_labels(n)
    d = n + 3 if route == "span" else 4
    x = rng.standard_normal((d, n)) + np.unique(labels, return_inverse=True)[1]
    if name == "duplicate points":
        x[:, n // 2:] = x[:, :n - n // 2]
    coords, (s_t, s_w, sums) = coordinates_and_moments(route, x, labels, monkeypatch)
    xc = coords - coords.mean(axis=1, keepdims=True)
    inverse = np.unique(labels, return_inverse=True)[1]
    e = (inverse[:, None] == np.arange(inverse.max() + 1)).astype(float)
    # Relative to the sums of absolute terms that each entry rounds over.
    scale = np.abs(xc) @ np.abs(xc).T
    for got, want in ((s_t, total_scatter(coords)), (s_w, within_scatter(coords, labels))):
        assert np.all(np.abs(got - want) <= 1e-12 * scale.max())
    assert np.all(np.abs(sums - xc @ e) <= 1e-12 * (np.abs(xc) @ e).max())

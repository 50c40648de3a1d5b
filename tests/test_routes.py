"""The span route of ``rda.fit`` (n < d) against the dense d x d oracle.

The oracle builds the full d x d problem:
``oracle.objective_matrix`` on the dense blended label kernel,
``oracle.constraint_matrix`` on the within-class scatter, ``robustify`` on
the d x d constraint, and ``generalized_eig`` on the pair. Spectra must agree to 1e-10 relative to the
leading eigenvalue, shifts to 1e-12 relative, and embeddings to 1e-8 up to
sign. Embeddings are compared only for components whose eigenvalue is
positive and separated from its neighbours: the directions of a zero or
repeated eigenvalue are arbitrary on both routes. The fitted basis must keep
the constraint residual ``max|U'(B + shift I)U - I| <= 1e-8`` against the
dense B.
"""

import sys

import numpy as np
import pytest

from roweis import kernels, rda
from roweis.linalg import factor_constraint, generalized_eig
from roweis.rda import (
    RoweisConfig,
    fit,
    project,
    robustify,
)

from conftest import align_rows
import oracle
from oracle import blend_label_kernel, constraint_matrix, objective_matrix, within_scatter

SPECTRUM_RTOL = 1e-10
SHIFT_RTOL = 1e-12
EMBEDDING_RTOL = 1e-8
RESIDUAL_TOL = 1e-8
# Eigenvalues closer than this (relative to the leading one) to a neighbour
# or to zero have no well-defined direction to compare.
SEPARATION_RTOL = 1e-6

N = 60
CLASSES = 3
WIDTHS = {"n+1": N + 1, "2n": 2 * N, "8n": 8 * N}
GRID = (0.0, 0.5, 1.0)


def class_data(d: int, n: int, labels: np.ndarray, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    _, codes = np.unique(labels, return_inverse=True)
    centers = 1.5 * rng.standard_normal((d, codes.max() + 1))
    return centers[:, codes] + rng.standard_normal((d, n))


def class_labels(n: int) -> np.ndarray:
    return np.arange(n) % CLASSES


def dense_problem(x, labels, config: RoweisConfig):
    """The d x d constraint B and the dense solution of (R1, B)."""
    d, n = x.shape
    if config.r1 > 0:
        spec = kernels.resolve_label_kernel(config.label_kernel, labels)
        p_mat = blend_label_kernel(oracle.label_gram(spec, labels, labels), config.r1)
    else:
        p_mat = np.eye(n)
    r1_mat = objective_matrix(x, p_mat)
    if config.r2 > 0:
        b = constraint_matrix(within_scatter(x, labels), config.r2)
    else:
        b = np.eye(d)
    if config.robust:
        b, _ = robustify(b)
    return b, generalized_eig(r1_mat, factor_constraint(b))


def separated(values: np.ndarray, p: int) -> np.ndarray:
    """Indices among the first p whose eigenvalue is positive and isolated."""
    tol = SEPARATION_RTOL * abs(float(values[0]))
    keep = []
    for i in range(p):
        gaps = [abs(values[i] - values[j]) for j in (i - 1, i + 1) if 0 <= j < values.size]
        if values[i] > tol and min(gaps, default=np.inf) > tol:
            keep.append(i)
    return np.array(keep, dtype=int)


def assert_matches_dense(x, labels, config: RoweisConfig, route: str = "span"):
    model = fit(x, labels, config)
    assert model.route == route
    b, pair = dense_problem(x, labels, config)
    p = model.n_components
    scale = abs(float(pair.values[0]))
    assert np.max(np.abs(model.eigvals - pair.values[:p])) <= SPECTRUM_RTOL * scale
    assert model.shift == pytest.approx(pair.shift, rel=SHIFT_RTOL, abs=0.0)

    basis = model.basis
    columns = np.arange(p)
    assert np.all(basis[np.argmax(np.abs(basis), axis=0), columns] > 0)  # linalg's sign convention
    residual = basis.T @ (b + model.shift * np.eye(b.shape[0])) @ basis - np.eye(p)
    assert np.max(np.abs(residual)) <= RESIDUAL_TOL

    keep = separated(pair.values, p)
    assert keep.size >= 1
    centered = x - x.mean(axis=1, keepdims=True)
    want = (pair.vectors[:, keep].T @ centered)
    got = align_rows(want, project(model, x)[keep])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=EMBEDDING_RTOL * float(np.max(np.abs(want))))
    return model


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("robust", (False, True))
@pytest.mark.parametrize("r2", GRID)
@pytest.mark.parametrize("r1", GRID)
def test_class_labels_grid(width, robust, r1, r2):
    labels = class_labels(N)
    x = class_data(WIDTHS[width], N, labels)
    assert_matches_dense(x, labels, RoweisConfig(r1=r1, r2=r2, robust=robust))


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("robust", (False, True))
@pytest.mark.parametrize("r1", (0.5, 1.0))
def test_rbf_regression_targets(width, robust, r1):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((WIDTHS[width], N))
    targets = x[0] - 0.5 * x[1] ** 2 + 0.1 * rng.standard_normal(N)
    assert_matches_dense(x, targets, RoweisConfig(r1=r1, robust=robust))


@pytest.mark.parametrize("width", sorted(WIDTHS))
@pytest.mark.parametrize("r1, r2", [(0.0, 0.0), (1.0, 0.5), (0.5, 1.0)])
class TestDegenerateData:
    def test_duplicate_points(self, width, r1, r2):
        labels = class_labels(N)
        x = class_data(WIDTHS[width], N, labels)
        x[:, CLASSES:2 * N // 3] = x[:, : 2 * N // 3 - CLASSES]  # copies of same-class columns
        assert np.linalg.matrix_rank(x - x.mean(axis=1, keepdims=True)) < N - 1
        assert_matches_dense(x, labels, RoweisConfig(r1=r1, r2=r2))

    def test_singleton_classes(self, width, r1, r2):
        labels = class_labels(N)
        labels[-1], labels[-2] = 7, 8
        x = class_data(WIDTHS[width], N, labels)
        assert_matches_dense(x, labels, RoweisConfig(r1=r1, r2=r2))

    def test_p_above_the_rank(self, width, r1, r2):
        labels = class_labels(N)
        x = class_data(WIDTHS[width], N, labels)
        x[:, N // 2:] = x[:, : N // 2]
        config = RoweisConfig(r1=r1, r2=r2, p=N + 3)
        model = assert_matches_dense(x, labels, config)
        # The valid count of the dense spectrum, below the cap min(d, n - 1)
        # here; the columns past it would be set by round-off.
        values = dense_problem(x, labels, config)[1].values
        valid = int(np.count_nonzero(values > 1e-9 * values[0]))
        assert valid < N - 1
        assert model.notes == (f"requested p={N + 3} exceeds the {valid} valid components; truncated",)
        assert model.n_components == valid


def test_robust_cut_inside_the_tied_block_stays_on_the_span_route():
    """A robust fit whose 98% cut splits the eigenvalues tied at 1 - r2.

    Here n - c is small, so the d - n copies of 1 - r2 carry more than 2% of
    the constraint's spectrum and the cut lands among them. Exactly, the tail
    then holds only copies of 1 - r2 and the repair is a no-op, so the block
    is solved unrepaired and must match the dense repair of the full matrix.
    """
    labels = class_labels(12)
    x = class_data(8 * 12, 12, labels, seed=5)
    assert_matches_dense(x, labels, RoweisConfig(r1=0.1, r2=0.2, robust=True))


def test_flat_tied_block_stays_on_the_span_route():
    # r2 = 0 makes R2 = I: the cut splits the tied block, but every tied
    # value is exactly 1, so the repair has nothing to average.
    labels = class_labels(12)
    x = class_data(96, 12, labels)
    assert_matches_dense(x, labels, RoweisConfig(r1=0.5, r2=0.0, robust=True))


def test_classes_route_when_d_is_at_most_n():
    # The class statistics of X, with Xc beside them for a label Gram.
    labels = class_labels(N)
    gram = RoweisConfig(r1=0.5, r2=0.5, label_kernel=kernels.KernelSpec("linear"))
    for d in (N // 2, N):
        x = class_data(d, N, labels)
        assert fit(x, labels, gram).route == "classes"
        assert fit(x, labels, RoweisConfig(r1=0.5, r2=0.5)).route == "classes"
    assert fit(class_data(N + 1, N, labels), labels, gram).route == "span"


def record_orders(monkeypatch) -> list:
    """(solver, order) of every eigenproblem ``rda.fit`` solves: generalized,
    or symmetric for a fit at r2 = 0, robust or not. The symmetric
    eigendecomposition inside ``robustify`` is a repair, not a solve."""
    orders = []

    def recording(name):
        solve = getattr(rda, name)

        def record(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_solve_grid":
                orders.append((name, np.asarray(a).shape[0]))
            return solve(a, *args, **kwargs)

        return record

    for name in ("generalized_eig", "symmetric_eig"):
        monkeypatch.setattr(rda, name, recording(name))
    return orders


@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_span_route_solves_at_most_an_n_by_n_problem(monkeypatch, width):
    orders = record_orders(monkeypatch)
    labels = class_labels(N)
    x = class_data(WIDTHS[width], N, labels)
    for r1 in GRID:
        for r2 in GRID:
            for robust in (False, True):
                model = fit(x, labels, RoweisConfig(r1=r1, r2=r2, robust=robust))
                assert model.route == "span"
    assert len(orders) == 18
    assert max(order for _, order in orders) <= N
    # r2 = 0 at each r1, robust or not: the robust repair of I is I, so
    # both solve the plain problem.
    assert [name for name, _ in orders].count("symmetric_eig") == 2 * len(GRID)


# (d, n, classes): d = 8n at n = 12, and the bench's wide blobs. At r2 = 0.1,
# 0.2 and 0.3 the robust cut of these constraints lands among the copies of
# 1 - r2, where the robust fit used to leave the span route for a d x d solve.
TIED_CUT_SHAPES = {"8n": (96, 12, 3), "wide": (800, 100, 4)}


@pytest.mark.parametrize("r2", (0.1, 0.2, 0.3))
@pytest.mark.parametrize("shape", sorted(TIED_CUT_SHAPES))
def test_robust_fits_with_a_tied_cut_stay_on_the_span_route(monkeypatch, shape, r2):
    d, n, c = TIED_CUT_SHAPES[shape]
    labels = np.arange(n) % c
    x = class_data(d, n, labels, seed=1)
    orders = record_orders(monkeypatch)
    r1_values = (0.0, 0.5, 1.0) if shape == "8n" else (0.5,)
    for r1 in r1_values:
        assert_matches_dense(x, labels, RoweisConfig(r1=r1, r2=r2, robust=True))
    assert len(orders) == len(r1_values)
    assert all(name == "generalized_eig" and order <= n for name, order in orders)

"""The kernel builders keep one n x n array, with the bits they had.

``squared_distances`` holds one result-sized array, ``sym_in_place`` and
``double_center`` work over the array they are given, and
``median_heuristic_gamma`` gathers and selects its pairs inside the distance
matrix's own buffer. Each must give the bits of its copying form in
``tests/oracle.py`` (``tobytes()``, ``gamma.hex()``), over d in {1, 2, 50}
and n in {1, 2, 70, 129, 700}: rectangular products, duplicated columns
(whose pairs take the near-pair recompute, past one NEAR_BLOCK of them at
n = 700) and all-equal columns (gamma 1.0). ``test_kernels_properties.py``
draws more shapes and layouts.

The memory tests count, with tracemalloc, the numpy memory a call adds
above what was live before it, in units of its result or of one n x n
float64 array. LAPACK's own workspaces are invisible to tracemalloc.
"""

import tracemalloc

import numpy as np
import pytest

from roweis import kernels
from roweis._util import SYM_TILE, sym_in_place
from roweis.kernel_rda import PROJECT_BLOCK, fit_kernel_pca
from roweis.kernels import KernelSpec, double_center, median_heuristic_gamma, squared_distances

import oracle

DIMS = (1, 2, 50)
SIZES = (1, 2, 70, 129, 700)
LAYOUTS = ("distinct", "duplicated", "few distinct", "all equal")


def points(rng, d: int, n: int, layout: str) -> np.ndarray:
    """d x n points, off the origin so that the expansion carries round-off."""
    x = rng.standard_normal((d, n)) + 3.0
    if layout == "duplicated":
        for _ in range(max(n // 4, 1) if n > 1 else 0):
            source, target = rng.choice(n, size=2, replace=False)
            x[:, target] = x[:, source]
    elif layout == "few distinct":
        x = x[:, rng.integers(0, min(n, 12), size=n)]
    elif layout == "all equal":
        x = np.repeat(x[:, :1], n, axis=1)
    return x


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- bits

@pytest.mark.parametrize("m", ["n", 1, 1500], ids=lambda m: f"m={m}")
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", DIMS)
def test_squared_distances_has_the_bits_of_two_arrays(d, n, m):
    rng = np.random.default_rng([d, n, 1])
    a = points(rng, d, n, "duplicated")
    b = a if m == "n" else np.hstack([a, points(rng, d, m, "distinct")])[:, -m:]
    got = squared_distances(a, b)
    assert same_bits(got, oracle.squared_distances_copying(a, b))
    assert same_bits(got, oracle.squared_distances(a, b))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", DIMS)
def test_median_heuristic_has_the_bits_of_the_copying_form(d, n, layout):
    x = points(np.random.default_rng([d, n, 2]), d, n, layout)
    gamma = median_heuristic_gamma(x)
    assert gamma.hex() == oracle.median_heuristic_gamma_copying(x).hex()
    assert gamma.hex() == oracle.median_heuristic_gamma(x).hex()
    if layout == "all equal" or n == 1:
        assert gamma == 1.0


def test_non_finite_columns_stay_out_of_the_median_as_before():
    x = points(np.random.default_rng(9), 3, 40, "duplicated")
    x[1, 7], x[0, 20] = np.nan, np.inf
    with np.errstate(invalid="ignore"):
        gamma, want = median_heuristic_gamma(x), oracle.median_heuristic_gamma_copying(x)
    assert np.isfinite(gamma) and gamma.hex() == want.hex()


def test_duplicates_past_one_near_block_are_recomputed():
    x = points(np.random.default_rng(3), 50, 700, "few distinct")
    d2 = oracle.squared_distances(x, x)[np.triu_indices(700, k=1)]
    assert np.count_nonzero(d2 <= kernels.NEAR_RTOL * 2.0 * np.max(np.sum(x * x, axis=0))) > kernels.NEAR_BLOCK
    assert median_heuristic_gamma(x).hex() == oracle.median_heuristic_gamma_copying(x).hex()


def gram_like(rng, n: int) -> np.ndarray:
    """Not symmetric, with exact and signed zeros."""
    k = rng.standard_normal((n, n))
    k[rng.random((n, n)) < 0.2] = 0.0
    k[rng.random((n, n)) < 0.1] = -0.0
    return k


@pytest.mark.parametrize("n", sorted({*SIZES, SYM_TILE - 1, SYM_TILE, 2 * SYM_TILE + 1}))
def test_sym_in_place_has_the_bits_of_the_copy(n):
    k = gram_like(np.random.default_rng(n), n)
    want = oracle.sym_copying(k)
    got = sym_in_place(k)
    assert got is k and same_bits(got, want)


@pytest.mark.parametrize("n", SIZES)
def test_double_center_in_place_has_the_bits_of_the_copy(n):
    k = gram_like(np.random.default_rng(n), n)
    want = oracle.double_center_copying(k)
    assert same_bits(double_center(k), want)
    assert same_bits(k, want)


# ---------------------------------------------------------------- memory

def traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


N = 400


def test_squared_distances_holds_one_result_sized_array():
    # A projection block: 700 training points against PROJECT_BLOCK new ones.
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 700)), rng.standard_normal((2, PROJECT_BLOCK))
    assert traced_peak(lambda: squared_distances(a, b)) <= 1.1 * 700 * PROJECT_BLOCK * 8


def test_sym_in_place_holds_tiles_not_a_second_matrix():
    # Two tiles at a loop step, and numpy's buffers for the transposed operand.
    k = gram_like(np.random.default_rng(5), 700)
    assert traced_peak(lambda: sym_in_place(k)) <= 4 * SYM_TILE * SYM_TILE * 8


def test_median_heuristic_holds_its_pairs_in_the_distance_matrix():
    x = points(np.random.default_rng(6), 2, N, "duplicated")
    assert traced_peak(lambda: median_heuristic_gamma(x)) <= 1.6 * N * N * 8


@pytest.mark.parametrize("gamma", [0.5, None], ids=["given", "median heuristic"])
def test_kernel_pca_holds_one_gram_beside_eigh(gamma):
    # The Gram, symmetrized and centered in place, then its symmetrized
    # copy handed to eigh and eigh's eigenvectors: two n x n arrays.
    x = points(np.random.default_rng(7), 2, N, "distinct")
    assert traced_peak(lambda: fit_kernel_pca(x, KernelSpec("rbf", gamma=gamma))) <= 2.1 * N * N * 8

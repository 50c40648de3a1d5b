"""Property: the stratified split's one-step leftover allocation picks the
training indices of the loops it replaced (``oracle.stratified_train_indices``).

The floors floor(f c_j) sum to at most the target and to more than the
target minus the number of classes, and each stays below its class count,
so the leftover is between 0 and the number of classes and every class can
take one more sample. Drawn over class counts (each at least 2, so the split
stays stratified), fractions in (0, 1), label orders and seeds.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis.datasets import Dataset, train_test_split  # noqa: E402

import oracle  # noqa: E402


@settings(max_examples=500, deadline=None)
@given(
    counts=st.lists(st.integers(2, 40), min_size=1, max_size=8),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    order_seed=st.integers(0, 2**32 - 1),
)
def test_train_indices_equal_the_loop_allocation(counts, fraction, seed, order_seed):
    labels = np.random.default_rng(order_seed).permutation(np.repeat(np.arange(len(counts)), counts))
    ds = Dataset(X=np.arange(labels.size, dtype=float)[None, :], y=labels, kind="classification")
    train, test = train_test_split(ds, fraction, seed)
    want = oracle.stratified_train_indices(labels, fraction, seed)
    np.testing.assert_array_equal(train.X[0], want)
    assert train.n + test.n == labels.size

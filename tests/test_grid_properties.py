"""Property version of the grid tests: ``fit_direct_grid`` equals one
``fit_direct`` per config, and ``rda.fit_grid`` one ``rda.fit`` per config,
bit for bit, on random grids in random order (r2 not grouped, p up to above
every rank cap, two classes at r1 = 1 among them). The primal grids take
both routes (d <= n and d > n), robust configs among the others, and class
labels or real targets, the latter with RBF label kernels at r2 = 0.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis import kernels  # noqa: E402
from roweis.exceptions import RoweisError  # noqa: E402
from roweis.kernel_rda import fit_direct, fit_direct_grid  # noqa: E402
from roweis.rda import RoweisConfig, fit, fit_grid  # noqa: E402

from conftest import labeled_blobs  # noqa: E402
from test_grid import assert_same_model, assert_same_rda_model  # noqa: E402


@st.composite
def grids(draw):
    n = draw(st.integers(6, 30))
    c = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, labels = labeled_blobs(rng, d=2, n=n, c=c)
    labels = rng.permutation(labels)
    kernel = draw(st.sampled_from([kernels.KernelSpec("rbf"), kernels.KernelSpec("rbf", gamma=0.3),
                                   kernels.KernelSpec("polynomial", degree=2)]))
    configs = draw(st.lists(
        st.builds(
            RoweisConfig,
            r1=st.sampled_from([0.0, 0.25, 1.0]),
            r2=st.sampled_from([0.0, 0.5, 1.0]),
            p=st.sampled_from([None, 1, 2, c + 1, n + 3]),
            label_kernel=st.sampled_from([None, kernels.KernelSpec("delta")]),
        ),
        min_size=1, max_size=7,
    ))
    return x, labels, configs, kernel


@settings(max_examples=40, deadline=None, database=None)
@given(grids())
def test_grid_equals_one_fit_per_config(grid):
    x, labels, configs, kernel = grid
    try:
        lone = [fit_direct(x, labels, config, kernel) for config in configs]
    except RoweisError as exc:  # a degenerate draw: the grid must refuse it too
        with pytest.raises(type(exc)):
            fit_direct_grid(x, labels, configs, kernel)
        return
    models = fit_direct_grid(x, labels, configs, kernel)
    assert len(models) == len(configs)
    for model, want in zip(models, lone):
        assert_same_model(model, want)


@st.composite
def primal_grids(draw):
    n = draw(st.integers(6, 30))
    d = draw(st.sampled_from([2, n, n + 1, 2 * n + 5]))
    c = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, labels = labeled_blobs(rng, d=d, n=n, c=c)
    if draw(st.booleans()):
        labels = rng.permutation(labels)
        r2 = st.sampled_from([0.0, 0.5, 1.0])
        label_kernel = st.sampled_from([None, kernels.KernelSpec("delta")])
    else:
        labels = x[0] + 0.3 * rng.standard_normal(n)
        r2 = st.just(0.0)
        label_kernel = st.sampled_from([None, kernels.KernelSpec("rbf"), kernels.KernelSpec("rbf", gamma=0.7)])
    configs = draw(st.lists(
        st.builds(
            RoweisConfig,
            r1=st.sampled_from([0.0, 0.25, 1.0]),
            r2=r2,
            p=st.sampled_from([None, 1, 2, c + 1, min(d, n) + 3]),
            label_kernel=label_kernel,
            robust=st.booleans(),
        ),
        min_size=1, max_size=7,
    ))
    return x, labels, configs


@settings(max_examples=40, deadline=None, database=None)
@given(primal_grids())
def test_primal_grid_equals_one_fit_per_config(grid):
    x, labels, configs = grid
    try:
        lone = [fit(x, labels, config) for config in configs]
    except RoweisError as exc:  # a degenerate draw: the grid must refuse it too
        with pytest.raises(type(exc)):
            fit_grid(x, labels, configs)
        return
    models = fit_grid(x, labels, configs)
    assert len(models) == len(configs)
    for model, want in zip(models, lone):
        assert_same_rda_model(model, want)

"""Property version of the factored-label-side oracle tests over random shapes.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis.dual import fit_dual  # noqa: E402
from roweis.kernel_rda import fit_kernel_spca  # noqa: E402
from roweis.rda import RoweisConfig, fit  # noqa: E402

from test_label_factor import (  # noqa: E402
    DATA_KERNEL,
    SPECTRUM_RTOL,
    dense_dual_svd,
    dense_primal,
    dense_spca,
    spectrum_gap,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def labeled_data(draw):
    d = draw(st.integers(1, 30))
    n = draw(st.integers(3, 30))
    c = draw(st.integers(2, n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # Two classes at least: with one class R1 is zero at r1 = 1 and both
    # routes return round-off.
    labels = rng.permutation(np.concatenate([[0, 1], rng.integers(0, c, size=n - 2)])) * 3 - 5
    x = rng.standard_normal((d, n))
    dup = draw(st.integers(0, n - 2))
    x[:, dup + 1] = x[:, dup]
    return x, labels


r1_values = st.floats(0.05, 1.0, allow_nan=False)


@PROPERTY_SETTINGS
@given(labeled_data(), r1_values)
def test_primal_spectrum_matches_dense_objective(data, r1):
    x, labels = data
    model = fit(x, labels, RoweisConfig(r1=r1))
    want = dense_primal(x, labels, r1, 0.0).values
    assert spectrum_gap(model.eigvals, want[: model.n_components]) <= SPECTRUM_RTOL


@PROPERTY_SETTINGS
@given(labeled_data(), r1_values)
def test_dual_spectrum_matches_dense_factor(data, r1):
    x, labels = data
    model = fit_dual(x, labels, r1)
    _, singular, _ = dense_dual_svd(x, labels, r1)
    assert spectrum_gap(model.eigvals, singular[: model.n_components] ** 2) <= SPECTRUM_RTOL


@PROPERTY_SETTINGS
@given(labeled_data())
def test_kernel_spca_spectrum_matches_dense_factor(data):
    x, labels = data
    model = fit_kernel_spca(x, labels, DATA_KERNEL)
    values, _, _ = dense_spca(x, labels)
    want = np.clip(values, 0.0, None)[: model.n_components]
    assert spectrum_gap(model.eigvals, want) <= SPECTRUM_RTOL
    assert model.upsilon.shape == (x.shape[1], np.unique(labels).size)

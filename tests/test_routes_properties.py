"""Property version of the route tests: the ``U'B'U = I`` residual contract.

For random shapes on both sides of d = n, every fitted basis must satisfy
``max|U'(B + shift I)U - I| <= 1e-8`` against the dense d x d constraint B
(robustified when the fit is robust), and the fit must report the route its
shape selects, whatever the label kernel: with d <= n, "classes" however
many classes. Runs only where ``hypothesis`` is installed; it is a test
extra, not a runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis.kernels import KernelSpec  # noqa: E402
from roweis.rda import RoweisConfig, fit  # noqa: E402

from test_routes import RESIDUAL_TOL, dense_problem  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def problems(draw):
    n = draw(st.integers(4, 24))
    d = draw(st.sampled_from([max(1, n // 2), n, n + 1, 2 * n, 5 * n]))
    c = draw(st.integers(2, max(2, n // 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % c)
    centers = draw(st.sampled_from([0.0, 2.0])) * rng.standard_normal((d, c))
    x = centers[:, labels] + rng.standard_normal((d, n))
    if draw(st.booleans()):
        x[:, 1] = x[:, 0]
    config = RoweisConfig(
        r1=draw(st.sampled_from([0.0, 0.3, 1.0])),
        r2=draw(st.sampled_from([0.0, 0.5, 1.0])),
        robust=draw(st.booleans()),
        label_kernel=draw(st.sampled_from([None, KernelSpec("linear")])),
    )
    return x, labels, config


@PROPERTY_SETTINGS
@given(problems())
def test_constraint_residual_against_the_dense_constraint(problem):
    x, labels, config = problem
    d, n = x.shape
    model = fit(x, labels, config)
    if d <= n:
        assert model.route == "classes"
    elif not config.robust:
        assert model.route == "span"
    b, _ = dense_problem(x, labels, config)
    u = model.basis
    residual = u.T @ (b + model.shift * np.eye(d)) @ u - np.eye(model.n_components)
    assert np.max(np.abs(residual)) <= RESIDUAL_TOL

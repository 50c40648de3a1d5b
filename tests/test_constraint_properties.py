"""Property: ``rda.constraint`` gives the bits of the two builders it replaced.

R2 = r2 S_W + (1 - r2) I must equal ``oracle.constraint_matrix`` of the
within-class scatter, and with a metric vector (the kernel direct fit passes
K_x's kept eigenvalues) r2 N + (1 - r2) diag(metric) must equal
``oracle.kernel_constraint_matrix`` of ``oracle.kernel_within_scatter`` and
the diagonal matrix, bit for bit, on random shapes with 1 to 5 classes
(singleton classes included) and r2 at 0, at 1 and strictly between. At
r2 = 0 a metric's constraint is diag(metric) alone: ``constraint`` returns
the metric vector itself, and its closed-form factor must equal the oracle
matrix's, bit for bit. R2's identity there is the all-ones metric, whose
factor must equal that of the oracle's I.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis import kernels  # noqa: E402
from roweis._util import sym  # noqa: E402
from roweis.linalg import factor_constraint  # noqa: E402
from roweis.rda import constraint  # noqa: E402
from roweis.scatter import within_scatter  # noqa: E402

import oracle  # noqa: E402

R2 = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 12),
    n=st.integers(1, 30),
    c=st.integers(1, 5),
    r2=R2,
    family=st.sampled_from(["linear", "rbf"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_constraint_is_bit_identical_to_the_old_builders(d, n, c, r2, family, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    x[rng.random((d, n)) < 0.2] = 0.0
    labels = rng.integers(0, c, size=n)
    part = oracle.ClassPartition.from_labels(labels)

    want = oracle.constraint_matrix(within_scatter(x, labels), r2)
    if r2 == 0:
        ones = np.ones(d)
        got = constraint(x, labels, r2, metric=ones)
        assert got is ones
        got, want = factor_constraint(got), factor_constraint(want)
        assert got.shift == want.shift and got.chol_inv.tobytes() == np.diag(want.chol_inv).tobytes()
    else:
        got = constraint(x, labels, r2)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    spec = kernels.KernelSpec(family, gamma=0.5) if family == "rbf" else kernels.KernelSpec(family)
    k = sym(kernels.gram(spec, x, x))
    metric = np.diag(k).copy()
    want = oracle.kernel_constraint_matrix(oracle.kernel_within_scatter(k, part), np.diag(metric), r2)
    if r2 == 0:
        got = constraint(k, labels, r2, metric=metric)
        assert got is metric
        got, want = factor_constraint(got), factor_constraint(want)
        assert got.shift == want.shift and got.chol_inv.tobytes() == np.diag(want.chol_inv).tobytes()
        return
    got = constraint(k, labels, r2, metric=metric)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

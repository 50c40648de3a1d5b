"""Property: which components a fit returns does not depend on sample order.

Permuting the training samples changes only the round-off of a fit. Every
component a fit returns must therefore come back unchanged up to sign:
the embedding of the training points, row by row, within 1e-6 of the row's
largest entry. A component past the valid count is set by round-off, so it
moves by the order of its own scale and fails this. The property covers all
five fit entry points, both sides of d = n, duplicated samples, and p from
None to above every rank bound.

Two limits come from the problems, not from the component rule:

* At r2 = 1 it takes r1 = 1 only. With r1 < 1 the objective is
  (1 - r1) S_W plus a term of rank c - 1, so 1 - r1 is an eigenvalue of
  (R1, S_W) d - c + 1 times and its directions are not unique even in exact
  arithmetic.
* A generalized problem (r2 > 0, and every kernel direct fit) is solved
  against a constraint the shift ladder leaves with a condition number up
  to CONSTRAINT_COND_MAX. Round-off then moves component i by up to about
  eps * CONSTRAINT_COND_MAX * lambda_1 / lambda_i, which the row may use
  on top of 1e-6.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis import kernel_rda, kernels, rda  # noqa: E402
from roweis.dual import fit_dual  # noqa: E402
from roweis.exceptions import RoweisError  # noqa: E402
from roweis.linalg import CONSTRAINT_COND_MAX  # noqa: E402

ROW_RTOL = 1e-6

KERNELS = (
    kernels.KernelSpec("rbf"),
    kernels.KernelSpec("linear"),
    kernels.KernelSpec("polynomial", degree=2),
)

# entry point -> fit(x, labels, r1, r2, p, kernel)
FITS = {
    "rda.fit": lambda x, y, r1, r2, p, k: rda.fit(x, y, rda.RoweisConfig(r1=r1, r2=r2, p=p)),
    "dual.fit_dual": lambda x, y, r1, r2, p, k: fit_dual(x, y, r1, p=p),
    "kernel_rda.fit_direct": lambda x, y, r1, r2, p, k: kernel_rda.fit_direct(
        x, y, rda.RoweisConfig(r1=r1, r2=r2, p=p), k),
    "kernel_rda.fit_kernel_pca": lambda x, y, r1, r2, p, k: kernel_rda.fit_kernel_pca(x, k, p=p),
    "kernel_rda.fit_kernel_spca": lambda x, y, r1, r2, p, k: kernel_rda.fit_kernel_spca(x, y, k, p=p),
}
WITH_R2 = ("rda.fit", "kernel_rda.fit_direct")


@st.composite
def problems(draw):
    entry = draw(st.sampled_from(sorted(FITS)))
    n = draw(st.integers(6, 20))
    d = draw(st.sampled_from([2, n // 2, n - 1, n, n + 1, 3 * n]))
    c = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.arange(n) % c)
    x = 2.0 * rng.standard_normal((d, c))[:, labels] + rng.standard_normal((d, n))
    if draw(st.booleans()):
        x[:, 1] = x[:, 0]
    if entry in WITH_R2:
        r1, r2 = draw(st.sampled_from([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.5, 0.5),
                                       (1.0, 0.5), (1.0, 1.0)]))
    else:
        r1, r2 = draw(st.sampled_from([0.0, 0.5, 1.0])), 0.0
    p = draw(st.sampled_from([None, 1, c, n + 3]))
    # The bandwidth is resolved once: with duplicated samples the median
    # heuristic itself depends on their order, since the distance between
    # two equal samples can come out as a round-off positive and enter it.
    kernel = kernels.resolve_gamma(draw(st.sampled_from(KERNELS)), x)
    return entry, x, labels, r1, r2, p, kernel, rng.permutation(n)


def embed(model, x):
    if isinstance(model, rda.RdaModel):
        return rda.project(model, x)
    return kernel_rda.project(model, x)


def row_rtol(entry, r2, eigvals, row) -> float:
    """1e-6, plus the round-off a generalized problem amplifies (see above)."""
    if entry == "kernel_rda.fit_direct" or r2 > 0:
        return max(ROW_RTOL, np.finfo(float).eps * CONSTRAINT_COND_MAX * eigvals[0] / eigvals[row])
    return ROW_RTOL


@settings(max_examples=300, deadline=None, database=None)
@given(problems())
def test_sample_order_leaves_every_component_unchanged(problem):
    entry, x, labels, r1, r2, p, kernel, perm = problem
    fit = FITS[entry]
    try:
        model = fit(x, labels, r1, r2, p, kernel)
    except RoweisError as exc:  # a degenerate draw: the permuted fit must refuse it too
        with pytest.raises(type(exc)):
            fit(x[:, perm], labels[perm], r1, r2, p, kernel)
        return
    permuted = fit(x[:, perm], labels[perm], r1, r2, p, kernel)
    assert permuted.n_components == model.n_components
    assert permuted.notes == model.notes
    want, got = embed(model, x), embed(permuted, x)
    for row, (a, b) in enumerate(zip(want, got)):
        b = -b if float(a @ b) < 0.0 else b
        scale = float(np.max(np.abs(a)))
        tol = row_rtol(entry, r2, model.eigvals, row)
        assert np.max(np.abs(a - b)) <= tol * scale, f"component {row + 1} of {model.n_components}"

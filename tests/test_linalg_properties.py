"""Property version of the solver comparison: ``generalized_eig``, which
multiplies by the inverse of the constraint's Cholesky factor, against the
copying solver of ``tests/oracle.py``, which solves with the factor, on
random orders 1-120. The constraints are well conditioned, singular (so
shifted), blocks with a ``Complement``, or near-identities. The shift must be
the same bits; spectra, separated components and ``U' B' U = I`` must agree
within the tolerances of ``test_linalg.assert_matches_the_copying_solver``.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis.linalg import Complement  # noqa: E402

from conftest import random_psd  # noqa: E402
from test_linalg import _symmetric_with_zeros, assert_matches_the_copying_solver  # noqa: E402


def _constraint(rng, kind: str, m: int):
    if kind == "well conditioned":
        return random_psd(rng, m) + np.eye(m), None
    if kind == "singular":
        return random_psd(rng, m, rank=int(rng.integers(0, m))), None
    if kind == "complement":
        value = float(rng.choice([0.0, 0.3, 2.0]))
        return random_psd(rng, m, rank=int(rng.integers(1, m + 1))), Complement(value, int(rng.integers(1, 50)))
    b = np.eye(m)  # near-identities
    if m > 1 and rng.random() < 0.5:
        b[0, 1] = b[1, 0] = -0.0
    if rng.random() < 0.5:
        b *= 2.0
    return b, Complement(float(rng.choice([0.5, 1.0])), 3) if rng.random() < 0.5 else None


@st.composite
def problems(draw):
    m = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(["well conditioned", "singular", "complement", "near identity"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = random_psd(rng, m, rank=int(rng.integers(1, m + 1)))
    else:
        a = _symmetric_with_zeros(rng, m)
    b, complement = _constraint(rng, kind, m)
    return a, b, complement


@settings(max_examples=150, deadline=None, database=None)
@given(problems())
def test_generalized_eig_matches_the_copying_solver(problem):
    assert_matches_the_copying_solver(*problem)

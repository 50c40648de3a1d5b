"""Properties of the median-heuristic bandwidth.

It does not depend on sample order.

Two equal samples are at distance exactly 0 wherever they sit, so they never
enter the median. On centered data, where the expanded distances carry a
round-off of a few eps relative, permuting the samples may then move gamma by
round-off only. A duplicated sample whose distance came out as a round-off
positive, depending on its place in the BLAS product, would add one more
distance to the median and move gamma by percents.

It has the bits of the same bandwidth with its median taken by ``np.median``
(``oracle.median_heuristic_gamma``): over odd and even counts of positive
distances, tied distances and equal samples.

It and the other kernel builders that keep one n x n array have the bits of
their copying forms (``oracle.*_copying``), on drawn shapes and layouts of
the points of ``test_one_array.py``.

Every ``KernelSpec`` the constructor accepts, values in the parameters its
family ignores included, comes back equal, with an equal hash, from its
``to_dict`` through JSON, which holds the family's parameters alone.

Runs only where ``hypothesis`` is installed; it is a test extra, not a
runtime dependency.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roweis._util import sym_in_place  # noqa: E402
from roweis.exceptions import ConfigError  # noqa: E402
from roweis.kernels import (  # noqa: E402
    FAMILIES,
    PARAMETERS,
    KernelSpec,
    double_center,
    median_heuristic_gamma,
    squared_distances,
)

import oracle  # noqa: E402
from test_one_array import DIMS, LAYOUTS, gram_like, points, same_bits  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 60),
    n=st.integers(6, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_gamma_ignores_the_order_of_duplicated_samples(d, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    source, target = rng.choice(n, size=2, replace=False)
    x[:, target] = x[:, source]
    x -= x.mean(axis=1, keepdims=True)
    gamma = median_heuristic_gamma(x)
    permuted = median_heuristic_gamma(x[:, rng.permutation(n)])
    assert abs(permuted - gamma) <= 1e-13 * gamma


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    n=st.integers(1, 24),
    grid=st.booleans(),
    equal=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_gamma_has_the_bits_of_np_median(d, n, grid, equal, seed):
    rng = np.random.default_rng(seed)
    # Points on a small integer grid tie many distances and repeat samples.
    x = rng.integers(-2, 3, size=(d, n)).astype(float) if grid else rng.standard_normal((d, n))
    for _ in range(equal if n > 1 else 0):
        source, target = rng.choice(n, size=2, replace=False)
        x[:, target] = x[:, source]
    assert median_heuristic_gamma(x).hex() == oracle.median_heuristic_gamma(x).hex()


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from(DIMS),
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_builder_keeps_its_bits(d, n, m, layout, seed):
    rng = np.random.default_rng(seed)
    a, b = points(rng, d, n, layout), points(rng, d, m, layout)
    assert same_bits(squared_distances(a, b), oracle.squared_distances_copying(a, b))
    assert median_heuristic_gamma(a).hex() == oracle.median_heuristic_gamma_copying(a).hex()
    k = gram_like(rng, n)
    assert same_bits(sym_in_place(k.copy()), oracle.sym_copying(k))
    assert same_bits(double_center(k.copy()), oracle.double_center_copying(k))


# Every number a KernelSpec parameter may be given, accepted or not.
ANY_VALUES = {
    "gammas": st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**6),
    "degrees": st.integers(-3, 40) | st.sampled_from([2.0, np.int64(3), np.float32(4.0)]),
    "offsets": st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6),
}


@st.composite
def kernel_specs(draw, families=FAMILIES, gammas=ANY_VALUES["gammas"], degrees=ANY_VALUES["degrees"],
                 offsets=ANY_VALUES["offsets"]):
    """A KernelSpec the constructor accepts, drawn with a value for every
    parameter, read by its family or not."""
    try:
        return KernelSpec(draw(st.sampled_from(families)), draw(gammas), draw(degrees), draw(offsets))
    except ConfigError:
        hypothesis.reject()


@settings(max_examples=300, deadline=None)
@given(spec=kernel_specs())
def test_a_spec_reads_back_equal_from_its_dict(spec):
    data = spec.to_dict()
    assert tuple(data) == ("family", *PARAMETERS[spec.family])
    back = KernelSpec.from_dict(json.loads(json.dumps(data)))
    assert back == spec and hash(back) == hash(spec)

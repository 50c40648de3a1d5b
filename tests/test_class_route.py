"""The "classes" route of ``rda.fit`` against the route that holds X.

A fit whose label term is the class factor E or none, on d <= n with any
number of classes c, is solved from the total scatter, each class's count
and mean and the pooled within-class scatter, merged over
STATS_BLOCK-column slabs of X by one pass (``scatter.class_moments``). Its
bits differ from the fit
on the centered data, so it is compared with that fit, forced by refusing
the statistics (``class_grouping`` returning None), within round-off:
eigenvalues to 1e-12 of the largest, components whose eigenvalue is
positive and isolated to 1e-8 up to sign, the same p, notes and shift.
"""

import dataclasses

import numpy as np
import pytest

from roweis import kernels, rda, scatter
from roweis.rda import RoweisConfig

from conftest import align_columns, labeled_blobs
from oracle import total_scatter, within_scatter
from test_kernel_rda import traced_peak

SPECTRUM_RTOL = 1e-12
BASIS_TOL = 1e-8
SEPARATION_RTOL = 1e-6

CONFIGS = [
    RoweisConfig(0.0, 0.0), RoweisConfig(1.0, 0.0), RoweisConfig(0.0, 1.0), RoweisConfig(1.0, 1.0),
    RoweisConfig(0.5, 0.5), RoweisConfig(0.5, 0.5, robust=True), RoweisConfig(0.3, 1.0, robust=True),
    RoweisConfig(1.0, 0.0, p=50), RoweisConfig(0.5, 0.0, label_kernel=kernels.KernelSpec("delta")),
]


def data_route_fit(monkeypatch, x, labels, config):
    with monkeypatch.context() as patch:
        patch.setattr(rda, "class_grouping", lambda *args: None)
        return rda.fit(x, labels, config)


def separated(values, p) -> list:
    """Indices among the first p whose eigenvalue is positive and isolated."""
    tol = SEPARATION_RTOL * abs(float(values[0]))
    return [i for i in range(p) if values[i] > tol
            and (i == 0 or values[i - 1] - values[i] > tol)
            and (i == p - 1 or values[i] - values[i + 1] > tol)]


def assert_same_fit(got, want):
    assert got.route == "classes" and want.route == "dense"
    assert (got.config, got.notes) == (want.config, want.notes)
    assert got.shift == pytest.approx(want.shift, rel=1e-8, abs=0.0)
    scale = float(want.eigvals[0])
    np.testing.assert_allclose(got.eigvals, want.eigvals, rtol=0.0, atol=SPECTRUM_RTOL * scale)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13 * max(1.0, np.abs(want.mean).max()))
    keep = separated(want.eigvals, want.n_components)
    basis = align_columns(want.basis[:, keep], got.basis[:, keep])
    np.testing.assert_allclose(basis, want.basis[:, keep], rtol=0.0, atol=BASIS_TOL)


def shapes():
    """(name, X, labels): random shapes and degenerate ones."""
    rng = np.random.default_rng(28)
    out = []
    for trial in range(6):
        d = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(c * d, 3000))
        x, labels = labeled_blobs(rng, d=d, n=n, c=c)
        out.append((f"random {trial}", x, rng.permutation(labels)))
    x, labels = labeled_blobs(rng, d=4, n=4, c=1)
    out.append(("n = d", x, labels))
    x, labels = labeled_blobs(rng, d=3, n=40, c=4)
    labels[:2] = [7, 8]  # two singleton classes
    out.append(("singleton classes", x, labels))
    x, labels = labeled_blobs(rng, d=5, n=60, c=3)
    x[:, 30:] = x[:, :30]
    out.append(("duplicate points", x, labels))
    x, labels = labeled_blobs(rng, d=6, n=80, c=3)
    x[3:] = x[:3] + 2.0 * x[:3]
    out.append(("rank-deficient X", x, labels))
    x, labels = labeled_blobs(rng, d=5, n=50, c=2)
    x[1] = 4.25
    out.append(("constant feature", x, labels))
    x, labels = labeled_blobs(rng, d=7, n=2 * scatter.STATS_BLOCK + 5, c=3)
    out.append(("three slabs", x, labels))
    x, labels = labeled_blobs(rng, d=4, n=60, c=20)
    out.append(("c d > n", x, rng.permutation(labels)))
    x, labels = labeled_blobs(rng, d=3, n=2 * scatter.STATS_BLOCK + 6, c=scatter.STATS_BLOCK + 3)
    out.append(("c = n/2", x, rng.permutation(labels)))
    x = rng.standard_normal((3, 40))
    out.append(("all singletons", x, rng.permutation(40)))
    x = rng.standard_normal((2, 2 * scatter.STATS_BLOCK + 5))
    out.append(("c = n", x, rng.permutation(x.shape[1])))
    x = np.repeat(rng.standard_normal((4, 30)), 2, axis=1)
    out.append(("duplicate points, c = n/2", x, np.repeat(rng.permutation(30), 2)))
    return out


SHAPES = shapes()


@pytest.mark.parametrize("name, x, labels", SHAPES, ids=[s[0] for s in SHAPES])
def test_the_statistics_fit_agrees_with_the_fit_on_x(monkeypatch, name, x, labels):
    for config in CONFIGS:
        try:
            want = data_route_fit(monkeypatch, x, labels, config)
        except rda.NumericalError:
            with pytest.raises(rda.NumericalError):
                rda.fit(x, labels, config)
            continue
        assert_same_fit(rda.fit(x, labels, config), want)


def merged(x, keys, width):
    """(ClassMoments, mean, ids) of the pass over X handed in ``width``-column blocks."""
    blocks = [(x[:, start:start + width], keys[start:start + width]) for start in range(0, x.shape[1], width)]
    return scatter.class_moments(blocks, x.shape[0], x.shape[1], np.asarray)


def test_the_moments_are_the_scatters_of_x(rng):
    x, labels = labeled_blobs(rng, d=6, n=2500, c=4)
    labels = rng.permutation(labels)
    moments, mean, ids = merged(x, labels, 300)
    assert ids.tolist() == sorted(set(labels.tolist()))
    np.testing.assert_allclose(mean, x.mean(axis=1), rtol=1e-14, atol=1e-14)
    xc = x - x.mean(axis=1, keepdims=True)
    sums = np.stack([xc[:, labels == k].sum(axis=1) for k in ids], axis=1)
    np.testing.assert_allclose(moments.class_sums, sums, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(moments.scatter_total, total_scatter(x), rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(moments.scatter_within, within_scatter(x, labels), rtol=1e-12, atol=1e-9)


def test_a_slab_is_merged_alike_whatever_its_layout(rng):
    # Keys that sort unlike the labels, on a Fortran-ordered X, in other
    # blocks: the same bits.
    x, labels = labeled_blobs(rng, d=5, n=3000, c=3)
    views = merged(np.asfortranarray(x), labels, 700)
    copies = merged(x.copy(), np.array(["emu", "dog", "cat"])[labels], scatter.STATS_BLOCK)
    assert views[2].tolist() == [0, 1, 2] and copies[2].tolist() == ["cat", "dog", "emu"]
    for name in ("scatter_total", "scatter_within"):
        assert getattr(views[0], name).tobytes() == getattr(copies[0], name).tobytes()
    assert views[0].class_sums.tobytes() == copies[0].class_sums[:, ::-1].tobytes()
    assert views[1].tobytes() == copies[1].tobytes()


def test_the_total_scatter_does_not_depend_on_the_keys(rng):
    x, labels = labeled_blobs(rng, d=4, n=2100, c=5)
    keyed = merged(x, labels, 500)
    plain = scatter.class_moments([(x, None)], 4, 2100)
    assert keyed[0].scatter_total.tobytes() == plain[0].scatter_total.tobytes()
    assert keyed[1].tobytes() == plain[1].tobytes()
    assert plain[0].scatter_within is None and plain[0].class_sums is None and plain[2] is None


def test_no_sort_in_a_merge_sees_more_keys_than_its_slab(monkeypatch):
    # n = c streamed in blocks: each merge sorts only its own slab's keys,
    # never the classes seen so far, so the pass is linear in c.
    rng = np.random.default_rng(4)
    n = 3 * scatter.STATS_BLOCK + 17
    x, keys = rng.standard_normal((2, n)), rng.permutation(n)
    slabs, seen = [], []
    merge = scatter.merge_slab

    def traced(stats, slab, slab_keys, work):
        slabs.append(slab.shape[1])
        try:
            merge(stats, slab, slab_keys, work)
        finally:
            slabs.pop()

    for name in ("argsort", "sort", "unique", "lexsort", "partition", "argpartition"):
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *args, _f=original, **kwargs: (
            seen.append((np.size(a), slabs[-1])) if slabs else None) or _f(a, *args, **kwargs))
    monkeypatch.setattr(scatter, "merge_slab", traced)
    blocks = [(x[:, start:start + 300], keys[start:start + 300]) for start in range(0, n, 300)]
    moments, _, ids = scatter.class_moments(blocks, 2, n, np.asarray)
    assert ids.size == n and len(seen) >= 4
    assert all(size <= width for size, width in seen)


@pytest.mark.parametrize("config, labels, d, n, grouping", [
    (RoweisConfig(0.0, 0.0), None, 5, 5, "classes"),
    (RoweisConfig(0.0, 0.0), None, 6, 5, None),
    (RoweisConfig(0.5, 0.5), np.arange(3), 5, 15, "classes"),
    (RoweisConfig(0.5, 0.5), np.arange(4), 5, 15, "classes"),
    (RoweisConfig(0.0, 1.0, label_kernel=kernels.KernelSpec("linear")), np.arange(3), 5, 50, "classes"),
    (RoweisConfig(0.5, 0.0, label_kernel=kernels.KernelSpec("linear")), np.arange(3), 5, 50, None),
    (RoweisConfig(0.5, 0.0), np.array([0.5, 1.0]), 1, 50, None),
    (RoweisConfig(0.0, 0.0), np.array([0.5, 1.0]), 1, 50, "classes"),
    (RoweisConfig(0.5, 0.0), np.array(["a", "b"]), 1, 50, "classes"),
], ids=["unsupervised", "span", "c d = n", "c d > n", "r1 = 0 ignores the label kernel", "label Gram",
        "real targets", "real targets unused", "string classes"])
def test_the_grouping_follows_the_shapes_and_the_label_kernel(config, labels, d, n, grouping):
    assert rda.class_grouping(config, labels, d, n) == grouping


def test_a_fit_of_many_classes_holds_no_class_by_class_array(rng):
    # d = 2, n = 20 000, c = 10 000: a c x c identity alone would be 763 MiB.
    x = rng.standard_normal((2, 20000))
    labels = rng.permutation(np.arange(20000) % 10000)
    config = RoweisConfig(0.5, 0.5)
    assert rda.fit(x, labels, config).route == "classes"
    assert traced_peak(lambda: rda.fit(x, labels, config)) < 16 * 2**20


def test_a_grid_parts_its_configs_by_route_and_keeps_the_per_config_bits(rng):
    x, labels = labeled_blobs(rng, d=4, n=90, c=3)
    linear = kernels.KernelSpec("linear")
    configs = [RoweisConfig(0.5, 0.5), RoweisConfig(0.5, 0.0, label_kernel=linear), RoweisConfig(0.0, 0.0),
               RoweisConfig(1.0, 1.0, robust=True)]
    models = rda.fit_grid(x, labels, configs)
    assert [m.route for m in models] == ["classes", "dense", "classes", "classes"]
    for config, model in zip(configs, models):
        lone = rda.fit(x, labels, config)
        assert dataclasses.replace(model, basis=None, eigvals=None, mean=None) == \
            dataclasses.replace(lone, basis=None, eigvals=None, mean=None)
        for name in ("basis", "eigvals", "mean"):
            assert getattr(model, name).tobytes() == getattr(lone, name).tobytes()


def test_the_statistics_fit_solves_only_through_the_core(rng, monkeypatch):
    # R1 and R2 of the statistics route come from objective and constraint.
    x, labels = labeled_blobs(rng, d=4, n=90, c=3)
    calls = []
    for name in ("objective", "constraint"):
        original = getattr(rda, name)
        monkeypatch.setattr(rda, name, lambda *a, _f=original, _n=name, **k: calls.append(
            (_n, type(a[0]).__name__)) or _f(*a, **k))
    rda.fit(x, labels, RoweisConfig(0.5, 0.5))
    assert calls == [("constraint", "ClassMoments"), ("objective", "ClassMoments")]

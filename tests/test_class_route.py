"""The "classes" route of ``rda.fit`` against the fit on the centered data.

Every fit on d <= n, with any label kernel and any number of classes c, is
solved from the total scatter, each class's count and mean and the pooled
within-class scatter, merged over STATS_BLOCK-column slabs of X by one pass
(``scatter.class_moments``); a label Gram takes Xc beside them. Its bits
differ from the fit on the centered data, so it is compared with that fit,
the oracle's ``fit_centered``, within round-off: eigenvalues to 1e-12 of
the largest, components whose eigenvalue is positive and isolated to 1e-8
up to sign, the same p, notes and shift.
"""

import dataclasses
import weakref

import numpy as np
import pytest

from roweis import kernels, rda, scatter
from roweis.rda import RoweisConfig

from conftest import align_columns, labeled_blobs
from oracle import fit_centered, total_scatter, within_scatter
from test_kernel_rda import traced_peak

SPECTRUM_RTOL = 1e-12
BASIS_TOL = 1e-8
SEPARATION_RTOL = 1e-6

CONFIGS = [
    RoweisConfig(0.0, 0.0), RoweisConfig(1.0, 0.0), RoweisConfig(0.0, 1.0), RoweisConfig(1.0, 1.0),
    RoweisConfig(0.5, 0.5), RoweisConfig(0.5, 0.5, robust=True), RoweisConfig(0.3, 1.0, robust=True),
    RoweisConfig(1.0, 0.0, p=50), RoweisConfig(0.5, 0.0, label_kernel=kernels.KernelSpec("delta")),
    RoweisConfig(0.5, 0.5, label_kernel=kernels.KernelSpec("linear")),
    RoweisConfig(1.0, 0.0, label_kernel=kernels.KernelSpec("polynomial", degree=2, offset=0.5)),
]


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
def test_the_statistics_fit_agrees_with_the_fit_on_x(name, x, labels):
    for config in CONFIGS:
        try:
            want = fit_centered(x, labels, config)
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


GIVE_UPS = {
    # (config, labels, d, n): whether fit_blocks streams them or gives up.
    "unsupervised": (RoweisConfig(0.0, 0.0), None, 5, 5, True),
    "span": (RoweisConfig(0.0, 0.0), None, 6, 5, False),
    "one sample": (RoweisConfig(0.0, 0.0), None, 1, 1, False),
    "c d = n": (RoweisConfig(0.5, 0.5), np.arange(15) % 3, 5, 15, True),
    "c d > n": (RoweisConfig(0.5, 0.5), np.arange(15) % 4, 5, 15, True),
    "r1 = 0 ignores the label kernel": (RoweisConfig(0.0, 1.0, label_kernel=kernels.KernelSpec("linear")),
                                        np.arange(50) % 3, 5, 50, True),
    "label Gram": (RoweisConfig(0.5, 0.0, label_kernel=kernels.KernelSpec("linear")), np.arange(50) % 3, 5, 50,
                   False),
    "real targets": (RoweisConfig(0.5, 0.0), np.linspace(0.5, 1.0, 50), 1, 50, False),
    "real targets past the first block": (RoweisConfig(0.5, 0.0), np.append(np.arange(49) % 2, 0.5), 1, 50, False),
    "real targets unused": (RoweisConfig(0.0, 0.0), np.linspace(0.5, 1.0, 50), 1, 50, True),
    "string classes": (RoweisConfig(0.5, 0.0), np.array(["a", "b"])[np.arange(50) % 2], 1, 50, True),
}


@pytest.mark.parametrize("case", sorted(GIVE_UPS))
def test_the_stream_gives_up_where_it_needs_x(rng, case):
    # Where it streams, the fit is rda.fit's bit for bit; blocks of 10
    # columns, so that a give-up after the first block shows.
    config, labels, d, n, streamed = GIVE_UPS[case]
    x = rng.standard_normal((d, n))
    keys = np.zeros(n, dtype=int) if labels is None else labels
    handed = []

    def blocks():
        for at in range(0, n, 10):
            handed.append(at)
            yield x[:, at:at + 10], keys[at:at + 10]

    got = rda.fit_blocks(blocks(), n, d, [config], np.asarray)
    assert (got is not None) == streamed
    if case == "real targets":
        assert handed == [0]  # given up after the first block's labels
    if streamed:
        want = rda.fit(x, labels, config)
        assert got[0].route == want.route == "classes"
        for name in ("basis", "eigvals", "mean"):
            assert getattr(got[0], name).tobytes() == getattr(want, name).tobytes()


def test_the_first_block_dies_with_its_merge(rng, monkeypatch):
    # fit_blocks checks the first block's labels before the rest is parsed;
    # that block must be gone by the next merge, as every other block is.
    x, labels = labeled_blobs(rng, d=3, n=40, c=2)
    monkeypatch.setattr(scatter, "STATS_BLOCK", 10)
    refs, dead = [], []
    merge = scatter.merge_slab
    monkeypatch.setattr(scatter, "merge_slab", lambda *a: dead.append([r() is None for r in refs]) or merge(*a))

    def blocks():
        for at in range(0, 40, 10):
            part = x[:, at:at + 10].copy()
            refs.append(weakref.ref(part))
            yield part, labels[at:at + 10]

    assert rda.fit_blocks(blocks(), 40, 3, [RoweisConfig(0.5, 0.5)], np.asarray) is not None
    assert dead == [[False], [True, False], [True, True, False], [True, True, True, False]]


def test_a_fit_of_many_classes_holds_no_class_by_class_array(rng):
    # d = 2, n = 20 000, c = 10 000: a c x c identity alone would be 763 MiB.
    x = rng.standard_normal((2, 20000))
    labels = rng.permutation(np.arange(20000) % 10000)
    config = RoweisConfig(0.5, 0.5)
    assert rda.fit(x, labels, config).route == "classes"
    assert traced_peak(lambda: rda.fit(x, labels, config)) < 16 * 2**20


def test_a_grid_of_delta_and_label_gram_configs_takes_one_pass(rng, monkeypatch):
    x, labels = labeled_blobs(rng, d=4, n=90, c=3)
    linear = kernels.KernelSpec("linear")
    configs = [RoweisConfig(0.5, 0.5), RoweisConfig(0.5, 0.0, label_kernel=linear), RoweisConfig(0.0, 0.0),
               RoweisConfig(1.0, 1.0, robust=True)]
    passes = []
    class_moments = scatter.class_moments
    monkeypatch.setattr(scatter, "class_moments", lambda *a: passes.append(1) or class_moments(*a))
    models = rda.fit_grid(x, labels, configs)
    assert len(passes) == 1
    assert [m.route for m in models] == ["classes"] * 4
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

"""Grid fits: one split's whole (r1, r2) grid from shared per-split work.

``rda.fit_grid``, ``kernel_rda.fit_direct_grid`` and
``kernel_rda.project_grid`` must give each config's lone fit (``rda.fit``,
``kernel_rda.fit_direct``) and projection bit for bit. The CLI sweep and the
experiments, which use them through ``experiments.grid_embeddings``, must
write the bytes of the per-config loops over the lone fits kept in
``tests/oracle.py``, and do the shared work once per split. The lone fit's agreement with the dense
n x n solve, ``oracle.fit_direct``, is tested in ``test_kernel_rda.py``.
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import oracle
import text_io_oracle
from roweis import datasets, experiments, kernel_rda, kernels, linalg, rda
from roweis.cli import main
from roweis.exceptions import ConfigError
from roweis.kernel_rda import fit_direct, fit_direct_grid, fit_kernel_pca, fit_kernel_spca, project, project_grid
from roweis.linalg import EIG_NOISE_RTOL, Complement
from roweis.rda import RoweisConfig

from conftest import labeled_blobs


def run(*argv) -> int:
    return main([str(a) for a in argv])


def assert_same_rda_model(got, want):
    for name in ("basis", "eigvals", "mean"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (got.config, got.shift, got.notes, got.route) == (want.config, want.shift, want.notes, want.route)


def assert_same_model(got, want):
    assert got.variant == want.variant
    for name in ("coeffs", "eigvals", "train_x"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.shift == want.shift
    assert got.notes == want.notes
    assert got.kernel == want.kernel
    assert got.config == want.config


# ---------------------------------------------------------------- fit_direct_grid

class TestFitDirectGrid:
    def test_edge_cases_match_the_per_config_oracle(self):
        # r1 = 1 with two classes at p = 2 (the second component would be set
        # by round-off, so only the valid one is returned, with a note),
        # r2 = 1 with p above the cap, and r2 not grouped in the config order.
        ds = datasets.gen_rings(60, 3)
        configs = [
            RoweisConfig(1.0, 0.5, p=2), RoweisConfig(1.0, 1.0, p=5), RoweisConfig(0.0, 0.0, p=2),
            RoweisConfig(1.0, 0.0, p=2), RoweisConfig(0.5, 1.0, p=2), RoweisConfig(0.0, 0.5, p=2),
        ]
        kernel = kernels.KernelSpec("rbf")
        models = fit_direct_grid(ds.X, ds.y, configs, kernel)
        assert models[1].n_components == 1 and models[1].notes
        for model in (models[0], models[3]):
            assert model.n_components == 1
            assert model.notes == ("requested p=2 exceeds the 1 valid components; truncated",)
        for config, model in zip(configs, models):
            assert_same_model(model, fit_direct(ds.X, ds.y, config, kernel))

    def test_real_targets_share_the_label_bandwidth(self, rng):
        x = rng.standard_normal((3, 25))
        y = rng.standard_normal(25)
        configs = [RoweisConfig(r1, 0.0, p=2) for r1 in (0.0, 0.5, 1.0)]
        models = fit_direct_grid(x, y, configs, kernels.KernelSpec("rbf"))
        assert models[1].config.label_kernel is models[2].config.label_kernel
        assert models[1].config.label_kernel.family == "rbf" and models[1].config.label_kernel.gamma
        for config, model in zip(configs, models):
            assert_same_model(model, fit_direct(x, y if config.r1 else None, config, kernels.KernelSpec("rbf")))

    def test_models_share_one_training_copy(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=12, c=2)
        models = fit_direct_grid(x, labels, [RoweisConfig(0.0, 0.0), RoweisConfig(1.0, 1.0)],
                                 kernels.KernelSpec("rbf", gamma=0.5))
        assert models[0].train_x is models[1].train_x
        assert not np.shares_memory(models[0].train_x, x)

    def test_checks_every_config_before_fitting(self, rng, monkeypatch):
        x = rng.standard_normal((2, 10))
        fits = []
        monkeypatch.setattr(rda, "factor_constraint", lambda *a: fits.append(a))
        with pytest.raises(ConfigError, match="class labels"):
            fit_direct_grid(x, rng.standard_normal(10), [RoweisConfig(0.0, 0.0), RoweisConfig(0.0, 0.5)],
                            kernels.KernelSpec("rbf"))
        with pytest.raises(ConfigError, match="labels are required"):
            fit_direct_grid(x, None, [RoweisConfig(0.0, 0.0), RoweisConfig(0.5, 0.0)],
                            kernels.KernelSpec("rbf"))
        with pytest.raises(ConfigError, match="at least one"):
            fit_direct_grid(x, None, [], kernels.KernelSpec("rbf"))
        assert not fits

    def test_refuses_robust_configs(self, rng, monkeypatch):
        # The direct fit has no robust form; a robust config must not be
        # fitted as if the flag were absent.
        x, labels = labeled_blobs(rng, d=2, n=12, c=2)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        fits = []
        monkeypatch.setattr(rda, "factor_constraint", lambda *a: fits.append(a))
        with pytest.raises(ConfigError, match="robust"):
            fit_direct_grid(x, labels, [RoweisConfig(0.5, 0.5), RoweisConfig(0.5, 0.5, robust=True)], kern)
        with pytest.raises(ConfigError, match="robust"):
            fit_direct(x, labels, RoweisConfig(0.0, 0.0, robust=True), kern)
        assert not fits

    def test_each_distinct_constraint_is_factored_once(self, rng, monkeypatch):
        # Each L is factored in K_x's numerical range, of order m, with the
        # other n - m dimensions handed over as a zero complement. The linear
        # Gram of 2-D points has m = 2. The r2 = 0 group's L is diag(lambda_m),
        # handed over as that vector; the others are m x m matrices.
        n = 20
        x, labels = labeled_blobs(rng, d=2, n=n, c=3)
        real = rda.factor_constraint
        for spec in (kernels.KernelSpec("rbf", gamma=0.5), kernels.KernelSpec("linear")):
            values = np.linalg.eigvalsh(kernels.gram(spec, x, x))
            m = int(np.count_nonzero(np.abs(values) > EIG_NOISE_RTOL * np.abs(values).max()))
            factored = []

            def counting(l_mat, complement):
                factored.append((l_mat.shape, complement))
                return real(l_mat, complement)

            monkeypatch.setattr(rda, "factor_constraint", counting)
            configs = [RoweisConfig(r1, r2) for r1 in (0.0, 0.5, 1.0) for r2 in (1.0, 0.0, 0.5)]
            fit_direct_grid(x, labels, configs, spec)
            assert len(factored) == 3
            assert [len(shape) for shape, _ in factored] == [2, 1, 2]  # r2 = 1, 0, 0.5
            for shape, complement in factored:
                order = shape[0]
                assert shape in ((order,), (order, order)) and order <= m
                assert order + (0 if complement is None else complement.count) == n
                assert complement is None or complement.value == 0.0
            assert spec.family != "linear" or m == 2

    def test_zero_r2_factors_the_metric_in_closed_form(self, rng, monkeypatch):
        # At r2 = 0 the range's L is diag(lambda_m): no eigvalsh, Cholesky or
        # inverse runs in roweis.linalg for it, and the fits have the bits of
        # fits against its dense form. An r2 = 0.5 group still runs them.
        x, labels = labeled_blobs(rng, d=2, n=40, c=3)
        kern = kernels.KernelSpec("rbf", gamma=0.5)
        configs = [RoweisConfig(r1, 0.0, p=2) for r1 in (0.0, 0.5, 1.0)]
        real_factor = rda.factor_constraint
        dense = []

        def densified(l_mat, complement):
            dense.append(l_mat.ndim)
            return real_factor(np.diag(l_mat) if l_mat.ndim == 1 else l_mat, complement)

        monkeypatch.setattr(rda, "factor_constraint", densified)
        want = fit_direct_grid(x, labels, configs, kern)
        monkeypatch.undo()
        assert dense == [1]
        calls = []
        for name in ("eigvalsh", "cholesky", "inv"):
            real = getattr(linalg.np.linalg, name)
            monkeypatch.setattr(linalg.np.linalg, name,
                                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        got = fit_direct_grid(x, labels, configs, kern)
        assert calls == []
        for g, w in zip(got, want):
            assert_same_model(g, w)
        fit_direct_grid(x, labels, [RoweisConfig(0.5, 0.5, p=2)], kern)
        assert {"eigvalsh", "cholesky", "inv"} <= set(calls)

    @pytest.mark.parametrize("d", (3, 40))
    def test_rda_fit_factors_its_constraint_once(self, rng, monkeypatch, d):
        # The primal fit goes through the same core. Dense route (d <= n):
        # R2 of order d, no complement. Span route (n < d): the n x n block,
        # with d - n copies of 1 - r2 (of the robust tail when robust) as its
        # complement. At r2 = 0 a fit factors nothing and repairs nothing,
        # robust or not.
        n = 20
        x, labels = labeled_blobs(rng, d=d, n=n, c=3)
        real_factor, real_robustify = rda.factor_constraint, rda.robustify
        factored, repaired = [], []

        def counting(r2_mat, complement):
            factored.append((r2_mat.shape, complement))
            return real_factor(r2_mat, complement)

        def repairing(s, complement=None):
            out = real_robustify(s, complement)
            repaired.append(out[1])
            return out

        monkeypatch.setattr(rda, "factor_constraint", counting)
        monkeypatch.setattr(rda, "robustify", repairing)
        for r2 in (0.0, 0.5, 1.0):
            for robust in (False, True):
                factored.clear()
                repaired.clear()
                rda.fit(x, labels, RoweisConfig(0.5, r2, robust=robust))
                if r2 == 0.0:
                    assert factored == [] and repaired == []
                    continue
                [(shape, complement)] = factored
                if d <= n:
                    assert shape == (d, d) and complement is None
                else:
                    assert shape == (n, n) and complement.count == d - n
                    assert complement == (repaired[0] if robust else Complement(1.0 - r2, d - n))


@pytest.mark.parametrize("d", (3, 40))
@pytest.mark.parametrize("r1", (0.0, 0.5, 1.0))
def test_a_robust_fit_at_r2_zero_is_the_plain_fit(rng, monkeypatch, d, r1):
    # Classes route (d <= n) and span route (n < d): R2 = I, whose robust
    # repair is I bit for bit, so the robust fit solves the plain problem
    # and repairs, factors and solves nothing generalized.
    x, labels = labeled_blobs(rng, d=d, n=20, c=3)
    plain = rda.fit(x, labels, RoweisConfig(r1, 0.0))

    def forbidden(*args, **kwargs):
        raise AssertionError("a robust r2 = 0 fit took the generalized solve")

    for name in ("robustify", "factor_constraint", "generalized_eig"):
        monkeypatch.setattr(rda, name, forbidden)
    robust = rda.fit(x, labels, RoweisConfig(r1, 0.0, robust=True))
    assert robust.config.robust and plain.route == ("classes" if d <= 20 else "span")
    assert_same_rda_model(robust, dataclasses.replace(plain, config=dataclasses.replace(plain.config, robust=True)))


class TestFitGrid:
    @pytest.mark.parametrize("d, gram", [(3, False), (40, False), (3, True), (40, True)],
                             ids=["3", "40", "3, label Gram", "40, label Gram"])
    def test_edge_cases_match_the_per_config_fit(self, rng, d, gram):
        # Classes (d <= n) and span (n < d) routes, with and without a label
        # Gram, which takes Xc beside X's moments; r2 not grouped in the config
        # order, (0, 0) among labeled configs, robust and not, p above the
        # rank cap, and two label kernels that resolve to the same kernel.
        x, labels = labeled_blobs(rng, d=d, n=20, c=3)
        same = kernels.KernelSpec("linear" if gram else "delta")
        configs = [
            RoweisConfig(1.0, 0.5, p=2), RoweisConfig(0.5, 1.0, p=30, robust=True), RoweisConfig(0.0, 0.0),
            RoweisConfig(1.0, 0.0, p=2, label_kernel=same),
            RoweisConfig(0.5, 0.5, robust=True), RoweisConfig(0.0, 0.5, p=2), RoweisConfig(0.5, 0.0, robust=True),
        ]
        if gram:
            configs = [dataclasses.replace(config, label_kernel=same) for config in configs]
        models = rda.fit_grid(x, labels, configs)
        assert len(models) == len(configs)
        assert {model.route for model in models} == {"span" if d > 20 else "classes"}
        assert models[1].notes
        for config, model in zip(configs, models):
            assert_same_rda_model(model, rda.fit(x, labels, config))

    def test_checks_every_config_before_fitting(self, rng, monkeypatch):
        x = rng.standard_normal((2, 10))
        solves = []
        monkeypatch.setattr(rda, "factor_constraint", lambda *a: solves.append(a))
        monkeypatch.setattr(rda, "symmetric_eig", lambda *a: solves.append(a))
        with pytest.raises(ConfigError, match="class labels"):
            rda.fit_grid(x, rng.standard_normal(10), [RoweisConfig(0.0, 0.0), RoweisConfig(0.5, 0.0),
                                                      RoweisConfig(0.0, 0.5)])
        with pytest.raises(ConfigError, match="labels are required"):
            rda.fit_grid(x, None, [RoweisConfig(0.0, 0.0), RoweisConfig(0.5, 0.0)])
        with pytest.raises(ConfigError, match="at least one"):
            rda.fit_grid(x, None, [])
        assert not solves

    @pytest.mark.parametrize("d", (3, 40))
    def test_the_span_route_takes_one_qr_per_grid(self, rng, monkeypatch, d):
        x, labels = labeled_blobs(rng, d=d, n=20, c=3)
        real, calls = np.linalg.qr, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        rda.fit_grid(x, labels, [RoweisConfig(r1, r2, robust=r1 == 0.5) for r1 in (0.0, 0.5, 1.0)
                                 for r2 in (0.0, 1.0)])
        assert calls == ([] if d <= 20 else [(d, 20)])


def test_grid_fits_build_the_label_gram_once(rng, monkeypatch):
    x = rng.standard_normal((3, 25))
    y = rng.standard_normal(25)
    real, calls = kernels.label_gram, []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(kernels, "label_gram", counting)
    configs = [RoweisConfig(r1, 0.0, p=2, label_kernel=kernels.KernelSpec("rbf")) for r1 in (0.0, 0.5, 1.0)]
    for fit_grid in (rda.fit_grid, lambda *a: fit_direct_grid(*a, kernels.KernelSpec("rbf"))):
        calls.clear()
        models = fit_grid(x, y, configs)
        assert len(calls) == 1 and calls[0].family == "rbf" and calls[0].gamma
        assert len(models) == 3


def test_label_kernels_that_differ_only_in_ignored_parameters_share_one_label_gram(rng, monkeypatch):
    x, labels = labeled_blobs(rng, d=3, n=30, c=3)
    real, sizes = kernels.label_gram, []

    def counting(spec, y1, y2):
        sizes.append(len(y1))
        return real(spec, y1, y2)

    monkeypatch.setattr(kernels, "label_gram", counting)
    configs = [RoweisConfig(0.5, 0.0, p=2, label_kernel=kernels.KernelSpec("linear")),
               RoweisConfig(1.0, 0.5, p=2, label_kernel=kernels.KernelSpec("linear", degree=3, offset=-2.0))]
    models = rda.fit_grid(x, labels, configs)
    assert sizes.count(30) == 1
    assert models[0].config.label_kernel == models[1].config.label_kernel


class TestProjectGrid:
    def test_equals_each_models_projection(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=40, c=3)
        kern = kernels.KernelSpec("rbf", gamma=0.3)
        models = fit_direct_grid(x, labels, [RoweisConfig(r1, r2, p=2) for r1 in (0.0, 1.0)
                                             for r2 in (0.0, 0.5)], kern)
        # Trick models (their own equal copy of X) are centered on a copy of
        # the shared block, except the last, which may center it in place.
        models += [fit_kernel_spca(x, labels, kern, p=2), fit_kernel_pca(x, kern, p=2)]
        for n_new in (1, 7, kernel_rda.PROJECT_BLOCK + 5):
            x_new = rng.standard_normal((2, n_new))
            for model, emb in zip(models, project_grid(models, x_new)):
                want = project(model, x_new)
                assert emb.shape == want.shape and emb.tobytes() == want.tobytes()

    def test_takes_kernels_that_differ_only_in_ignored_parameters(self, rng):
        x, labels = labeled_blobs(rng, d=2, n=20, c=2)
        models = [fit_direct(x, labels, RoweisConfig(0.5, 0.5, p=2), kernels.KernelSpec("rbf", gamma=0.3, **extra))
                  for extra in ({}, {"degree": 3, "offset": 0.0})]
        x_new = rng.standard_normal((2, 5))
        for model, emb in zip(models, project_grid(models, x_new)):
            assert emb.tobytes() == project(model, x_new).tobytes()

    def test_refuses_models_of_different_training_sets(self, rng):
        kern = kernels.KernelSpec("rbf", gamma=0.3)
        a = fit_kernel_pca(rng.standard_normal((2, 10)), kern, p=2)
        b = fit_kernel_pca(rng.standard_normal((2, 10)), kern, p=2)
        c = fit_kernel_pca(a.train_x, kernels.KernelSpec("rbf", gamma=0.4), p=2)
        for models in ([a, b], [a, c], []):
            with pytest.raises(ConfigError):
                project_grid(models, a.train_x)


# ---------------------------------------------------------------- the per-config loops

def sweep_csv(tmp_path, data, variant, grid, seed, *flags):
    out = tmp_path / f"sweep-{variant}.csv"
    assert run("sweep", "--data", data, "--label-col", "label", "--variant", variant,
               "--grid", grid, "--seed", seed, *flags, "--out", out) == 0
    return out


@pytest.mark.parametrize("variant", ["primal", "kernel"])
@pytest.mark.parametrize("source", ["rings", "bench"])
def test_sweep_writes_the_per_config_loops_bytes(tmp_path, variant, source):
    data = tmp_path / "data.csv"
    if source == "rings":
        assert run("gen", "rings", "--n", 50, "--seed", 4, "--out", data) == 0
    else:
        assert run("gen", "bench", "--id", 3, "--n", 50, "--seed", 4, "--out", data) == 0
    out = sweep_csv(tmp_path, data, variant, 3, 4)

    x, y, _ = datasets.load_csv(data, "label")
    kind = "classification" if kernels.is_categorical(y) else "regression"
    train, test = datasets.train_test_split(datasets.Dataset(X=x, y=y, kind=kind), 0.7, 4)
    data_kernel = kernels.KernelSpec("rbf")
    if variant == "kernel":
        data_kernel = kernels.resolve_gamma(data_kernel, train.X)
    values = np.linspace(0.0, 1.0, 3)
    r2_values = values if kind == "classification" else [0.0]
    rows = oracle.sweep_rows(variant, train, test, values, r2_values, 2, data_kernel, None)
    expected = tmp_path / "expected.csv"
    text_io_oracle.write_rows(expected, ["r1", "r2", "s", "metric", "value"], rows)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("variant", ["primal", "kernel"])
def test_sweep_fits_with_the_label_kernel_flags(tmp_path, variant):
    data = tmp_path / "data.csv"
    assert run("gen", "bench", "--id", 3, "--n", 50, "--seed", 4, "--out", data) == 0
    out = sweep_csv(tmp_path, data, variant, 3, 4, "--label-kernel", "rbf", "--label-gamma", 0.5)

    x, y, _ = datasets.load_csv(data, "label")
    train, test = datasets.train_test_split(datasets.Dataset(X=x, y=y, kind="regression"), 0.7, 4)
    data_kernel = kernels.KernelSpec("rbf")
    if variant == "kernel":
        data_kernel = kernels.resolve_gamma(data_kernel, train.X)
    values = np.linspace(0.0, 1.0, 3)
    label_kernel = kernels.KernelSpec("rbf", gamma=0.5)
    rows = oracle.sweep_rows(variant, train, test, values, [0.0], 2, data_kernel, label_kernel)
    expected = tmp_path / "expected.csv"
    text_io_oracle.write_rows(expected, ["r1", "r2", "s", "metric", "value"], rows)
    assert out.read_bytes() == expected.read_bytes()
    # The flags matter: the default label kernel, the median-heuristic RBF, scores otherwise.
    assert rows != oracle.sweep_rows(variant, train, test, values, [0.0], 2, data_kernel, None)


def test_experiments_write_the_per_config_loops_bytes(tmp_path):
    out_dir = tmp_path / "results"
    assert run("experiments", "--out-dir", out_dir, "--reps", 2, "--n", 40,
               "--panel-n", 60, "--seed", 2) == 0
    expected = tmp_path / "expected.csv"
    cells = oracle.regression_benchmark_table(repetitions=2, n=40, base_seed=2)
    rows = [[c.method, repr(c.r1), str(c.bench_id), repr(c.mean), repr(c.std)]
            for c in cells]
    text_io_oracle.write_rows(expected, ["method", "r1", "benchmark", "rmse_mean", "rmse_std"], rows)
    assert (out_dir / "regression_table.csv").read_bytes() == expected.read_bytes()
    for name in ("xor", "rings"):
        for panel in oracle.embedding_panels(name, n=60, seed=2):
            header = ["split", "label"] + [f"e{i + 1}" for i in range(panel.train_emb.shape[0])]
            lead = ([("train", str(y)) for y in panel.train_y]
                    + [("test", str(y)) for y in panel.test_y])
            text_io_oracle.write_columns(expected, header, np.hstack([panel.train_emb, panel.test_emb]), lead)
            path = out_dir / "panels" / f"{name}_r1_{panel.config.r1:g}_r2_{panel.config.r2:g}.csv"
            assert path.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------- work per split

@pytest.fixture
def counted(monkeypatch):
    """Call counts of kernels.median_heuristic_gamma and kernels.gram."""
    counts = {"median_heuristic_gamma": 0, "gram": 0}
    for name in counts:
        real = getattr(kernels, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counting)
    return counts


def test_table_resolves_two_bandwidths_per_split(counted, monkeypatch):
    # One CPU, so every split runs in this process, where the counts are kept.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    experiments.regression_benchmark_table(repetitions=3, n=30)
    splits = 3 * 3
    assert counted["median_heuristic_gamma"] == 2 * splits
    # Per split: one label Gram for each of the two grid fits, plus the
    # kernel fit's K_x and one train and one test block.
    assert counted["gram"] == 5 * splits


@pytest.mark.parametrize("name", ["xor", "rings"])
def test_panels_resolve_one_bandwidth_per_dataset(counted, name):
    panels = experiments.embedding_panels(name, n=60, seed=1)
    assert len(panels) == 9
    assert counted["median_heuristic_gamma"] == 1
    assert counted["gram"] == 3  # K_x, the training block, the test block


def test_sweep_resolves_the_label_bandwidth_once(tmp_path, counted):
    data = tmp_path / "bench.csv"
    assert run("gen", "bench", "--id", 1, "--n", 40, "--seed", 2, "--out", data) == 0
    counted["median_heuristic_gamma"] = 0
    sweep_csv(tmp_path, data, "primal", 4, 2)
    assert counted["median_heuristic_gamma"] == 1


def test_grid_memory_does_not_grow_with_the_grid():
    # Both grids mix r1 and r2 strictly inside (0, 1), so both blend the
    # objective's two terms and hold K_x and one factor while solving; N
    # lives only while its L is built. The 21 extra points of the 5 x 5 grid
    # may add only their outputs (n x 2 coefficients each).
    n = 300
    x, labels = labeled_blobs(np.random.default_rng(5), d=2, n=n, c=3)
    kern = kernels.KernelSpec("rbf", gamma=0.5)

    def peak(values):
        configs = [RoweisConfig(r1, r2, p=2) for r1 in values for r2 in values]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_direct_grid(x, labels, configs, kern)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = peak([0.25, 0.75]), peak(np.linspace(0.0, 1.0, 5))
    assert large <= small + n * n * 8
    assert large <= 6 * n * n * 8
    assert large <= 4.5 * n * n * 8

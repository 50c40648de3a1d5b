"""The library raises only RoweisError subclasses on bad input.

Non-finite data and non-finite real-valued targets reach every fit entry
point as DataError before any factorization runs, and every entry point
raises the same error for the same faulty input; NaN or inf in the points a
fitted model embeds is a DataError too; data with more than two axes is a
ConfigError, and so is a linear, polynomial or RBF label kernel over labels
that are not numbers; a LinAlgError escaping
LAPACK inside ``roweis.linalg`` surfaces as NumericalError; an unknown panel
dataset is a ConfigError. So is a fit setting ``RoweisConfig`` refuses (a p
that is not a whole number, a robust flag that is not a bool, a label kernel
by name) and a public numeric argument of ``datasets`` or ``experiments``
of the wrong type, or fractional where a whole number belongs.
"""

import numpy as np
import pytest

from roweis import datasets, experiments, kernels
from roweis.dual import fit_dual
from roweis.exceptions import ConfigError, DataError, NumericalError
from roweis.experiments import embedding_panels
from roweis.kernel_rda import fit_direct, fit_kernel_pca, fit_kernel_spca
from roweis.kernel_rda import project as project_kernel
from roweis.linalg import symmetric_eig
from roweis.rda import RoweisConfig, fit, project, reconstruct

KERNEL = kernels.KernelSpec("rbf", gamma=0.5)

ENTRY_POINTS = {
    "rda.fit": lambda x, y: fit(x, y, RoweisConfig(r1=0.5, r2=0.5)),
    "dual.fit_dual": lambda x, y: fit_dual(x, y, 0.5),
    "kernel_rda.fit_direct": lambda x, y: fit_direct(x, y, RoweisConfig(r1=0.5, r2=0.5), KERNEL),
    "kernel_rda.fit_kernel_pca": lambda x, y: fit_kernel_pca(x, KERNEL),
    "kernel_rda.fit_kernel_spca": lambda x, y: fit_kernel_spca(x, y, KERNEL),
}


@pytest.mark.parametrize("shape", [(3, 10), (30, 10)], ids=["n>d", "n<d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_data_is_a_data_error(entry, bad, shape, rng):
    x = rng.standard_normal(shape)
    x[1, 4] = bad
    labels = np.arange(shape[1]) % 2
    with pytest.raises(DataError, match="non-finite"):
        ENTRY_POINTS[entry](x, labels)


TARGET_ENTRY_POINTS = {
    "rda.fit": lambda x, y: fit(x, y, RoweisConfig(r1=1)),
    "dual.fit_dual": lambda x, y: fit_dual(x, y, 1.0),
    "kernel_rda.fit_direct": lambda x, y: fit_direct(x, y, RoweisConfig(r1=1), KERNEL),
    "kernel_rda.fit_kernel_spca": lambda x, y: fit_kernel_spca(x, y, KERNEL),
}


LABEL_KERNEL_ENTRY_POINTS = {
    "rda.fit": lambda x, y, spec: fit(x, y, RoweisConfig(r1=1, label_kernel=spec)),
    "dual.fit_dual": lambda x, y, spec: fit_dual(x, y, 1.0, label_kernel=spec),
    "kernel_rda.fit_direct": lambda x, y, spec: fit_direct(x, y, RoweisConfig(r1=1, label_kernel=spec), KERNEL),
    "kernel_rda.fit_kernel_spca": lambda x, y, spec: fit_kernel_spca(x, y, KERNEL, spec),
}


@pytest.mark.parametrize("spec", [kernels.KernelSpec("rbf"), kernels.KernelSpec("rbf", gamma=0.5),
                                  kernels.KernelSpec("linear"), kernels.KernelSpec("polynomial")],
                         ids=["rbf median heuristic", "rbf", "linear", "polynomial"])
@pytest.mark.parametrize("entry", sorted(LABEL_KERNEL_ENTRY_POINTS))
def test_a_label_kernel_over_numbers_refuses_string_labels(entry, spec, rng):
    labels = np.array(["a", "b", "c"] * 4)
    with pytest.raises(ConfigError, match="label kernel needs numeric labels"):
        LABEL_KERNEL_ENTRY_POINTS[entry](rng.standard_normal((3, 12)), labels, spec)


@pytest.mark.parametrize("shape", [(3, 10), (30, 10)], ids=["n>d", "n<d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(TARGET_ENTRY_POINTS))
def test_non_finite_targets_are_a_data_error(entry, bad, shape, rng):
    x = rng.standard_normal(shape)
    targets = rng.standard_normal(shape[1])
    targets[4] = bad
    with pytest.raises(DataError, match="labels hold non-finite values"):
        TARGET_ENTRY_POINTS[entry](x, targets)


# Each function that embeds new points: (fit on clean 3 x 10 data, embed).
EMBEDDINGS = {
    "rda.project": (lambda x, y: fit(x, y, RoweisConfig(r1=0.5, r2=0.5)), project),
    "rda.reconstruct": (lambda x, y: fit(x, y, RoweisConfig(r1=0.5, r2=0.5)), reconstruct),
    "kernel_rda.project[direct]": (
        lambda x, y: fit_direct(x, y, RoweisConfig(r1=0.5, r2=0.5), KERNEL), project_kernel),
    "kernel_rda.project[trick]": (lambda x, y: fit_kernel_pca(x, KERNEL), project_kernel),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(EMBEDDINGS))
def test_non_finite_points_to_embed_are_a_data_error(entry, bad, rng):
    fit_model, embed = EMBEDDINGS[entry]
    model = fit_model(rng.standard_normal((3, 10)), np.arange(10) % 2)
    x_new = rng.standard_normal((3, 4))
    x_new[2, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        embed(model, x_new)


# Each entry point with a well-formed supervised call: class labels, p and r2
# as given. Kernel PCA takes no labels, kernel SPCA and the dual no r2.
FITS = {
    "rda.fit": lambda x, y, r2, p: fit(x, y, RoweisConfig(r1=0.5, r2=r2, p=p)),
    "dual.fit_dual": lambda x, y, r2, p: fit_dual(x, y, 0.5, r2=r2, p=p),
    "kernel_rda.fit_direct": lambda x, y, r2, p: fit_direct(x, y, RoweisConfig(r1=0.5, r2=r2, p=p), KERNEL),
    "kernel_rda.fit_kernel_pca": lambda x, y, r2, p: fit_kernel_pca(x, KERNEL, p=p),
    "kernel_rda.fit_kernel_spca": lambda x, y, r2, p: fit_kernel_spca(x, y, KERNEL, p=p),
}
LABELED = sorted(set(FITS) - {"kernel_rda.fit_kernel_pca"})
WITH_R2 = ["dual.fit_dual", "kernel_rda.fit_direct", "rda.fit"]


def _call(rng, d, n=10, labels="classes", r2=0.0, p=1):
    x = rng.standard_normal((d, n))
    y = {
        "classes": np.arange(n) % 2,
        "missing": None,
        "short": np.arange(n - 1) % 2,
        "targets": rng.standard_normal(n),
    }[labels]
    return x, y, r2, p


# fault -> (arguments with exactly that fault, entry points it applies to, error)
FAULTS = {
    "n = 1": (dict(n=1), sorted(FITS), ConfigError),
    "labels missing": (dict(labels="missing"), LABELED, ConfigError),
    "wrong label length": (dict(labels="short"), LABELED, ConfigError),
    "real targets with r2 > 0": (dict(labels="targets", r2=0.5), WITH_R2, ConfigError),
    "p = 0": (dict(p=0), sorted(FITS), ConfigError),
}
CASES = [(fault, entry) for fault, (_, entries, _) in FAULTS.items() for entry in entries]


@pytest.mark.parametrize("d", [3, 30], ids=["n>d", "n<d"])
@pytest.mark.parametrize("fault, entry", CASES, ids=[f"{f}-{e}" for f, e in CASES])
def test_one_fault_raises_the_same_error_everywhere(fault, entry, d, rng):
    kwargs, _, error = FAULTS[fault]
    with pytest.raises(error):
        FITS[entry](*_call(rng, d, **kwargs))


@pytest.mark.parametrize("d", [3, 30], ids=["n>d", "n<d"])
@pytest.mark.parametrize("entry", sorted(FITS))
def test_the_fault_free_call_fits(entry, d, rng):
    assert FITS[entry](*_call(rng, d)).n_components == 1


@pytest.mark.parametrize("p", [0, -1])
@pytest.mark.parametrize("d", [3, 30], ids=["n>d", "n<d"])
@pytest.mark.parametrize("entry", sorted(FITS))
def test_p_below_one_is_a_config_error(entry, d, p, rng):
    with pytest.raises(ConfigError, match="p must be a positive integer"):
        FITS[entry](*_call(rng, d, p=p))


def test_unsupervised_dual_checks_the_labels_it_is_given(rng):
    with pytest.raises(ConfigError, match="labels must have length n=10"):
        fit_dual(rng.standard_normal((3, 10)), np.arange(9) % 2, 0.0)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_data_with_more_than_two_axes_is_a_config_error(entry, rng):
    with pytest.raises(ConfigError, match="X must be 2-dimensional, got ndim=3"):
        ENTRY_POINTS[entry](rng.standard_normal((2, 3, 4)), np.arange(4) % 2)


def test_linalg_error_becomes_numerical_error(monkeypatch):
    def not_converging(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", not_converging)
    with pytest.raises(NumericalError, match="symmetric_eig: Eigenvalues did not converge"):
        symmetric_eig(np.eye(3))


def test_unknown_panel_dataset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown panel dataset"):
        embedding_panels("moons")


# Each call holds one setting or numeric argument of the wrong type, or a
# fraction where a whole number belongs. Called with (x, labels, csv path).
BAD_ARGUMENTS = {
    "RoweisConfig p=2.5": lambda x, y, path: RoweisConfig(p=2.5),
    "RoweisConfig p='2'": lambda x, y, path: RoweisConfig(p="2"),
    "RoweisConfig p=True": lambda x, y, path: RoweisConfig(p=True),
    "RoweisConfig robust='no'": lambda x, y, path: RoweisConfig(0.5, 0.5, robust="no"),
    "RoweisConfig robust=np.True_": lambda x, y, path: RoweisConfig(0.5, 0.5, robust=np.True_),
    "RoweisConfig label_kernel='delta'": lambda x, y, path: RoweisConfig(label_kernel="delta"),
    "rda.fit p=2.5": lambda x, y, path: fit(x, None, RoweisConfig(0, 0, p=2.5)),
    "fit_kernel_pca p=2.5": lambda x, y, path: fit_kernel_pca(x, KERNEL, p=2.5),
    "fit_kernel_spca label kernel 'rbf'": lambda x, y, path: fit_kernel_spca(x, y, KERNEL, "rbf"),
    "fit_dual p='2'": lambda x, y, path: fit_dual(x, y, 0.5, p="2"),
    "gen_xor n=4.5": lambda x, y, path: datasets.gen_xor(4.5, 0),
    "gen_xor seed=1.5": lambda x, y, path: datasets.gen_xor(10, 1.5),
    "gen_xor margin='0.05'": lambda x, y, path: datasets.gen_xor(10, 0, margin="0.05"),
    "gen_rings n=4.5": lambda x, y, path: datasets.gen_rings(4.5, 0),
    "gen_rings seed='1'": lambda x, y, path: datasets.gen_rings(10, "1"),
    "gen_rings noise='0.1'": lambda x, y, path: datasets.gen_rings(10, 0, noise="0.1"),
    "gen_regression_benchmark n=4.5": lambda x, y, path: datasets.gen_regression_benchmark(1, 4.5, 0),
    "gen_regression_benchmark seed=1.5": lambda x, y, path: datasets.gen_regression_benchmark(1, 10, 1.5),
    "gen_regression_benchmark noise_scale='1'": (
        lambda x, y, path: datasets.gen_regression_benchmark(1, 10, 0, noise_scale="1")),
    "train_test_split fraction='0.5'": (
        lambda x, y, path: datasets.train_test_split(datasets.gen_xor(10, 0), "0.5", 0)),
    "train_test_split seed='1'": lambda x, y, path: datasets.train_test_split(datasets.gen_xor(10, 0), 0.5, "1"),
    "load_csv label_col=1.5": lambda x, y, path: datasets.load_csv(path, 1.5),
    "load_csv label_col=True": lambda x, y, path: datasets.load_csv(path, True),
    "regression_benchmark_table repetitions=2.5": lambda x, y, path: experiments.regression_benchmark_table(2.5, 20),
    "regression_benchmark_table n='20'": lambda x, y, path: experiments.regression_benchmark_table(1, "20"),
    "regression_benchmark_table base_seed=1.5": (
        lambda x, y, path: experiments.regression_benchmark_table(1, 20, base_seed=1.5)),
    "embedding_panels n=4.5": lambda x, y, path: experiments.embedding_panels("xor", n=4.5),
    "embedding_panels seed='1'": lambda x, y, path: experiments.embedding_panels("xor", n=20, seed="1"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_a_bad_setting_or_argument_is_a_config_error(case, tmp_path, rng):
    x, y = rng.standard_normal((3, 10)), np.arange(10) % 2
    path = tmp_path / "data.csv"
    datasets.save_csv(path, x, y)
    with pytest.raises(ConfigError, match="must be"):
        BAD_ARGUMENTS[case](x, y, path)

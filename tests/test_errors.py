"""The library raises only RoweisError subclasses on bad input.

Non-finite data reach every fit entry point as DataError before any
factorization runs; a LinAlgError escaping LAPACK inside ``roweis.linalg``
surfaces as NumericalError; an unknown panel dataset is a ConfigError.
"""

import numpy as np
import pytest

from roweis import kernels
from roweis.dual import fit_dual
from roweis.exceptions import ConfigError, DataError, NumericalError
from roweis.experiments import embedding_panels
from roweis.kernel_rda import fit_direct, fit_kernel_pca, fit_kernel_spca
from roweis.linalg import incomplete_svd
from roweis.rda import RoweisConfig, fit

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


def test_linalg_error_becomes_numerical_error():
    w = np.ones((4, 3))
    w[0, 0] = np.nan
    with pytest.raises(NumericalError, match="did not converge"):
        incomplete_svd(w, 2)


def test_unknown_panel_dataset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown panel dataset"):
        embedding_panels("moons")

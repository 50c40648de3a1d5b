"""Two-factor generalized subspace learning.

A single pair of mixing factors (r1, r2) in [0, 1]^2 interpolates between
PCA, Fisher discriminant analysis, supervised PCA, and the doubly supervised
corner, in both the input space and a kernel feature space.
"""

__version__ = "0.1.0"

from .dual import fit_dual
from .exceptions import ConfigError, DataError, NumericalError, RoweisError
from .kernel_rda import KernelRdaModel, fit_direct, fit_kernel_pca, fit_kernel_spca
from .kernel_rda import project as project_kernel
from .kernels import KernelSpec
from .rda import RdaModel, RoweisConfig, fit, project, reconstruct, supervision_level

__all__ = [
    "ConfigError",
    "DataError",
    "KernelRdaModel",
    "KernelSpec",
    "NumericalError",
    "RdaModel",
    "RoweisConfig",
    "RoweisError",
    "fit",
    "fit_direct",
    "fit_dual",
    "fit_kernel_pca",
    "fit_kernel_spca",
    "load_model",
    "project",
    "project_kernel",
    "reconstruct",
    "save_model",
    "supervision_level",
    "__version__",
]


def __getattr__(name):
    """``load_model`` and ``save_model``, whose module is imported on first
    use, so a command that reads or writes no model file does not hold it."""
    if name in ("load_model", "save_model"):
        from . import persist

        return getattr(persist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

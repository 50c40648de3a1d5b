"""The r2 = 0 slice under its dual name, where R1 = W W' with
W = [sqrt(r1) Xc Upsilon, sqrt(1 - r1) Xc]. :func:`roweis.rda.fit` solves it
on the span of the centered data when samples are scarce, so
:func:`fit_dual` is that fit at r2 = 0. Model files of the earlier dual fits
(route ``"dual"``, or the ``variant: dual`` layout) still load.
"""

from __future__ import annotations

from . import kernels
from .exceptions import ConfigError
from .rda import RdaModel, RoweisConfig, fit


def fit_dual(
    x,
    labels=None,
    r1: float = 0.0,
    *,
    r2: float = 0.0,
    p: int | None = None,
    label_kernel: kernels.KernelSpec | None = None,
) -> RdaModel:
    """:func:`roweis.rda.fit` at (r1, 0); only r2 = 0 has the dual form."""
    if r2 != 0.0:
        raise ConfigError("the dual form exists only for r2=0")
    return fit(x, labels, RoweisConfig(r1, 0.0, p, label_kernel))

"""Dual form of the r2 = 0 slice, efficient when samples are scarce.

With an orthonormality constraint (r2 = 0) the objective matrix factors as
R1 = W W' with

    W = Xc                          when r1 = 0,
    W = Xc Upsilon                  when r1 = 1,
    W = [sqrt(r1) Xc Upsilon, sqrt(1 - r1) Xc]   otherwise,

where Upsilon Upsilon' = K_y. For class labels Upsilon is the n x c
class-indicator matrix E, so W is d x (n + c) at most and no n x n array is
built. For real-valued targets Upsilon comes from an eigendecomposition of
the dense RBF label kernel (see :func:`roweis.rda.label_factor`).

The basis is recovered from the small-side factor: eigenvectors V of W'W
when that is the smaller problem, a truncated SVD of W otherwise, so the
d x d eigenproblem is never formed, which is the point when n << d.
:func:`leading_directions` is that W'W solve and its cut of the usable
directions; the kernel-trick fits of :mod:`roweis.kernel_rda` use it too,
on the Gram of their feature-space factor, with a coarser cut. The fit
is an ordinary :class:`~roweis.rda.RdaModel` with route ``"dual"``: basis
W V / sigma (orthonormal columns, the primal eigenvectors up to sign) and
eigvals sigma^2. It projects, reconstructs and is saved like any primal
model; model files of the earlier dual layout (W, V and sigma) are converted
on load by :func:`roweis.persist.load_model`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .exceptions import ConfigError, NumericalError
from .linalg import EIG_NOISE_RTOL, incomplete_svd, symmetric_eig
from .rda import RdaModel, RoweisConfig, _fit_inputs, _resolved_label_kernel, label_factor

# Singular values below this fraction of the largest are dropped before the
# division that forms the basis.
SINGULAR_RTOL = 1e-10


def leading_directions(gram, rtol: float, p: int | None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(V, sigma, notes) of the first p usable directions of a factor W, from
    its Gram matrix W'W = V diag(sigma^2) V' (all usable ones for p=None).

    A direction is usable when its sigma is at least ``rtol`` of the largest.
    The square root would lift eigensolver noise on a rank-deficient Gram
    above the cut, so eigenvalues below EIG_NOISE_RTOL of the largest are
    zeroed first.
    """
    pair = symmetric_eig(gram)
    values = np.clip(pair.values, 0.0, None)
    if values.size and values[0] > 0.0:
        values[values < EIG_NOISE_RTOL * values[0]] = 0.0
    return _usable(pair.vectors, np.sqrt(values), rtol, p)


def _usable(right: np.ndarray, sigma: np.ndarray, rtol: float, p: int | None):
    """The cut of :func:`leading_directions`, on any non-increasing sigma."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise NumericalError("no positive eigenvalues; the data carry no variance")
    # sigma is non-increasing, so the usable directions lead.
    usable = int(np.count_nonzero(sigma >= rtol * sigma[0]))
    notes = ()
    if p is None:
        p = usable
    elif p < 1:
        raise ConfigError(f"p must be a positive integer, got {p}")
    elif p > usable:
        notes = (f"requested p={p} exceeds the {usable} usable directions; truncated",)
        p = usable
    return right[:, :p], sigma[:p], notes


def fit_dual(
    x,
    labels=None,
    r1: float = 0.0,
    *,
    r2: float = 0.0,
    p: int | None = None,
    label_kernel: kernels.KernelSpec | None = None,
) -> RdaModel:
    """Fit through the small-side factor; only r2 = 0 has this form."""
    if r2 != 0.0:
        raise ConfigError("the dual form exists only for r2=0")
    if not 0.0 <= r1 <= 1.0:
        raise ConfigError(f"r1 must lie in [0, 1], got {r1}")
    x, labels = _fit_inputs(x, labels, r1, 0.0)

    mean = x.mean(axis=1)
    centered = x - mean[:, None]

    if r1 == 0.0:
        w = centered
    else:
        label_kernel = _resolved_label_kernel(label_kernel, labels)
        q = centered @ label_factor(label_kernel, labels)
        if r1 == 1.0:
            w = q
        else:
            w = np.hstack([np.sqrt(r1) * q, np.sqrt(1.0 - r1) * centered])

    if w.shape[1] < x.shape[0]:
        right, sigma, notes = leading_directions(w.T @ w, SINGULAR_RTOL, p)
    else:
        fac = incomplete_svd(w, k=min(w.shape))
        right, sigma, notes = _usable(fac.right, fac.singular, SINGULAR_RTOL, p)
    return RdaModel(
        basis=(w @ right) / sigma[None, :],
        eigvals=sigma**2,
        mean=mean,
        config=RoweisConfig(r1=r1, p=sigma.size, label_kernel=label_kernel),
        notes=notes,
        route="dual",
    )

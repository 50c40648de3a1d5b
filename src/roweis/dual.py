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

When W has fewer columns than rows the basis is recovered from the
small-side factor, eigenvectors V of W'W, so the d x d eigenproblem is never
formed, which is the point when n << d. :func:`leading_directions` is that
W'W solve; the kernel-trick fits of :mod:`roweis.kernel_rda` use it too, on
the Gram of their feature-space factor. Such a fit is an ordinary
:class:`~roweis.rda.RdaModel` with route ``"dual"``: basis W V / sigma
(orthonormal columns, the primal eigenvectors up to sign) and eigvals
sigma^2. Otherwise d x d is the smaller side, and the fit is the primal
dense solve of W W' (route ``"dense"``). Either way
:func:`roweis.rda.select_components` decides how many components are
returned, on the eigenvalues, as for every fit. The model projects,
reconstructs and is saved like any primal model; model files of the earlier
dual layout (W, V and sigma) are converted on load by
:func:`roweis.persist.load_model`, and keep the components they hold.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .exceptions import ConfigError
from .linalg import symmetric_eig
from .rda import RdaModel, RoweisConfig, _fit_inputs, _resolved_label_kernel, label_factor, select_components


def leading_directions(gram, p: int | None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(V, sigma, notes) of the leading directions of a factor W, from its
    Gram matrix W'W = V diag(sigma^2) V'; :func:`roweis.rda.select_components`
    picks them on sigma^2, with no rank cap beyond the Gram's order."""
    pair = symmetric_eig(gram)
    sigma = np.sqrt(np.clip(pair.values, 0.0, None))
    p, notes = select_components(sigma**2, sigma.size, p)
    return pair.vectors[:, :p], sigma[:p], notes


def fit_dual(
    x,
    labels=None,
    r1: float = 0.0,
    *,
    r2: float = 0.0,
    p: int | None = None,
    label_kernel: kernels.KernelSpec | None = None,
) -> RdaModel:
    """Fit through the factor W of R1 = W W'; only r2 = 0 has this form."""
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
        right, sigma, notes = leading_directions(w.T @ w, p)
        basis, eigvals, route = (w @ right) / sigma[None, :], sigma**2, "dual"
    else:
        pair = symmetric_eig(w @ w.T)
        p, notes = select_components(pair.values, pair.values.size, p)
        basis, eigvals, route = pair.vectors[:, :p].copy(), pair.values[:p].copy(), "dense"
    return RdaModel(
        basis=basis,
        eigvals=eigvals,
        mean=mean,
        config=RoweisConfig(r1=r1, p=eigvals.size, label_kernel=label_kernel),
        notes=notes,
        route=route,
    )

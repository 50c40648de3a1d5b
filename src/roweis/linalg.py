"""Dense symmetric eigensolvers, PSD factorization, and truncated SVD.

This is the numerical substrate for every other module. All inputs are plain
float64 numpy arrays. Eigenpairs come back sorted by non-increasing
eigenvalue, and eigenvector signs are fixed deterministically: the entry of
largest absolute value in each column is made positive. The generalized
solver factors the constraint matrix with a Cholesky decomposition,
shifting its diagonal (by the fixed ``SHIFT_*`` ladder) only when needed,
so that the returned basis satisfies ``U.T @ B' @ U = I`` for the (possibly
shifted) constraint ``B'``.

:func:`factor_constraint` is the B side of the generalized solver: it checks,
shifts and factors B once. :func:`generalized_eig` takes B as a matrix or as
that :class:`FactoredConstraint`, so a caller with many objectives against
one constraint factors it once, and every solve still goes through
:func:`generalized_eig`. The plain problem (B = I) is not special-cased
here: its callers know it from their configuration and call
:func:`symmetric_eig`.

A constraint that maps an m-dimensional subspace into itself and acts as a
multiple of the identity on its complement can be handed over as its m x m
block plus a :class:`Complement` (the multiple and the complement's
dimension). The PSD check, the shift and the health test then see the full
spectrum while the factorizations stay m x m.

The solvers copy no more than the factorizations need. An input that is
exactly symmetric is used as it is (symmetrizing it would return an equal
copy); only one within ``SYMMETRY_ATOL`` of symmetric is symmetrized first.
The shifted constraint ``B + s I`` is built without an identity matrix, and
each intermediate is dropped once the next is formed. The results are bit
for bit those of the copying form.

A ``LinAlgError`` escaping numpy's LAPACK wrappers is re-raised as
:class:`~roweis.exceptions.NumericalError`.

Everything here is pure and thread-safe.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from ._util import as_matrix, as_square, sym
from .exceptions import ConfigError, NumericalError

# Absolute tolerance for accepting a matrix as symmetric.
SYMMETRY_ATOL = 1e-10

# Eigenvalues of a nominally PSD matrix may dip this far below zero before
# the matrix is rejected: anything >= -PSD_ABS_TOL is always tolerated, and
# beyond that the dip must stay within PSD_REL_TOL of the Frobenius norm.
PSD_ABS_TOL = 1e-10
PSD_REL_TOL = 1e-6

# Eigenvalues below this fraction of the largest are solver noise on a
# rank-deficient matrix; square roots would inflate them to ~1e-8 relative,
# so PSD square-root factorizations zero them instead.
EIG_NOISE_RTOL = 1e-13

# A constraint matrix counts as numerically singular (and gets shifted) when
# its condition number exceeds this; past it the Cholesky back-transform
# cannot hold the 1e-8 residual contract in double precision.
CONSTRAINT_COND_MAX = 1e6

# Shifts tried after 0 on a singular constraint, in units of _shift_unit:
# from SHIFT_BASE_SCALE, times SHIFT_GROWTH per step, up to SHIFT_MAX_SCALE.
SHIFT_BASE_SCALE = 1e-8
SHIFT_MAX_SCALE = 1e-2
SHIFT_GROWTH = 10.0


@dataclass(frozen=True)
class Complement:
    """``count`` eigenvalues equal to ``value`` outside the block a matrix holds.

    With Q (d x m) orthonormal, the d x d matrix ``Q B Q' + value * (I - Q Q')``
    is held as its m x m block B plus ``Complement(value, d - m)``.
    """

    value: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"a complement needs count >= 1, got {self.count}")


def _shift_unit(b: np.ndarray, complement: Complement | None = None) -> float:
    """B's mean diagonal, complement included; 1.0 if not positive, so a shift exists."""
    trace, order = float(np.trace(b)), b.shape[0]
    if complement is not None:
        trace += complement.value * complement.count
        order += complement.count
    mean_diag = trace / order
    return mean_diag if mean_diag > 0.0 else 1.0


@dataclass(frozen=True)
class EigPair:
    """Eigenvectors (columns) with non-increasing eigenvalues.

    ``shift`` records the diagonal loading that was actually applied to the
    constraint matrix by :func:`generalized_eig`; it is 0.0 for the plain
    symmetric problem or when no regularization was needed.
    """

    vectors: np.ndarray
    values: np.ndarray
    shift: float = 0.0


@dataclass(frozen=True)
class SvdFactor:
    """Truncated singular value decomposition ``W ~ left @ diag(singular) @ right.T``."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray


@contextlib.contextmanager
def _numerical(name: str):
    """Re-raise numpy's LinAlgError inside the block as NumericalError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


def _lapack_errors(fn):
    """Re-raise numpy's LinAlgError from ``fn`` as NumericalError."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _numerical(fn.__name__):
            return fn(*args, **kwargs)

    return wrapper


def require_symmetric(a: np.ndarray, atol: float = SYMMETRY_ATOL, name: str = "matrix") -> float:
    """max |A - A.T|, the symmetry gap; ConfigError when it exceeds ``atol``."""
    if not a.size:
        return 0.0
    gap = a - a.T
    gap = float(np.max(np.abs(gap, out=gap)))
    if gap > atol:
        raise ConfigError(f"{name} is not symmetric: max |A - A.T| = {gap:.3e} > {atol:.1e}")
    return gap


def _symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    """``sym(a)`` after the symmetry check, or ``a`` itself when it is exactly
    symmetric (then ``sym`` would return an equal copy)."""
    return sym(a) if require_symmetric(a, name=name) else a


def _fix_signs(vectors: np.ndarray, companion: np.ndarray | None = None):
    """Make the largest-magnitude entry of each column positive.

    ``companion`` gets the same flips applied (used to keep an SVD product
    invariant when the left factor is re-signed).
    """
    if vectors.shape[1] == 0:
        return (vectors, companion) if companion is not None else vectors
    # Column-major, so argmax walks each column in place instead of copying.
    idx = np.argmax(np.abs(vectors, order="F"), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    flipped = vectors * signs
    if companion is not None:
        return flipped, companion * signs
    return flipped


@_lapack_errors
def symmetric_eig(a) -> EigPair:
    """Full spectrum of a symmetric matrix, leading eigenvalue first."""
    values, vectors = np.linalg.eigh(_symmetrized(as_square(a, "A"), "A"))
    values = values[::-1].copy()
    vectors = _fix_signs(vectors[:, ::-1].copy())
    return EigPair(vectors=vectors, values=values)


def _check_psd_spectrum(values: np.ndarray, norm: float, name: str) -> None:
    lo = float(values.min()) if values.size else 0.0
    if lo < -PSD_ABS_TOL and lo < -PSD_REL_TOL * norm:
        raise NumericalError(
            f"{name} is not positive semidefinite: min eigenvalue {lo:.3e}"
        )


def _shifted(b: np.ndarray, shift: float) -> np.ndarray:
    """``b + shift * I`` bit for bit, without the n x n identity; ``b`` itself
    at shift 0. Adding 0.0 off the diagonal turns -0.0 into 0.0, as adding
    ``shift * 0.0`` does."""
    if shift == 0.0:
        return b
    out = b + 0.0
    out.flat[::out.shape[0] + 1] += shift
    return out


@dataclass(frozen=True)
class FactoredConstraint:
    """A constraint ``B' = B + shift * I`` from :func:`factor_constraint`;
    ``chol`` is its Cholesky factor L (``B' = L L'``)."""

    chol: np.ndarray
    shift: float
    order: int


@_lapack_errors
def factor_constraint(b, complement: Complement | None = None) -> FactoredConstraint:
    """The B side of :func:`generalized_eig`: check, shift and factor B once,
    for any number of solves against it.

    The checks, the shift and the complement are those of
    :func:`generalized_eig`.
    """
    return _factor(b, complement)


def _factor(b, complement: Complement | None) -> FactoredConstraint:
    b = as_square(b, "B")
    b_s = _symmetrized(b, "B")

    b_vals = np.linalg.eigvalsh(b_s)
    b_norm = float(np.linalg.norm(b_s, "fro"))
    if complement is not None:
        b_vals = np.sort(np.append(b_vals, complement.value))
        b_norm = float(np.hypot(b_norm, complement.value * np.sqrt(complement.count)))
    _check_psd_spectrum(b_vals, b_norm, "constraint matrix B")
    lam_min, lam_max = float(b_vals[0]), float(b_vals[-1])

    unit = _shift_unit(b_s, complement)
    candidates = [0.0]
    shift = SHIFT_BASE_SCALE * unit
    while shift <= SHIFT_MAX_SCALE * unit * (1.0 + 1e-12):
        candidates.append(shift)
        shift *= SHIFT_GROWTH

    def healthy(s: float) -> bool:
        if s == candidates[-1] and s > 0.0:
            return True  # the cap is used even if the bound is not met
        return lam_min + s > max(lam_max + s, 0.0) / CONSTRAINT_COND_MAX

    for candidate in candidates:
        if not healthy(candidate):
            continue
        try:
            chol = np.linalg.cholesky(_shifted(b_s, candidate))
        except np.linalg.LinAlgError:
            continue
        return FactoredConstraint(chol=chol, shift=candidate, order=b.shape[0])
    raise NumericalError(
        "constraint matrix stayed singular up to the maximum "
        f"diagonal shift {SHIFT_MAX_SCALE * unit:.3e}"
    )


def generalized_eig(a, b, complement: Complement | None = None) -> EigPair:
    """Solve ``A U = B' U diag(values)`` with ``U.T @ B' @ U = I``.

    ``B' = B + shift * I`` where the shift follows the SHIFT_* ladder and is
    applied only when B is too ill conditioned or its Cholesky factorization
    fails. The solve goes through the
    symmetrized problem on ``L^{-1} A L^{-T}`` (B' = L L'), which is stabler
    than explicitly inverting B. B may also come pre-factored, as the
    :class:`FactoredConstraint` of :func:`factor_constraint` (which then took
    the ``complement``). A is dropped after the first triangular
    solve, so a caller that keeps no reference to it frees it there.

    With ``complement``, A and B are the blocks of d x d matrices that are
    ``0`` and ``complement.value * I`` on a ``complement.count``-dimensional
    complement. The complement's eigenvalues enter the PSD check, the shift
    unit and the health test, so the shift is the one the d x d problem
    gets. Its eigenpairs (all zero) are not returned; the vectors are in the
    block's coordinates.
    """
    with _numerical("generalized_eig"):
        a = as_square(a, "A")
        factored = isinstance(b, FactoredConstraint)
        if factored and complement is not None:
            raise ConfigError("a factored constraint already carries its complement")
        order = b.order if factored else as_square(b, "B").shape[0]
        if a.shape != (order, order):
            raise ConfigError(f"dimension mismatch: A is {a.shape}, B is {(order, order)}")
        a_s = _symmetrized(a, "A")
        factor = b if factored else _factor(b, complement)
        del a, b
        chol = factor.chol
        # C = L^{-1} A L^{-T}; A symmetric makes the second solve valid on Y.T.
        y = np.linalg.solve(chol, a_s)
        del a_s
        c = np.linalg.solve(chol, y.T)
        del y
        c = sym(c)
        values, q = np.linalg.eigh(c)
        del c
        values = values[::-1].copy()
        vectors = np.linalg.solve(chol.T, q[:, ::-1])
        del q, chol
        return EigPair(vectors=_fix_signs(vectors), values=values, shift=factor.shift)


@_lapack_errors
def psd_factor(s) -> np.ndarray:
    """Factor a PSD matrix as ``delta.T @ delta = S``.

    Small negative eigenvalues from round-off are clamped to zero; a genuine
    negative eigenvalue raises NumericalError.
    """
    s = as_square(s, "S")
    require_symmetric(s, name="S")
    values, vectors = np.linalg.eigh(sym(s))
    _check_psd_spectrum(values, float(np.linalg.norm(s, "fro")), "S")
    values = np.clip(values, 0.0, None)
    if values.size and values[-1] > 0.0:
        values[values < EIG_NOISE_RTOL * values[-1]] = 0.0
    return (vectors * np.sqrt(values)).T


@_lapack_errors
def incomplete_svd(w, k: int) -> SvdFactor:
    """Rank-k truncated SVD of a rectangular matrix.

    Exact reconstruction when k >= rank(W).
    """
    w = as_matrix(w, "W")
    limit = min(w.shape)
    if not 1 <= k <= limit:
        raise ConfigError(f"k must be in [1, {limit}] for shape {w.shape}, got {k}")
    left, singular, right_t = np.linalg.svd(w, full_matrices=False)
    left = left[:, :k].copy()
    singular = singular[:k].copy()
    right = right_t[:k].T.copy()
    left, right = _fix_signs(left, right)
    return SvdFactor(left=left, singular=singular, right=right)

"""Dense symmetric eigensolvers and PSD factorization.

This is the numerical substrate for every other module. All inputs are plain
float64 numpy arrays. Eigenpairs come back sorted by non-increasing
eigenvalue, and eigenvector signs are fixed deterministically: the entry of
largest absolute value in each column is made positive. The generalized
solver factors the constraint matrix with a Cholesky decomposition,
shifting its diagonal (by the fixed ``SHIFT_*`` ladder) only when needed,
so that the returned basis satisfies ``U.T @ B' @ U = I`` for the (possibly
shifted) constraint ``B'``. It inverts the triangular factor L once, in
place, and never B itself; every solve against B' is then matrix products
with L^{-1} (Golub & Van Loan, *Matrix Computations*, sec. 8.7).

:func:`factor_constraint` is the B side of the generalized solver and the
only code that checks, shifts and factors B. :func:`generalized_eig` takes
the :class:`FactoredConstraint` it returns, so a caller with many
objectives against one constraint factors it once, and every solve still
goes through :func:`generalized_eig`. The plain problem (B = I) is not
special-cased here: its callers know it from their configuration and call
:func:`symmetric_eig`.

A diagonal B can be factored from its diagonal, a 1-D array, with the
same checks and shift ladder in closed form: its entries are its spectrum,
its Cholesky factorization succeeds exactly when every shifted entry is
positive, and the inverse factor is the vector ``1 / sqrt(b + shift)``.
The solve then scales rows and columns instead of multiplying by a
triangular matrix. Every other term of those products is an exact zero,
so each result has the bits of the dense form ``np.diag(b)``.

A constraint that maps an m-dimensional subspace into itself and acts as a
multiple of the identity on its complement is factored from its m x m
block plus a :class:`Complement` (the multiple and the complement's
dimension). The PSD check, the shift and the health test then see the full
spectrum while the factorizations stay m x m.

The solvers copy no more than the factorizations need. An input that is
exactly symmetric is used as it is (symmetrizing it would return an equal
copy); only one within ``SYMMETRY_ATOL`` of symmetric is symmetrized first.
The shifted constraint ``B + s I`` is built without an identity matrix, the
factor is inverted in its own storage, and each intermediate is dropped
once the next is formed.

A ``LinAlgError`` escaping numpy's LAPACK wrappers is re-raised as
:class:`~roweis.exceptions.NumericalError`, by a ``with _numerical(...)``
block inside each solver. A decorator would hold the call's arguments for
the whole call, so an input its caller hands over (keeping no reference)
could not be freed before LAPACK allocates; inside the block each solver
drops it once the copy it works on exists.

Everything here is pure and thread-safe.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ._util import as_square, sym
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

# Shifts tried after 0 on a singular constraint, in units of B's mean diagonal:
# from SHIFT_BASE_SCALE, times SHIFT_GROWTH per step, up to SHIFT_MAX_SCALE.
SHIFT_BASE_SCALE = 1e-8
SHIFT_MAX_SCALE = 1e-2
SHIFT_GROWTH = 10.0

# _invert_lower hands triangular blocks up to this order to np.linalg.inv.
INVERT_LEAF = 64


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


@contextlib.contextmanager
def _numerical(name: str):
    """Re-raise numpy's LinAlgError in the block as NumericalError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


def require_symmetric(a: np.ndarray, name: str = "matrix") -> float:
    """max |A - A.T|, the symmetry gap; ConfigError when it exceeds SYMMETRY_ATOL."""
    if not a.size:
        return 0.0
    gap = a - a.T
    gap = float(np.max(np.abs(gap, out=gap)))
    if gap > SYMMETRY_ATOL:
        raise ConfigError(f"{name} is not symmetric: max |A - A.T| = {gap:.3e} > {SYMMETRY_ATOL:.1e}")
    return gap


def _symmetrized(a: np.ndarray, name: str) -> np.ndarray:
    """``sym(a)`` after the symmetry check, or ``a`` itself when it is exactly
    symmetric (then ``sym`` would return an equal copy)."""
    return sym(a) if require_symmetric(a, name=name) else a


def _sign_flips(vectors: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1 or -1) that makes its largest-magnitude entry positive."""
    if vectors.shape[1] == 0:
        return np.ones(0)
    # Column-major, so argmax walks each column in place instead of copying.
    idx = np.argmax(np.abs(vectors, order="F"), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    return vectors * _sign_flips(vectors)


def _leading_first(vectors: np.ndarray) -> np.ndarray:
    """``_fix_signs(vectors[:, ::-1].copy())`` bit for bit, as one fresh array
    (an ascending eigenbasis, leading column first); ``vectors`` is overwritten."""
    vectors *= _sign_flips(vectors)
    return vectors[:, ::-1].copy()


def symmetric_eig(a) -> EigPair:
    """Full spectrum of a symmetric matrix, leading eigenvalue first.

    A symmetrized copy replaces ``a`` before eigh, and the matrix eigh saw
    is dropped before the eigenvectors are reordered, so an input the
    caller hands over is freed as early as it can be.
    """
    with _numerical("symmetric_eig"):
        a = _symmetrized(as_square(a, "A"), "A")
        values, vectors = np.linalg.eigh(a)
        del a
        return EigPair(vectors=_leading_first(vectors), values=values[::-1].copy())


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


def _invert_lower(l: np.ndarray) -> np.ndarray:
    """Overwrite the lower-triangular ``l`` with its inverse, by matrix products.

    [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]]: both
    diagonal blocks recursively, then C, through one fresh block-sized
    product at a time (an ``out=`` view of ``l`` would make numpy copy).
    The upper triangle stays exactly 0, and 0 - x keeps the zeros of I +0.0.
    """
    n = l.shape[0]
    if n <= INVERT_LEAF:
        l[...] = np.tril(np.linalg.inv(l))
        return l
    k = n // 2
    a, c, d = l[:k, :k], l[k:, :k], l[k:, k:]
    _invert_lower(a)
    _invert_lower(d)
    c[...] = c @ a
    np.subtract(0.0, d @ c, out=c)
    return l


@dataclass(frozen=True)
class FactoredConstraint:
    """A constraint ``B' = B + shift * I`` from :func:`factor_constraint`;
    ``chol_inv`` is the inverse of its Cholesky factor L (``B' = L L'``), or
    that inverse's diagonal (a 1-D array) when B was given as its diagonal,
    so B's order is its length; ``unit`` is the shift ladder's unit."""

    chol_inv: np.ndarray
    shift: float
    unit: float


def factor_constraint(b, complement: Complement | None = None) -> FactoredConstraint:
    """The B side of :func:`generalized_eig` and the only code that checks,
    shifts and factors B, once for any number of solves against it.

    The shift follows the SHIFT_* ladder, in units of B's mean diagonal (1
    if not positive), applied only when B is too ill conditioned or its
    Cholesky factorization fails. A 1-D ``b`` is the
    diagonal of a diagonal B, factored in closed form (no eigvalsh, Cholesky
    or inverse): its sorted entries are the spectrum the checks see, and
    ``chol_inv`` is the vector ``1 / sqrt(b + shift)``, the dense form's
    factor bit for bit. With ``complement``, B is the block of a matrix that
    is ``complement.value * I`` on ``complement.count`` more dimensions, and
    the PSD check, the shift unit and the health test see the full spectrum.
    """
    with _numerical("factor_constraint"):
        b = np.asarray(b, dtype=float)
        if b.ndim == 1:
            b_vals, b_norm = np.sort(b), float(np.linalg.norm(b))
        else:
            b = _symmetrized(as_square(b, "B"), "B")
            b_vals = np.linalg.eigvalsh(b)
            b_norm = float(np.linalg.norm(b, "fro"))
        if complement is not None:
            b_vals = np.sort(np.append(b_vals, complement.value))
            b_norm = float(np.hypot(b_norm, complement.value * np.sqrt(complement.count)))
        _check_psd_spectrum(b_vals, b_norm, "constraint matrix B")
        lam_min, lam_max = float(b_vals[0]), float(b_vals[-1])

        trace, order = float(np.trace(b) if b.ndim == 2 else np.sum(b)), b.shape[0]
        if complement is not None:
            trace += complement.value * complement.count
            order += complement.count
        unit = trace / order
        unit = unit if unit > 0.0 else 1.0
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
            if healthy(candidate) and (chol_inv := _inverse_factor(b, candidate)) is not None:
                return FactoredConstraint(chol_inv=chol_inv, shift=candidate, unit=unit)
        raise NumericalError(
            "constraint matrix stayed singular up to the maximum "
            f"diagonal shift {SHIFT_MAX_SCALE * unit:.3e}"
        )


def _inverse_factor(b: np.ndarray, shift: float) -> np.ndarray | None:
    """L^{-1} for ``B + shift * I = L L'``, None where the Cholesky
    factorization fails. For B given as its diagonal it is the vector
    ``1 / sqrt(b + shift)``: LAPACK's Cholesky of ``np.diag(b + shift)``
    fails exactly when an entry is not positive, and otherwise takes those
    square roots (every other term is an exact zero), as its inverse takes
    their reciprocals."""
    if b.ndim == 1:
        shifted = b + shift
        return 1.0 / np.sqrt(shifted) if np.all(shifted > 0.0) else None
    try:
        chol = np.linalg.cholesky(_shifted(b, shift))
    except np.linalg.LinAlgError:
        return None
    return _invert_lower(chol)


def generalized_eig(a, factor: FactoredConstraint) -> EigPair:
    """Solve ``A U = B' U diag(values)`` with ``U.T @ B' @ U = I``, for the
    constraint ``B' = B + shift * I`` that :func:`factor_constraint`
    checked, shifted and factored.

    The solve goes through the symmetrized problem on
    ``C = L^{-1} A L^{-T}`` (B' = L L'): matrix products with the inverted
    triangular factor, one ``eigh(C)``, and ``U = L^{-T} Q``; B itself is
    never inverted. A is dropped after the first product, so a caller that
    keeps no reference to it frees it there.

    For a diagonal B factored from its diagonal, ``L^{-1}`` is the diagonal
    w: C is A with its rows and columns scaled by w, and ``U = diag(w) Q``
    is Q with its rows scaled. The result has the bits of the solve against
    ``np.diag(b)``, without its two m x m products or its m x m factor.

    For a B factored with a complement, A is the block of a matrix that is
    0 on the complement. The complement's eigenpairs (all zero) are not
    returned; the vectors are in the block's coordinates.
    """
    with _numerical("generalized_eig"):
        a = as_square(a, "A")
        order = factor.chol_inv.shape[0]
        if a.shape != (order, order):
            raise ConfigError(f"dimension mismatch: A is {a.shape}, B is {(order, order)}")
        a_s = _symmetrized(a, "A")
        del a
        inv = factor.chol_inv
        if inv.ndim == 1:
            # L^{-1} = diag(inv): the products below as row and column
            # scalings. Adding 0.0 turns -0.0 into the +0.0 they give for a zero.
            c = a_s * inv[:, None]
            del a_s
            c *= inv
            c += 0.0
        else:
            # C = L^{-1} A L^{-T}, U = L^{-T} Q.
            c = inv @ a_s
            del a_s
            c = c @ inv.T
        c = sym(c)
        values, q = np.linalg.eigh(c)
        del c
        values = values[::-1].copy()
        if inv.ndim == 1:
            q *= inv[:, None]
            q += 0.0
            vectors = q
        else:
            vectors = inv.T @ q
        del q
        return EigPair(vectors=_leading_first(vectors), values=values, shift=factor.shift)


def psd_factor(s) -> np.ndarray:
    """Factor a PSD matrix as ``delta.T @ delta = S``.

    Small negative eigenvalues from round-off are clamped to zero; a genuine
    negative eigenvalue raises NumericalError. The symmetrized copy eigh
    takes replaces ``s``, so an input the caller hands over is freed first.
    """
    with _numerical("psd_factor"):
        s = as_square(s, "S")
        require_symmetric(s, name="S")
        norm = float(np.linalg.norm(s, "fro"))
        s = sym(s)
        values, vectors = np.linalg.eigh(s)
        del s
        _check_psd_spectrum(values, norm, "S")
        values = np.clip(values, 0.0, None)
        if values.size and values[-1] > 0.0:
            values[values < EIG_NOISE_RTOL * values[-1]] = 0.0
        return (vectors * np.sqrt(values)).T

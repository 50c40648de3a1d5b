import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from roweis.exceptions import ConfigError, NumericalError
from roweis.linalg import (
    Complement,
    EigPair,
    _invert_lower,
    factor_constraint,
    generalized_eig,
    psd_factor,
    symmetric_eig,
)
from roweis.scatter import within_scatter

from conftest import align_columns, random_psd, with_complement
import oracle
from oracle import ClassPartition, between_scatter, centering_matrix, total_scatter


class TestCenteringMatrix:
    def test_two_points(self):
        np.testing.assert_allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_single_point(self):
        np.testing.assert_allclose(centering_matrix(1), [[0.0]])

    def test_idempotent(self):
        h = centering_matrix(5)
        np.testing.assert_allclose(h @ h, h, atol=1e-14)

    def test_row_sums_zero(self):
        h = centering_matrix(7)
        np.testing.assert_allclose(h.sum(axis=1), 0.0, atol=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigError):
            centering_matrix(0)


class TestSymmetricEig:
    def test_diagonal(self):
        pair = symmetric_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(pair.values, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(pair.vectors), np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        pair = symmetric_eig(np.zeros((2, 2)))
        np.testing.assert_allclose(pair.values, [0.0, 0.0])

    def test_round_trip(self, rng):
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        pair = symmetric_eig(a)
        rebuilt = (pair.vectors * pair.values) @ pair.vectors.T
        assert np.linalg.norm(rebuilt - a, "fro") <= 1e-8 * np.linalg.norm(a, "fro")

    def test_values_non_increasing(self, rng):
        pair = symmetric_eig(random_psd(rng, 8))
        assert np.all(np.diff(pair.values) <= 1e-12)

    def test_sign_convention(self, rng):
        pair = symmetric_eig(random_psd(rng, 6))
        for j in range(6):
            column = pair.vectors[:, j]
            assert column[np.argmax(np.abs(column))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGeneralizedEig:
    def test_identity_constraint_reduces_to_plain(self, rng):
        a = random_psd(rng, 5)
        plain = symmetric_eig(a)
        general = generalized_eig(a, factor_constraint(np.eye(5)))
        np.testing.assert_allclose(general.values, plain.values, atol=1e-8)
        np.testing.assert_allclose(
            align_columns(plain.vectors, general.vectors), plain.vectors, atol=1e-8
        )

    def test_diagonal_case(self):
        pair = generalized_eig(np.diag([4.0, 1.0]), factor_constraint(np.eye(2)))
        np.testing.assert_allclose(pair.values, [4.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(pair.vectors, np.eye(2), atol=1e-12)

    def test_one_by_one_hand_solve(self):
        # A u = lambda B u with A=2, B=4: lambda = 0.5; B-normalized u = 0.5.
        pair = generalized_eig(np.array([[2.0]]), factor_constraint(np.array([[4.0]])))
        np.testing.assert_allclose(pair.values, [0.5], atol=1e-12)
        np.testing.assert_allclose(pair.vectors, [[0.5]], atol=1e-12)

    def test_fisher_toy_matches_direction_sweep(self):
        # Two separable classes in the plane; the leading generalized
        # direction of (total, within) must maximize the between/within
        # trace ratio over a 1-degree sweep of unit directions.
        rng = np.random.default_rng(3)
        c0 = np.array([[0.0], [0.0]]) + 0.3 * rng.standard_normal((2, 30))
        c1 = np.array([[4.0], [1.0]]) + 0.3 * rng.standard_normal((2, 30))
        x = np.hstack([c0, c1])
        labels = np.array([0] * 30 + [1] * 30)
        part = ClassPartition.from_labels(labels)
        s_t, s_w, s_b = total_scatter(x), within_scatter(x, labels), between_scatter(x, part)

        def criterion(u):
            return float(u @ s_b @ u) / float(u @ s_w @ u)

        angles = np.deg2rad(np.arange(0.0, 180.0, 1.0))
        sweep = max(criterion(np.array([np.cos(t), np.sin(t)])) for t in angles)
        lead = generalized_eig(s_t, factor_constraint(s_w)).vectors[:, 0]
        lead = lead / np.linalg.norm(lead)
        assert criterion(lead) >= sweep * (1.0 - 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            generalized_eig(np.eye(3), factor_constraint(np.eye(2)))

    def test_indefinite_constraint_rejected(self):
        with pytest.raises(NumericalError):
            generalized_eig(np.eye(2), factor_constraint(np.diag([1.0, -1.0])))

    def test_residual_and_b_orthonormality_random_pairs(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            m = int(rng.integers(2, 31))
            a = random_psd(rng, m)
            # Mix in singular constraints to exercise the shift schedule.
            rank = m if trial % 3 else max(1, m - 2)
            b = random_psd(rng, m, rank=rank)
            pair = generalized_eig(a, factor_constraint(b))
            b_eff = b + pair.shift * np.eye(m)
            residual = np.linalg.norm(a @ pair.vectors - b_eff @ pair.vectors @ np.diag(pair.values), "fro")
            assert residual <= 1e-8 * np.linalg.norm(a, "fro")
            gram = pair.vectors.T @ b_eff @ pair.vectors
            assert np.linalg.norm(gram - np.eye(m), "fro") <= 1e-8 * m

    def test_zero_constraint_falls_back_to_absolute_shift(self):
        pair = generalized_eig(np.eye(3), factor_constraint(np.zeros((3, 3))))
        assert pair.shift > 0
        b_eff = pair.shift * np.eye(3)
        residual = np.linalg.norm(np.eye(3) @ pair.vectors - b_eff @ pair.vectors @ np.diag(pair.values))
        assert residual <= 1e-8 * np.sqrt(3)

    def test_shift_zero_for_well_conditioned(self, rng):
        pair = generalized_eig(random_psd(rng, 4), factor_constraint(random_psd(rng, 4) + np.eye(4)))
        assert pair.shift == 0.0


class TestPsdFactor:
    def test_identity(self):
        delta = psd_factor(np.eye(3))
        np.testing.assert_allclose(delta.T @ delta, np.eye(3), atol=1e-12)

    def test_rank_deficient_round_trip(self):
        s = np.diag([4.0, 0.0])
        delta = psd_factor(s)
        np.testing.assert_allclose(delta.T @ delta, s, atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(psd_factor(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_random_round_trips_up_to_dim_50(self):
        rng = np.random.default_rng(7)
        for m in (2, 5, 17, 50):
            s = random_psd(rng, m, rank=max(1, m - 1))
            delta = psd_factor(s)
            err = np.linalg.norm(delta.T @ delta - s, "fro")
            assert err <= 1e-8 * np.linalg.norm(s, "fro")

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            psd_factor(np.diag([1.0, -1.0]))


class TestIncompleteSvd:
    """The oracle's truncated SVD, which the dual's d x d route is checked against."""

    def test_identity(self):
        fac = oracle.incomplete_svd(np.eye(3), 3)
        np.testing.assert_allclose(fac.singular, [1.0, 1.0, 1.0])

    def test_rank_one(self, rng):
        a = rng.standard_normal(4)
        b = rng.standard_normal(6)
        fac = oracle.incomplete_svd(np.outer(a, b), 1)
        np.testing.assert_allclose(fac.singular, [np.linalg.norm(a) * np.linalg.norm(b)], rtol=1e-12)

    def test_round_trip(self, rng):
        w = rng.standard_normal((4, 6))
        fac = oracle.incomplete_svd(w, 4)
        rebuilt = fac.left @ np.diag(fac.singular) @ fac.right.T
        assert np.linalg.norm(rebuilt - w, "fro") <= 1e-8 * np.linalg.norm(w, "fro")

    def test_orthonormal_factors(self, rng):
        fac = oracle.incomplete_svd(rng.standard_normal((5, 7)), 3)
        np.testing.assert_allclose(fac.left.T @ fac.left, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(fac.right.T @ fac.right, np.eye(3), atol=1e-8)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            oracle.incomplete_svd(np.eye(3), 4)
        with pytest.raises(ConfigError):
            oracle.incomplete_svd(np.eye(3), 0)


class TestShiftUnit:
    def test_unit_uses_mean_diagonal(self):
        assert factor_constraint(np.diag([2.0, 4.0])).unit == 3.0

    def test_unit_falls_back_on_zero_trace(self):
        assert factor_constraint(np.zeros((3, 3))).unit == 1.0

    def test_unit_counts_the_complement(self):
        # trace (2 + 4 + 3 * 0.5) over order 5
        assert factor_constraint(np.diag([2.0, 4.0]), Complement(0.5, 3)).unit == 1.5

    def test_factor_carries_the_unit(self):
        # A diagonal B given as its 1-D diagonal has its matrix's unit.
        assert factor_constraint(np.array([2.0, 4.0])).unit == 3.0
        assert factor_constraint(np.array([2.0, 4.0]), Complement(0.5, 3)).unit == 1.5
        assert factor_constraint(np.zeros(3)).unit == 1.0

    def test_eigpair_defaults(self):
        pair = EigPair(vectors=np.eye(2), values=np.array([1.0, 0.0]))
        assert pair.shift == 0.0


class TestComplement:
    """A block plus a complement against the block-diagonal d x d matrix."""

    @pytest.mark.parametrize("value", [0.0, 0.3, 2.0])
    def test_generalized_eig_matches_the_full_problem(self, rng, value):
        a = random_psd(rng, 5, rank=3)
        b = random_psd(rng, 5, rank=2) if value == 0.0 else random_psd(rng, 5)
        got = generalized_eig(a, factor_constraint(b, Complement(value, 4)))
        want = generalized_eig(with_complement(a, 0.0, 4), factor_constraint(with_complement(b, value, 4)))
        assert got.shift == pytest.approx(want.shift, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(got.values[:3], want.values[:3], rtol=1e-10)
        lifted = np.vstack([got.vectors[:, :3], np.zeros((4, 3))])
        np.testing.assert_allclose(
            np.abs(lifted), np.abs(want.vectors[:, :3]), atol=1e-8 * np.abs(want.vectors).max()
        )

    def test_complement_enters_the_psd_check(self):
        with pytest.raises(NumericalError):
            generalized_eig(np.eye(2), factor_constraint(np.eye(2), Complement(-1.0, 3)))

    def test_complement_can_force_the_shift(self):
        # The block alone is well conditioned; with a zero complement the
        # full constraint is singular and must be shifted.
        assert generalized_eig(np.eye(2), factor_constraint(np.eye(2))).shift == 0.0
        assert generalized_eig(np.eye(2), factor_constraint(np.eye(2), Complement(0.0, 3))).shift > 0.0

    def test_needs_a_positive_count(self):
        with pytest.raises(ConfigError):
            Complement(1.0, 0)


def _nearly_symmetric(rng, m):
    a = random_psd(rng, m)
    a[0, 1] += 1e-13  # inside SYMMETRY_ATOL, so it is symmetrized, not refused
    return a


EIG_INPUTS = {
    "psd": lambda rng: (random_psd(rng, 30), random_psd(rng, 30) + np.eye(30), None),
    "singular constraint": lambda rng: (random_psd(rng, 30), random_psd(rng, 30, rank=12), None),
    "zero constraint": lambda rng: (random_psd(rng, 8), np.zeros((8, 8)), None),
    "nearly symmetric": lambda rng: (_nearly_symmetric(rng, 20), _nearly_symmetric(rng, 20), None),
    "complement": lambda rng: (random_psd(rng, 12, rank=5), random_psd(rng, 12), Complement(0.3, 7)),
    "zero complement": lambda rng: (random_psd(rng, 12, rank=5), random_psd(rng, 12), Complement(0.0, 7)),
}


# Against the copying solver (tests/oracle.py), which solves with the Cholesky
# factor where the package multiplies by its inverse: the shift is the same
# bits, spectra agree to SPECTRUM_RTOL of the largest |eigenvalue|, and the
# components of eigenvalues separated by SEPARATION_RTOL of it from their
# neighbours agree to COMPONENT_RTOL of their largest entry, up to sign.
SPECTRUM_RTOL = 1e-10
SEPARATION_RTOL = 1e-6
COMPONENT_RTOL = 1e-8
RESIDUAL_TOL = 1e-8


def assert_matches_the_copying_solver(a, b, complement=None):
    """generalized_eig against oracle.generalized_eig, and U'B'U = I."""
    got = generalized_eig(a, factor_constraint(b, complement))
    want = oracle.generalized_eig(a, b, complement=complement)
    assert got.shift == want.shift
    scale = float(np.max(np.abs(want.values)))
    assert np.max(np.abs(got.values - want.values)) <= SPECTRUM_RTOL * scale
    gaps = np.abs(np.diff(want.values))
    isolated = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf)) > SEPARATION_RTOL * scale
    for j in np.flatnonzero(isolated):
        u, v = got.vectors[:, j], want.vectors[:, j]
        u = u if u @ v >= 0.0 else -u
        assert np.max(np.abs(u - v)) <= COMPONENT_RTOL * np.max(np.abs(v))
    m = b.shape[0]
    b_eff = b + got.shift * np.eye(m)
    assert np.max(np.abs(got.vectors.T @ b_eff @ got.vectors - np.eye(m))) <= RESIDUAL_TOL
    return got


class TestAgainstTheCopyingSolvers:
    """The solvers as they were before they stopped copying (tests/oracle.py):
    the same shift and, within tolerances, the same eigenpairs; neither
    version writes to its inputs."""

    @pytest.mark.parametrize("case", sorted(EIG_INPUTS))
    def test_generalized_eig_matches_within_tolerances(self, rng, case):
        a, b, complement = EIG_INPUTS[case](rng)
        a_before, b_before = a.copy(), b.copy()
        got = assert_matches_the_copying_solver(a, b, complement)
        assert (case in ("singular constraint", "zero constraint", "zero complement")) == (got.shift > 0)
        assert a.tobytes() == a_before.tobytes() and b.tobytes() == b_before.tobytes()

    @pytest.mark.parametrize("case", ["psd", "nearly symmetric", "rank deficient"])
    def test_symmetric_eig_is_bit_identical(self, rng, case):
        a = {"psd": random_psd(rng, 30), "nearly symmetric": _nearly_symmetric(rng, 30),
             "rank deficient": random_psd(rng, 30, rank=4)}[case]
        before = a.copy()
        got, want = symmetric_eig(a), oracle.symmetric_eig(a)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert a.tobytes() == before.tobytes()


def _symmetric_with_zeros(rng, m):
    """A random symmetric m x m matrix with exact zeros, some of them -0.0."""
    a = rng.standard_normal((m, m))
    a[rng.random((m, m)) < rng.random()] = 0.0
    a[rng.random((m, m)) < 0.2 * rng.random()] = -0.0
    return np.triu(a) + np.triu(a, 1).T if rng.random() < 0.5 else a + a.T


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestIdentityConstraint:
    """B = I is no special case: it is factored and solved like any other
    constraint (fits at r2 = 0 call symmetric_eig instead, see test_rda.py),
    and matches the copying solver."""

    @pytest.mark.parametrize("complement", [None, Complement(1.0, 1), Complement(1.0, 6)],
                             ids=["no complement", "complement of 1", "complement of 6"])
    @pytest.mark.parametrize("m", [1, 2, 5, 12, 40])
    def test_matches_the_copying_solver(self, m, complement):
        rng = np.random.default_rng(m)
        for _ in range(60):
            a = _symmetric_with_zeros(rng, m)
            got = assert_matches_the_copying_solver(a, np.eye(m), complement)
            assert got.shift == 0.0

    @pytest.mark.parametrize("case", ["complement of 0.5", "-0.0 off the diagonal", "scaled identity"])
    def test_near_identities_take_the_factorization(self, rng, monkeypatch, case):
        b, complement = np.eye(6), None
        if case == "complement of 0.5":
            complement = Complement(0.5, 3)
        elif case == "-0.0 off the diagonal":
            b[0, 1] = b[1, 0] = -0.0
        else:
            b = 2.0 * b
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or real(m))
        a = _symmetric_with_zeros(rng, 6)
        got = generalized_eig(a, factor_constraint(b, complement))
        want = oracle.generalized_eig(a, b, complement=complement)
        assert calls
        assert _same_bits(got.values, want.values) and _same_bits(got.vectors, want.vectors)


class TestFactoredConstraint:
    """factor_constraint is the B side of generalized_eig: one factor serves
    any number of solves, each with the bits of a solve against a fresh one."""

    @pytest.mark.parametrize("case", sorted(EIG_INPUTS))
    def test_solves_match_the_matrix_form(self, rng, case):
        a, b, complement = EIG_INPUTS[case](rng)
        factor = factor_constraint(b, complement)
        want = generalized_eig(a, factor_constraint(b, complement))
        for _ in range(2):  # a factor serves any number of solves
            got = generalized_eig(a, factor)
            assert got.shift == want.shift == factor.shift
            assert _same_bits(got.values, want.values)
            assert _same_bits(got.vectors, want.vectors)

    def test_identity_is_its_own_factor(self):
        factor = factor_constraint(np.eye(4), complement=Complement(1.0, 2))
        assert _same_bits(factor.chol_inv, np.eye(4)) and factor.shift == 0.0 and factor.chol_inv.shape[0] == 4

    def test_factor_carries_its_policy(self, rng):
        factor = factor_constraint(random_psd(rng, 4) + np.eye(4))
        with pytest.raises(ConfigError, match="dimension mismatch"):
            generalized_eig(np.eye(3), factor)

    def test_checks_the_constraint(self):
        with pytest.raises(ConfigError, match="not symmetric"):
            factor_constraint(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError, match="positive semidefinite"):
            factor_constraint(np.diag([1.0, -1.0]))

    def test_objective_is_freed_after_the_first_product(self, rng, monkeypatch):
        # A caller that hands A over without keeping it lets the solver free
        # it once L^-1 A exists.
        m = 8
        refs, alive_at = [], []

        class Watched(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    alive_at.append(("product", refs[0]() is not None))
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        factor = factor_constraint(random_psd(rng, m) + np.eye(m))
        factor = dataclasses.replace(factor, chol_inv=factor.chol_inv.view(Watched))
        real_eigh = np.linalg.eigh

        def objective():
            a = random_psd(rng, m)
            refs.append(weakref.ref(a))
            return a

        def eigh(*args):
            alive_at.append(("eigh", refs[0]() is not None))
            return real_eigh(*args)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        generalized_eig(objective(), factor)
        assert alive_at == [("product", True), ("product", False), ("eigh", False), ("product", False)]

    @pytest.mark.parametrize("case", sorted(EIG_INPUTS))
    def test_one_cholesky_inverted_in_place_and_no_solves(self, rng, monkeypatch, case):
        a, b, complement = EIG_INPUTS[case](rng)
        factors = []  # successful factorizations only; failed ones raise
        real_cholesky = np.linalg.cholesky

        def cholesky(m):
            factors.append(real_cholesky(m))
            return factors[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("generalized_eig called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        factor = factor_constraint(b, complement)
        assert len(factors) == 1 and factor.chol_inv is factors[0]  # inverted in its own storage
        generalized_eig(a, factor)
        generalized_eig(a, factor_constraint(b, complement))
        assert len(factors) == 2


def _diagonal_input(rng, kind):
    """(diagonal, complement) of a diagonal constraint."""
    m = 40
    v = rng.random(m) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "ladder shift":
        v[m // 2:] *= 1e-12  # condition 1e12: the ladder must shift it
    elif kind == "zero entries":
        v[::3] = 0.0
        v[1] = -0.0
    elif kind == "zero complement":
        return v, Complement(0.0, 25)
    elif kind == "empty block":
        return np.zeros(0), Complement(0.7, 5)
    return v, None


DIAGONAL_KINDS = ["random", "ladder shift", "zero entries", "zero complement", "empty block"]


class TestDiagonalFactor:
    """A constraint given by its diagonal (a 1-D array) is factored in closed
    form: its factor is the diagonal of the dense form's, and every solve
    against it has the dense form's bits."""

    @staticmethod
    def assert_same_factor(got, want):
        order = got.chol_inv.shape[0]
        assert got.chol_inv.shape == (order,) and want.chol_inv.shape == (order, order)
        diag = np.diagonal(want.chol_inv)
        assert got.chol_inv.tobytes() == diag.tobytes()
        assert _same_bits(want.chol_inv, np.diag(diag))  # zeros elsewhere, none negative
        assert (got.shift, got.chol_inv.shape[0]) == (want.shift, want.chol_inv.shape[0])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", DIAGONAL_KINDS)
    def test_factor_is_the_dense_factors_diagonal(self, kind, seed):
        v, complement = _diagonal_input(np.random.default_rng(seed), kind)
        got, want = factor_constraint(v, complement), factor_constraint(np.diag(v), complement)
        self.assert_same_factor(got, want)
        assert (got.shift > 0.0) == (kind in ("ladder shift", "zero entries", "zero complement"))

    @staticmethod
    def assert_same_solves(a, v, complement=None):
        want = generalized_eig(a, factor_constraint(np.diag(v), complement))
        got = generalized_eig(a, factor_constraint(v, complement))
        assert got.shift == want.shift
        assert _same_bits(got.values, want.values) and _same_bits(got.vectors, want.vectors)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", DIAGONAL_KINDS)
    def test_solves_have_the_dense_forms_bits(self, kind, seed):
        rng = np.random.default_rng(seed)
        v, complement = _diagonal_input(rng, kind)
        for a in (random_psd(rng, v.size), _symmetric_with_zeros(rng, v.size)):
            self.assert_same_solves(a, v, complement)

    @pytest.mark.parametrize("m", [6, 40])
    def test_signed_zeros_come_out_as_from_the_dense_products(self, rng, m):
        # The dense products give +0.0 for a zero. Two objectives would see
        # -0.0 from plain scaling: -0.0 where eigh's first reflector reads
        # it, and a block-diagonal A, whose eigenbasis holds exact zeros
        # (of both signs at small orders).
        v = rng.random(m) + 0.5
        a = _symmetric_with_zeros(rng, m)
        a[1, 0] = a[0, 1] = -0.0
        blocks = rng.standard_normal((m, m))
        blocks += blocks.T
        blocks[m // 2:, :m // 2] = blocks[:m // 2, m // 2:] = 0.0
        for objective in (a, blocks):
            self.assert_same_solves(objective, v)

    def test_negative_entry_raises_the_dense_forms_error(self):
        v = np.array([3.0, 1.0, -0.5, 2.0])
        with pytest.raises(NumericalError) as dense:
            factor_constraint(np.diag(v))
        with pytest.raises(NumericalError) as vector:
            factor_constraint(v)
        assert str(vector.value) == str(dense.value)
        with pytest.raises(NumericalError, match="positive semidefinite"):
            generalized_eig(np.eye(4), factor_constraint(v))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="dimension mismatch"):
            generalized_eig(np.eye(3), factor_constraint(np.ones(4)))


class TestInvertLower:
    """_invert_lower overwrites a Cholesky factor with its inverse."""

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 700])
    def test_inverse_of_a_cholesky_factor(self, m):
        rng = np.random.default_rng(m)
        chol = np.linalg.cholesky(random_psd(rng, m) + 1e-3 * np.eye(m))
        got = _invert_lower(chol.copy())
        assert not np.any(np.triu(got, 1))
        want = np.linalg.inv(chol)
        err = np.max(np.abs(got @ chol - np.eye(m)))
        assert err <= 4.0 * max(np.max(np.abs(want @ chol - np.eye(m))), 1e-15)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 700])
    def test_identity_is_its_own_inverse(self, m):
        eye = np.eye(m)
        got = _invert_lower(eye)
        assert got is eye and _same_bits(got, np.eye(m))


class TestMemory:
    """Peak numpy memory above the inputs, in units of one order-m float64
    array, at order 400 with a singular constraint. tracemalloc sees the
    inputs being freed only when they were made while it traced; LAPACK's
    own workspaces are invisible to it."""

    M = 400

    def peak(self, call, *make) -> float:
        tracemalloc.start()
        try:
            rng = np.random.default_rng(3)
            args = [f(rng) for f in make]
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call(args)
            return (tracemalloc.get_traced_memory()[1] - base) / (self.M * self.M * 8)
        finally:
            tracemalloc.stop()

    def singular(self, rng):
        return random_psd(rng, self.M, rank=self.M // 2)

    def factored(self, rng):
        return factor_constraint(self.singular(rng))

    def psd(self, rng):
        return random_psd(rng, self.M)

    def test_factor_constraint_peaks_at_two_arrays(self):
        # The shifted copy of B and its Cholesky factor; the inverse is
        # written into the factor.
        factors = []
        assert self.peak(lambda args: factors.append(factor_constraint(*args)), self.singular) <= 2.01
        assert factors[0].shift > 0.0

    def test_solve_on_a_handed_over_objective_peaks_at_one_array_more(self):
        # A is freed after L^-1 A, so at most one order-m array is added at
        # any time: L^-1 A, C, Q, the basis.
        def solve(args):
            factor = args.pop()
            generalized_eig(args.pop(), factor)

        assert self.peak(solve, self.psd, self.factored) <= 1.1

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marekit import linalg, mstruct, solve
from marekit.errors import NoConvergence, ShapeMismatch, SingularMatrix
from marekit.linalg import (
    EPS,
    kernel_vector,
    lu_factor,
    m_solve,
    numerical_rank,
    one_norm,
    rank_and_margin,
    rank_tol,
    solve_linear,
    spectral_radius,
    spectral_radius_nonneg,
)
from marekit.mstruct import MatrixKind, classify_zm, is_irreducible, zm_kind


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=0)

    def test_back_substitution(self):
        # hand back-substitution: x2 = 1, x1 = 0 + x2 = 1
        x = solve_linear([[1.0, -1.0], [0.0, 2.0]], np.array([0.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solve_linear(np.eye(2), np.ones((3, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            solve_linear([[np.nan, 0.0], [0.0, 1.0]], np.ones(2))

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            M = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=(n, 2))
            x = solve_linear(M, b)
            assert one_norm(M @ x - b) <= 1e-10 * one_norm(M) * max(one_norm(x), 1.0)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-10, 10), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonally_dominant_solve(self, rows):
        M = np.array(rows)
        n = M.shape[0]
        M = M + np.diag(np.abs(M).sum(axis=1) + 1.0)  # strictly dominant, invertible
        b = np.ones(n)
        x = solve_linear(M, b)
        assert one_norm(M @ x - b) <= 1e-10 * one_norm(M) * max(one_norm(x), 1.0)


class TestFactorization:
    def test_reconstruction_over_1000_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            M = rng.normal(size=(n, n))
            f = lu_factor(M)
            err = one_norm(M[f.perm] - f.lower @ f.upper)
            assert err <= 1e-12 * max(one_norm(M), 1e-300)

    def test_singular_flagged(self):
        f = lu_factor(np.ones((3, 3)))
        assert f.singular
        assert f.smallest_pivot <= f.tol

    def test_smallest_pivot_recorded(self):
        f = lu_factor(np.diag([4.0, 0.25]))
        assert f.smallest_pivot == 0.25
        assert not f.singular


def _reference_lu_factor(M):
    """The original column loop of ``lu_factor`` (np.outer update), kept as a bit-level reference."""
    U = np.array(M, dtype=np.float64)
    nn = U.shape[0]
    perm = np.arange(nn)
    for k in range(nn - 1):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if p != k:
            U[[k, p]] = U[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        piv = U[k, k]
        if piv != 0.0:
            U[k + 1 :, k] /= piv
            U[k + 1 :, k + 1 :] -= np.outer(U[k + 1 :, k], U[k, k + 1 :])
        else:
            U[k + 1 :, k] = 0.0
    smallest = float(np.abs(np.diag(U)).min())
    return perm, np.tril(U, -1) + np.eye(nn), np.triu(U), smallest


class TestFactorizationReference:
    """lu_factor keeps the pivot record of the reference loop bit for bit."""

    @staticmethod
    def _same_record(M):
        f = lu_factor(M)
        perm, lower, upper, smallest = _reference_lu_factor(M)
        assert np.array_equal(f.perm, perm)
        assert np.array_equal(f.lower, lower)
        assert np.array_equal(f.upper, upper)
        assert f.smallest_pivot == smallest

    def test_random_m_matrices_ties_and_zero_columns(self):
        rng = np.random.default_rng(23)
        mats = []
        for n in range(1, 31):
            mats.append(rng.normal(size=(n, n)))
            N = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
            np.fill_diagonal(N, 0.0)
            v = rng.uniform(0.5, 2.0, n)
            K = np.diag(N @ v / v) - N  # singular M-matrix, K v = 0
            mats += [K, K + 1e-3 * np.eye(n)]
            mats.append(rng.integers(-2, 3, (n, n)).astype(float))  # ties and zero pivots
            Z = rng.normal(size=(n, n))
            Z[:, rng.integers(0, n)] = 0.0
            mats.append(Z)
        mats += [np.ones((4, 4)), np.zeros((3, 3)), [[1.0, 2.0], [-1.0, 3.0]], [[0.0, 1.0], [0.0, 1.0]]]
        for M in mats:
            self._same_record(M)

    def test_acceptance_cross_products(self, solved_noncritical, solved_nonsingular):
        count = 0
        for p, rep in solved_noncritical + solved_nonsingular:
            for rec in rep.trace:
                self._same_record(np.eye(p.n) - rec.G @ rec.H)
                self._same_record(np.eye(p.m) - rec.H @ rec.G)
                count += 2
        assert count > 1000


class TestSolveWithFactors:
    def test_vector_rhs_and_shape_check(self):
        f = lu_factor(np.diag([2.0, 4.0]))
        assert np.array_equal(linalg.lu_solve_regularized(f, [2.0, 4.0], 1e-300), [1.0, 1.0])
        for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 2, 1))):
            with pytest.raises(ShapeMismatch):
                linalg.lu_solve_regularized(f, bad, 1e-300)

    @staticmethod
    def _reference_regularized(fact, rhs, floor):
        """The original row-by-row substitution, kept as the reference."""
        L, U, perm = fact.lower, fact.upper, fact.perm
        diag = np.diag(U).copy()
        small = np.abs(diag) < floor
        diag[small] = np.where(diag[small] < 0, -floor, floor)
        x = np.asarray(rhs, dtype=np.float64)[perm].copy()
        for i in range(1, len(x)):
            x[i] -= L[i, :i] @ x[:i]
        for i in range(len(x) - 1, -1, -1):
            x[i] -= U[i, i + 1 :] @ x[i + 1 :]
            x[i] /= diag[i]
        return x

    def test_regularized_solve_matches_substitution_on_suite_kernels(self, noncritical_suite):
        # LAPACK sums in another order, so agreement is to rounding, normwise
        for p in noncritical_suite:
            for K in (p.K, p.K.T):
                x = kernel_vector(K, rank_tol(K))
                f = lu_factor(K)
                floor = max(f.tol, 1e-300)
                got = linalg.lu_solve_regularized(f, x, floor)
                want = self._reference_regularized(f, x, floor)
                assert np.abs(got - want).max() <= 1e3 * len(x) * EPS * np.abs(want).max(), p.name


class TestSpectralRadiusNonneg:
    def test_identity(self):
        assert spectral_radius_nonneg(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_permutation_modulus_tie(self):
        # eigenvalues +-1: the diagonal shift breaks the tie
        assert spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-10)

    def test_rank_one(self):
        # rho(v w^T) = w.v = 3 + 2 = 5
        P = np.outer([1.0, 2.0], [3.0, 1.0])
        assert spectral_radius_nonneg(P) == pytest.approx(5.0, abs=1e-8)

    def test_nilpotent(self):
        assert spectral_radius_nonneg([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-10)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius_nonneg([[1.0, -0.5], [0.0, 1.0]])

    def test_perron_bracketing_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 21))
            P = rng.uniform(0.0, 2.0, (n, n))
            rho = spectral_radius_nonneg(P)
            row_sums = P.sum(axis=1)
            assert row_sums.min() - 1e-8 <= rho <= row_sums.max() + 1e-8

    def test_matches_characteristic_polynomial_small(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            P = rng.uniform(0.0, 1.0, (n, n))
            if n == 2:
                tr = P[0, 0] + P[1, 1]
                det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
                roots = np.roots([1.0, -tr, det])
            else:
                c2 = -np.trace(P)
                c1 = 0.5 * (np.trace(P) ** 2 - np.trace(P @ P))
                c0 = -np.linalg.det(P)
                roots = np.roots([1.0, c2, c1, c0])
            assert spectral_radius_nonneg(P) == pytest.approx(max(abs(roots)), abs=1e-8)


    def test_loose_bounds_raise(self, monkeypatch):
        # the Perron vector (1, 0) has a zero entry, so the Collatz-Wielandt
        # iteration gives up and the squaring fallback must carry the root
        def loose(M):
            yield 0.0, 100.0

        monkeypatch.setattr(linalg, "squaring_bounds", loose)
        with pytest.raises(NoConvergence, match="failed to tighten"):
            spectral_radius_nonneg([[2.0, 1.0], [0.0, 1.0]])


def _squaring_root(P):
    """``(rho, c)``: the Perron root from squaring bounds alone."""
    M, c = linalg.perron_shift(P)
    lo, hi = 0.0, math.inf
    for lo, hi in linalg.squaring_bounds(M):
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    return max(0.5 * (lo + hi) - c, 0.0), c


def _perron_matrix(what, M):
    """The nonnegative matrix whose Perron root the package takes for input ``what``."""
    return M if what == "PhiPsi" else mstruct._zm_split(M)[1]


@pytest.fixture(scope="module")
def perron_inputs(solved_noncritical, solved_nonsingular, scalar_nonsingular, scalar_critical, reducible_singular):
    """``(label, what, M)`` for K, R, S and Phi Psi of every solved acceptance and worked problem."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        worked = [(p, solve(p)) for p in (scalar_nonsingular, scalar_critical, reducible_singular)]
    inputs = []
    for suite, solved in (("noncritical", solved_noncritical), ("nonsingular", solved_nonsingular), ("worked", worked)):
        for p, rep in solved:
            cert = rep.certificate
            for what, M in (("K", p.K), ("R", cert.R), ("S", cert.S), ("PhiPsi", cert.phi @ cert.psi)):
                inputs.append((f"{suite}:{p.name}:{what}", what, M))
    return inputs


class TestCollatzWielandtRoot:
    """The Collatz-Wielandt root agrees with squaring, which serves only as its fallback."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"gave_up": 0, "squaring": 0}
        noda, squaring = linalg._noda_root, linalg.squaring_bounds

        def counted_noda(P, c):
            rho = noda(P, c)
            calls["gave_up"] += rho is None
            return rho

        def counted_squaring(M):
            calls["squaring"] += 1
            return squaring(M)

        monkeypatch.setattr(linalg, "_noda_root", counted_noda)
        monkeypatch.setattr(linalg, "squaring_bounds", counted_squaring)
        return calls

    def test_agrees_with_squaring_on_every_split(self, perron_inputs, monkeypatch):
        for label, what, M in perron_inputs:
            B = _perron_matrix(what, M)
            want, c = _squaring_root(B)
            calls = self._counted(monkeypatch)
            got = spectral_radius_nonneg(B)
            assert abs(got - want) <= 4e-15 * (want + c), label
            # squaring runs only where the Collatz-Wielandt iteration gave up
            assert calls["squaring"] == (calls["gave_up"] if B.shape[0] > 1 else 1), label

    def test_same_kinds_as_squaring(self, perron_inputs, monkeypatch):
        splits = [(label, M) for label, what, M in perron_inputs if what != "PhiPsi"]
        kinds = [classify_zm(M).kind for _, M in splits]
        monkeypatch.setattr(linalg, "spectral_radius_nonneg", lambda P: _squaring_root(P)[0])
        for (label, M), kind in zip(splits, kinds):
            assert classify_zm(M).kind is kind, label

    def test_reducible_closing_matrices_reach_the_fallback(self, perron_inputs, monkeypatch):
        reducible = [
            _perron_matrix(what, M)
            for label, what, M in perron_inputs
            if label.startswith("noncritical") and what in ("R", "S") and not is_irreducible(M)
        ]
        calls = self._counted(monkeypatch)
        for B in reducible:
            spectral_radius_nonneg(B)
        assert calls["gave_up"] >= 1
        assert calls["squaring"] == calls["gave_up"] + sum(B.shape[0] == 1 for B in reducible)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sparse_random_matrices_give_up_quietly(self, monkeypatch):
        # sparse draws are often reducible: the iteration must give up before
        # it divides by a zero or non-finite iterate, and agree with squaring
        rng = np.random.default_rng(5)
        calls = self._counted(monkeypatch)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6) + np.diag(rng.uniform(0.1, 1.0, n))
            want, c = _squaring_root(P)
            assert abs(spectral_radius_nonneg(P) - want) <= 4e-15 * (want + c), P
        assert calls["gave_up"] > 0

    def test_zero_and_1x1_inputs_as_squaring(self, perron_inputs):
        rng = np.random.default_rng(17)
        inputs = [np.zeros((n, n)) for n in range(1, 6)]
        inputs += [np.array([[a]]) for a in [0.0, 1.0, 2.0, 1e-300, 1e300, *rng.uniform(0.0, 3.0, 200)]]
        inputs += [_perron_matrix(what, M) for _, what, M in perron_inputs if M.shape == (1, 1)]
        for P in inputs:
            assert spectral_radius_nonneg(P) == _squaring_root(P)[0], P


class TestMSolve:
    """One LAPACK solve on [rhs 1]: the solution plus a semipositivity certificate."""

    def test_certified_nonsingular_m_matrix(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        X, dist, certified = m_solve(M, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert certified
        assert np.allclose(X, np.linalg.inv(M), rtol=0, atol=1e-15)
        # M^{-1} 1 = (1, 1): ||M^{-1}||_inf = 1
        assert dist == pytest.approx(1.0, rel=1e-15)

    def test_vector_rhs_keeps_its_shape(self):
        X, dist, certified = m_solve(np.diag([2.0, 4.0]), [2.0, 4.0])
        assert X.shape == (2,) and np.array_equal(X, [1.0, 1.0])
        assert certified and dist == 2.0
        for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 2, 1))):
            with pytest.raises(ShapeMismatch):
                m_solve(np.eye(2), bad)

    def test_uncertified_kinds(self):
        # Z but not M (rho(B) = 2 > s = 1), not Z (M^{-1} 1 > 0 all the
        # same), and a nonsingular M-matrix within rounding of singular
        for M in ([[1.0, -2.0], [-2.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, -1.0], [-1.0, 1.0 + 1e-15]]):
            _, _, certified = m_solve(M, np.ones((2, 1)))
            assert not certified

    def test_exactly_singular_raises(self):
        with pytest.raises(SingularMatrix):
            m_solve([[1.0, -1.0], [-1.0, 1.0]], np.ones(2))

    def test_verdict_matches_kind_on_random_z_matrices(self):
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            N = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6) + np.diag(rng.uniform(0.1, 1.0, n))
            M = (spectral_radius_nonneg(N) * rng.uniform(0.5, 1.5)) * np.eye(n) - N
            _, dist, certified = m_solve(M, np.zeros((n, 0)))
            kind = zm_kind(M)
            seen.add(kind)
            assert certified == (kind is MatrixKind.NONSINGULAR_M)
            if certified:
                want = 1.0 / np.abs(np.linalg.inv(M)).sum(axis=1).max()
                assert dist == pytest.approx(want, rel=1e-12)
        assert {MatrixKind.NONSINGULAR_M, MatrixKind.Z_NOT_M} <= seen


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3)), 0.0) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(3), 1e-12) == 3

    def test_rank_one(self):
        assert numerical_rank(np.ones((2, 2)), 1e-12) == 1

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), -1.0)

    def test_rank_plus_nullity_is_columns(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            r = int(rng.integers(0, min(rows, cols) + 1))
            M = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols)) if r else np.zeros((rows, cols))
            tol = rank_tol(M)
            rank = numerical_rank(M, tol)
            assert rank == r
            # kernel dimension found by elimination complements the rank
            kernel_dim = cols - rank
            assert rank + kernel_dim == cols

    def test_kernel_vector_annihilated(self):
        K = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        v = kernel_vector(K, rank_tol(K))
        assert np.abs(K @ v).max() <= 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_kernel_vector_full_rank_raises(self):
        with pytest.raises(SingularMatrix):
            kernel_vector(np.eye(2), 1e-12)

    def test_margin_reported(self):
        rank, margin = rank_and_margin(np.diag([1.0, 1e-20]), 1e-12)
        assert rank == 1
        assert margin == pytest.approx(1e-12, rel=1e-6)


class TestEigenvalues:
    def test_spectral_radius_matches_numpy(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(2, 31))
            A = rng.normal(size=(n, n))
            assert spectral_radius(A) == pytest.approx(
                max(abs(np.linalg.eigvals(A))), abs=1e-8 * max(one_norm(A), 1.0)
            )

    def test_defective_block(self):
        J = np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], k=1)
        assert spectral_radius(J) == pytest.approx(2.0, abs=1e-4)


def test_one_norm_matrix_and_vector():
    assert one_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert one_norm(np.array([1.0, -2.0])) == 3.0

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marekit import linalg
from marekit.errors import NoConvergence, ShapeMismatch, SingularMatrix
from marekit.linalg import (
    SylvesterSolver,
    eigenvalues,
    kernel_vector,
    lu_factor,
    numerical_rank,
    one_norm,
    rank_and_margin,
    rank_tol,
    solve_linear,
    spectral_radius,
    spectral_radius_nonneg,
    sylvester_solve,
)


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

    def test_no_convergence_without_certificate(self):
        defective = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NoConvergence):
            spectral_radius_nonneg(defective, max_iter=3, certify=False)

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


class TestSpectralRadiusFallback:
    """Power iteration runs only when the squaring bounds stay loose."""

    P = np.array([[0.0, 1.0], [1.0, 0.0]])  # rho = 1; shifted M has spectrum {3, 1}

    @pytest.fixture()
    def loose_bounds(self, monkeypatch):
        monkeypatch.setattr(linalg, "_radius_bounds_by_squaring", lambda M: (0.0, 100.0))

    def test_loose_bounds_return_converged_power_estimate(self, loose_bounds):
        assert spectral_radius_nonneg(self.P) == pytest.approx(1.0, abs=1e-9)

    def test_loose_bounds_and_stalled_power_raise(self, loose_bounds):
        with pytest.raises(NoConvergence, match="squaring bounds failed to tighten"):
            spectral_radius_nonneg(self.P, max_iter=1)

    def test_tight_bounds_ignore_max_iter(self):
        rng = np.random.default_rng(3)
        defective = np.array([[0.0, 1.0], [0.0, 0.0]])
        for P in [self.P, defective] + [rng.uniform(0.0, 1.0, (n, n)) for n in (1, 4, 9)]:
            expected = spectral_radius_nonneg(P)
            assert spectral_radius_nonneg(P, max_iter=0) == expected
            assert spectral_radius_nonneg(P, tol=0.0, max_iter=1) == expected


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


class TestSylvester:
    def test_identity_coefficients(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(sylvester_solve(np.eye(2), np.eye(2), 2 * M), M, atol=1e-14)

    def test_scalars(self):
        # 2x + 3x = 10
        assert sylvester_solve([[2.0]], [[3.0]], [[10.0]])[0, 0] == pytest.approx(2.0)

    def test_random_substitution_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            D = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            Q = rng.normal(size=(3, 3))
            X = sylvester_solve(A, D, Q)
            rel = one_norm(A @ X + X @ D - Q) / max(one_norm(Q), 1e-300)
            assert rel <= 1e-10

    def test_singular_operator_raises(self):
        # eigenvalue pair 1 + (-1) = 0
        with pytest.raises(SingularMatrix):
            sylvester_solve([[1.0]], [[-1.0]], [[1.0]])

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            SylvesterSolver(np.eye(60), np.eye(60))

    def test_prefactored_reuse(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        D = rng.normal(size=(2, 2)) + 4 * np.eye(2)
        solver = SylvesterSolver(A, D)
        for _ in range(3):
            Q = rng.normal(size=(4, 2))
            X = solver.solve(Q)
            assert one_norm(A @ X + X @ D - Q) <= 1e-10 * one_norm(Q)


class TestEigenvalues:
    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            n = int(rng.integers(1, 26))
            A = rng.normal(size=(n, n))
            mine = list(eigenvalues(A))
            ref = list(np.linalg.eigvals(A))
            scale = max(one_norm(A), 1.0)
            # greedy nearest matching: conjugate pairs are only equal to
            # round-off, so lexicographic sorting can swap them
            for a in mine:
                j = int(np.argmin([abs(a - b) for b in ref]))
                assert abs(a - ref[j]) <= 1e-7 * scale
                ref.pop(j)

    def test_rotation_gives_conjugate_pair(self):
        eigs = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert sorted(np.round(eigs.imag, 12)) == [-1.0, 1.0]
        assert np.abs(eigs.real).max() <= 1e-12

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

    def test_size_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(51))


def test_one_norm_matrix_and_vector():
    assert one_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert one_norm(np.array([1.0, -2.0])) == 3.0

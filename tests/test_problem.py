import json

import numpy as np
import pytest

from helpers import START_SLACK, count_m_solves, regularity_witness, sign_flipped
from marekit import linalg, mstruct, solve
from marekit import problem as problem_module
from marekit.errors import InvalidParameters, NotZMatrix, ShapeMismatch, SingularMatrix
from marekit.mstruct import MatrixKind, classify_zm
from marekit.problem import (
    MareProblem,
    Regime,
    classify_problem,
    make_certificate,
    matrix_from_json,
    matrix_to_jsonable,
    problem_from_json,
    problem_to_json,
    residual_dual,
    residual_primal,
)

GOLDEN = (3 - 5**0.5) / 2


def _loop_residual(p, X):
    """Independent elementwise evaluation of the defining expression."""
    m, n = p.m, p.n
    R = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = p.B[i, j]
            for a in range(n):
                for b in range(m):
                    acc += X[i, a] * p.C[a, b] * X[b, j]
            for a in range(n):
                acc -= X[i, a] * p.D[a, j]
            for a in range(m):
                acc -= p.A[i, a] * X[a, j]
            R[i, j] = acc
    num = np.abs(R).sum(axis=0).max()
    nrm = lambda M: np.abs(M).sum(axis=0).max()
    den = nrm(X) * (nrm(p.C) * nrm(X) + nrm(p.D) + nrm(p.A)) + nrm(p.B)
    return num / max(den, np.finfo(float).eps)


class TestConstruction:
    def test_negative_b_rejected(self):
        with pytest.raises(NotZMatrix):
            MareProblem(n=1, m=1, A=[[1.0]], B=[[-0.1]], C=[[1.0]], D=[[1.0]])

    def test_positive_offdiagonal_in_a_rejected(self):
        with pytest.raises(NotZMatrix):
            MareProblem(
                n=1, m=2, A=[[1.0, 0.5], [-1.0, 1.0]], B=[[0.0], [0.0]], C=[[1.0, 1.0]], D=[[2.0]]
            )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            MareProblem(n=1, m=2, A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"n": 0}, ShapeMismatch, "n and m must be positive"),
            ({"m": -1}, ShapeMismatch, "n and m must be positive"),
            ({"C": [[-1.0]]}, NotZMatrix, "C must be entrywise nonnegative"),
            ({"name": 5}, ValueError, "name must be a string or None, got 5"),
        ],
    )
    def test_input_checks(self, fields, error, message):
        coefficients = {"n": 1, "m": 1, "A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]]}
        with pytest.raises(error, match=f"^{message}$"):
            MareProblem(**{**coefficients, **fields})

    def test_block_layout(self, reducible_singular):
        p = reducible_singular
        K = p.K
        assert np.array_equal(K[: p.n, : p.n], p.D)
        assert np.array_equal(K[: p.n, p.n :], -p.C)
        assert np.array_equal(K[p.n :, : p.n], -p.B)
        assert np.array_equal(K[p.n :, p.n :], p.A)
        F = sign_flipped(p)
        assert np.array_equal(F[p.n :, : p.n], p.B)
        assert np.array_equal(F[p.n :, p.n :], -p.A)

    def test_matrices_are_read_only(self):
        # K is cached: a write into A after K was read would leave K, and the
        # norms, stale, and solve would classify one problem and check another
        p = MareProblem(n=1, m=1, A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        assert p.K[1, 1] == 2.0
        for label in ("A", "B", "C", "D", "K"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, label)[0, 0] = 9.0
        rep = solve(p)
        assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-12) and rep.certificate.all_passed

    def test_callers_arrays_stay_writable(self):
        A = np.array([[2.0]])
        p = MareProblem(n=1, m=1, A=A, B=[[1.0]], C=[[1.0]], D=[[1.0]])
        A[0, 0] = 9.0
        assert p.A[0, 0] == 2.0 and p.K[1, 1] == 2.0
        assert p.dual().D[0, 0] == 2.0  # the dual copies the read-only blocks into its own

    def test_norms_taken_once(self, reducible_singular):
        p = reducible_singular
        assert p.norms is p.norms
        assert p.norms == tuple(linalg.one_norm(M) for M in (p.A, p.B, p.C, p.D, p.K))
        assert (p.norms.A, p.norms.K) == (2.0, 3.0)


class TestResiduals:
    def test_scalar_root(self, scalar_nonsingular):
        assert residual_primal(scalar_nonsingular, [[GOLDEN]]) <= 1e-14
        assert residual_dual(scalar_nonsingular, [[GOLDEN]]) <= 1e-14

    def test_zero_candidate_normalizes_to_one(self, scalar_nonsingular):
        assert residual_primal(scalar_nonsingular, [[0.0]]) == pytest.approx(1.0)
        assert residual_dual(scalar_nonsingular, [[0.0]]) == pytest.approx(1.0)

    def test_reducible_dual_solution(self, reducible_singular):
        # Y (A + 2I) = C solved by hand gives Y = (1/2, 1/2)
        assert residual_dual(reducible_singular, [[0.5, 0.5]]) <= 1e-14

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(61)
        p = MareProblem(
            n=3,
            m=3,
            A=np.diag([3.0, 4.0, 5.0]) - rng.uniform(0, 1, (3, 3)) * (1 - np.eye(3)),
            B=rng.uniform(0, 1, (3, 3)),
            C=rng.uniform(0, 1, (3, 3)),
            D=np.diag([3.0, 4.0, 5.0]) - rng.uniform(0, 1, (3, 3)) * (1 - np.eye(3)),
        )
        for _ in range(10):
            X = rng.uniform(0, 1, (3, 3))
            assert residual_primal(p, X) == pytest.approx(_loop_residual(p, X), rel=1e-12)

    def test_shape_mismatch(self, scalar_nonsingular):
        with pytest.raises(ShapeMismatch):
            residual_primal(scalar_nonsingular, np.ones((2, 1)))

    def test_dual_is_the_primal_of_the_dual_problem(self, solved_noncritical, solved_nonsingular):
        rng = np.random.default_rng(62)
        for p, rep in solved_noncritical + solved_nonsingular:
            q = p.dual()
            for Y in (rep.psi, rng.uniform(0.0, 1.0, (p.n, p.m))):
                assert residual_dual(p, Y) == residual_primal(q, Y)
        with pytest.raises(ShapeMismatch, match=f"Y must be {p.n}x{p.m}"):
            residual_dual(p, np.ones((p.m, p.n + 1)))


class TestClassifyProblem:
    def test_scalar_nonsingular(self, scalar_nonsingular):
        pc = classify_problem(scalar_nonsingular)
        assert pc.regime is Regime.NONSINGULAR_K
        assert pc.nulls is None
        assert pc.k_class.regular

    def test_scalar_critical(self, scalar_critical):
        pc = classify_problem(scalar_critical)
        assert pc.regime is Regime.CRITICAL
        assert pc.drift == pytest.approx(0.0, abs=1e-14)
        assert pc.r == 2
        assert len(pc.k_class.blocks) == 1

    def test_reducible_noncritical(self, reducible_singular):
        pc = classify_problem(reducible_singular)
        assert pc.regime is Regime.SINGULAR_NONCRITICAL
        assert pc.drift == pytest.approx(-1 / 3, abs=1e-10)
        assert pc.r == 1
        assert len(pc.k_class.blocks) > 1

    def test_not_regular(self, not_regular_problem):
        pc = classify_problem(not_regular_problem)
        assert pc.regime is Regime.NOT_REGULAR
        assert not pc.k_class.regular

    def test_tiny_d_over_a_zero_a_is_regular(self):
        # K = [[1e-11, -1], [0, 0]]: v = (2e11, 1) gives K v = (1, 0)
        p = MareProblem(n=1, m=1, A=[[0.0]], B=[[0.0]], C=[[1.0]], D=[[1e-11]])
        pc = classify_problem(p)
        assert pc.k_class.regular
        assert pc.regime is Regime.CRITICAL

    def test_assumption_fails(self):
        # disconnected critical blocks: two independent zero eigenvectors
        p = MareProblem(
            n=2,
            m=2,
            A=[[1.0, 0.0], [0.0, 1.0]],
            B=[[1.0, 0.0], [0.0, 1.0]],
            C=[[1.0, 0.0], [0.0, 1.0]],
            D=[[1.0, 0.0], [0.0, 1.0]],
        )
        pc = classify_problem(p)
        assert pc.regime is Regime.ASSUMPTION_FAILS
        assert len(pc.k_class.singular_blocks) == 2

    def test_nonsingular_k_has_no_zero_eigenvalue(self, nonsingular_suite, scalar_nonsingular):
        for p in [*nonsingular_suite, scalar_nonsingular]:
            pc = classify_problem(p)
            assert pc.regime is Regime.NONSINGULAR_K
            assert pc.r == 0 and not pc.k_class.singular_blocks
            assert (regularity_witness(p.K, pc.k_class) > 0).all()

    def test_rounding_size_h_squared_is_a_double_zero(self):
        # H = x [[1, -1], [1, -1]] has H^2 = 0, which BLAS returns as 5e-19
        # entries; a rank of that product reads a simple zero eigenvalue
        x = 0.4562551427827235
        pc = classify_problem(MareProblem(n=1, m=1, A=[[x]], B=[[x]], C=[[x]], D=[[x]]))
        assert pc.regime is Regime.CRITICAL
        assert (len(pc.k_class.singular_blocks), pc.r) == (1, 2)

    def test_equal_scalar_coefficients_are_critical_double_zeros(self):
        # 91 of these 2000 draws once read as simple zeros by a rank of H^2
        for x in np.random.default_rng(0).uniform(0.1, 10.0, 2000):
            pc = classify_problem(MareProblem(n=1, m=1, A=[[x]], B=[[x]], C=[[x]], D=[[x]]))
            assert pc.regime is Regime.CRITICAL, x
            assert (len(pc.k_class.singular_blocks), pc.r) == (1, 2), x

    def test_tiny_d_over_a_zero_a_is_a_double_zero(self):
        # drift -1e-11 is critical to TAU_DRIFT, so r follows the regime; in
        # exact arithmetic H has eigenvalues 0 and 1e-11, a simple zero
        p = MareProblem(n=1, m=1, A=[[0.0]], B=[[0.0]], C=[[1.0]], D=[[1e-11]])
        pc = classify_problem(p)
        assert pc.regime is Regime.CRITICAL
        assert pc.drift == pytest.approx(-1e-11, rel=1e-10)
        assert (len(pc.k_class.singular_blocks), pc.r) == (1, 2)

    def test_no_zero_structure_off_the_theory(self, divergent):
        # K not an M-matrix, then a K that is not regular with two singular blocks
        two_coupled = MareProblem(n=1, m=1, A=[[0.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]])
        for p in (divergent, two_coupled):
            pc = classify_problem(p)
            assert pc.regime is Regime.NOT_REGULAR
            assert pc.r is None
            assert pc.nulls is None

    @pytest.mark.parametrize("coupled", [False, True])
    def test_one_noda_run_per_block_split_and_none_on_a_transpose(self, coupled, monkeypatch):
        # singular block S of order 3 and nonsingular blocks N1, N2 of order 2;
        # S is final (regular K) or couples into N1 (not regular)
        rng = np.random.default_rng(67)
        K = -rng.uniform(0.1, 1.0, (7, 7))
        S, N1, N2 = slice(0, 3), slice(3, 5), slice(5, 7)
        if coupled:
            K[N1, S] = K[N2, S] = K[N2, N1] = 0.0
        else:
            K[S, 3:] = K[N2, N1] = 0.0
        K[S, S] += np.diag(-K[S, S].sum(axis=1))
        for N in (N1, N2):
            K[N, N] += np.diag(-K[N].sum(axis=1) + 1.0)
        perm = rng.permutation(7)
        K = K[np.ix_(perm, perm)]
        p = MareProblem(n=3, m=4, D=K[:3, :3], C=-K[:3, 3:], B=-K[3:, :3], A=K[3:, 3:])
        runs = []
        noda = linalg._noda_bounds
        monkeypatch.setattr(linalg, "_noda_bounds", lambda P, c, x=None: runs.append(P) or noda(P, c, x))
        pc = classify_problem(p)
        assert pc.regime is (Regime.NOT_REGULAR if coupled else Regime.SINGULAR_NONCRITICAL)
        assert len(pc.k_class.blocks) == 3 and len(pc.k_class.singular_blocks) == 1
        # one run on each block's split; S's left vector is one transposed solve, not a run
        assert sorted(len(P) for P in runs) == [2, 2, 3]
        (blk,) = pc.k_class.singular_blocks
        K_SS = p.K[np.ix_(blk.index, blk.index)]
        (P_S,) = [P for P in runs if len(P) == 3]
        assert np.array_equal(P_S, mstruct._split(K_SS)[1])
        assert not np.array_equal(P_S, mstruct._split(K_SS.T)[1])


def _svd_structure(H):
    """(geometric, algebraic) multiplicity of H's zero eigenvalue from SVD ranks of its powers.

    The powers are of H / ||H||_2, so a product that is zero in exact
    arithmetic has singular values at rounding size, far below the 1e-12
    rank tolerance; the nullity is read until it stops growing.
    """
    size = len(H)
    base = H / np.linalg.norm(H, 2)
    power = np.eye(size)
    nullity = [0]
    for _ in range(size):
        power = power @ base
        nullity.append(size - np.linalg.matrix_rank(power, tol=1e-12))
        if nullity[-1] == nullity[-2]:
            break
    return nullity[1], nullity[-1]


def _svd_drift(K, n):
    """u1.v1 - u2.v2 of the singular vectors of K's smallest singular value, each scaled to sum 1."""
    U, _, Vt = np.linalg.svd(K)
    u, v = U[:, -1] / U[:, -1].sum(), Vt[-1] / Vt[-1].sum()
    return u[:n] @ v[:n] - u[n:] @ v[n:]


def _multi_block_problems(seed, count):
    """Regular K with 2-3 final singular irreducible blocks of order 2-3, permuted and split.

    Each singular block is diag(N x / x) - N for a drawn positive x, and
    0-3 further rows form nonsingular blocks, diagonally dominant, coupled
    into everything before them.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        orders = rng.integers(2, 4, int(rng.integers(2, 4)))
        lo, extra = int(orders.sum()), int(rng.integers(0, 4))
        size = lo + extra
        K = np.zeros((size, size))
        at = 0
        for o in orders:
            N = rng.uniform(0.1, 1.0, (o, o))
            np.fill_diagonal(N, 0.0)
            x = rng.uniform(0.5, 1.5, o)
            K[at : at + o, at : at + o] = np.diag(N @ x / x) - N
            at += o
        if extra:
            rows = -rng.uniform(0.1, 1.0, (extra, size)) * (rng.uniform(size=(extra, size)) < 0.7)
            rows[:, lo:] = -rng.uniform(0.1, 1.0, (extra, extra))
            rows[np.arange(extra), lo + np.arange(extra)] = 0.0
            rows[np.arange(extra), lo + np.arange(extra)] = -rows.sum(axis=1) + rng.uniform(0.5, 2.0, extra)
            K[lo:] = rows
        perm = rng.permutation(size)
        K = K[np.ix_(perm, perm)]
        n = int(rng.integers(1, size))
        problems.append(MareProblem(n=n, m=size - n, D=K[:n, :n], C=-K[:n, n:], B=-K[n:, :n], A=K[n:, n:]))
    return problems


class TestZeroStructureOracle:
    """(geometric, algebraic) against SVD ranks of the powers of H = diag(I, -I) K, the drift against SVD null vectors."""

    @staticmethod
    def _check(problems, regimes):
        for p in problems:
            pc = classify_problem(p)
            assert pc.regime in regimes, p.name
            assert (len(pc.k_class.singular_blocks), pc.r) == _svd_structure(sign_flipped(p)), p.name
            if pc.nulls is not None:
                assert abs(pc.drift - _svd_drift(p.K, p.n)) <= 1e-13, p.name

    def test_worked_examples(self, scalar_nonsingular, scalar_critical, reducible_singular):
        self._check(
            [scalar_nonsingular, scalar_critical, reducible_singular],
            {Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL, Regime.CRITICAL},
        )

    def test_noncritical_suite(self, noncritical_suite):
        self._check(noncritical_suite, {Regime.SINGULAR_NONCRITICAL})

    def test_nonsingular_suite(self, nonsingular_suite):
        self._check(nonsingular_suite, {Regime.NONSINGULAR_K})

    def test_two_critical_blocks(self):
        eye = np.eye(2)
        p = MareProblem(n=2, m=2, A=eye, B=eye, C=eye, D=eye)
        self._check([p], {Regime.ASSUMPTION_FAILS})
        pc = classify_problem(p)
        assert (len(pc.k_class.singular_blocks), pc.r) == (2, 4)

    def test_several_final_singular_blocks(self):
        problems = _multi_block_problems(71, 40)
        self._check(problems, {Regime.ASSUMPTION_FAILS})
        assert {len(classify_problem(p).k_class.singular_blocks) for p in problems} == {2, 3}


class TestCertificate:
    def test_critical_endpoint(self, scalar_critical):
        cert = make_certificate(scalar_critical, [[1.0]], [[1.0]])
        assert cert.rho_phi_psi == pytest.approx(1.0, abs=1e-12)
        rho_check = next(c for c in cert.checks if c.name == "i-minus-phipsi-nonsingular")
        assert rho_check.detail == "kind=SingularM"
        assert rho_check.passed is None  # not applicable in the critical regime
        dich = next(c for c in cert.checks if c.name == "exactly-one-closing-singular")
        assert dich.passed is None

    def test_reducible_dichotomy(self, reducible_singular):
        cert = make_certificate(reducible_singular, np.zeros((2, 1)), [[0.5, 0.5]])
        assert np.array_equal(cert.R, [[2.0]])
        assert not cert.r_singular
        assert cert.s_singular
        assert cert.rho_phi_psi == 0.0
        assert cert.all_passed

    def test_scalar_closing_matrices(self, scalar_nonsingular):
        cert = make_certificate(scalar_nonsingular, [[GOLDEN]], [[GOLDEN]])
        assert cert.R[0, 0] == pytest.approx((5**0.5 - 1) / 2, abs=1e-12)
        assert cert.S[0, 0] == pytest.approx((5**0.5 + 1) / 2, abs=1e-12)
        assert cert.rho_phi_psi == pytest.approx(GOLDEN**2, abs=1e-10)
        assert cert.rho_phi_psi == pytest.approx(0.1459, abs=1e-4)
        assert cert.all_passed

    def test_wrong_candidate_fails_residuals(self, scalar_nonsingular):
        cert = make_certificate(scalar_nonsingular, [[0.9]], [[0.9]])
        failed = {c.name for c in cert.checks if c.passed is False}
        assert "residual-primal" in failed
        assert not cert.all_passed

    def test_similarity_residual_tracks_solution_residuals(self, reducible_singular, scalar_nonsingular):
        for p in (reducible_singular, scalar_nonsingular):
            rep = solve(p)
            cert = rep.certificate
            if cert.residual_primal <= 1e-12 and cert.residual_dual <= 1e-12:
                assert cert.similarity_residual <= 1e-10

    def test_negative_candidate_rejected(self, scalar_nonsingular):
        with pytest.raises(ValueError):
            make_certificate(scalar_nonsingular, [[-0.5]], [[0.5]])

    def test_overflowing_phi_psi_rejected(self):
        # with B = C = 0 both residuals stay finite at phi = psi = 1e200, but
        # phi psi = 1e400 overflows: an error, with no overflow warning before it
        p = MareProblem(n=1, m=1, A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[1.0]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            make_certificate(p, [[1e200]], [[1e200]])

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12])
    def test_unusable_tol_rejected(self, scalar_nonsingular, tol):
        # refused as fixed_point_solve and DoublingParams refuse it, not a certificate whose checks all fail
        with pytest.raises(InvalidParameters, match="tol must be nonnegative"):
            make_certificate(scalar_nonsingular, [[GOLDEN]], [[GOLDEN]], tol=tol)

    def test_every_check_passes_on_solved_suites(self, solved_noncritical, solved_nonsingular):
        # default certificate tolerance is 1e-8; None marks a check that does
        # not apply in the problem's regime
        for p, rep in solved_noncritical + solved_nonsingular:
            assert rep.certificate.all_passed, (
                p.name,
                [c for c in rep.certificate.checks if c.passed is False],
            )


class TestClosingGaps:
    """R and S are judged by their certified gaps, the smallest real eigenvalues tau(R) and tau(S)."""

    @staticmethod
    def _scales(p, cert):
        one = linalg.one_norm
        return one(p.D) + one(p.C) * one(cert.phi), one(p.A) + one(p.B) * one(cert.psi)

    def test_scalar_gaps_are_the_closing_matrices(self, scalar_nonsingular):
        cert = make_certificate(scalar_nonsingular, [[GOLDEN]], [[GOLDEN]])
        assert cert.r_class.gap == cert.R[0, 0] and cert.s_class.gap == cert.S[0, 0]
        values = {c.name: c.value for c in cert.checks}
        assert values["closing-R-regular-m-matrix"] == cert.r_class.gap
        assert values["closing-S-regular-m-matrix"] == cert.s_class.gap
        assert not (cert.r_singular or cert.s_singular)

    def test_reducible_dichotomy_values(self, reducible_singular):
        cert = make_certificate(reducible_singular, np.zeros((2, 1)), [[0.5, 0.5]])
        assert cert.r_class.gap == 2.0 and cert.s_class.gap == 0.0
        dich = next(c for c in cert.checks if c.name == "exactly-one-closing-singular")
        assert dich.passed is True and dich.value == 0.0 and dich.threshold == 1e-8

    def test_gaps_match_eigenvalues_and_verdicts_on_suites(self, solved_noncritical, solved_nonsingular):
        for p, rep in solved_noncritical + solved_nonsingular:
            cert = rep.certificate
            scale_r, scale_s = self._scales(p, cert)
            for M, gap, scale, singular in ((cert.R, cert.r_class.gap, scale_r, cert.r_singular), (cert.S, cert.s_class.gap, scale_s, cert.s_singular)):
                # the certificate's runs start at K's witness, classify_zm's at 1
                assert abs(gap - classify_zm(M).gap) <= START_SLACK * (1 + 2 * np.abs(M.diagonal()).max())
                assert gap == pytest.approx(np.linalg.eigvals(M).real.min(), abs=1e-10 * scale), p.name
                assert singular == (abs(gap) <= 1e-8 * scale)
            values = {c.name: c.value for c in cert.checks}
            assert values["closing-R-regular-m-matrix"] == cert.r_class.gap
            assert values["closing-S-regular-m-matrix"] == cert.s_class.gap
            if rep.problem_class.regime is Regime.SINGULAR_NONCRITICAL:
                assert cert.r_singular != cert.s_singular, p.name
                assert values["exactly-one-closing-singular"] == min(abs(cert.r_class.gap) / scale_r, abs(cert.s_class.gap) / scale_s)
            else:
                assert not (cert.r_singular or cert.s_singular), p.name

    def test_separation_needs_the_other_gap(self, reducible_singular):
        # a singular S beside an R whose gap falls below 1e-4 * scale is not separated
        p = reducible_singular
        assert classify_problem(p).regime is Regime.SINGULAR_NONCRITICAL
        cert = make_certificate(p, [[0.99999], [0.99999]], [[0.5, 0.5]])
        assert cert.r_class.gap == pytest.approx(2e-5, rel=1e-9)
        assert cert.s_singular and not cert.r_singular
        dich = next(c for c in cert.checks if c.name == "exactly-one-closing-singular")
        assert dich.passed is False


class TestClosingRegularity:
    """R and S are regular when their singular irreducible blocks are final; no witness is solved."""

    def test_certificate_makes_no_m_solve(self, solved_noncritical, solved_nonsingular, monkeypatch):
        calls = count_m_solves(monkeypatch)
        for p, rep in solved_noncritical[:20] + solved_nonsingular[:5]:
            cert = make_certificate(p, rep.phi, rep.psi, problem_class=rep.problem_class)
            assert [c.passed for c in cert.checks] == [c.passed for c in rep.certificate.checks]
        assert calls == []

    def test_classifying_a_nonsingular_k_makes_one_m_solve(self, noncritical_suite, nonsingular_suite, monkeypatch):
        calls = count_m_solves(monkeypatch)
        runs = []
        noda = linalg._noda_bounds
        monkeypatch.setattr(linalg, "_noda_bounds", lambda P, c, x=None: runs.append(len(P)) or noda(P, c, x))
        for p in noncritical_suite:
            # the trial solve of K, which does not certify, then at most two on K_NN
            calls.clear()
            classify_problem(p)
            assert calls[0] == (p.size, 0)
            assert len(calls) <= 3 and all(size < p.size for size, _ in calls[1:])
        for p in nonsingular_suite:
            # the certified K^{-1} 1 decides K: no Noda run on it, and no second solve
            calls.clear()
            runs.clear()
            pc = classify_problem(p)
            assert calls == [(p.size, 0)] and runs == []
            assert pc.regime is Regime.NONSINGULAR_K and pc.k_class.gap > pc.k_class.tol

    def test_uncertified_nonsingular_k_raises(self):
        # K = [[g, 0, 0], [-1, g, 0], [0, -1, g]]: three 1x1 blocks of gap
        # 1e-10, above class_tol, but x = K^{-1} 1 = (1e10, 1e20, 1e30), and
        # K x = 1 falls below the rounding margin 5 eps |K| x of about 2e5;
        # that solve is the only check a nonsingular K gets
        g = 1e-10
        p = MareProblem(n=1, m=2, A=[[g, 0.0], [-1.0, g]], B=[[1.0], [0.0]], C=[[0.0, 0.0]], D=[[g]])
        assert classify_zm(p.K).kind is MatrixKind.NONSINGULAR_M
        with pytest.raises(SingularMatrix, match="certify the nonsingular blocks of K"):
            classify_problem(p)

    def test_rule_agrees_with_the_witness(self, solved_noncritical, solved_nonsingular, not_regular_problem):
        matrices = [not_regular_problem.K]
        for p, rep in solved_noncritical + solved_nonsingular:
            matrices += [p.K, rep.certificate.R, rep.certificate.S]
        for M in matrices:
            cls = classify_zm(M)
            assert cls.regular == (regularity_witness(M, cls) is not None)
        assert not classify_zm(not_regular_problem.K).regular


class TestDuality:
    def test_dual_of_dual_is_primal(self, reducible_singular):
        p = reducible_singular
        q = p.dual().dual()
        assert (q.n, q.m) == (p.n, p.m)
        for name in "ABCD":
            assert np.array_equal(getattr(q, name), getattr(p, name))

    def test_dual_swaps_solutions(self, scalar_nonsingular, reducible_singular):
        for p in (scalar_nonsingular, reducible_singular):
            rep = solve(p)
            rep_dual = solve(p.dual())
            assert np.allclose(rep_dual.phi, rep.psi, atol=1e-10)
            assert np.allclose(rep_dual.psi, rep.phi, atol=1e-10)


class TestJson:
    def test_problem_round_trip_bytes(self, reducible_singular):
        text = problem_to_json(reducible_singular)
        again = problem_from_json(text)
        assert problem_to_json(again) == text

    def test_numpy_integer_sizes_round_trip(self, scalar_nonsingular):
        # sizes are stored as Python ints, so what problem_to_json writes problem_from_json reads
        q = scalar_nonsingular
        p = MareProblem(n=np.int64(1), m=np.int32(1), A=q.A, B=q.B, C=q.C, D=q.D)
        assert type(p.n) is int and type(p.m) is int
        assert problem_to_json(problem_from_json(problem_to_json(p))) == problem_to_json(q)

    @pytest.mark.parametrize("size", [True, np.True_, 1.0, 2.0, "1"])
    def test_bool_and_non_integer_sizes_rejected(self, scalar_nonsingular, size):
        q = scalar_nonsingular
        with pytest.raises(ShapeMismatch, match="must be an integer"):
            MareProblem(n=size, m=1, A=q.A, B=q.B, C=q.C, D=q.D)
        with pytest.raises(ShapeMismatch, match="must be an integer"):
            MareProblem(n=1, m=size, A=q.A, B=q.B, C=q.C, D=q.D)

    def test_unknown_field_rejected(self):
        payload = {"n": 1, "m": 1, "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]], "extra": 1}
        with pytest.raises(ValueError, match="unknown"):
            problem_from_json(json.dumps(payload))

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            problem_from_json('{"n": 1, "m": 1}')

    def test_non_integer_sizes_rejected(self):
        payload = {"n": 1.5, "m": 1, "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]]}
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (problem_from_json, "[1]", "problem JSON must be an object"),
            (matrix_from_json, "[[1.0]]", "matrix JSON must be an object"),
            (
                problem_from_json,
                '{"name": 3, "n": 1, "m": 1, "A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]]}',
                "field 'name' must be a string",
            ),
            (matrix_from_json, '{"rows": 1}', "missing matrix fields: ['cols', 'entries']"),
        ],
    )
    def test_loader_messages(self, load, text, message):
        with pytest.raises(ValueError) as info:
            load(text)
        assert str(info.value) == message

    def test_matrix_round_trip(self):
        M = np.array([[1.0, 0.25], [-3.0, 2.0 / 3.0]])
        obj = matrix_to_jsonable(M)
        again = matrix_from_json(json.dumps(obj))
        assert np.array_equal(again, M)

    def test_matrix_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"rows": 2, "cols": 1, "entries": [[1.0, 2.0]]}')

    def test_matrix_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"rows": 1, "cols": 1, "entries": [[1.0]], "x": 2}')

    @pytest.mark.parametrize(
        "field, value",
        [
            ("A", [["2.0"]]),
            ("B", [[True]]),
            ("C", [["1"]]),
            ("D", [[True]]),
            ("D", [[False]]),
            ("A", [[2.0, True]]),
            ("n", True),
            ("m", True),
        ],
    )
    def test_strings_and_booleans_rejected(self, field, value):
        # numpy would read "2.0" as 2.0 and true as 1.0, and bool is an int
        payload = {"n": 1, "m": 1, "A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]], field: value}
        with pytest.raises(ValueError):
            problem_from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1, "cols": 1, "entries": [["1.0"]]}',
            '{"rows": 1, "cols": 1, "entries": [[true]]}',
            '{"rows": 1, "cols": 2, "entries": [[1.0, false]]}',
            '{"rows": true, "cols": 1, "entries": [[1.0]]}',
            '{"rows": 1, "cols": true, "entries": [[1.0]]}',
        ],
    )
    def test_matrix_strings_and_booleans_rejected(self, text):
        with pytest.raises(ValueError):
            matrix_from_json(text)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="float64 range"):
            problem_from_json('{"n": 1, "m": 1, "A": [[1%s]], "B": [[1]], "C": [[1]], "D": [[1]]}' % ("0" * 400))

    def test_integer_beyond_float_range_names_the_matrix(self):
        with pytest.raises(ValueError, match="^A has an entry beyond the float64 range$"):
            MareProblem(1, 1, [[10**400]], [[0.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="^entries has an entry beyond the float64 range$"):
            matrix_from_json('{"rows": 1, "cols": 1, "entries": [[1%s]]}' % ("0" * 400))

    def test_one_conversion_per_loaded_matrix(self, reducible_singular, monkeypatch):
        names = []
        real = problem_module.as_matrix

        def counting(a, name="matrix"):
            names.append(name)
            return real(a, name)

        monkeypatch.setattr(problem_module, "as_matrix", counting)
        problem_from_json(problem_to_json(reducible_singular))
        assert names == ["A", "B", "C", "D"]

    def test_integer_entries_accepted(self):
        p = problem_from_json('{"n": 1, "m": 1, "A": [[2]], "B": [[1]], "C": [[1]], "D": [[1]]}')
        assert p.A.dtype == np.float64 and p.A[0, 0] == 2.0
        assert np.array_equal(matrix_from_json('{"rows": 1, "cols": 2, "entries": [[1, 2.5]]}'), [[1.0, 2.5]])

import json

import numpy as np
import pytest

from marekit import linalg, mstruct, solve
from marekit.errors import NotZMatrix, ShapeMismatch
from marekit.mstruct import MatrixKind
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

    def test_block_layout(self, reducible_singular):
        p = reducible_singular
        K = p.K
        assert np.array_equal(K[: p.n, : p.n], p.D)
        assert np.array_equal(K[: p.n, p.n :], -p.C)
        assert np.array_equal(K[p.n :, : p.n], -p.B)
        assert np.array_equal(K[p.n :, p.n :], p.A)
        F = p.sign_flipped
        assert np.array_equal(F[p.n :, : p.n], p.B)
        assert np.array_equal(F[p.n :, p.n :], -p.A)


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


class TestClassifyProblem:
    def test_scalar_nonsingular(self, scalar_nonsingular):
        pc = classify_problem(scalar_nonsingular)
        assert pc.regime is Regime.NONSINGULAR_K
        assert pc.nulls is None
        assert pc.regular.regular

    def test_scalar_critical(self, scalar_critical):
        pc = classify_problem(scalar_critical)
        assert pc.regime is Regime.CRITICAL
        assert pc.drift == pytest.approx(0.0, abs=1e-14)
        assert pc.zero_structure.algebraic_multiplicity == 2
        assert pc.irreducible

    def test_reducible_noncritical(self, reducible_singular):
        pc = classify_problem(reducible_singular)
        assert pc.regime is Regime.SINGULAR_NONCRITICAL
        assert pc.drift == pytest.approx(-1 / 3, abs=1e-10)
        assert pc.zero_structure.algebraic_multiplicity == 1
        assert not pc.irreducible

    def test_not_regular(self, not_regular_problem):
        pc = classify_problem(not_regular_problem)
        assert pc.regime is Regime.NOT_REGULAR
        assert not pc.regular.regular

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
        assert pc.zero_structure.geometric_multiplicity == 2

    def test_nonsingular_k_skips_the_sign_flipped_elimination(self, nonsingular_suite, scalar_nonsingular, monkeypatch):
        problems = [*nonsingular_suite, scalar_nonsingular]
        # the structure the rank-of-powers elimination finds, before it is counted
        want = [mstruct.zero_eigen_structure(p.sign_flipped) for p in problems]
        calls = {"zero_eigen_structure": 0, "rank_and_margin": 0}
        for module, name in ((mstruct, "zero_eigen_structure"), (linalg, "rank_and_margin")):
            def counted(*args, _orig=getattr(module, name), _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(module, name, counted)
        for p, structure in zip(problems, want):
            pc = classify_problem(p)
            assert pc.regime is Regime.NONSINGULAR_K
            assert pc.zero_structure == structure
            assert (pc.regular.witness > 0).all()
        assert calls == {"zero_eigen_structure": 0, "rank_and_margin": 0}


class TestCertificate:
    def test_critical_endpoint(self, scalar_critical):
        cert = make_certificate(scalar_critical, [[1.0]], [[1.0]])
        assert cert.rho_phi_psi == pytest.approx(1.0, abs=1e-12)
        assert cert.i_phipsi_kind is MatrixKind.SINGULAR_M
        rho_check = next(c for c in cert.checks if c.name == "i-minus-phipsi-nonsingular")
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

    def test_every_check_passes_on_solved_suites(self, solved_noncritical, solved_nonsingular):
        # default certificate tolerance is 1e-8; None marks a check that does
        # not apply in the problem's regime
        for p, rep in solved_noncritical + solved_nonsingular:
            assert rep.certificate.all_passed, (
                p.name,
                [c for c in rep.certificate.checks if c.passed is False],
            )


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

"""Acceptance suite: nine criteria, one test each, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 4-8 share the generated 100-problem singular-noncritical
suite and the 20-problem nonsingular suite (session fixtures), so the whole
module stays well under the runtime budget.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from marekit import (
    DoublingParams,
    MareProblem,
    Regime,
    classify_problem,
    fixed_point_solve,
    initialize,
    make_certificate,
    select_parameters,
    step,
    theoretical_rate,
)
from marekit.doubling import sign_tol
from marekit.errors import NonpositiveDiagonal
from marekit.linalg import one_norm
from marekit.mstruct import MatrixKind

from helpers import replay

GOLDEN = (3 - 5**0.5) / 2


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] FAIL - {desc}")
        raise
    print(f"[acceptance {num}] PASS - {desc}")


def test_criterion_1_worked_scalar_nonsingular(scalar_nonsingular):
    from marekit import solve

    with criterion(1, "scalar (2,1,1,1) at optimal (2,1): solution and rates"):
        rep = solve(scalar_nonsingular)
        assert (rep.params.alpha, rep.params.beta) == (2.0, 1.0)
        assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.psi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.phi[0, 0] == pytest.approx(0.3819660113, abs=1e-10)
        assert rep.iterations <= 8
        assert rep.theoretical_rate == pytest.approx(0.0212862, abs=1e-6)
        assert rep.observed_rate is not None
        assert rep.observed_rate <= rep.theoretical_rate + 0.05


def test_criterion_2_worked_reducible_singular(reducible_singular):
    from marekit import solve

    with criterion(2, "reducible singular worked instance: classify, solve, certify"):
        pc = classify_problem(reducible_singular)
        assert pc.regime is Regime.SINGULAR_NONCRITICAL
        assert pc.r == 1
        assert pc.drift == pytest.approx(-1 / 3, abs=1e-10)
        rep = solve(reducible_singular)
        assert np.abs(rep.phi).max() <= 1e-12
        assert np.allclose(rep.psi, [[0.5, 0.5]], atol=1e-12)
        cert = rep.certificate
        assert np.allclose(cert.R, [[2.0]])
        assert not cert.r_singular
        assert cert.s_singular
        dichotomy = next(c for c in cert.checks if c.name == "exactly-one-closing-singular")
        assert dichotomy.passed is True
        assert cert.rho_phi_psi == pytest.approx(0.0, abs=1e-14)


def test_criterion_3_worked_critical(scalar_critical):
    with criterion(3, "critical (1,1,1,1): r=2, iterates 2/3, 4/5, 8/9, singular I-PhiPsi"):
        pc = classify_problem(scalar_critical)
        assert pc.regime is Regime.CRITICAL
        assert pc.r == 2
        assert pc.drift == pytest.approx(0.0, abs=1e-14)
        assert len(pc.k_class.blocks) == 1
        params = select_parameters(scalar_critical)
        assert (params.alpha, params.beta) == (1.0, 1.0)
        state = initialize(scalar_critical, params)
        iterates = [state.H[0, 0]]
        for _ in range(2):
            state = step(state)
            iterates.append(state.H[0, 0])
        assert iterates[0] == pytest.approx(2 / 3, abs=1e-14)
        assert iterates[1] == pytest.approx(4 / 5, abs=1e-14)
        assert iterates[2] == pytest.approx(8 / 9, abs=1e-14)
        cert = make_certificate(scalar_critical, [[1.0]], [[1.0]], problem_class=pc)
        assert cert.rho_phi_psi == pytest.approx(1.0, abs=1e-12)
        rho_check = next(c for c in cert.checks if c.name == "i-minus-phipsi-nonsingular")
        assert rho_check.detail == "kind=SingularM"


def test_criterion_4_nonsingular_product_suite(solved_noncritical):
    with criterion(4, "100-problem suite: rho(Phi Psi) < 1 - 1e-6, I-PhiPsi / I-PsiPhi nonsingular M"):
        masks = set()
        for p, rep in solved_noncritical:
            cert = rep.certificate
            assert cert.rho_phi_psi < 1.0 - 1e-6, p.name
            rho_check = next(c for c in cert.checks if c.name == "i-minus-phipsi-nonsingular")
            assert rho_check.detail == "kind=NonsingularM", p.name
            if not p.B.any():
                masks.add("upper")
            elif not p.C.any():
                masks.add("lower")
            else:
                masks.add("full")
        assert len(solved_noncritical) >= 100
        assert masks == {"upper", "lower", "full"}  # mixed reducible masks
        sizes = {p.size for p, _ in solved_noncritical}
        assert min(sizes) <= 4 and max(sizes) >= 18  # mixed sizes across 2..20


def test_criterion_5_iteration_structure_suite(solved_noncritical):
    with criterion(5, "100-problem suite: per-step M-structure, signs, monotonicity, rate bound"):
        for p, rep in solved_noncritical:
            tau = sign_tol(p)
            # the report keeps each step's diagnostics; the iterates are replayed
            for d, state in zip(rep.trace, replay(p, rep), strict=True):
                assert d.kind_IGH is MatrixKind.NONSINGULAR_M, p.name
                assert d.kind_IHG is MatrixKind.NONSINGULAR_M, p.name
                assert d.sign_violations_E == 0, p.name
                assert d.sign_violations_F == 0, p.name
                assert d.monotonicity_violations == 0, p.name
                assert (state.H <= rep.phi + tau).all(), p.name
                assert (state.G <= rep.psi + tau).all(), p.name
                assert (state.H >= -tau).all() and (state.G >= -tau).all(), p.name
            assert rep.converged  # zero IterationBreakdown, no cap hit
            assert rep.theoretical_rate is not None and rep.theoretical_rate < 1.0, p.name
            if rep.observed_rate is not None:
                assert rep.observed_rate <= rep.theoretical_rate + 0.05, p.name


def test_criterion_6_closing_matrices_suite(solved_noncritical, solved_nonsingular):
    with criterion(6, "both regimes: R, S regular M-matrices and similarity residual <= 1e-10"):
        for p, rep in solved_noncritical + solved_nonsingular:
            cert = rep.certificate
            for name in ("closing-R-regular-m-matrix", "closing-S-regular-m-matrix"):
                chk = next(c for c in cert.checks if c.name == name)
                assert chk.passed is True, (p.name, name)
                assert "kind=SingularM" in chk.detail or "kind=NonsingularM" in chk.detail
            assert cert.similarity_residual <= 1e-10, p.name


def test_criterion_7_parameter_optimality(solved_noncritical):
    with criterion(7, "20 problems x 5 sampled (alpha, beta) >= optimal: rate never improves"):
        rng = np.random.default_rng(77)
        for p, rep in solved_noncritical[:20]:
            base = rep.theoretical_rate
            for _ in range(5):
                alpha = rep.params.alpha * float(rng.uniform(1.0, 3.0))
                beta = rep.params.beta * float(rng.uniform(1.0, 3.0))
                rate = theoretical_rate(p, rep.certificate, DoublingParams(alpha, beta))
                assert base <= rate + 1e-12, (p.name, alpha, beta)


def test_criterion_8_oracle_equivalence(solved_noncritical):
    with criterion(8, "fixed-point oracle: monotone iterates, 1e-8 agreement when convergent"):
        converged = 0
        for p, rep in solved_noncritical:
            oracle = fixed_point_solve(p, tol=1e-12, max_iter=5000)
            assert oracle.monotonicity_violations == 0, p.name
            if oracle.converged:
                converged += 1
                gap = one_norm(rep.phi - oracle.phi)
                assert gap <= 1e-8 * max(1.0, one_norm(oracle.phi)), p.name
        assert converged >= 90  # the cross-check must actually bite
        print(f"    (oracle converged on {converged}/{len(solved_noncritical)} problems)")


def test_criterion_9_negative_paths(not_regular_problem):
    with criterion(9, "non-regular K rejected as NotRegular; nonpositive diagonal rejected"):
        pc = classify_problem(not_regular_problem)
        assert pc.regime is Regime.NOT_REGULAR
        assert not pc.k_class.regular
        bad = MareProblem(n=1, m=1, A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(NonpositiveDiagonal):
            select_parameters(bad)
        bad_d = MareProblem(n=1, m=1, A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        with pytest.raises(NonpositiveDiagonal):
            select_parameters(bad_d)

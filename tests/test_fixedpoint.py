import numpy as np
import pytest

from marekit import FamilySpec, MareProblem, Regime, generate, solve
from marekit.errors import InvalidParameters, SingularMatrix
from marekit.fixedpoint import fixed_point_solve
from marekit.linalg import one_norm
from marekit.problem import residual_primal

GOLDEN = (3 - 5**0.5) / 2


def test_scalar_nonsingular(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=1e-12)
    assert rep.converged
    assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-11)
    assert rep.phi[0, 0] == pytest.approx(0.3819660113, abs=1e-9)
    assert rep.monotonicity_violations == 0


def test_zero_b_converges_immediately(reducible_singular):
    rep = fixed_point_solve(reducible_singular)
    assert rep.converged
    assert rep.iterations == 1
    assert np.array_equal(rep.phi, np.zeros((2, 1)))


def test_critical_does_not_converge_but_increases(scalar_critical):
    # hand iteration x <- (x^2 + 1)/2 climbs monotonically toward 1
    rep = fixed_point_solve(scalar_critical, tol=1e-12, max_iter=200)
    assert not rep.converged
    assert rep.iterations == 200
    assert 0.9 < rep.phi[0, 0] < 1.0
    assert rep.monotonicity_violations == 0
    longer = fixed_point_solve(scalar_critical, tol=1e-12, max_iter=400)
    assert longer.phi[0, 0] > rep.phi[0, 0]


def test_limit_satisfies_equation(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=1e-10)
    assert residual_primal(scalar_nonsingular, rep.phi) <= 1e-10
    assert rep.final_residual <= 1e-10


def test_agrees_with_doubling_on_worked_problems(scalar_nonsingular, reducible_singular):
    for p in (scalar_nonsingular, reducible_singular):
        doubled = solve(p)
        oracle = fixed_point_solve(p, tol=1e-12)
        assert oracle.converged
        gap = one_norm(doubled.phi - oracle.phi)
        assert gap <= 1e-8 * max(1.0, one_norm(oracle.phi))


def test_converges_at_m_times_n_above_2500():
    p = generate(FamilySpec(Regime.NONSINGULAR_K, 51, 51, seed=5))
    rep = fixed_point_solve(p, tol=1e-12)
    assert rep.converged
    assert rep.monotonicity_violations == 0
    gap = one_norm(solve(p).phi - rep.phi)
    assert gap <= 1e-8 * max(1.0, one_norm(rep.phi))


def test_zero_denominator_raises():
    # a + d = 0 leaves the diagonal splitting nothing to divide by
    for a, d in ((0.0, 0.0), (1.0, -1.0)):
        p = MareProblem(n=1, m=1, A=[[a]], B=[[1.0]], C=[[1.0]], D=[[d]])
        with pytest.raises(SingularMatrix):
            fixed_point_solve(p)


@pytest.mark.parametrize(
    "limits, message",
    [
        ({"tol": -1.0}, "tol"),
        ({"tol": -1e-300}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -5}, "max_iter"),
    ],
)
def test_bad_limits_rejected(scalar_nonsingular, limits, message):
    with pytest.raises(InvalidParameters, match=message):
        fixed_point_solve(scalar_nonsingular, **limits)


def test_zero_tol_and_one_step_accepted(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=0.0, max_iter=1)
    assert rep.iterations == 1 and not rep.converged

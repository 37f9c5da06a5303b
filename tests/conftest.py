"""Shared fixtures: worked problems and the generated acceptance suites."""

import numpy as np
import pytest

from marekit import FamilySpec, MareProblem, Regime, generate, solve

GOLDEN = (3 - 5**0.5) / 2  # minimal root of x^2 - 3x + 1


@pytest.fixture(scope="session")
def scalar_nonsingular():
    """(a, b, c, d) = (2, 1, 1, 1): x^2 - 3x + 1 = 0, solution (3 - sqrt 5)/2."""
    return MareProblem(n=1, m=1, A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])


@pytest.fixture(scope="session")
def scalar_critical():
    """(a, b, c, d) = (1, 1, 1, 1): (x - 1)^2 = 0, zero drift."""
    return MareProblem(n=1, m=1, A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])


@pytest.fixture(scope="session")
def reducible_singular():
    """D = [2], C = [1, 1], B = 0, A = [[1,-1],[-1,1]]: block triangular K."""
    return MareProblem(
        n=1,
        m=2,
        A=[[1.0, -1.0], [-1.0, 1.0]],
        B=[[0.0], [0.0]],
        C=[[1.0, 1.0]],
        D=[[2.0]],
    )


@pytest.fixture(scope="session")
def divergent():
    """(a, b, c, d) = (1, 2, 2, 1): K is not an M-matrix; the oracle's x <- x^2 + 1 overflows."""
    return MareProblem(n=1, m=1, A=[[1.0]], B=[[2.0]], C=[[2.0]], D=[[1.0]])


@pytest.fixture(scope="session")
def breaks_later_than_its_dual():
    """K = [[0.85, 0, -0.076], [-3.67, 0.564, 0], [0, -3.21, 1.571]] is not an M-matrix.

    The oracle's update overflows at step 128 on this problem and at step
    110 on its dual, in different blocks of steps.
    """
    return MareProblem(n=1, m=2, A=[[0.564, 0.0], [-3.21, 1.571]], B=[[3.67], [0.0]], C=[[0.0, 0.076]], D=[[0.85]])


@pytest.fixture(scope="session")
def not_regular_problem():
    """K = [[0, -1], [0, 1]]: singular M-matrix with no regularity witness."""
    return MareProblem(n=1, m=1, A=[[1.0]], B=[[0.0]], C=[[1.0]], D=[[0.0]])


def _suite(base_seed: int, count: int, regime: Regime):
    rng = np.random.default_rng(base_seed)
    problems = []
    for i in range(count):
        size = int(rng.integers(2, 21))
        lo = max(1, size // 4)
        n = int(rng.integers(lo, size - lo + 1))
        m = size - n
        problems.append(generate(FamilySpec(regime, n, m, seed=base_seed * 1000 + i)))
    return problems


@pytest.fixture(scope="session")
def noncritical_suite():
    """100 singular-noncritical problems, sizes 2..20, mixed masks."""
    return _suite(1, 100, Regime.SINGULAR_NONCRITICAL)


@pytest.fixture(scope="session")
def nonsingular_suite():
    return _suite(4, 20, Regime.NONSINGULAR_K)


@pytest.fixture(scope="session")
def solved_noncritical(noncritical_suite):
    return [(p, solve(p)) for p in noncritical_suite]


@pytest.fixture(scope="session")
def solved_nonsingular(nonsingular_suite):
    return [(p, solve(p)) for p in nonsingular_suite]

"""Independent fixed-point solver, used as the minimality cross-check.

Splitting A and D on their diagonals, ``A = diag(a) - N_A`` and
``D = diag(d) - N_D`` with ``N_A, N_D >= 0`` off the diagonal, turns the
equation ``X C X - X D - A X + B = 0`` into

    X_{k+1} = (X_k C X_k + B + N_A X_k + X_k N_D) / (a_i + d_j),    X_0 = 0,

divided entrywise.  The sequence increases entrywise from zero and stays
below every nonnegative solution, so its limit is the minimal one (Guo,
SIAM J. Matrix Anal. Appl. 23 (2001) 225-242).  Each step is a few matrix
products.  This solver exists to be obviously correct, not fast:
convergence is linear, and in the critical regime sublinear, so hitting the
iteration cap there is expected and reported rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doubling import sign_tol
from .errors import InvalidParameters, SingularMatrix
from .linalg import pivot_tol
from .problem import MareProblem, residual_primal


@dataclass(frozen=True)
class OracleReport:
    phi: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    monotonicity_violations: int


def fixed_point_solve(p: MareProblem, tol: float = 1e-10, max_iter: int = 5000) -> OracleReport:
    """Iterate the monotone fixed-point map from X = 0.

    Stops when the normalized primal residual drops to ``tol``; returns a
    report with ``converged=False`` when the cap is reached first (the best
    iterate is still attached).  Entrywise monotonicity is checked at every
    step to the problem's sign tolerance and violations are counted.
    Raises InvalidParameters for a negative or NaN ``tol`` or a
    ``max_iter`` below 1, and SingularMatrix when some ``a_i + d_j`` does
    not exceed the pivot tolerance of K, since the splitting then divides
    by (nearly) zero.
    """
    if not tol >= 0:
        raise InvalidParameters(f"tol must be nonnegative, got {tol}")
    if max_iter < 1:
        raise InvalidParameters(f"max_iter must be >= 1, got {max_iter}")
    a, d = np.diag(p.A), np.diag(p.D)
    denom = a[:, None] + d[None, :]
    floor = pivot_tol(p.K)
    if denom.min() <= floor:
        raise SingularMatrix(
            "diagonal splitting is singular to tolerance "
            f"(min a_i + d_j = {denom.min():.3e} <= {floor:.3e})"
        )
    N_A = np.diag(a) - p.A
    N_D = np.diag(d) - p.D
    tau = sign_tol(p)
    X = np.zeros((p.m, p.n))
    res = residual_primal(p, X)
    violations = 0
    for k in range(1, max_iter + 1):
        X_new = (X @ p.C @ X + p.B + N_A @ X + X @ N_D) / denom
        violations += int((X_new < X - tau).sum())
        X = X_new
        res = residual_primal(p, X)
        if res <= tol:
            return OracleReport(X, k, True, res, violations)
    return OracleReport(X, max_iter, False, res, violations)

"""Independent fixed-point solver, used as the minimality cross-check.

Splitting A and D on their diagonals, ``A = diag(a) - N_A`` and
``D = diag(d) - N_D`` with ``N_A, N_D >= 0`` off the diagonal, turns the
equation ``X C X - X D - A X + B = 0`` into

    X_{k+1} = (X_k C X_k + B + N_A X_k + X_k N_D) / (a_i + d_j),    X_0 = 0,

divided entrywise.  The sequence increases entrywise from zero and stays
below every nonnegative solution, so its limit is the minimal one (Guo,
SIAM J. Matrix Anal. Appl. 23 (2001) 225-242).  This solver exists to be
obviously correct, not fast: convergence is linear, and in the critical
regime sublinear, so hitting the iteration cap there is expected and
reported rather than raised.

Each step is four matrix products, and they also measure the residual.
The numerator ``T(X) = X C X + B + N_A X + X N_D`` of the update holds the
residual of X itself, ``X C X - X D - A X + B = T(X) - (a_i + d_j) X``, so
one ``T`` per step both tests the current iterate and becomes the next one.
That fused residual only screens: the stop is decided by the exact
``residual_primal``, called where the fused value is within rounding of
the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .doubling import sign_tol
from .errors import InvalidParameters, IterationBreakdown, SingularMatrix
from .linalg import EPS, one_norm, pivot_tol
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

    Stops when the normalized primal residual (``residual_primal``) drops
    to ``tol``; returns a report with ``converged=False`` when the cap is
    reached first (the last iterate and its exact residual are attached).
    Each step screens its iterate with the fused residual
    ``T(X) - (a_i + d_j) X``, normalized as ``residual_primal`` does with
    the coefficient 1-norms taken once; only where that value is within
    ``tol`` plus its rounding slack, and at the cap, is the exact residual
    computed, and it alone decides the stop and fills ``final_residual``.
    The slack ``8 (m + n + 2) eps`` covers the rounding gap between the
    two residuals: each sums products of inner length at most ``m + n``
    and a few more terms, so each is within about ``(m + n + 5) eps / 2``
    of the true value, relative to the normalizer they share.  The stop
    therefore falls on the step where the exact residual first meets
    ``tol``, as if it were computed at every step.

    Entrywise monotonicity is checked at every step to the problem's sign
    tolerance and violations are counted.  Raises InvalidParameters for a
    negative or NaN ``tol`` or a ``max_iter`` below 1, SingularMatrix when
    some ``a_i + d_j`` does not exceed the pivot tolerance of K, since the
    splitting then divides by (nearly) zero, and IterationBreakdown when
    the update overflows (the fused residual is not finite), as when K is
    not an M-matrix and the iterates diverge.
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

    def numerator(X):
        return X @ p.C @ X + p.B + N_A @ X + X @ N_D

    nA, nB, nC, nD = one_norm(p.A), one_norm(p.B), one_norm(p.C), one_norm(p.D)
    screen = tol + 8 * (p.m + p.n + 2) * EPS
    tau = sign_tol(p)
    X = np.zeros((p.m, p.n))
    T = numerator(X)
    violations = 0
    for k in range(1, max_iter + 1):
        X_new = T / denom
        violations += int((X_new < X - tau).sum())
        X = X_new
        T = numerator(X)
        nX = one_norm(X)
        fused = one_norm(T - denom * X) / max(nX * (nC * nX + nD + nA) + nB, EPS)
        if not math.isfinite(fused):
            raise IterationBreakdown(f"nonfinite fixed-point update at step {k + 1}")
        if fused <= screen or k == max_iter:
            res = residual_primal(p, X)
            if res <= tol:
                return OracleReport(X, k, True, res, violations)
    return OracleReport(X, max_iter, False, res, violations)

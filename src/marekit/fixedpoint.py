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
``residual_primal``, taken by its core ``problem._residual`` on the
iterate the oracle built, where the fused value is within rounding of
the tolerance.

The steps run in blocks of ``_BLOCK``.  A step inside a block does only
its four products and the division; the fused residual, the 1-norms and
the monotonicity count of every step of the block are then taken in one
stacked pass, and the block is walked in step order to apply the stop.
Up to ``_BLOCK - 1`` look-ahead steps past the stop are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, IterationBreakdown, SingularMatrix
from .linalg import EPS, one_norm, pivot_tol
from .problem import MareProblem, _residual, sign_tol

# Steps per screening pass.  At the sizes the oracle serves (m, n up to a
# few dozen) a step's four products cost less than the dozen small numpy
# reductions that screening it takes, so these run once per block, stacked.
_BLOCK = 8


@dataclass(frozen=True)
class OracleReport:
    phi: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    monotonicity_violations: int


def _one_norms(M: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of a stack, as ``one_norm`` takes it."""
    return np.abs(M).sum(axis=1).max(axis=1)


def fixed_point_solve(p: MareProblem, tol: float = 1e-10, max_iter: int = 5000) -> OracleReport:
    """Iterate the monotone fixed-point map from X = 0.

    Stops when the normalized primal residual (``residual_primal``) drops
    to ``tol``; returns a report with ``converged=False`` when the cap is
    reached first (the last iterate and its exact residual are attached).
    Each step is screened with the fused residual ``T(X) - (a_i + d_j) X``,
    normalized as ``residual_primal`` does with the coefficient 1-norms
    taken once; only where that value is within ``tol`` plus its rounding
    slack, and at the cap, is the exact residual computed, and it alone
    decides the stop and fills ``final_residual``.  The slack
    ``8 (m + n + 2) eps`` covers the rounding gap between the two
    residuals: each sums products of inner length at most ``m + n`` and a
    few more terms, so each is within about ``(m + n + 5) eps / 2`` of the
    true value, relative to the normalizer they share.  The stop therefore
    falls on the step where the exact residual first meets ``tol``, as if
    it were computed at every step.

    The four products of each step are the same as in a step-by-step loop,
    so the iterates are the same bits.  The screen, the norms and the
    monotonicity count are taken once per block of ``_BLOCK`` steps (the
    last block is cut at ``max_iter``) and then read in step order; the up
    to ``_BLOCK - 1`` steps computed past the stop are discarded and not
    counted.  The returned ``phi`` is a copy that owns its memory.

    Entrywise monotonicity is checked at every step to the problem's sign
    tolerance and violations are counted through the returned step.
    Raises InvalidParameters for a negative or NaN ``tol`` or a
    ``max_iter`` below 1, SingularMatrix when some ``a_i + d_j`` does not
    exceed the pivot tolerance of K, since the splitting then divides by
    (nearly) zero, and IterationBreakdown naming the first step whose
    update overflows (the fused residual is not finite), as when K is not
    an M-matrix and the iterates diverge.  Overflow inside a block is not
    warned about, since look-ahead steps after it overflow too; the
    breakdown step is the one a step-by-step loop would report.
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

    def numerator(X, out):
        return np.add(X @ p.C @ X + p.B + N_A @ X, X @ N_D, out=out)

    nA, nB, nC, nD = one_norm(p.A), one_norm(p.B), one_norm(p.C), one_norm(p.D)
    screen = tol + 8 * (p.m + p.n + 2) * EPS
    tau = sign_tol(p)
    # Xs[0] is the last iterate of the previous block, Xs[j] its j-th successor;
    # Ts[j - 1] is the numerator T(Xs[j]), written there by the step.  T is the
    # numerator of the current iterate; each step reads it before it writes the
    # next one, so T(0) can start in Ts[0].
    Xs = np.zeros((_BLOCK + 1, p.m, p.n))
    Ts = np.empty((_BLOCK, p.m, p.n))
    T = numerator(Xs[0], Ts[0])
    violations = 0
    done = 0
    while done < max_iter:
        b = min(_BLOCK, max_iter - done)
        X, Tb = Xs[1 : b + 1], Ts[:b]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, b + 1):
                np.divide(T, denom, out=Xs[j])
                T = numerator(Xs[j], Ts[j - 1])
            counted = violations + np.cumsum((X < Xs[:b] - tau).sum(axis=(1, 2)))
            nX = _one_norms(X)
            fused = _one_norms(Tb - denom * X) / np.maximum(nX * (nC * nX + nD + nA) + nB, EPS)
        for j, (value, count) in enumerate(zip(fused.tolist(), counted.tolist()), start=1):
            k = done + j
            if not math.isfinite(value):
                raise IterationBreakdown(f"nonfinite fixed-point update at step {k + 1}")
            if value <= screen or k == max_iter:
                res = _residual(Xs[j], p.A, p.B, p.C, p.D)
                if res <= tol:
                    return OracleReport(Xs[j].copy(), k, True, res, count)
        violations = int(counted[-1])
        done += b
        Xs[0] = Xs[b]
    return OracleReport(Xs[0].copy(), max_iter, False, res, violations)

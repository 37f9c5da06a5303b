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
its four products, into buffers allocated once, and the division.  The
block is then screened in one stacked pass over its steps and sides: the
1-norms of X and of the fused residual, stored right after the iterates,
are the largest entries of one matrix-vector product with a ones vector,
``1^T X`` for the column sums of X, which numpy reduces far more slowly
over a middle axis of the stack.  X needs no absolute value: every
iterate is >= 0 exactly, as its operands are and its denominators are
positive.  Monotonicity is one comparison of the block's iterates with
their predecessors, and the count of violations per step is built only
when that comparison fails.  The walk then visits, in step order, only
the steps whose screen passes, is not finite, or sits at the cap.  Up to
``_BLOCK - 1`` look-ahead steps past the stop are discarded.

The same iteration gives Psi, the minimal solution of the dual equation
``Y B Y - Y A - D Y + C = 0``.  Its transpose Z = Y^T is m x n like X and
solves ``Z B^T Z - Z D^T - A^T Z + C^T = 0``, the primal form with
coefficients (A^T, C^T, B^T, D^T) and the same denominators a_i + d_j.
With ``dual`` the core advances X and Z as one (2, m, n) stack from X_0
through the block of their first stop: each step is one numerator and one
division for both, and each block one screening pass.  Each side stops on its own step,
decided by its own exact residual; the dual's is ``residual_dual``'s core
on Z^T, and its screen takes the dual's 1-norm, the largest row sum
``Z 1`` of Z.  From the block after one side stops, the other steps its
own 2-D slices, as ``fixed_point_solve``, the same core on X alone, does
throughout.  The first block in which either side's update overflows ends
the run, and the error names the primal's step if both overflow there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, IterationBreakdown, SingularMatrix
from .linalg import EPS, one_norm, pivot_tol
from .problem import MareProblem, _residual, sign_tol

# Steps per screening pass.  At the sizes the oracle serves (m, n up to a
# few dozen) a pass costs about a dozen small numpy calls whatever the
# number of steps it covers, as much as a few steps' products.  On the
# crosscheck oracle pair (2-vCPU x86-64 VM, one BLAS thread) 16 steps a pass
# ran about 1.1x as fast as 8, and 24 or 32 at most a few percent faster
# than 16, for more look-ahead steps that the stop discards.
_BLOCK = 16

# the default stopping limits of both entry points
_TOL, _MAX_ITER = 1e-10, 5000


@dataclass(frozen=True)
class OracleReport:
    phi: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    monotonicity_violations: int


def _numerator(N_A, B, C, N_D):
    """``T(X) = X C X + B + N_A X + X N_D``, written to ``out``; the arrays may be stacks.

    The four products and three additions run in the order the expression
    reads, through buffers allocated once: one shaped like N_A for X C and
    two shaped like B for the rest.
    """
    XC, S, P = np.empty(N_A.shape), np.empty(B.shape), np.empty(B.shape)

    def numerator(X, out):
        np.matmul(np.matmul(X, C, out=XC), X, out=S)
        np.add(S, B, out=S)
        np.add(S, np.matmul(N_A, X, out=P), out=S)
        return np.add(S, np.matmul(X, N_D, out=P), out=out)

    return numerator


def _fixed_point(
    p: MareProblem, tol: float = _TOL, max_iter: int = _MAX_ITER, *, dual: bool
) -> list[OracleReport]:
    """The reports of the primal side and, with ``dual``, of the dual side, from one run.

    Side 0 iterates X; side 1 iterates Z = Psi^T with the transposed
    coefficients, and its residual, answer and 1-norms are those of Psi.
    The primal report is ``fixed_point_solve(p, tol, max_iter)`` bit for
    bit.  The dual one reports Psi (n x m), stops on the step where
    ``residual_dual`` first meets ``tol`` and carries that residual; its
    iterates are those of ``fixed_point_solve(p.dual(), ...)`` transposed,
    up to rounding, since the transposed products round in another order.
    """
    try:
        max_iter = operator.index(max_iter)
    except TypeError:
        raise InvalidParameters(f"max_iter must be an integer, got {max_iter!r}") from None
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
    nA, nB, nC, nD = one_norm(p.A), one_norm(p.B), one_norm(p.C), one_norm(p.D)
    # per side: the splitting its iterate runs on, the equation its answer
    # solves, and that equation's coefficient 1-norms, one row per side
    splittings = [(N_A, p.B, p.C, N_D)]
    if dual:
        splittings.append(tuple(np.ascontiguousarray(M.T) for M in (N_A, p.C, p.B, N_D)))
    equations = [(p.A, p.B, p.C, p.D), (p.D, p.C, p.B, p.A)]
    sides = len(splittings)
    sA, sB, sC, sD = np.array([(nA, nB, nC, nD), (nD, nC, nB, nA)][:sides]).T[:, :, None]
    screen = tol + 8 * (p.m + p.n + 2) * EPS
    tau = sign_tol(p)
    # Xs[0, i] is side i's last iterate of the previous block, Xs[j, i] its
    # j-th successor and, in a block of b steps, Xs[b + j, i] its fused
    # residual; Ts[j - 1, i] is the numerator T(Xs[j, i]), written there by
    # the step.  T is the numerator of the current iterate; each step reads
    # it before it writes the next one, so T(0) can start in Ts[0].
    Xs = np.zeros((2 * _BLOCK + 1, sides, p.m, p.n))
    Ts = np.empty((_BLOCK, sides, p.m, p.n))
    ones_m, ones_n = np.ones(p.m), np.ones(p.n)
    # the pair steps the whole stack, one side its own 2-D slices, which
    # multiply faster than a stack of one
    if dual:
        Xw, Tw, numerator = Xs, Ts, _numerator(*(np.stack(c) for c in zip(*splittings)))
    else:
        Xw, Tw, numerator = Xs[:, 0], Ts[:, 0], _numerator(*splittings[0])
    T = numerator(Xw[0], Tw[0])
    reports = [None] * sides
    violations = [0] * sides
    live = list(range(sides))
    done = 0
    while live:
        b = min(_BLOCK, max_iter - done)
        X, prev, R, both = Xs[1 : b + 1], Xs[:b], Xs[b + 1 : 2 * b + 1], Xs[1 : 2 * b + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, b + 1):
                np.divide(T, denom, out=Xw[j])
                T = numerator(Xw[j], Tw[j - 1])
            np.abs(np.subtract(Ts[:b], np.multiply(denom, X, out=R), out=R), out=R)
            # the 1-norms of X and of the fused residual, both at once: the
            # largest column sum of X, and of Psi, the largest row sum of Z
            sums = [ones_m @ both[:, 0]]
            if dual:
                sums.append(both[:, 1] @ ones_n)
            nX, num = np.array([s.max(axis=1).reshape(2, b) for s in sums]).swapaxes(0, 1)
            fused = num / np.maximum(nX * (sC * nX + sD + sA) + sB, EPS)
            # the walk visits the steps the screen passes, a nonfinite one and the cap
            visit = (fused <= screen) | ~np.isfinite(fused)
            steady = bool((X >= prev).all())
        visit[:, -1] |= done + b == max_iter
        for i in tuple(live):
            if not steady:
                counted = violations[i] + np.cumsum((X[:, i] < prev[:, i] - tau).sum(axis=(1, 2)))
                violations[i] = int(counted[-1])
            for j in np.flatnonzero(visit[i]).tolist():
                k = done + j + 1
                if not math.isfinite(fused[i, j]):
                    raise IterationBreakdown(f"nonfinite fixed-point update at step {k + 1}")
                answer = (X[j, i].T if i else X[j, i]).copy()
                res = _residual(answer, *equations[i])[1]
                if res <= tol or k == max_iter:
                    count = violations[i] if steady else int(counted[j])
                    reports[i] = OracleReport(answer, k, res <= tol, res, count)
                    live.remove(i)
                    break
        done += b
        if Xw is Xs and len(live) == 1:  # the survivor steps alone; zeros keep the other steady
            (i,) = live
            Xs[:, 1 - i] = 0.0
            Xw, Tw, numerator, T = Xs[:, i], Ts[:, i], _numerator(*splittings[i]), Ts[b - 1, i]
        Xw[0] = Xw[b]
    return reports


def fixed_point_solve(p: MareProblem, tol: float = _TOL, max_iter: int = _MAX_ITER) -> OracleReport:
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
    residuals.  Each entry of either sums products of inner length at most
    ``m + n`` and a few more terms, so it is within about
    ``(m + n + 5) eps / 2`` of the true value, relative to the normalizer
    they share.  The 1-norms then add at most ``max(m, n)`` nonnegative
    terms, and a sum of k such terms, taken in any order, is within
    ``(k - 1) eps / 2`` of itself: so for the screen's BLAS matrix-vector
    products as for the exact residual's pairwise sums.  The two values
    therefore differ by less than ``2 (m + n + 2) eps``, a quarter of the
    slack.  The screen only gates the exact residual, so how its sums round
    cannot move a stop: the stop falls on the step where the exact residual
    first meets ``tol``, as if it were computed at every step.

    The four products of each step are the same as in a step-by-step loop,
    so the iterates are the same bits.  The screen, the norms and the
    monotonicity check are taken once per block of ``_BLOCK`` steps (the
    last block is cut at ``max_iter``), and the steps they pick are then
    read in step order; the up to ``_BLOCK - 1`` steps computed past the
    stop are discarded and not counted.  The returned ``phi`` is a copy
    that owns its memory.  This is the one-side call of ``_fixed_point``,
    the core that also advances the primal and the dual as one stack for
    ``solve --method fixed-point``; on one side it steps 2-D arrays.

    Entrywise monotonicity is checked at every step to the problem's sign
    tolerance and violations are counted through the returned step.
    Raises InvalidParameters for a negative or NaN ``tol`` or a
    ``max_iter`` that is not an integer or is below 1, SingularMatrix when
    some ``a_i + d_j`` does not exceed the pivot tolerance of K, since the
    splitting then divides by (nearly) zero, and IterationBreakdown naming the first step whose
    update overflows (the fused residual is not finite), as when K is not
    an M-matrix and the iterates diverge.  Overflow inside a block is not
    warned about, since look-ahead steps after it overflow too; the
    breakdown step is the one a step-by-step loop would report.
    """
    (report,) = _fixed_point(p, tol, max_iter, dual=False)
    return report


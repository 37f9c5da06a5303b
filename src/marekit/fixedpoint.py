"""Independent fixed-point solver, used as the minimality cross-check.

Splitting A and D on their diagonals, ``A = diag(a) - N_A`` and
``D = diag(d) - N_D`` with ``N_A, N_D >= 0`` off the diagonal, turns the
equation ``X C X - X D - A X + B = 0`` into

    X_{k+1} = (X_k C X_k + B + N_A X_k + X_k N_D) / (a_i + d_j),    X_0 = 0,

divided entrywise.  The sequence increases entrywise from zero and stays
below every nonnegative solution, so its limit is the minimal one (Guo,
SIAM J. Matrix Anal. Appl. 23 (2001) 225-242).  That argument owes
nothing to the doubling theory, which is what makes the solver a
cross-check.  Its convergence is linear, and in the critical regime
sublinear, so hitting the iteration cap there is expected and reported
rather than raised.

Each step is seven numpy calls, one ``divide``, three ``matmul`` that
take its four matrix products and three ``add``, and they also measure
the residual.  The numerator
``T(X) = X C X + B + N_A X + X N_D`` of the update holds the residual of
X itself, ``X C X - X D - A X + B = T(X) - (a_i + d_j) X``, so one ``T``
per step both tests the current iterate and becomes the next one.
That fused residual only screens: the stop is decided by the exact
``residual_primal``, taken by its core ``problem._residual`` on the
iterate the oracle built, where the fused value is within rounding of
the tolerance.

The steps run in blocks.  A step inside a block is its seven calls and
nothing else, no Python call and no array indexing: its operands are
views made when the run starts (and again when one side goes on alone),
into buffers allocated once.  The denominators are stored in the shape
of the iterates they divide, a (2, m, n) stack for the pair, so neither
the division nor the screen's ``denom X`` broadcasts over the side axis.
T(X) is summed in place: the stacked product writes ``X C X`` into the
slab that is to hold T(X) and ``N_A X`` into the next one, which no step
reads before the next step writes it.  The block is then screened in one
stacked pass over its steps and sides: the 1-norms of X and of the fused
residual, stored right after the iterates, are the largest entries of
one matrix-vector product with a ones vector per side, ``1^T X`` for the
column sums of X, which numpy reduces far more slowly over a middle axis
of the stack.  The product writes each step's sums into a column of a
transposed buffer, so the maxima are one ``np.maximum.reduce`` over its
rows, an entrywise maximum of contiguous rows that is faster than a
reduction along each step's own row, with the same bits, as a maximum is
exact.  X needs no absolute value: every
iterate is >= 0 exactly, as its operands are and its denominators are
positive.  Monotonicity is one comparison of the block's iterates with
their predecessors, and the count of violations per step is built only
when that comparison fails.  The walk then visits, in step order, only
the steps whose screen passes, is not finite, or sits at the cap; a
block with none of these and no monotonicity failure is not walked.

The first block has ``_BLOCK`` = 16 steps.  A block of b steps leaves
the fused residuals r_1 .. r_b of each running side, which decay by
``rate = (r_b / r_1)^(1 / (b - 1))`` a step; at that rate the screen
threshold is ``log(r_b / screen) / log(1 / rate)`` steps on.  The next
block ends ``_AHEAD`` = 2 steps past the earliest such stop, a side with
no such count counting 16 steps, and has at least ``_MIN_BLOCK`` = 4 and
at most ``_MAX_BLOCK`` = 64 steps.  A side has no such count when its
residual does not shrink over the block, is at the threshold already,
or grew at any step of the block: diverging iterates can shrink their
residual from r_1 to r_b and still grow it from some step on, and a
block predicted from that decay would run long past their overflow.
The iterate buffer holds ``2 L + 1`` slabs of ``sides m n`` floats and
the numerator buffer ``L + 1``, for blocks of up to L steps.  L is the
cap 64 cut to the byte budget ``_BUDGET`` = 4 MiB, which counts
``3 L + 1`` slabs, but never below 16: where the 49 slabs of blocks of
16 already exceed the budget (one side at m n above 10699, the pair
above 5349), the buffers keep that size.  The budget leaves out the
numerator buffer's last slab, which holds only ``N_A X``, and the
coefficients: the stack ``[X C, N_A]`` of ``2 sides m^2`` floats, N_D,
the denominators and, for the pair, the stacks of B, C, N_D and the
denominators, whose slices the survivor steps on; one side steps on the
problem's own B and C.  A test pins the tracemalloc peak of a run at
n = m = 200, which counts all of these, the screen's sums and the exact
residual's temporaries.  The look-ahead steps past a stop are
discarded: up to 15 where the stop falls in the first block, up to 2
past a stop predicted to the step, and always fewer than one block.

The same iteration gives Psi, the minimal solution of the dual equation
``Y B Y - Y A - D Y + C = 0``.  Its transpose Z = Y^T is m x n like X and
solves ``Z B^T Z - Z D^T - A^T Z + C^T = 0``, the primal form with
coefficients (A^T, C^T, B^T, D^T) and the same denominators a_i + d_j.
With ``dual`` the core advances X and Z as one (2, m, n) stack from X_0
through the block of their first stop: each step is one numerator and one
division for both, and each block one screening pass.  Each side stops on
its own step, decided by its own exact residual; the dual's is
``residual_dual``'s core on Z^T, and its screen takes the dual's 1-norm,
the largest row sum ``Z 1`` of Z.  From the block after one side stops,
the other steps its own 2-D slices of the stacks, as
``fixed_point_solve``, the same core on X alone, does throughout.  The
first update that overflows, in step order over the sides still running,
ends the run, and the error names that step, whichever side and block it
falls in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationBreakdown, SingularMatrix
from .linalg import EPS, one_norm
from .problem import MareProblem, _check_max_iter, _check_tol, _residual, _residual_scale, sign_tol

# the block sizes and the buffers' byte budget (see the module docstring)
_BLOCK = 16
_AHEAD, _MIN_BLOCK, _MAX_BLOCK = 2, 4, 64
_BUDGET = 4 << 20

# the default stopping limits of both entry points
_TOL, _MAX_ITER = 1e-10, 5000


@dataclass(frozen=True)
class OracleReport:
    phi: np.ndarray
    iterations: int
    converged: bool
    final_residual: float
    monotonicity_violations: int


def _stepper(L, B, C, N_D, denom):
    """The block stepper ``steps(T, slabs)`` of the map ``X -> T(X) / denom``; the arrays may be stacks.

    For each ``(X, P, S, NX)`` of ``slabs``, a step divides the numerator
    T of the current iterate by the denominators into X and sums the
    numerator ``T(X) = X C X + B + N_A X + X N_D`` of that new iterate in
    S, which the next step divides; ``steps`` returns the last.  The stack
    L holds the buffer for X C above N_A, so one ``matmul`` of L by X takes
    ``(X C) X`` and ``N_A X``, which share their shapes and their right
    factor, into P = [S, NX], slice by slice the same product as a call of
    its own: three products a step.  The three additions run in the order
    the expression reads.  A step is these seven numpy calls and nothing
    else: the slabs are views made once, and ``denom`` is shaped as X, so
    the division broadcasts nothing.
    """
    XC = L[0]
    divide, matmul, add = np.divide, np.matmul, np.add

    def steps(T, slabs):
        for X, P, S, NX in slabs:
            divide(T, denom, out=X)
            matmul(X, C, out=XC)
            matmul(L, X, out=P)
            add(S, B, out=S)
            add(S, NX, out=S)
            matmul(X, N_D, out=NX)
            T = add(S, NX, out=S)
        return T

    return steps


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

    A block's steps are one call of the stepper of the sides stepped, each
    step its seven numpy calls over the views of ``slabs``, made once for
    the pair or one side and again for the survivor: the denominators in
    the shape of the iterates, a (2, m, n) stack for the pair and 2-D for
    one side, which the screen's ``denom X`` takes too, and the slab pairs
    of Ts where each step sums its numerator.  The screen writes each
    side's matrix-vector sums into the transposed buffer ``sums`` and takes
    their maxima over its rows.  The blocks and the buffers are sized as
    the module docstring says: the byte budget counts ``3 L + 1`` slabs,
    those of Xs and all of Ts but its last, and the pinned peak every array
    of the run.
    """
    max_iter = _check_max_iter(max_iter)
    _check_tol(tol, "tol")
    a, d = np.diag(p.A), np.diag(p.D)
    denom = a[:, None] + d[None, :]
    floor = p.size * EPS * p.norms.K
    if denom.min() <= floor:
        raise SingularMatrix(
            "diagonal splitting is singular to tolerance "
            f"(min a_i + d_j = {denom.min():.3e} <= {floor:.3e})"
        )
    m, n, sides = p.m, p.n, 1 + dual
    nA, nB, nC, nD = p.norms[:4]
    # the coefficients, one slice per side on axis 0 (on axis 1 of L): the
    # stepper's L = [X C, N_A], then B, C, N_D and the denominators.  Side 1
    # runs on the transposes of N_A, C, B and N_D and the same denominators;
    # with one side B, C and the denominators are views of the problem's
    # and of ``denom``
    L = np.empty((2, sides, m, m))
    np.subtract(np.diag(a), p.A, out=L[1, 0])
    B, C, N_D = p.B, p.C, np.diag(d) - p.D
    if dual:
        L[1, 1] = L[1, 0].T
        B, C, N_D, denom = np.array((B, C.T)), np.array((C, B.T)), np.array((N_D, N_D.T)), np.array((denom, denom))
    else:
        B, C, N_D, denom = B[None], C[None], N_D[None], denom[None]
    # each side's equation's coefficient 1-norms, one column per side
    norms = np.array([(nA, nB, nC, nD), (nD, nC, nB, nA)][:sides]).T[:, :, None]
    screen = tol + 8 * (m + n + 2) * EPS
    tau = sign_tol(p)
    longest = max(_BLOCK, min(_MAX_BLOCK, (_BUDGET // (8 * sides * m * n) - 1) // 3))
    # Xs[0, i] is side i's last iterate of the previous block, Xs[j, i] its
    # j-th successor and, in a block of b steps, Xs[b + j, i] its fused
    # residual.  Step j sums the numerator T(Xs[j, i]) in Ts[j - 1, i], where
    # its product writes X C X, and writes N_A X to Ts[j, i], which no step
    # reads before the next one writes it.  T is the numerator of the
    # current iterate; each step reads it before it writes the next one, so
    # T(0) can start in Ts[0].  Xs[0] starts at X_0 = 0; every other slab is
    # written before it is read.
    Xs = np.empty((2 * longest + 1, sides, m, n))
    Xs[0] = 0.0
    Ts = np.empty((longest + 1, sides, m, n))
    # the screen's matrix-vector sums of a block, one column per iterate and
    # fused residual, and row k of ``largest``, their maxima: the 1-norms of
    # a block's iterates, then of their fused residuals, on the k-th side
    # stepped
    sums = np.empty((max(m, n), 2 * longest))
    largest = np.empty((sides, 2 * longest))
    ones_m, ones_n = np.ones(m), np.ones(n)

    def working(k):
        """The (X, P, S, NX) of steps 0 .. longest, the 1-norms and the stepper of the sides at index k.

        Step j sums T(X_j) in S = Ts[j - 1] (step 0 in Ts[0]), and P = [S, NX]
        is the pair of slabs from S on.
        """
        Tw = Ts[:, k]
        T, P = list(Tw), [Tw[t : t + 2] for t in range(longest)]
        slabs = list(zip(Xs[: longest + 1, k], [P[0], *P], [T[0], *T[:-1]], [T[1], *T[1:]]))
        return slabs, norms[:, k], _stepper(L[:, k], B[k], C[k], N_D[k], denom[k])

    # the sides stepped, at index k of the side axis: the pair steps the
    # whole stack, one side its own 2-D slices, which multiply faster than a
    # stack of one
    k, ids = (slice(None), [0, 1]) if dual else (0, [0])
    slabs, scale, steps = working(k)
    T = steps(Xs[0, k], slabs[:1])  # X_0 = 0 / denom, and T(X_0) in Ts[0]
    reports = [None] * sides
    violations = [0] * sides
    live = list(range(sides))
    done, b = 0, _BLOCK
    while live:
        b = min(b, max_iter - done)
        Xw = Xs[:, k]
        X, prev, R = Xw[1 : b + 1], Xw[:b], Xw[b + 1 : 2 * b + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            T = steps(T, slabs[1 : b + 1])
            np.abs(np.subtract(Ts[:b, k], np.multiply(denom[k], X, out=R), out=R), out=R)
            # the 1-norms of X and of the fused residual, both at once: the
            # largest column sum of X, and of Psi, the largest row sum of Z,
            # each step's sums in a column of ``sums``
            for row, i in enumerate(ids):
                both, s = Xs[1 : 2 * b + 1, i], sums[: m if i else n, : 2 * b]
                np.matmul(*((both, ones_n) if i else (ones_m, both)), out=s.T)
                np.maximum.reduce(s, axis=0, out=largest[row, : 2 * b])
            nX, num = largest[: len(ids), :b], largest[: len(ids), b : 2 * b]
            fused = num / np.maximum(_residual_scale(nX, *scale), EPS)
            # the walk visits the steps the screen passes, a nonfinite one and the cap
            visit = (fused <= screen) | ~np.isfinite(fused)
            steady = bool((X >= prev).all())
        visit[:, -1] |= done + b == max_iter
        if not steady or visit.any():
            # each side's first overflowing update before its stop; the
            # earliest ends the run, whichever side and block it falls in
            overflows = []
            for row, i in enumerate(ids):
                if not steady:
                    counted = violations[i] + np.cumsum((Xs[1 : b + 1, i] < Xs[:b, i] - tau).sum(axis=(1, 2)))
                    violations[i] = int(counted[-1])
                for j in np.flatnonzero(visit[row]).tolist():
                    step = done + j + 1
                    if not math.isfinite(fused[row, j]):
                        overflows.append(step + 1)
                        break
                    answer = (Xs[j + 1, i].T if i else Xs[j + 1, i]).copy()
                    res = _residual(p, answer, one_norm(answer), dual=i == 1)[1]
                    if res <= tol or step == max_iter:
                        count = violations[i] if steady else int(counted[j])
                        reports[i] = OracleReport(answer, step, res <= tol, res, count)
                        live.remove(i)
                        break
            if overflows:
                raise IterationBreakdown(f"nonfinite fixed-point update at step {min(overflows)}")
        done += b
        # the next block ends _AHEAD steps past the earliest stop this one
        # predicts: a live side whose fused residual grew at no step and
        # shrank from r_1 to r_b above the screen meets it
        # (b - 1) log(r_b / screen) / log(r_1 / r_b) steps on; any other
        # counts _BLOCK
        ahead = math.inf
        grew = (fused[:, 1:] > fused[:, :-1]).any(axis=1).tolist()
        for i, first, last, up in zip(ids, fused[:, 0].tolist(), fused[:, -1].tolist(), grew):
            if i in live:
                if not up and b > 1 and last > screen and first / last > 1.0:
                    left = (b - 1) * math.log(last / screen) / math.log(first / last)
                    ahead = min(ahead, math.ceil(left) + _AHEAD)
                else:
                    ahead = min(ahead, _BLOCK)
        if len(ids) > len(live) == 1:  # the survivor steps alone
            k, ids = live[0], live.copy()
            slabs, scale, steps = working(k)
            T = Ts[b - 1, k]
        Xs[0, k] = Xs[b, k]
        b = min(max(ahead, _MIN_BLOCK), longest)
    return reports


def fixed_point_solve(p: MareProblem, tol: float = _TOL, max_iter: int = _MAX_ITER) -> OracleReport:
    """Iterate the monotone fixed-point map from X = 0.

    Stops when the normalized primal residual (``residual_primal``) drops
    to ``tol``; returns a report with ``converged=False`` when the cap is
    reached first (the last iterate and its exact residual are attached).
    Each step is screened with the fused residual ``T(X) - (a_i + d_j) X``,
    normalized as ``residual_primal`` does, by the same ``_residual_scale``
    of the coefficient 1-norms; only where that value is within ``tol``
    plus its rounding slack, and at the cap, is the exact residual
    computed, and it alone decides the stop and fills ``final_residual``.  The slack
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
    monotonicity check are taken once per block of steps, sized as the
    module docstring says (the last block is cut at ``max_iter``), and the
    steps they pick are then read in step order; the steps computed past
    the stop are discarded and not counted.  The returned ``phi`` is a copy
    that owns its memory.  This is the one-side call of ``_fixed_point``,
    the core that also advances the primal and the dual as one stack for
    ``solve --method fixed-point``; on one side it steps 2-D arrays.

    Entrywise monotonicity is checked at every step to the problem's sign
    tolerance and violations are counted through the returned step.
    Raises InvalidParameters for a negative, NaN or infinite ``tol`` or a
    ``max_iter`` that is not an integer or is below 1, SingularMatrix when
    some ``a_i + d_j`` does not exceed the pivot tolerance of K,
    ``(m + n) eps ||K||_1``, since the splitting then divides by (nearly)
    zero, and IterationBreakdown naming the first step whose update
    overflows (the fused residual is not finite), as when K is not an
    M-matrix and the iterates diverge.  Overflow inside a block is not
    warned about, since look-ahead steps after it overflow too; the
    breakdown step is the one a step-by-step loop would report.
    """
    (report,) = _fixed_point(p, tol, max_iter, dual=False)
    return report


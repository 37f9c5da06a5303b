"""Dense real linear-algebra kernels for the Riccati solver stack.

All routines work on dense float64 arrays and are pure functions of their
inputs with no module state, so concurrent use is safe.  Only the kernels
that carry a tolerance contract numpy does not offer are written here: the
row-pivoted LU with its pivot record, the certified Perron root of a
nonnegative matrix, and the complete-pivot rank and kernel.  Every
"singular or not" judgment is made against a scale-aware pivot threshold,
because the problems this package targets sit deliberately on the
singular/nonsingular boundary.  General eigenvalues come from LAPACK
through ``np.linalg.eigvals``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ShapeMismatch, SingularMatrix

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array (row-major copy)."""
    M = np.array(a, dtype=np.float64, order="C")
    if M.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {M.shape}")
    if M.size == 0:
        raise ShapeMismatch(f"{name} must have positive dimensions")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def as_square(a, name: str = "matrix") -> np.ndarray:
    M = as_matrix(a, name)
    if M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {M.shape}")
    return M


def one_norm(a) -> float:
    """Matrix 1-norm (max absolute column sum); plain sum of |.| for vectors."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim <= 1:
        return float(np.abs(arr).sum())
    return float(np.abs(arr).sum(axis=0).max())


def inf_norm(a) -> float:
    """Matrix infinity-norm (max absolute row sum); max |.| for vectors."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim <= 1:
        return float(np.abs(arr).max()) if arr.size else 0.0
    return float(np.abs(arr).sum(axis=1).max())


def pivot_tol(M) -> float:
    """Scale-aware singularity threshold: dim * eps * ||M||_1."""
    M = np.asarray(M, dtype=np.float64)
    return M.shape[0] * EPS * one_norm(M)


def rank_tol(M) -> float:
    """Rank-decision threshold: max(dim) * eps * ||M||_1."""
    M = np.asarray(M, dtype=np.float64)
    return max(M.shape) * EPS * one_norm(M)


# ---------------------------------------------------------------------------
# LU factorization with partial pivoting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Row-pivoted LU factors of a square matrix.

    ``lower @ upper`` reconstructs the input with its rows permuted by
    ``perm`` (i.e. ``M[perm] ~= lower @ upper``).  ``smallest_pivot`` is the
    minimum absolute diagonal of ``upper``; the matrix is flagged singular
    when that pivot does not exceed ``tol``.
    """

    perm: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    smallest_pivot: float
    tol: float

    @property
    def singular(self) -> bool:
        return self.smallest_pivot <= self.tol


def lu_factor(M) -> Factorization:
    """LU with partial (row) pivoting; never raises on singular input."""
    A = as_square(M)
    nn = A.shape[0]
    tol = pivot_tol(A)
    U = A.copy()
    perm = np.arange(nn)
    for k in range(nn - 1):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if p != k:
            U[[k, p]] = U[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        piv = U[k, k]
        if piv != 0.0:
            U[k + 1 :, k] /= piv
            U[k + 1 :, k + 1 :] -= np.outer(U[k + 1 :, k], U[k, k + 1 :])
        else:
            U[k + 1 :, k] = 0.0
    smallest = float(np.abs(np.diag(U)).min())
    L = np.tril(U, -1) + np.eye(nn)
    return Factorization(perm, L, np.triu(U), smallest, tol)


def _substitute(fact: Factorization, rhs: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Forward/back substitution with an explicit diagonal for ``upper``."""
    L, U, perm = fact.lower, fact.upper, fact.perm
    nn = L.shape[0]
    y = rhs[perm].astype(np.float64, copy=True)
    for i in range(1, nn):
        y[i] -= L[i, :i] @ y[:i]
    x = y
    for i in range(nn - 1, -1, -1):
        if i + 1 < nn:
            x[i] -= U[i, i + 1 :] @ x[i + 1 :]
        x[i] /= diag[i]
    return x


def lu_solve(fact: Factorization, rhs) -> np.ndarray:
    """Solve with precomputed factors; raises SingularMatrix if flagged."""
    if fact.singular:
        raise SingularMatrix(
            f"matrix is singular to tolerance (pivot {fact.smallest_pivot:.3e} <= {fact.tol:.3e})"
        )
    b = np.asarray(rhs, dtype=np.float64)
    vector = b.ndim == 1
    B = b.reshape(-1, 1) if vector else b
    if B.shape[0] != fact.lower.shape[0]:
        raise ShapeMismatch(
            f"rhs has {B.shape[0]} rows, factorization expects {fact.lower.shape[0]}"
        )
    X = _substitute(fact, B, np.diag(fact.upper))
    return X[:, 0] if vector else X


def lu_solve_regularized(fact: Factorization, rhs, floor: float) -> np.ndarray:
    """Substitution with tiny pivots replaced by ±floor (inverse iteration)."""
    b = np.asarray(rhs, dtype=np.float64)
    vector = b.ndim == 1
    B = b.reshape(-1, 1) if vector else b
    diag = np.diag(fact.upper).copy()
    small = np.abs(diag) < floor
    diag[small] = np.where(diag[small] < 0, -floor, floor)
    X = _substitute(fact, B, diag)
    return X[:, 0] if vector else X


def solve_linear(M, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` by row-pivoted LU.

    Raises SingularMatrix when the smallest pivot falls at or below the
    scale-aware threshold ``pivot_tol(M)``.
    """
    return lu_solve(lu_factor(M), rhs)


# ---------------------------------------------------------------------------
# Spectral radius of entrywise-nonnegative matrices
# ---------------------------------------------------------------------------


def squaring_bounds(M: np.ndarray, max_squarings: int = 80):
    """Yield two-sided bounds ``(lo, hi)`` on rho(M), tightening each time.

    M must be nonnegative with a positive diagonal.  Uses repeated squaring
    with 1-norm rescaling.  For any k, max_i (M^k)_ii <= rho(M)^k <=
    ||M^k||_1, and with k = 2^j both ends close in geometrically in j, even
    for defective dominant eigenvalues.  The first pair costs no matrix
    product and each later one a single squaring, done lazily only when
    the consumer asks for it, so a caller that needs only to know which
    side of a threshold rho lies on stops as soon as the bounds settle it.
    Squaring may underflow the rescaled iterate to exact zero once the
    transient (nilpotent) part dominates; the bounds reached by then are
    already tight, so the generator just stops there.
    """
    N = M.copy()
    log_scale = 0.0  # sum of 2^{-i} log t_i accumulated so far
    weight = 1.0
    for _ in range(max_squarings):
        t = one_norm(N)
        if t <= 0.0:
            return
        log_scale += weight * math.log(t)
        N = N / t
        lo = math.exp(log_scale + weight * math.log(max(np.diag(N).max(), 5e-324)))
        hi = math.exp(log_scale)  # ||N||_1 == 1 after scaling
        yield lo, hi
        N = N @ N
        weight *= 0.5


def perron_shift(P) -> tuple[np.ndarray, float]:
    """``(P + c I, c)`` with ``c = 1 + max diag(P)`` for nonnegative square P.

    For nonnegative matrices every eigenvalue satisfies |lam + c| <= rho + c
    with equality only at the Perron root, so the shift makes that root
    strictly dominant and gives the result the positive diagonal that
    ``squaring_bounds`` needs; rho(P) = rho(P + c I) - c.
    """
    A = as_square(P, "P")
    if (A < 0).any():
        raise ValueError("P must be entrywise nonnegative")
    c = 1.0 + float(np.diag(A).max())
    return A + c * np.eye(A.shape[0]), c


def _radius_bounds_by_squaring(M: np.ndarray, rel_width: float = 1e-15):
    """Last pair of ``squaring_bounds(M)``, stopping once its width is <= rel_width."""
    lo = hi = None
    for lo, hi in squaring_bounds(M):
        if hi - lo <= rel_width * max(1.0, lo):
            break
    return lo, hi


def spectral_radius_nonneg(P, tol: float = 1e-10, max_iter: int = 10000) -> float:
    """Perron root of an entrywise-nonnegative square matrix, to full accuracy.

    Works on the diagonally shifted matrix ``M = P + c I`` of
    ``perron_shift``.  Certified bound first, power iteration only as a
    fallback: ``squaring_bounds(M)`` is consumed until its relative width
    is at most 1e-15 (about 53 squarings on a typical input; accurate to a
    few ulps, also for a defective dominant eigenvalue), and the midpoint
    is returned when the bounds closed to a relative width of 1e-9.  Only
    when they stay loose does power iteration run; it declares convergence
    when successive Rayleigh estimates differ by at most ``tol``, and
    raises NoConvergence when it does not within ``max_iter`` steps.

    A caller that only needs to know on which side of a threshold the root
    lies (as ``mstruct.zm_kind`` does) should read ``squaring_bounds``
    directly and stop as soon as they settle it.
    """
    M, c = perron_shift(P)
    n = M.shape[0]

    lo, hi = _radius_bounds_by_squaring(M)
    if lo is not None and hi - lo <= 1e-9 * max(1.0, lo):
        return max(0.5 * (lo + hi) - c, 0.0)

    x = np.full(n, 1.0 / n)
    lam = None
    converged = False
    for _ in range(max_iter):
        y = M @ x
        new_lam = float(x @ y) / float(x @ x)
        x = y / y.sum()  # y > 0 since diag(M) >= c > 0
        if lam is not None and abs(new_lam - lam) <= tol:
            lam = new_lam
            converged = True
            break
        lam = new_lam

    if not converged:
        raise NoConvergence(
            f"power iteration did not meet {tol:.1e} within {max_iter} steps "
            "and the squaring bounds failed to tighten"
        )
    return max(lam - c, 0.0)


# ---------------------------------------------------------------------------
# Numerical rank and kernel extraction
# ---------------------------------------------------------------------------


def _full_pivot_echelon(M: np.ndarray):
    """Gaussian elimination with complete (row+column) pivoting.

    Returns ``(U, row_perm, col_perm, pivots)`` where ``pivots`` holds the
    absolute pivot values in elimination order.
    """
    U = M.astype(np.float64, copy=True)
    q, r = U.shape
    rp = np.arange(q)
    cp = np.arange(r)
    kmax = min(q, r)
    pivots = np.zeros(kmax)
    for k in range(kmax):
        sub = np.abs(U[k:, k:])
        flat = int(np.argmax(sub))
        i = k + flat // (r - k)
        j = k + flat % (r - k)
        if i != k:
            U[[k, i]] = U[[i, k]]
            rp[[k, i]] = rp[[i, k]]
        if j != k:
            U[:, [k, j]] = U[:, [j, k]]
            cp[[k, j]] = cp[[j, k]]
        piv = U[k, k]
        pivots[k] = abs(piv)
        if piv == 0.0:
            break
        U[k + 1 :, k :] -= np.outer(U[k + 1 :, k] / piv, U[k, k:])
        U[k + 1 :, k] = 0.0
    return U, rp, cp, pivots


def numerical_rank(M, tol: float) -> int:
    """Count of pivots exceeding ``tol`` in a pivoted elimination."""
    A = as_matrix(M)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _, _, _, pivots = _full_pivot_echelon(A)
    return int((pivots > tol).sum())


def rank_and_margin(M, tol: float):
    """Numerical rank plus the distance of the closest pivot to ``tol``.

    A small margin means the accept/reject decision for some pivot was
    borderline, so the rank (and anything derived from it) is fragile.
    """
    A = as_matrix(M)
    _, _, _, pivots = _full_pivot_echelon(A)
    rank = int((pivots > tol).sum())
    margin = float(np.abs(pivots - tol).min()) if pivots.size else math.inf
    return rank, margin


def kernel_vector(M, tol: float) -> np.ndarray:
    """One unit-2-norm kernel vector of a square rank-deficient matrix.

    Back-substitutes the first free column of the fully pivoted echelon
    form.  The caller is responsible for checking that the kernel is
    one-dimensional; this routine just requires rank < n.
    """
    A = as_square(M)
    n = A.shape[0]
    U, _, cp, pivots = _full_pivot_echelon(A)
    rank = int((pivots > tol).sum())
    if rank >= n:
        raise SingularMatrix("matrix has full numerical rank; no kernel vector")
    x_perm = np.zeros(n)
    x_perm[rank] = 1.0
    rhs = -U[:rank, rank]
    for i in range(rank - 1, -1, -1):
        x_perm[i] = (rhs[i] - U[i, i + 1 : rank] @ x_perm[i + 1 : rank]) / U[i, i]
    x = np.zeros(n)
    x[cp] = x_perm
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# Spectral radius of a general real matrix
# ---------------------------------------------------------------------------


def spectral_radius(M) -> float:
    """Spectral radius of a general real matrix (LAPACK eigenvalues)."""
    return float(np.abs(np.linalg.eigvals(as_square(M))).max())

"""Dense real linear-algebra kernels for the Riccati solver stack.

All routines work on dense float64 arrays and are pure functions of their
inputs with no module state, so concurrent use is safe.  Only the kernels
that carry a tolerance contract numpy does not offer are written here: the
semipositivity certificate of ``m_solve`` for matrices that the theory
makes nonsingular M-matrices, the row-pivoted LU whose pivot record judges
singularity against a scale-aware threshold where a matrix may sit on that
boundary, the certified Perron root of a nonnegative matrix, and the
complete-pivot rank and kernel.  Every solve runs in LAPACK through
``np.linalg.solve``, and general eigenvalues through ``np.linalg.eigvals``.
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
    """Pivot record of a square matrix: its row-pivoted LU factors.

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
        p = k + int(abs(U[k:, k]).argmax())
        if p != k:
            U[[k, p]] = U[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        piv = U[k, k]
        col = U[k + 1 :, k]
        if piv != 0.0:
            col /= piv
            U[k + 1 :, k + 1 :] -= col[:, None] * U[k, k + 1 :]
        else:
            col[:] = 0.0
    smallest = float(abs(U.diagonal()).min())
    L = np.tril(U, -1) + np.eye(nn)
    return Factorization(perm, L, np.triu(U), smallest, tol)


def _as_rhs(rhs, rows: int) -> np.ndarray:
    """``rhs`` as a float64 vector or matrix with ``rows`` rows."""
    b = np.asarray(rhs, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != rows:
        raise ShapeMismatch(f"rhs of shape {b.shape} does not fit a matrix of order {rows}")
    return b


def lu_solve_regularized(fact: Factorization, rhs, floor: float) -> np.ndarray:
    """Solve with the factors, tiny pivots of ``upper`` replaced by ±floor (inverse iteration).

    Both factors are triangular with nonzero diagonals and ``lower`` has
    unit diagonal over entries of modulus <= 1, so LAPACK's partial
    pivoting makes no row interchange on either.
    """
    b = _as_rhs(rhs, fact.lower.shape[0])
    U = fact.upper.copy()
    diag = U.diagonal()
    small = np.flatnonzero(abs(diag) < floor)
    U[small, small] = np.where(diag[small] < 0, -floor, floor)
    return np.linalg.solve(U, np.linalg.solve(fact.lower, b[fact.perm]))


def solve_linear(M, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` for a general square M (LAPACK ``gesv``).

    Raises SingularMatrix when the smallest pivot of ``lu_factor(M)`` falls
    at or below the scale-aware threshold ``pivot_tol(M)``.
    """
    A = as_square(M)
    fact = lu_factor(A)
    if fact.singular:
        raise SingularMatrix(
            f"matrix is singular to tolerance (pivot {fact.smallest_pivot:.3e} <= {fact.tol:.3e})"
        )
    return np.linalg.solve(A, _as_rhs(rhs, A.shape[0]))


def m_solve(M, rhs):
    """``(X, dist, certified)``: one LAPACK solve of ``M [X x] = [rhs 1]``.

    A Z-matrix is a nonsingular M-matrix exactly when some x > 0 has
    M x > 0, so M is certified when it is a Z-matrix, x > 0 and the
    computed M x exceeds its rounding margin (n + 2) eps |M| x.  Then
    ||M^{-1}||_inf = max(x), so ``dist = 1 / max|x|`` is a scale-aware
    distance to singularity.  Raises SingularMatrix when LAPACK finds M
    exactly singular.
    """
    A = as_square(M)
    n = A.shape[0]
    b = _as_rhs(rhs, n)
    try:
        sol = np.linalg.solve(A, np.column_stack([b, np.ones(n)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is exactly singular ({exc})") from exc
    x = sol[:, -1]
    X = sol[:, 0] if b.ndim == 1 else sol[:, :-1]
    z_matrix = (A - np.diag(np.diag(A)) <= 0.0).all()
    certified = bool(z_matrix and (x > 0.0).all() and (A @ x > (n + 2) * EPS * (np.abs(A) @ x)).all())
    return X, 1.0 / float(np.abs(x).max()), certified


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


def spectral_radius_nonneg(P) -> float:
    """Perron root of an entrywise-nonnegative square matrix, to full accuracy.

    Works on the diagonally shifted matrix ``M = P + c I`` of
    ``perron_shift``: ``squaring_bounds(M)`` is consumed until its relative
    width is at most 1e-15 (about 53 squarings on a typical input; accurate
    to a few ulps, also for a defective dominant eigenvalue), and the
    midpoint is returned when the bounds closed to a relative width of
    1e-9.  Bounds that stay looser raise NoConvergence.

    A caller that only needs to know on which side of a threshold the root
    lies (as ``mstruct.zm_kind`` does) should read ``squaring_bounds``
    directly and stop as soon as they settle it.
    """
    M, c = perron_shift(P)
    lo, hi = 0.0, math.inf
    for lo, hi in squaring_bounds(M):
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    if not hi - lo <= 1e-9 * max(1.0, lo):
        raise NoConvergence(f"Perron squaring bounds [{lo:.6e}, {hi:.6e}] failed to tighten")
    return max(0.5 * (lo + hi) - c, 0.0)


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
        U[k + 1 :, k :] -= (U[k + 1 :, k] / piv)[:, None] * U[k, k:]
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


def rank_and_kernel(M, tol: float):
    """Numerical rank of a square matrix plus one kernel vector (None at full rank).

    One complete-pivot elimination serves both, so a caller that checks the
    rank before it needs the kernel does not eliminate twice.  The kernel
    vector is the one ``kernel_vector`` returns.
    """
    A = as_square(M)
    n = A.shape[0]
    U, _, cp, pivots = _full_pivot_echelon(A)
    rank = int((pivots > tol).sum())
    if rank >= n:
        return rank, None
    x_perm = np.zeros(n)
    x_perm[rank] = 1.0
    rhs = -U[:rank, rank]
    for i in range(rank - 1, -1, -1):
        x_perm[i] = (rhs[i] - U[i, i + 1 : rank] @ x_perm[i + 1 : rank]) / U[i, i]
    x = np.zeros(n)
    x[cp] = x_perm
    return rank, x / np.linalg.norm(x)


def kernel_vector(M, tol: float) -> np.ndarray:
    """One unit-2-norm kernel vector of a square rank-deficient matrix.

    Back-substitutes the first free column of the fully pivoted echelon
    form.  The caller is responsible for checking that the kernel is
    one-dimensional; this routine just requires rank < n.
    """
    _, x = rank_and_kernel(M, tol)
    if x is None:
        raise SingularMatrix("matrix has full numerical rank; no kernel vector")
    return x


# ---------------------------------------------------------------------------
# Spectral radius of a general real matrix
# ---------------------------------------------------------------------------


def spectral_radius(M) -> float:
    """Spectral radius of a general real matrix (LAPACK eigenvalues)."""
    return float(np.abs(np.linalg.eigvals(as_square(M))).max())

"""Dense real linear-algebra kernels for the Riccati solver stack.

All routines work on small dense float64 arrays (desk scale, dimensions in
the tens).  They are pure functions of their inputs and hold no module
state, so concurrent use is safe.  The emphasis throughout is on explicit,
checkable tolerance semantics: every "singular or not" judgment is made
against a scale-aware pivot threshold, because the problems this package
targets sit deliberately on the singular/nonsingular boundary.
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


def _radius_bounds_by_squaring(M: np.ndarray, rel_width: float = 1e-15, max_squarings: int = 80):
    """Two-sided bounds on rho(M) for nonnegative M with positive diagonal.

    Uses repeated squaring with 1-norm rescaling.  For any k,
    max_i (M^k)_ii <= rho(M)^k <= ||M^k||_1, and with k = 2^j both ends
    close in geometrically in j, even for defective dominant eigenvalues.
    Squaring may underflow the rescaled iterate to exact zero once the
    transient (nilpotent) part dominates; the bounds reached by then are
    already tight, so the loop just stops there.
    """
    N = M.copy()
    log_scale = 0.0  # sum of 2^{-i} log t_i accumulated so far
    weight = 1.0
    lo = hi = None
    for _ in range(max_squarings):
        t = one_norm(N)
        if t <= 0.0:
            break
        log_scale += weight * math.log(t)
        N = N / t
        lo = math.exp(log_scale + weight * math.log(max(np.diag(N).max(), 5e-324)))
        hi = math.exp(log_scale)  # ||N||_1 == 1 after scaling
        if hi - lo <= rel_width * max(1.0, lo):
            break
        N = N @ N
        weight *= 0.5
    return lo, hi


def spectral_radius_nonneg(P, tol: float = 1e-10, max_iter: int = 10000, certify: bool = True) -> float:
    """Perron root of an entrywise-nonnegative square matrix.

    Works on the diagonally shifted matrix ``M = P + c I`` with
    ``c = 1 + max diag(P)``: for nonnegative matrices every eigenvalue
    satisfies |lam + c| <= rho + c with equality only at the Perron root,
    so the shift makes that root strictly dominant and gives ``M`` the
    positive diagonal the squaring bounds need.

    Certified bound first, power iteration only as a fallback: with
    ``certify=True`` the two-sided bound from repeated squaring (accurate
    to a few ulps, also for a defective dominant eigenvalue) is computed
    first, and its midpoint is returned when the bounds close to a relative
    width of 1e-9.  Only when they stay loose does power iteration run;
    it declares convergence when successive Rayleigh estimates differ by
    at most ``tol``, and raises NoConvergence when it does not within
    ``max_iter`` steps.  With ``certify=False`` the raw power estimate is
    returned and a stalled iteration raises NoConvergence.
    """
    A = as_square(P, "P")
    if (A < 0).any():
        raise ValueError("P must be entrywise nonnegative")
    n = A.shape[0]
    c = 1.0 + float(np.diag(A).max())
    M = A + c * np.eye(n)

    if certify:
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
        why = " and the squaring bounds failed to tighten" if certify else ""
        raise NoConvergence(f"power iteration did not meet {tol:.1e} within {max_iter} steps{why}")
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
# Small-scale Sylvester solve via Kronecker expansion
# ---------------------------------------------------------------------------

_SYLVESTER_CAP = 2500


def _kron_operator(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    m = A.shape[0]
    n = D.shape[0]
    return np.kron(np.eye(n), A) + np.kron(D.T, np.eye(m))


class SylvesterSolver:
    """Prefactored operator for repeated solves of ``A X + X D = Q``.

    Expands to the Kronecker system ``(I (x) A + D^T (x) I) vec(X) = vec(Q)``
    and reuses one LU factorization across calls.  Desk-scale only
    (``m * n <= 2500``).
    """

    def __init__(self, A, D):
        self.A = as_square(A, "A")
        self.D = as_square(D, "D")
        self.m = self.A.shape[0]
        self.n = self.D.shape[0]
        if self.m * self.n > _SYLVESTER_CAP:
            raise ValueError(f"Sylvester solve limited to m*n <= {_SYLVESTER_CAP}")
        fact = lu_factor(_kron_operator(self.A, self.D))
        if fact.singular:
            raise SingularMatrix(
                "Sylvester operator is singular to tolerance "
                "(an eigenvalue of A plus an eigenvalue of D is ~0)"
            )
        self._fact = fact

    def solve(self, Q) -> np.ndarray:
        Qm = as_matrix(Q, "Q")
        if Qm.shape != (self.m, self.n):
            raise ShapeMismatch(f"Q must be {self.m}x{self.n}, got {Qm.shape}")
        x = lu_solve(self._fact, Qm.flatten(order="F"))
        return x.reshape((self.m, self.n), order="F")


def sylvester_solve(A, D, Q) -> np.ndarray:
    """Solve ``A X + X D = Q`` for X (m x n) via the Kronecker expansion."""
    return SylvesterSolver(A, D).solve(Q)


# ---------------------------------------------------------------------------
# General real eigenvalues: Hessenberg reduction + shifted QR
# ---------------------------------------------------------------------------

_EIG_CAP = 50


def _hessenberg(A: np.ndarray) -> np.ndarray:
    H = A.astype(np.float64, copy=True)
    n = H.shape[0]
    for k in range(n - 2):
        x = H[k + 1 :, k]
        sigma = float(np.linalg.norm(x))
        if sigma == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(sigma, x[0]) if x[0] != 0 else sigma
        v /= np.linalg.norm(v)
        H[k + 1 :, :] -= 2.0 * np.outer(v, v @ H[k + 1 :, :])
        H[:, k + 1 :] -= 2.0 * np.outer(H[:, k + 1 :] @ v, v)
        H[k + 2 :, k] = 0.0
    return H


def _qr_hessenberg_step(H: np.ndarray, lo: int, hi: int, mu: complex) -> None:
    """One explicit shifted QR sweep on the active window [lo, hi]."""
    for i in range(lo, hi + 1):
        H[i, i] -= mu
    rots = []
    for i in range(lo, hi):
        a = H[i, i]
        b = H[i + 1, i]
        r = math.hypot(abs(a), abs(b))
        if r == 0.0:
            G = np.eye(2, dtype=np.complex128)
        else:
            G = np.array([[np.conj(a) / r, np.conj(b) / r], [-b / r, a / r]])
        H[i : i + 2, i : hi + 1] = G @ H[i : i + 2, i : hi + 1]
        rots.append(G)
    for i in range(lo, hi):
        GH = rots[i - lo].conj().T
        H[lo : i + 2, i : i + 2] = H[lo : i + 2, i : i + 2] @ GH
    for i in range(lo, hi + 1):
        H[i, i] += mu


def eigenvalues(M, max_iter_per_eig: int = 60) -> np.ndarray:
    """All eigenvalues of a real square matrix, as a complex array.

    Householder Hessenberg reduction followed by shifted QR with the
    Wilkinson shift, run in complex arithmetic so complex-conjugate pairs
    deflate as ordinary 1x1 blocks.  Scoped to order <= 50; accuracy for
    defective eigenvalues is limited by their intrinsic conditioning.
    """
    A = as_square(M)
    n = A.shape[0]
    if n > _EIG_CAP:
        raise ValueError(f"eigenvalues() limited to matrices of order <= {_EIG_CAP}")
    if n == 1:
        return A[0, 0].astype(np.complex128).reshape(1)
    H = _hessenberg(A).astype(np.complex128)
    floor = EPS * max(one_norm(A), 1.0)
    eigs: list[complex] = []
    p = n - 1
    iters = 0
    while p >= 0:
        if p == 0:
            eigs.append(complex(H[0, 0]))
            break
        for i in range(1, p + 1):
            bound = EPS * (abs(H[i - 1, i - 1]) + abs(H[i, i]))
            if abs(H[i, i - 1]) <= max(bound, floor):
                H[i, i - 1] = 0.0
        if H[p, p - 1] == 0.0:
            eigs.append(complex(H[p, p]))
            p -= 1
            iters = 0
            continue
        if p == 1 or H[p - 1, p - 2] == 0.0:
            a, b = H[p - 1, p - 1], H[p - 1, p]
            c, d = H[p, p - 1], H[p, p]
            half = 0.5 * (a + d)
            disc = np.sqrt(complex(half * half - (a * d - b * c)))
            eigs.extend((complex(half + disc), complex(half - disc)))
            p -= 2
            iters = 0
            continue
        lo = p - 1
        while lo > 0 and H[lo, lo - 1] != 0.0:
            lo -= 1
        iters += 1
        if iters > max_iter_per_eig:
            raise NoConvergence("shifted QR failed to deflate an eigenvalue")
        a, b = H[p - 1, p - 1], H[p - 1, p]
        c, d = H[p, p - 1], H[p, p]
        half = 0.5 * (a + d)
        disc = np.sqrt(complex(half * half - (a * d - b * c)))
        mu1, mu2 = half + disc, half - disc
        mu = mu1 if abs(mu1 - d) <= abs(mu2 - d) else mu2
        if iters % 12 == 0:
            # stagnation: perturb with an ad-hoc real shift
            mu = H[p, p] + 1.1371 * abs(H[p, p - 1])
        _qr_hessenberg_step(H, lo, p, mu)
    return np.array(eigs, dtype=np.complex128)


def spectral_radius(M) -> float:
    """Spectral radius of a general real matrix (shifted-QR eigenvalues)."""
    return float(np.abs(eigenvalues(M)).max())

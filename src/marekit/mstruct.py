"""Structural analysis of Z- and M-matrices.

Classification into {not-Z, Z-but-not-M, singular M, nonsingular M},
regularity witnesses (a positive vector v with M v >= 0), irreducibility,
one-dimensional kernel extraction with left/right vectors and their drift,
and the zero-eigenvalue multiplicity structure needed to decide whether a
singular problem is well posed.

All judgments are made to explicit scale-aware tolerances; the interesting
inputs sit exactly on the singular boundary, so those tolerances are part
of the contract, not an afterthought.

Two entry points classify.  ``classify_zm`` computes the Perron root of
the split to full accuracy (Collatz-Wielandt bounds from a few LAPACK
solves, ``linalg.spectral_radius_nonneg``) and reports it with the gap;
``zm_kind`` returns only the kind and stops reading the squaring bounds as
soon as they settle it, which for a matrix far from singular is before the
first matrix product.  Both give the same kind.  The phase-one simplex
behind the regularity witness selects and eliminates with array
operations; only the Bland tie rule among the eligible rows is a Python
loop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbiguousKernel, NoConvergence, NotSingular, SingularMatrix
from .linalg import EPS, as_square, inf_norm, one_norm


class MatrixKind(enum.Enum):
    NOT_Z = "NotZ"
    Z_NOT_M = "ZNotM"
    SINGULAR_M = "SingularM"
    NONSINGULAR_M = "NonsingularM"


def class_tol(M) -> float:
    """Classification tolerance for the gap s - rho(B).

    The dim * eps * ||M||_1 term covers rounding in the split itself; the
    1e-13 relative floor covers the accuracy of the computed Perron root.
    Its bounds close to a width of 1e-15 (rho + c), c = 1 + max diag(B),
    but they are rounded: the Collatz-Wielandt root and the squaring root
    differ by up to about 2e-15 (rho + c) on the acceptance suites.
    """
    M = np.asarray(M, dtype=np.float64)
    return max(M.shape[0] * EPS, 1e-13) * max(1.0, one_norm(M))


def null_tol(K) -> float:
    """Residual tolerance for kernel vectors of K."""
    return 1e-10 * one_norm(K)


@dataclass(frozen=True)
class MClassification:
    """Outcome of the Z/M split ``M = s I - B`` with ``B >= 0``.

    ``gap = s - rho(B)``: positive beyond tolerance means nonsingular
    M-matrix, zero to tolerance means singular M-matrix, negative means a
    Z-matrix that is not an M-matrix.
    """

    kind: MatrixKind
    s: float
    rho_B: float
    gap: float
    tol: float


def _zm_split(M):
    """``(s, B, tol)`` of the split ``M = s I - B`` with s = max diagonal.

    ``B`` is None when M has a positive off-diagonal entry (not a
    Z-matrix); otherwise it is entrywise nonnegative.
    """
    A = as_square(M)
    s = float(np.diag(A).max())
    tol = class_tol(A)
    if (A - np.diag(np.diag(A)) > 0.0).any():
        return s, None, tol
    B = s * np.eye(A.shape[0]) - A
    # rounding can leave -0.0 or eps-size negatives on the diagonal
    B[B < 0] = 0.0
    return s, B, tol


def classify_zm(M) -> MClassification:
    """Classify a square matrix via the shift split with s = max diagonal.

    Computes rho(B) to full accuracy with ``linalg.spectral_radius_nonneg``
    (Collatz-Wielandt bounds, or squaring where B is reducible with a Perron
    vector that has zero entries), so ``rho_B`` and ``gap`` are exact to the
    certified Perron root.  Callers that read only ``kind`` should use
    ``zm_kind``, which usually decides from the first squaring bounds.
    """
    s, B, tol = _zm_split(M)
    if B is None:
        return MClassification(MatrixKind.NOT_Z, s, math.nan, math.nan, tol)
    rho = linalg.spectral_radius_nonneg(B)
    gap = s - rho
    if gap > tol:
        kind = MatrixKind.NONSINGULAR_M
    elif gap < -tol:
        kind = MatrixKind.Z_NOT_M
    else:
        kind = MatrixKind.SINGULAR_M
    return MClassification(kind, s, rho, gap, tol)


def zm_kind(M) -> MatrixKind:
    """``classify_zm(M).kind``, decided as soon as the Perron bounds settle it.

    The squaring bounds lo <= rho(B) + c <= hi of ``linalg.squaring_bounds``
    are read one pair at a time: once the gap s - rho(B) is certainly above
    2 tol the matrix is a nonsingular M-matrix, once it is certainly below
    -2 tol it is a Z-matrix that is not an M-matrix.  The factor 2 keeps a
    margin of one tol over the rounding of the bounds, so the verdict
    agrees with ``classify_zm``.  A matrix whose gap stays within that band
    of zero (singular, or nearly so) gets the full ``classify_zm``.  Far
    from singular, as the doubling cross products are, the first pair
    decides and no matrix product is formed at all.
    """
    s, B, tol = _zm_split(M)
    if B is None:
        return MatrixKind.NOT_Z
    P, c = linalg.perron_shift(B)
    for lo, hi in linalg.squaring_bounds(P):
        if s - (hi - c) > 2.0 * tol:
            return MatrixKind.NONSINGULAR_M
        if s - (lo - c) < -2.0 * tol:
            return MatrixKind.Z_NOT_M
    return classify_zm(M).kind


# ---------------------------------------------------------------------------
# Regularity: does some v > 0 satisfy M v >= 0?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    witness: np.ndarray | None


def _phase_one_feasible(G: np.ndarray, h: np.ndarray, max_pivots: int = 20000):
    """Phase-one simplex for the system {x >= 0 : G x >= h}.

    Returns a feasible x, or None when the artificial objective cannot be
    driven to zero.  Bland's rule is used for both the entering and the
    leaving choice, so the method terminates even on the (very degenerate)
    feasibility problems this package produces.  Each pivot does the same
    floating-point operations as a row-by-row tableau update, as array
    operations over the affected rows.
    """
    q, r = G.shape
    n_art = int((h > 0).sum())
    width = r + q + n_art
    T = np.zeros((q + 1, width + 1))
    basis = np.zeros(q, dtype=int)
    art_start = r + q
    ai = 0
    for i in range(q):
        if h[i] > 0:
            T[i, :r] = G[i]
            T[i, r + i] = -1.0  # surplus
            T[i, art_start + ai] = 1.0
            T[i, -1] = h[i]
            basis[i] = art_start + ai
            ai += 1
        else:
            T[i, :r] = -G[i]
            T[i, r + i] = 1.0  # slack after flipping the row
            T[i, -1] = -h[i]
            basis[i] = r + i
    # reduced costs z_j - c_j for min(sum of artificials)
    for i in range(q):
        if basis[i] >= art_start:
            T[-1, :] += T[i, :]
    T[-1, art_start : art_start + n_art] -= 1.0

    tol_piv = 1e-11 * max(1.0, float(np.abs(G).max()), float(np.abs(h).max()))
    for _ in range(max_pivots):
        eligible = np.flatnonzero(T[-1, :width] > tol_piv)
        if eligible.size == 0:
            break
        enter = int(eligible[0])
        rows = np.flatnonzero(T[:q, enter] > tol_piv)
        ratios = T[rows, -1] / T[rows, enter]
        leave = -1
        best = math.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-15 or (abs(ratio - best) <= 1e-15 and (leave < 0 or basis[i] < basis[leave])):
                best = ratio
                leave = i
        if leave < 0:
            return None  # unbounded: cannot happen for a phase-one objective
        T[leave, :] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        nz = np.flatnonzero(col)
        T[nz] -= np.outer(col[nz], T[leave])
        basis[leave] = enter
    else:
        raise NoConvergence("phase-one simplex exceeded its pivot budget")

    if T[-1, -1] > 1e-9 * max(1.0, float(np.abs(h).sum())):
        return None
    x = np.zeros(width)
    for i in range(q):
        x[basis[i]] = T[i, -1]
    return np.maximum(x[:r], 0.0)


def regularity_witness(M, classification: MClassification) -> RegularityReport:
    """Search for a positive v with M v >= 0.

    Nonsingular M-matrices are always regular: v = M^{-1} 1 works because
    the inverse is nonnegative with positive diagonal (``linalg.m_solve``
    certifies v > 0 and M v > 0, or SingularMatrix is raised).  For singular
    M-matrices the feasibility problem {v >= 1, M v >= 0} is solved by a
    phase-one simplex; infeasibility means not regular.
    """
    A = as_square(M)
    if classification.kind == MatrixKind.NONSINGULAR_M:
        v, _, certified = linalg.m_solve(A, np.ones(A.shape[0]))
        if not certified:
            raise SingularMatrix("M^{-1} 1 does not certify a nonsingular M-matrix")
        return RegularityReport(True, v)
    if classification.kind != MatrixKind.SINGULAR_M:
        raise ValueError("regularity is defined for M-matrices only")
    h = -(A @ np.ones(A.shape[0]))
    x = _phase_one_feasible(A, h)
    if x is None:
        return RegularityReport(False, None)
    return RegularityReport(True, 1.0 + x)


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def is_irreducible(M) -> bool:
    """True iff the off-diagonal digraph of M is strongly connected.

    Edge i -> j whenever i != j and M[i, j] != 0.  A 1x1 matrix is
    irreducible by convention.
    """
    A = as_square(M)
    n = A.shape[0]
    if n == 1:
        return True
    adj = A != 0.0
    np.fill_diagonal(adj, False)

    def reaches_all(graph: np.ndarray) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = graph[frontier].any(axis=0) & ~seen
            frontier = list(np.nonzero(nxt)[0])
            seen |= nxt
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


# ---------------------------------------------------------------------------
# Null vectors and drift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullPair:
    """Normalized left (u) and right (v) kernel vectors of a singular K.

    Both are entrywise nonnegative with unit 1-norm.  ``split`` is the
    block split index; ``drift`` is u1.v1 - u2.v2, the quantity whose sign
    separates the noncritical case (nonzero) from the critical one (zero).
    """

    u: np.ndarray
    v: np.ndarray
    split: int
    drift: float

    @property
    def u1(self) -> np.ndarray:
        return self.u[: self.split]

    @property
    def u2(self) -> np.ndarray:
        return self.u[self.split :]

    @property
    def v1(self) -> np.ndarray:
        return self.v[: self.split]

    @property
    def v2(self) -> np.ndarray:
        return self.v[self.split :]


def _oriented_kernel(K: np.ndarray, x: np.ndarray, tol_abs: float) -> np.ndarray:
    """Kernel vector x of K, refined and normalized to a nonnegative unit-1-norm vector."""
    fact = linalg.lu_factor(K)
    floor = max(fact.tol, 1e-300)
    y = linalg.lu_solve_regularized(fact, x, floor)
    ny = float(np.linalg.norm(y))
    if ny > 0 and math.isfinite(ny):
        y = y / ny
        if inf_norm(K @ y) < inf_norm(K @ x):
            x = y
    if x.sum() < 0:
        x = -x
    if x.min() < -tol_abs:
        raise AmbiguousKernel(
            f"kernel vector is not sign-definite (min entry {x.min():.3e})"
        )
    x = np.maximum(x, 0.0)
    return x / x.sum()


def null_pair(K, n: int) -> NullPair:
    """Left/right null vectors of a singular M-matrix K, split at index n.

    Requires a one-dimensional kernel (raises AmbiguousKernel otherwise,
    and NotSingular when K has full numerical rank).  The vectors are
    unique up to scale under that condition; they are returned nonnegative
    with unit 1-norm, tiny negative round-off clamped to zero.
    """
    A = as_square(K)
    size = A.shape[0]
    if not 0 <= n <= size:
        raise ValueError(f"split index {n} outside [0, {size}]")
    rank, x = linalg.rank_and_kernel(A, linalg.rank_tol(A))
    if rank == size:
        raise NotSingular("K has full numerical rank")
    if rank < size - 1:
        raise AmbiguousKernel(f"kernel dimension {size - rank} != 1")
    tol = null_tol(A)
    v = _oriented_kernel(A, x, tol)
    u = _oriented_kernel(A.T, linalg.kernel_vector(A.T, linalg.rank_tol(A.T)), tol)
    if inf_norm(A @ v) > tol or inf_norm(u @ A) > tol:
        raise AmbiguousKernel("kernel residual exceeds tolerance")
    drift = float(u[:n] @ v[:n] - u[n:] @ v[n:])
    return NullPair(u, v, n, drift)


# ---------------------------------------------------------------------------
# Zero-eigenvalue structure (rank of powers)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroEigenStructure:
    """Multiplicity structure of the zero eigenvalue.

    ``geometric_multiplicity`` is the kernel dimension, the algebraic
    multiplicity is the stabilized nullity of increasing powers, and
    ``simple_kernel`` records whether zero has exactly one independent
    eigenvector (and occurs at all).  ``low_rank_margin`` flags that some
    rank decision along the way was within 1e3x of its tolerance, i.e. the
    multiplicities should be treated with suspicion.  ``classify_problem``
    assigns (False, 0, 0, False) to the sign-flipped matrix of a certified
    nonsingular K without eliminating it: that matrix is nonsingular too.
    """

    simple_kernel: bool
    geometric_multiplicity: int
    algebraic_multiplicity: int
    low_rank_margin: bool


def zero_eigen_structure(H) -> ZeroEigenStructure:
    """Geometric/algebraic multiplicity of eigenvalue zero via rank of powers.

    nullity(H^k) grows with k until it stabilizes at the algebraic
    multiplicity; powers are capped at the matrix order.  Each power is
    rescaled to unit norm so the rank tolerance stays meaningful.
    """
    A = as_square(H)
    size = A.shape[0]
    tol = linalg.rank_tol(A)
    rank, margin = linalg.rank_and_margin(A, tol)
    low_margin = margin < 1e3 * tol
    geo = size - rank
    if geo == 0:
        return ZeroEigenStructure(False, 0, 0, low_margin)
    base = A / max(one_norm(A), 1.0)
    P = base.copy()
    nullity = geo
    for _ in range(2, size + 1):
        P = P @ base
        nrm = one_norm(P)
        if nrm == 0.0:
            nullity = size
            break
        P = P / nrm
        tol_k = linalg.rank_tol(P)
        rank_k, margin_k = linalg.rank_and_margin(P, tol_k)
        low_margin = low_margin or margin_k < 1e3 * tol_k
        null_k = size - rank_k
        if null_k <= nullity:
            break
        nullity = null_k
    r = nullity
    return ZeroEigenStructure(geo == 1 and r >= 1, geo, r, low_margin)

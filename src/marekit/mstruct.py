"""Structural analysis of Z- and M-matrices.

Classification into {not-Z, Z-but-not-M, singular M, nonsingular M},
regularity witnesses (a positive vector v with M v >= 0), irreducibility,
one-dimensional kernel extraction with left/right vectors and their drift,
and the zero-eigenvalue multiplicity structure needed to decide whether a
singular problem is well posed.

All judgments are made to explicit scale-aware tolerances; the interesting
inputs sit exactly on the singular boundary, so those tolerances are part
of the contract, not an afterthought.

``classify_zm`` computes the Perron root of the split to full accuracy
(Collatz-Wielandt bounds from a few LAPACK solves,
``linalg.spectral_radius_nonneg``, block by block on a reducible split
whose Perron vector has zero entries) and reports it with the gap.
Irreducibility is ``linalg.irreducible_blocks`` finding one block.

Regularity follows from the same blocks: an M-matrix has a v > 0 with
M v >= 0 exactly when each of its singular irreducible diagonal blocks is
final, that is zero in its rows outside the block.  A coupled singular
block b with left Perron vector u > 0 gives u (M v)_b = u M_b,rest v_rest
< 0 for every v > 0; with every singular block final, their Perron
vectors and one solve on the nonsingular rest build the witness
(``regularity_witness``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AmbiguousKernel, NotSingular, SingularMatrix
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
    Its Collatz-Wielandt bounds close to a width of 1e-15 (rho + c),
    c = 1 + max diag of the matrix or block they bracket, but they are
    rounded: the root and a repeated-squaring reference differ by up to
    about 2e-15 (rho + c) on the acceptance suites.
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


def classify_zm(M) -> MClassification:
    """Classify a square matrix via the shift split with s = max diagonal.

    Computes rho(B) to full accuracy with ``linalg.spectral_radius_nonneg``
    (Collatz-Wielandt bounds, taken block by block where B is reducible
    with a Perron vector that has zero entries), so ``rho_B`` and ``gap``
    are exact to the certified Perron root.
    """
    A = as_square(M)
    s = float(np.diag(A).max())
    tol = class_tol(A)
    if (A - np.diag(np.diag(A)) > 0.0).any():
        return MClassification(MatrixKind.NOT_Z, s, math.nan, math.nan, tol)
    B = s * np.eye(A.shape[0]) - A
    # rounding can leave -0.0 or eps-size negatives on the diagonal
    B[B < 0] = 0.0
    rho = linalg.spectral_radius_nonneg(B)
    gap = s - rho
    return MClassification(gap_kind(gap, tol), s, rho, gap, tol)


def gap_kind(gap: float, tol: float) -> MatrixKind:
    """The kind of a Z-matrix whose split has ``gap = s - rho(B)``, judged to ``tol``."""
    if gap > tol:
        return MatrixKind.NONSINGULAR_M
    if gap < -tol:
        return MatrixKind.Z_NOT_M
    return MatrixKind.SINGULAR_M


# ---------------------------------------------------------------------------
# Regularity: does some v > 0 satisfy M v >= 0?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    witness: np.ndarray | None


def regularity_witness(M, classification: MClassification) -> RegularityReport:
    """Search for a positive v with M v >= 0, by the irreducible blocks of M.

    An M-matrix M is regular exactly when each of its singular irreducible
    diagonal blocks is final: zero in its rows outside the block.  If a
    singular block b has a coupling, take u > 0 its left Perron vector
    (u M_bb = 0); then u (M v)_b = u M_b,rest v_rest < 0 for every v > 0,
    as M_b,rest <= 0 is nonzero, so some (M v)_i < 0.  If every singular
    block is final, v is each one's Perron vector there (M_bb v_b = 0), and
    on the rest N, whose blocks are all nonsingular, v_N = M_NN^{-1} (1 -
    M_NS v_S) >= M_NN^{-1} 1 > 0, S the singular blocks, so (M v)_N = 1.

    Each block is judged by the certified Perron root of its split against
    ``classification.tol``, the tolerance that judged M; an irreducible M
    is its own block, of M's kind.  A nonsingular M has no singular block,
    so v = M^{-1} 1.  The Perron vector of a singular block is the last
    vector of Noda's iteration on its split, scaled to min 1.
    ``linalg.m_solve`` certifies M_NN and v_N > 0, or SingularMatrix is
    raised.
    """
    A = as_square(M)
    size = A.shape[0]
    if classification.kind not in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M):
        raise ValueError("regularity is defined for M-matrices only")
    v = np.ones(size)
    final = np.zeros(size, dtype=bool)
    if classification.kind == MatrixKind.SINGULAR_M:
        blocks = linalg.irreducible_blocks(A)
        for b in blocks:
            Mbb = A[np.ix_(b, b)]
            cls = classification if len(blocks) == 1 else classify_zm(Mbb)
            if gap_kind(cls.gap, classification.tol) == MatrixKind.NONSINGULAR_M:
                continue
            if np.count_nonzero(A[b]) > np.count_nonzero(Mbb):  # coupled outside the block
                return RegularityReport(False, None)
            B = cls.s * np.eye(len(b)) - Mbb
            B[B < 0] = 0.0
            x = linalg._noda_bounds(B, 1.0 + float(np.diag(B).max()))[2]
            v[b] = x / x.min()
            final[b] = True
    rest = ~final
    if rest.any():
        rows = A[rest]
        x, _, certified = linalg.m_solve(rows[:, rest], 1.0 - rows[:, final] @ v[final])
        if not (certified and (x > 0.0).all()):
            raise SingularMatrix("M^{-1} 1 does not certify a nonsingular M-matrix")
        v[rest] = x
    return RegularityReport(True, v)


# ---------------------------------------------------------------------------
# Irreducibility
# ---------------------------------------------------------------------------


def is_irreducible(M) -> bool:
    """True iff the off-diagonal digraph of M is strongly connected.

    Edge i -> j whenever i != j and M[i, j] != 0, so M is irreducible
    exactly when ``linalg.irreducible_blocks`` finds one block.  A 1x1
    matrix is irreducible by convention.
    """
    return len(linalg.irreducible_blocks(M)) == 1


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
    _, x = linalg.rank_and_kernel(A.T, linalg.rank_tol(A.T))
    if x is None:
        raise SingularMatrix("matrix has full numerical rank; no kernel vector")
    u = _oriented_kernel(A.T, x, tol)
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

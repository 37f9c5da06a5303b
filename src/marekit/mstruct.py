"""Structural analysis of Z- and M-matrices.

Classification into {not-Z, Z-but-not-M, singular M, nonsingular M},
regularity (some positive v has M v >= 0), and one left/right kernel
pair with its drift per singular irreducible block of an M-matrix, all
read off one pass over the irreducible diagonal blocks of M (the
strongly connected components of its digraph, ``linalg.irreducible_blocks``;
M is irreducible when there is one).

All judgments are made to explicit scale-aware tolerances; the interesting
inputs sit exactly on the singular boundary, so those tolerances are part
of the contract, not an afterthought.

``classify_zm`` takes each block's Perron root and Perron vector from its
own split, ``linalg.perron_pair`` (Collatz-Wielandt bounds from a few
LAPACK solves), judges each block's gap at the tolerance of the whole
matrix, and gives the matrix the smallest gap: the spectrum of a
reducible matrix is the union of its blocks' spectra.  The blocks travel
with the classification, so nothing downstream runs the iteration again.

Regularity follows from the same blocks: an M-matrix has a v > 0 with
M v >= 0 exactly when each of its singular blocks is final, that is zero
in its rows outside the block.  A coupled singular block b with left
Perron vector u > 0 gives u (M v)_b = u M_b,rest v_rest < 0 for every
v > 0; with every singular block final, their Perron vectors and one
solve on the nonsingular rest build such a v.  The verdict
(``MClassification.regular``) needs no solve; ``regularity_witness``
builds v for a caller that wants it.  Each solve on the nonsingular rest
is one ``linalg._m_solve(M_NN, rhs)``, the core of ``linalg.m_solve``,
which appends the column of ones whose solution M_NN^{-1} 1 certifies
M_NN.  ``problem.classify_problem`` asks for v only on a nonsingular K,
where that certificate is the verdict's only one; on a singular K,
``block_null_pairs`` certifies the same M_NN with the same column.

So does the kernel, whose one entry point is
``block_null_pairs(K, n, classify_zm(K))``.  With S the singular blocks
and N the nonsingular rest, a singular block b has the kernel pair
v = (x_b on b, -M_NN^-1 M_Nb x_b on N) and u = (y_b on b,
-(y_b M_bN) M_NN^-1 on N), zero on the other singular blocks, x_b and
y_b its right and left Perron vectors.  These are exact kernel vectors
when b is the only singular block, or when every singular block is
final: no cycle runs from b through N back to b, so the Schur complement
of M_NN leaves M_bb alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import AmbiguousKernel, SingularMatrix
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
class IrreducibleBlock:
    """One irreducible diagonal block of a Z-matrix M, classified by its own split.

    ``index`` holds its positions in M.  ``gap`` is s_b - rho(B_b) of the
    split M_bb = s_b I - B_b, s_b = max diag M_bb, and ``kind`` judges it
    at the tolerance of M.  ``final`` says that M is zero in the block's
    rows outside it.  ``perron`` is the last vector of Noda's iteration on
    B_b: positive, and a kernel vector of M_bb when the block is singular.
    """

    index: np.ndarray
    gap: float
    kind: MatrixKind
    final: bool
    perron: np.ndarray


@dataclass(frozen=True)
class MClassification:
    """Outcome of the Z/M split ``M = s I - B`` with ``B >= 0``.

    ``gap = s - rho(B)``: positive beyond tolerance means nonsingular
    M-matrix, zero to tolerance means singular M-matrix, negative means a
    Z-matrix that is not an M-matrix.  ``blocks`` are the irreducible
    diagonal blocks the gap was read from (none for a non-Z matrix).
    """

    kind: MatrixKind
    s: float
    rho_B: float
    gap: float
    tol: float
    blocks: tuple[IrreducibleBlock, ...] = field(default=(), repr=False, compare=False)

    @property
    def singular_blocks(self) -> list[IrreducibleBlock]:
        return [b for b in self.blocks if b.kind is MatrixKind.SINGULAR_M]

    @property
    def regular(self) -> bool:
        """M is an M-matrix whose singular irreducible blocks are all final.

        Exactly then some v > 0 has M v >= 0 (``regularity_witness``).
        """
        if self.kind is MatrixKind.NONSINGULAR_M:
            return True
        return self.kind is MatrixKind.SINGULAR_M and all(b.final for b in self.singular_blocks)


def _split(M: np.ndarray) -> tuple[float, np.ndarray]:
    """``(s, B)`` of the split M = s I - B with s = max diag M."""
    s = float(M.diagonal().max())
    # 0 s - M, then s added on the diagonal: s I - M to the bit, signed zeros included
    B = np.subtract(s * 0.0, M, order="C")
    B.reshape(-1)[:: M.shape[0] + 1] += s
    # rounding can leave -0.0 or eps-size negatives on the diagonal
    B[B < 0] = 0.0
    return s, B


def classify_zm(M) -> MClassification:
    """Classify a square matrix via the shift split with s = max diagonal.

    Each irreducible diagonal block b of a Z-matrix is split on its own,
    M_bb = s_b I - B_b, and ``linalg.perron_pair`` gives rho(B_b) to full
    accuracy (Collatz-Wielandt bounds) with its Perron vector.  As the
    spectrum of M is the union of its blocks' spectra, rho(B) = s - min_b
    gap_b, and M's kind is that of its smallest gap, judged at M's own
    tolerance like every block's.  An irreducible M is its own block, with
    M's own split.
    """
    return _classify_zm(as_square(M))


def _classify_zm(A: np.ndarray) -> MClassification:
    """The core of ``classify_zm``, for a finite square float64 A."""
    s = float(A.diagonal().max())
    tol = class_tol(A)
    if not linalg._is_z(A):
        return MClassification(MatrixKind.NOT_Z, s, math.nan, math.nan, tol)
    index = linalg._irreducible_blocks(A)
    if len(index) == 1:  # A is its own block, final as it has no rows outside
        rho, x = linalg._perron_pair(_split(A)[1])
        block = IrreducibleBlock(index[0], s - rho, gap_kind(s - rho, tol), True, x)
        return MClassification(block.kind, s, s - block.gap, block.gap, tol, (block,))
    blocks = []
    for b in index:
        Mbb = A[np.ix_(b, b)]
        s_b, B = _split(Mbb)
        rho, x = linalg._perron_pair(B)
        final = np.count_nonzero(A[b]) == np.count_nonzero(Mbb)
        blocks.append(IrreducibleBlock(b, s_b - rho, gap_kind(s_b - rho, tol), final, x))
    gap = min(b.gap for b in blocks)
    return MClassification(gap_kind(gap, tol), s, s - gap, gap, tol, tuple(blocks))


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


def regularity_witness(M, classification: MClassification) -> np.ndarray | None:
    """Search for a positive v with M v >= 0, by the irreducible blocks of M.

    An M-matrix M is regular exactly when each of its singular irreducible
    diagonal blocks is final: zero in its rows outside the block
    (``MClassification.regular``).  If a singular block b has a coupling,
    take u > 0 its left Perron vector (u M_bb = 0); then u (M v)_b =
    u M_b,rest v_rest < 0 for every v > 0, as M_b,rest <= 0 is nonzero, so
    some (M v)_i < 0.  If every singular block is final, v is each one's
    Perron vector there (M_bb v_b = 0), and on the rest N, whose blocks are
    all nonsingular, v_N = M_NN^{-1} (1 - M_NS v_S) >= M_NN^{-1} 1 > 0, S
    the singular blocks, so (M v)_N = 1.

    The blocks, their kinds and Perron vectors (scaled to min 1) are those
    of ``classification``, which ``classify_zm(M)`` made.  A nonsingular M
    has no singular block, so v = M^{-1} 1.  ``linalg.m_solve`` certifies
    M_NN and v_N > 0, or SingularMatrix is raised.  Returns v, or None
    when M is not regular.
    """
    A = as_square(M)
    if classification.kind not in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M):
        raise ValueError("regularity is defined for M-matrices only")
    if not classification.regular:
        return None
    size = A.shape[0]
    if classification.kind is MatrixKind.NONSINGULAR_M:
        return _positive_solve(A, np.ones(size))
    v = np.ones(size)
    final = np.zeros(size, dtype=bool)
    for blk in classification.singular_blocks:
        v[blk.index] = blk.perron / blk.perron.min()
        final[blk.index] = True
    rest = ~final
    if rest.any():
        rows = A[rest]
        v[rest] = _positive_solve(rows[:, rest], 1.0 - rows[:, final] @ v[final])
    return v


def _positive_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^{-1} rhs, once ``linalg._m_solve`` certifies A and the solution is positive."""
    X, _, certified = linalg._m_solve(A, rhs)
    x = X[:, 0]
    if not (certified and (x > 0.0).all()):
        raise SingularMatrix("M^{-1} 1 does not certify a nonsingular M-matrix")
    return x


# ---------------------------------------------------------------------------
# Null vectors and drift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullPair:
    """Normalized left (u) and right (v) kernel vectors of a singular K.

    Both are entrywise nonnegative with unit 1-norm.  ``drift`` is
    u1.v1 - u2.v2 for the split of u and v at n, the quantity whose sign
    separates the noncritical case (nonzero) from the critical one (zero).
    """

    u: np.ndarray
    v: np.ndarray
    drift: float


def _block_pair(K: np.ndarray, n: int, blk: IrreducibleBlock, rest: np.ndarray) -> NullPair:
    """The kernel pair of K from its singular block ``blk``; ``rest`` marks the nonsingular blocks."""
    b = blk.index
    y = linalg._perron_pair(_split(K[np.ix_(b, b)].T)[1])[1]
    v = np.zeros(K.shape[0])
    u = np.zeros(K.shape[0])
    v[b], u[b] = blk.perron, y
    if rest.any():
        K_NN = K[np.ix_(rest, rest)]
        right_sol, _, right = linalg._m_solve(K_NN, -(K[np.ix_(rest, b)] @ blk.perron))
        # a row-major transpose, so that its certificate's products round as every other's
        left_sol, _, left = linalg._m_solve(K_NN.T.copy(), -(y @ K[np.ix_(b, rest)]))
        v[rest], u[rest] = right_sol[:, 0], left_sol[:, 0]
        if not (right and left):
            raise SingularMatrix("M^{-1} 1 does not certify the nonsingular blocks of K")
    v, u = np.maximum(v, 0.0), np.maximum(u, 0.0)
    v, u = v / v.sum(), u / u.sum()
    tol = null_tol(K)
    if inf_norm(K @ v) > tol or inf_norm(u @ K) > tol:
        raise AmbiguousKernel("kernel residual exceeds tolerance")
    return NullPair(u, v, float(u[:n] @ v[:n] - u[n:] @ v[n:]))


def block_null_pairs(K, n: int, classification: MClassification) -> list[NullPair]:
    """One kernel pair of the M-matrix K per singular irreducible block, split at n.

    The blocks and their right Perron vectors are those of
    ``classification``, which ``classify_zm(K)`` made; each block's left
    Perron vector is one more run of Noda's iteration, on the transpose of
    its split.  The rest N is solved by one certified ``linalg.m_solve``
    on K_NN and one on K_NN^T (SingularMatrix where either fails); for a
    final block the second returns zero.  The pairs are kernel vectors of
    K when there is one singular block or every singular block is final,
    and each is checked against ``null_tol`` (AmbiguousKernel otherwise).
    The vectors are returned nonnegative with unit 1-norm, tiny negative
    round-off clamped to zero; a nonsingular K has no pair.  Raises
    ValueError when n is outside [0, size] or ``classification`` is not
    of an M-matrix.
    """
    A = as_square(K)
    if not 0 <= n <= A.shape[0]:
        raise ValueError(f"split index {n} outside [0, {A.shape[0]}]")
    if classification.kind not in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M):
        raise ValueError("null vectors are defined for M-matrices only")
    singular = classification.singular_blocks
    rest = np.ones(A.shape[0], dtype=bool)
    for blk in singular:
        rest[blk.index] = False
    return [_block_pair(A, n, blk, rest) for blk in singular]

"""Structural analysis of Z- and M-matrices.

Classification into {not-Z, Z-but-not-M, singular M, nonsingular M},
regularity (some positive v has M v >= 0), and one left/right kernel
pair with its drift per singular irreducible block of an M-matrix, all
read off one pass over the irreducible diagonal blocks of M (the
strongly connected components of its digraph, ``linalg._irreducible_blocks``;
M is irreducible when there is one).

All judgments are made to explicit scale-aware tolerances; the interesting
inputs sit exactly on the singular boundary, so those tolerances are part
of the contract, not an afterthought.

``classify_zm`` takes each block's Perron root and Perron vector from its
own split, ``linalg._perron_pair`` (Collatz-Wielandt bounds from a few
LAPACK solves), judges each block's gap at the tolerance of the whole
matrix, and gives the matrix the smallest gap: the spectrum of a
reducible matrix is the union of its blocks' spectra.  The blocks travel
with the classification, so nothing downstream runs the iteration again.

Regularity follows from the same blocks: an M-matrix has a v > 0 with
M v >= 0 exactly when each of its singular blocks is final, that is zero
in its rows outside the block.  A coupled singular block b with left
Perron vector u > 0 gives u (M v)_b = u M_b,rest v_rest < 0 for every
v > 0.  With every singular block final, v is each one's Perron vector
there and v_N = M_NN^{-1} (1 - M_NS v_S) >= M_NN^{-1} 1 > 0 on the
nonsingular rest N, S the singular blocks.  So the verdict
(``MClassification.regular``) needs no solve; what it leaves to certify
is M_NN.

Each fact costs one LAPACK call where one suffices.  ``classify_by_solve``
first solves K x = 1 (``linalg._m_solve``): a certified x brackets K's
gap as [1 / max x, 1 / min x] (Collatz-Wielandt bounds on K^{-1}), and
a lower end above tolerance decides a nonsingular K with no Noda run;
every other K takes ``classify_zm``, its Noda runs started at |x| / max
|x|: on a singular K the trial solve is inverse iteration at the exact
shift, and x points nearly along the Perron vector.

``block_null_pairs(K, n, classification)`` then certifies M_NN, for every
M-matrix K, and builds the kernel.  A singular block b has the kernel
pair v = (x_b on b, -K_NN^-1 K_Nb x_b on N) and u = (y_b on b,
-(y_b K_bN) K_NN^-1 on N), zero on the other singular blocks, x_b and
y_b its right and left Perron vectors.  These are exact kernel vectors
when b is the only singular block, or when every singular block is
final: no cycle runs from b through N back to b, so the Schur complement
of K_NN leaves K_bb alone.  y_b is one transposed solve at the upper
Collatz-Wielandt bound of x_b (``_left_perron``), a Noda run on the
transpose, from |z| / max |z|, only where that solve fails.  Every
block's right-hand side goes into one certified solve on K_NN,
``linalg._m_solve``, whose column of ones certifies K_NN; its left ones
into one on K_NN^T.  A nonsingular K is all rest: its one solve is the
certified K^{-1} 1, the one that ``classify_by_solve`` made.  The same solves give the witness v above,
v_N from the ones column and the block columns of the solve on K_NN,
which the certificate's Perron run on Phi Psi starts from, and those on
R and S where the doubling hands the certificate no start of its own.
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


def class_tol(M: np.ndarray, norm: float | None = None) -> float:
    """Classification tolerance for the gap s - rho(B) of the split of a float64 matrix M.

    The dim * eps * ||M||_1 term covers rounding in the split itself; the
    1e-13 relative floor covers the accuracy of the computed Perron root.
    Its Collatz-Wielandt bounds close to a width of 1e-15 (rho + c),
    c = 1 + max diag of the matrix or block they bracket, but they are
    rounded: the root and a repeated-squaring reference differ by up to
    about 2e-15 (rho + c) on the acceptance suites.  ``norm`` is M's
    ``one_norm`` where the caller has it (None takes it here).
    """
    return max(M.shape[0] * EPS, 1e-13) * max(1.0, one_norm(M) if norm is None else norm)


def _checked_norm(M: np.ndarray, label: str = "matrix") -> float:
    """The 1-norm of a finite float64 M, refused (ValueError) where it overflows float64.

    No tolerance can be read off such a matrix: ``class_tol`` would be
    infinite and tell no gap from 0.
    """
    with np.errstate(over="ignore"):
        norm = one_norm(M)
    if norm == math.inf:
        raise ValueError(f"{label} has a 1-norm beyond the float64 range")
    return norm


def null_tol(K, norm: float | None = None) -> float:
    """Residual tolerance for kernel vectors of K; ``norm`` is K's ``one_norm`` where the caller has it."""
    return 1e-10 * (one_norm(K) if norm is None else norm)


@dataclass(frozen=True)
class IrreducibleBlock:
    """One irreducible diagonal block of a Z-matrix M, classified by its own split.

    ``index`` holds its positions in M.  ``gap`` is s_b - rho(B_b) of the
    split M_bb = s_b I - B_b, s_b = max diag M_bb, and ``kind`` judges it
    at the tolerance of M.  ``final`` says that M is zero in the block's
    rows outside it.  ``perron`` is the last vector of Noda's iteration on
    B_b: positive, and a kernel vector of M_bb when the block is singular.
    A block of a nonsingular M that ``classify_by_solve`` decided has no
    such run: its gap is the lower bound 1 / max x_b read off x = M^{-1} 1,
    and ``perron`` is None.
    """

    index: np.ndarray
    gap: float
    kind: MatrixKind
    final: bool
    perron: np.ndarray | None


@dataclass(frozen=True)
class MClassification:
    """Outcome of the Z/M split ``M = s I - B`` with ``B >= 0``.

    ``gap = s - rho(B)``: positive beyond tolerance means nonsingular
    M-matrix, zero to tolerance means singular M-matrix, negative means a
    Z-matrix that is not an M-matrix.  ``blocks`` are the irreducible
    diagonal blocks the gap was read from (none for a non-Z matrix).
    ``classify_zm`` gives the gap to full accuracy; ``classify_by_solve``
    may give a nonsingular M only the lower end of a bracket (see there).
    """

    kind: MatrixKind
    s: float
    gap: float
    tol: float
    blocks: tuple[IrreducibleBlock, ...] = field(default=(), repr=False, compare=False)

    @property
    def rho_B(self) -> float:
        """rho(B) = s - gap (NaN for a matrix that is not a Z-matrix)."""
        return self.s - self.gap

    @property
    def singular_blocks(self) -> list[IrreducibleBlock]:
        return [b for b in self.blocks if b.kind is MatrixKind.SINGULAR_M]

    @property
    def regular(self) -> bool:
        """M is an M-matrix whose singular irreducible blocks are all final.

        Exactly then some v > 0 has M v >= 0 (see the module docstring).
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
    M_bb = s_b I - B_b, and ``linalg._perron_pair`` gives rho(B_b) to full
    accuracy (Collatz-Wielandt bounds) with its Perron vector.  As the
    spectrum of M is the union of its blocks' spectra, rho(B) = s - min_b
    gap_b, and M's kind is that of its smallest gap, judged at M's own
    tolerance like every block's.  An irreducible M is its own block, with
    M's own split.  M is checked (``as_square``), and a 1-norm that
    overflows float64 is refused (``_checked_norm``, ValueError), as no
    tolerance can be read off it.  The package also passes matrices it
    forms by arithmetic: the doubling's cross products, SingularM where
    they are refused (``doubling._kind``).  R and S go to
    ``_classify_blocks``, which the certificate passes a start and the
    tolerance of their operands' scale.
    """
    A = as_square(M)
    return _classify_blocks(A, None, class_tol(A, _checked_norm(A)))


def _classify_blocks(A: np.ndarray, start: np.ndarray | None = None, tol: float | None = None) -> MClassification:
    """``classify_zm`` of a checked square float64 A, each block's Noda run started at ``start`` there.

    ``start`` is a positive vector, or None (every run starts at 1).  The
    roots are certified from any start; one near the Perron vectors of
    the blocks saves solves: K's witness or trial K^{-1} 1, or a vector
    that the doubling's last iterate gives for R or S.  ``tol`` judges
    the kinds: ``class_tol(A)`` where the caller has taken it, and for R
    and S ``class_tol`` of the scale of their operands; None takes
    ``class_tol(A)`` here.
    """
    s = float(A.diagonal().max())
    if tol is None:
        tol = class_tol(A)
    if not linalg._is_z(A):
        return MClassification(MatrixKind.NOT_Z, s, math.nan, tol)
    index = linalg._irreducible_blocks(A)
    if len(index) == 1:  # A is its own block, split as it is
        rho, x = linalg._perron_pair(_split(A)[1], start)
        block = IrreducibleBlock(index[0], s - rho, gap_kind(s - rho, tol), _final(A, index, index[0]), x)
        return MClassification(block.kind, s, block.gap, tol, (block,))
    blocks = []
    for b in index:
        s_b, B = _split(A[b[:, None], b])
        rho, x = linalg._perron_pair(B, None if start is None else start[b])
        blocks.append(IrreducibleBlock(b, s_b - rho, gap_kind(s_b - rho, tol), _final(A, index, b), x))
    gap = min(b.gap for b in blocks)
    return MClassification(gap_kind(gap, tol), s, gap, tol, tuple(blocks))


def _final(M: np.ndarray, index: list[np.ndarray], b: np.ndarray) -> bool:
    """Block ``b`` of the blocks ``index`` of M is final: M is zero in its rows outside it.

    A sole block has no rows outside, so it is final with nothing counted.
    """
    return len(index) == 1 or np.count_nonzero(M[b]) == np.count_nonzero(M[b[:, None], b])


def gap_kind(gap: float, tol: float) -> MatrixKind:
    """The kind of a Z-matrix whose split has ``gap = s - rho(B)``, judged to ``tol``."""
    if gap > tol:
        return MatrixKind.NONSINGULAR_M
    if gap < -tol:
        return MatrixKind.Z_NOT_M
    return MatrixKind.SINGULAR_M


def classify_by_solve(K: np.ndarray, norm: float | None = None) -> tuple[MClassification, np.ndarray | None]:
    """``(classification, x)`` of a checked square float64 Z-matrix K, from x = K^{-1} 1 where it decides.

    One ``linalg._m_solve(K)``: where it certifies x, Collatz-Wielandt
    bounds on K^{-1} >= 0 at the vector 1 bracket K's gap tau(K), the gap
    of its split, as 1 / max x <= tau(K) <= 1 / min x.  So 1 / max x above
    ``class_tol(K)`` makes K a nonsingular M-matrix with no Noda run.  The
    classification then stores the lower end 1 / max x as the gap (so
    rho(B) = s - gap is an upper bound), and the irreducible blocks of
    ``linalg._irreducible_blocks`` each with its own lower end 1 / max x_b,
    from K_bb x_b >= 1, and no Perron vector; the smallest of those is K's.
    Everywhere else K takes ``classify_zm``, its Noda runs started at
    |x| / max |x| where that is finite and positive (at 1 otherwise, and
    where LAPACK finds K exactly singular): on a singular K the trial solve
    is a step of inverse iteration at the exact shift, so x is nearly the
    Perron vector and the runs close in fewer solves.  ``x`` is returned
    whenever it certifies, so that ``block_null_pairs`` does not solve K
    again; it is None otherwise.  ``norm`` is K's ``one_norm`` where the
    caller has it (``MareProblem.norms``); the tolerance, taken once from
    it, is passed on to ``_classify_blocks``.
    """
    tol = class_tol(K, norm)
    try:
        _, dist, certified, x = linalg._m_solve(K)
    except SingularMatrix:  # LAPACK finds K exactly singular
        return _classify_blocks(K, None, tol), None
    if not certified or dist <= tol:
        return _classify_blocks(K, linalg._perron_start(np.abs(x)), tol), x if certified else None
    index = linalg._irreducible_blocks(K)
    blocks = tuple(
        IrreducibleBlock(
            b,
            1.0 / float(x[b].max()),
            MatrixKind.NONSINGULAR_M,  # 1 / max x_b >= 1 / max x > tol
            _final(K, index, b),
            None,
        )
        for b in index
    )
    s = float(K.diagonal().max())
    return MClassification(MatrixKind.NONSINGULAR_M, s, dist, tol, blocks), x


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


def _solve_rest(K_NN: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(K_NN^{-1} [blocks], K_NN^{-1} 1)``, once ``linalg._m_solve`` certifies K_NN (SingularMatrix otherwise)."""
    X, _, certified, x = linalg._m_solve(K_NN, *blocks)
    if not certified:
        raise SingularMatrix("M^{-1} 1 does not certify the nonsingular blocks of K")
    return X, x


def _left_perron(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A left Perron vector of the split M = s I - P of an irreducible singular block, max entry 1.

    ``x`` is P's right Perron vector, so hi = max (P x)_i / x_i, its
    Collatz-Wielandt upper bound, is within rounding of rho(P), and one
    solve (hi I - P^T) z = 1 is inverse iteration at that shift: z is the
    left vector when it is positive.  Where z has an entry that is not
    positive, Noda's iteration runs on P^T from |z| / max |z| (from 1 where
    that has a zero entry or z is not finite), and from 1 where LAPACK
    finds the shift exactly singular.  The solve is ``linalg._solve``:
    the shifted matrix is a row-major float64 copy and the ones a float64
    vector of its order, so the checks of ``np.linalg.solve`` would find
    nothing.
    """
    Pt = _split(M.T)[1]  # P^T, row-major
    hi = float(((x @ Pt) / x).max())
    # hi I - P^T is -P^T with hi added on the diagonal, written through the flat view of a row-major copy
    shifted = np.negative(Pt, order="C")
    shifted.reshape(-1)[:: len(Pt) + 1] += hi
    try:
        z = linalg._solve(shifted, np.ones(len(Pt)))
    except np.linalg.LinAlgError:
        return linalg._perron_pair(Pt)[1]
    start = linalg._perron_start(np.abs(z))
    if start is not None and z.min() > 0.0:
        return start
    return linalg._perron_pair(Pt, start)[1]


def block_null_pairs(
    K, n: int, classification: MClassification, solved: np.ndarray | None = None, norm: float | None = None
) -> tuple[list[NullPair], np.ndarray | None]:
    """Certify K's nonsingular rest N; one kernel pair of K per singular irreducible block, split at n; K's witness.

    The blocks and their right Perron vectors x_b are those of
    ``classification``; each left Perron vector y_b is ``_left_perron``'s,
    one transposed solve at the right run's upper bound (a Noda run on the
    transpose of the block's split where that solve fails).  N is solved
    by at most two certified ``linalg._m_solve`` calls, whatever the
    number of blocks: one on K_NN with every -K_Nb x_b stacked, and one on
    K_NN^T with every -y_b K_bN (SingularMatrix where either fails to
    certify).  A nonsingular K is all of N and has no pair: its one solve
    is x = K^{-1} 1, or ``solved``, a K^{-1} 1 that the caller has already
    certified (``classify_by_solve``).  The pairs are kernel vectors of K
    when there is one singular block or every singular block is final,
    and each is checked against ``null_tol`` (AmbiguousKernel otherwise).
    They are returned nonnegative with unit 1-norm, tiny negative
    round-off clamped to zero.

    The witness is a v > 0 with K v >= 0, as the theory of a regular K
    promises, built from the same solves: x on a nonsingular K; on a
    singular K whose singular blocks are all final, v_b = x_b / min x_b on
    each and v_N = K_NN^{-1} 1 + sum_b (K_NN^{-1} (-K_Nb x_b)) / min x_b,
    the ones column of the stacked solve plus its block columns, so that
    K v = 0 on the blocks and 1 on N.  It is None on a K that is not
    regular, and where rounding leaves an entry that is not positive.
    K must be a checked square float64 array, ``classification`` that of
    an M-matrix and n in [0, size], as ``problem.classify_problem`` passes
    them, with K's ``one_norm`` as ``norm`` (None takes it here).
    """
    size = K.shape[0]
    singular = classification.singular_blocks
    if not singular:
        return [], _solve_rest(K)[1] if solved is None else solved
    in_rest = np.ones(size, dtype=bool)
    for blk in singular:
        in_rest[blk.index] = False
    rest = np.flatnonzero(in_rest)
    lefts = [_left_perron(K[b.index[:, None], b.index], b.perron) for b in singular]
    right = left = np.zeros((0, len(singular)))
    ones = np.zeros(0)
    if len(rest):
        K_NN = K[rest[:, None], rest]
        right, ones = _solve_rest(K_NN, *(-(K[rest[:, None], b.index] @ b.perron) for b in singular))
        # a row-major transpose, so that its certificate's products round as every other's
        left, _ = _solve_rest(K_NN.T.copy(), *(-(y @ K[b.index[:, None], rest]) for b, y in zip(singular, lefts)))
    tol = null_tol(K, norm)
    pairs = []
    for i, (blk, y) in enumerate(zip(singular, lefts)):
        v, u = np.zeros(size), np.zeros(size)
        v[blk.index], u[blk.index] = blk.perron, y
        v[rest], u[rest] = right[:, i], left[:, i]
        v, u = np.maximum(v, 0.0), np.maximum(u, 0.0)
        v, u = v / v.sum(), u / u.sum()
        if inf_norm(K @ v) > tol or inf_norm(u @ K) > tol:
            raise AmbiguousKernel("kernel residual exceeds tolerance")
        pairs.append(NullPair(u, v, float(u[:n] @ v[:n] - u[n:] @ v[n:])))
    if not classification.regular:
        return pairs, None
    scales = np.array([1.0 / blk.perron.min() for blk in singular])
    witness = np.empty(size)
    for blk, c in zip(singular, scales):
        witness[blk.index] = blk.perron * c
    witness[rest] = ones + right @ scales
    return pairs, witness if witness.min() > 0.0 else None

"""Dense real linear-algebra kernels for the Riccati solver stack.

All routines work on dense float64 arrays and are pure functions of their
inputs.  The one module state is a cache of read-only identities and
their ``[I 1]`` right-hand sides (``_eye``), one entry per order up to
64, so bounded by order; an entry is never written after it is built,
and a dict insertion is atomic, so concurrent use is safe.  Only the
kernels that carry a tolerance contract numpy does not offer are written
here: the semipositivity certificate of ``_m_solve`` for matrices that
the theory makes nonsingular M-matrices, and the certified Perron root of
a nonnegative matrix with its Perron vector.  The certificate's column of
ones is laid out by ``_m_solve(A, *blocks)`` alone: its callers pass
their right-hand side blocks.  Every solve runs in LAPACK through
``_solve``, which calls the gesv gufunc that ``np.linalg.solve`` calls,
with its error state, but skips that wrapper's ``_makearray``,
``_commonType`` and shape checks: every caller passes a square float64
matrix and a float64 right-hand side of as many rows, so the checks
only cost time on the small matrices solved at every doubling step and
Noda step.  For the same reason the hot loops call numpy's reductions
as ufunc methods (``np.minimum.reduce(a, None)`` is the C call that
``a.min()`` makes after a Python frame).  No general eigensolve is
needed, as every spectral quantity the package reports is a Perron
root.  The Perron root is bracketed by Collatz-Wielandt bounds on the
vectors of Noda's shifted inverse iteration, one LAPACK solve per step,
and the last of those vectors is the Perron vector (``_perron_pair``).  Where those bounds stay
open on a reducible matrix, as when its Perron vector has zero entries,
the root is the largest one of its irreducible diagonal blocks (the
strongly connected components of its digraph, ``_irreducible_blocks``),
each bracketed the same way; on a matrix irreducible only through
couplings of rounding size, the matrix with those couplings cut gives
the lower bound (``_pruned_lower_bound``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergence, ShapeMismatch, SingularMatrix

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array (row-major copy).

    This is the input check of the names in ``marekit.__all__`` that take
    a matrix: ``spectral_radius_nonneg`` here, ``classify_zm`` in
    ``mstruct``, the problem model, its candidate solutions and its JSON
    loaders.  The kernels behind them (``_m_solve``, ``_perron_pair``,
    ``_irreducible_blocks``, ``mstruct.block_null_pairs``) trust their
    callers to pass float64 arrays that have passed it, and the package's
    own callers do.  Complex input is refused (ValueError), not cast with
    its imaginary part dropped: a complex array by its dtype, and a Python
    complex in a list by the TypeError of the conversion, so that a list of
    floats is still converted in one pass.  A list that holds numpy complex
    scalars or arrays is not caught: numpy casts it with a ComplexWarning.
    """
    if isinstance(a, np.ndarray) and a.dtype.kind == "c":
        raise ValueError(f"{name} has complex entries")
    try:
        M = np.array(a, dtype=np.float64, order="C")
    except OverflowError as exc:  # a Python integer beyond the float64 range
        raise ValueError(f"{name} has an entry beyond the float64 range") from exc
    except TypeError as exc:  # a Python complex, or another object that is no real number
        raise ValueError(f"{name} has an entry that is not a real number") from exc
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
    return float(np.maximum.reduce(np.add.reduce(np.abs(a), 0), None))


def inf_norm(a: np.ndarray) -> float:
    """Infinity-norm of a float64 matrix (max absolute row sum); max |.| of a nonempty vector."""
    if a.ndim == 1:
        return float(np.abs(a).max())
    return float(np.abs(a).sum(axis=1).max())


def _is_z(A: np.ndarray) -> bool:
    """True when the finite square A has no positive off-diagonal entry (a Z-matrix).

    The off-diagonal entries are read in place: the flat array after its
    first entry, in rows of n + 1, holds one diagonal entry at the end of
    each row.
    """
    n = A.shape[0]
    return n == 1 or bool(np.maximum.reduce(A.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n], None) <= 0.0)


# Identities of order at most _EYE_MAX_ORDER are built once: the doubling
# inverts an I - G H of the same order at every step.  Order n keeps n^2
# + n (n + 1) floats, 8 n (2 n + 1) bytes, so the cache holds at most their
# sum over n <= 64 (1.45 MB) whatever the orders solved.
_EYE_MAX_ORDER = 64
_EYES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _eye(n: int) -> np.ndarray:
    """The identity of order n, read-only; built once per order up to ``_EYE_MAX_ORDER``.

    ``_m_solve(A, _eye(n))`` solves against the cached ``[I 1]`` of that
    order, which ``_with_ones`` laid out when the identity was built.
    """
    pair = _EYES.get(n)
    if pair is not None:
        return pair[0]
    eye = np.eye(n)
    eye.flags.writeable = False
    if n > _EYE_MAX_ORDER:
        return eye
    eye_ones = _with_ones(n, eye)
    eye_ones.flags.writeable = False
    # of two threads building one order, the first to insert wins for both
    return _EYES.setdefault(n, (eye, eye_ones))[0]


def _with_ones(rows: int, *blocks: np.ndarray) -> np.ndarray:
    """``[blocks 1]`` of ``rows`` rows: the blocks side by side (a vector is one column), then ones.

    For the one block ``_eye(rows)`` it is the read-only ``[I 1]`` built with that identity.
    """
    pair = _EYES.get(rows)
    if pair is not None and len(blocks) == 1 and blocks[0] is pair[0]:
        return pair[1]
    cols = [b[:, None] if b.ndim == 1 else b for b in blocks]
    out = np.empty((rows, sum(c.shape[1] for c in cols) + 1))
    j = 0
    for c in cols:
        out[:, j : j + c.shape[1]] = c
        j += c.shape[1]
    out[:, j] = 1.0
    return out


def _raise_singular(err: str, flag: int):
    """The error-state callback of ``_solve``: gesv flags an exactly singular matrix as invalid."""
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{-1} B by LAPACK's gesv, for a square float64 A and a float64 B of as many rows.

    B is a vector or a matrix of right-hand sides.  This is the package's
    one LAPACK solve.  It calls numpy's own gesv gufunc, the object and
    signature ``np.linalg.solve`` calls, under the same error state: an
    exactly singular A raises ``np.linalg.LinAlgError("Singular matrix")``,
    and overflow, division and underflow are ignored, so no warning
    leaves it.  The wrapper's ``_makearray``, ``_commonType`` and shape
    checks are skipped, as every caller has already made them: the
    operands, the routine and so every bit of the solution are the ones
    ``np.linalg.solve`` gives.
    """
    gesv = _umath_linalg.solve1 if B.ndim == 1 else _umath_linalg.solve
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gesv(A, B, signature="dd->d")


def _m_solve(
    A: np.ndarray, *blocks: np.ndarray, known_z: bool = False
) -> tuple[np.ndarray, float, bool, np.ndarray]:
    """``(A^{-1} [blocks], dist, certified, x)``: one LAPACK solve of ``A [X x] = [blocks 1]``.

    ``_with_ones`` lays out ``[blocks 1]`` (a vector block is one column;
    with no block it is the ones column alone), and ``_solve`` solves it:
    A and the layout are float64 of matching shapes, so the checks of
    ``np.linalg.solve`` would find nothing.  A is certified a
    nonsingular M-matrix when x = A^{-1} 1 passes ``_certifies`` (told
    ``known_z`` where the caller has proved A a Z-matrix), and then
    ``dist = 1 / max|x| = 1 / ||A^{-1}||_inf`` is a scale-aware distance
    to singularity, and x > 0 a witness with A x > 0.  Raises
    SingularMatrix when LAPACK finds A exactly singular.  A must be a square float64 array
    with as many rows as each block; its entries are checked to be finite
    here (ValueError), as the package's callers form it by arithmetic.
    """
    if not np.logical_and.reduce(np.isfinite(A), None):
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        sol = _solve(A, _with_ones(A.shape[0], *blocks))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is exactly singular ({exc})") from exc
    x = sol[:, -1]
    certified = _certifies(A, x, known_z)
    # a certified x is positive, so max|x| = max x
    return sol[:, :-1], 1.0 / float(np.maximum.reduce(x if certified else np.abs(x), None)), certified, x


def _certifies(A: np.ndarray, x: np.ndarray, known_z: bool = False) -> bool:
    """True when x certifies the square float64 A a nonsingular M-matrix.

    A Z-matrix is one exactly when some x > 0 has A x > 0; the computed
    A x must exceed its rounding margin (n + 2) eps |A| x in every row.
    ``known_z`` skips the Z-test of a matrix its caller has proved a
    Z-matrix: the doubling's I - G H while G, H >= 0, as fl(G H) >= 0.
    ``_m_solve`` applies this rule to x = A^{-1} 1 and is its one caller;
    the doubling's I - H G takes the kind of I - G H where G, H >= 0 and is
    classified otherwise (``doubling._cross_solves``).
    """
    n = A.shape[0]
    return bool(
        (known_z or _is_z(A))
        and np.minimum.reduce(x, None) > 0.0
        and np.logical_and.reduce(A @ x > (n + 2) * EPS * (np.abs(A) @ x), None)
    )


# ---------------------------------------------------------------------------
# Spectral radius of entrywise-nonnegative matrices
# ---------------------------------------------------------------------------


# Noda's iteration closes the Perron bounds in at most 8 solves on every
# split of the acceptance suites and benchmark workloads; a width still open
# after this many creeps towards a Perron vector with zero entries.
_NODA_MAX_SOLVES = 20


def _noda_bounds(P: np.ndarray, c: float, x: np.ndarray | None = None) -> tuple[float, float, np.ndarray]:
    """``(lo, hi, x)``: Collatz-Wielandt bounds lo <= rho(P) <= hi of P >= 0 and the last x > 0.

    For any x > 0, min (P x)_i / x_i <= rho(P) <= max (P x)_i / x_i.  The
    vector comes from Noda's shifted inverse iteration (Numer. Math. 17
    (1971) 382-386): from the given x > 0 (None is 1), each step solves
    (hi I - P) y = x with hi the current upper bound, and the bounds of
    successive vectors are intersected.  Each solve is a ``_solve``: the
    shifted matrix is a row-major float64 copy and x a float64 vector of
    its order, so the checks of ``np.linalg.solve`` would find nothing.
    For irreducible P the width closes quadratically, in a handful of
    solves, to 1e-15 max(1, lo + c).  The iteration stops with a
    wider width when an iterate would not be strictly positive, LAPACK
    finds the shifted matrix singular, or the width stops shrinking: on a
    reducible P whose Perron vector has zero entries, and where rounding
    stalls it on an irreducible P.
    """
    n = P.shape[0]
    if x is None:
        x = np.ones(n)
    lo, hi = 0.0, math.inf
    width = math.inf
    # hi I - P is -P with hi added to its diagonal, written in place each step
    shifted = np.negative(P, order="C")
    diagonal = shifted.diagonal().copy()
    on_diagonal = shifted.reshape(-1)[:: n + 1]
    for _ in range(_NODA_MAX_SOLVES):
        ratios = (P @ x) / x
        lo = max(lo, float(np.minimum.reduce(ratios, None)))
        hi = min(hi, float(np.maximum.reduce(ratios, None)))
        if hi - lo <= 1e-15 * max(1.0, lo + c) or not hi - lo < width:
            break
        width = hi - lo
        np.add(diagonal, hi, out=on_diagonal)
        try:
            y = _solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        bottom, top = np.minimum.reduce(y, None), np.maximum.reduce(y, None)
        if not (bottom > 0.0 and top < math.inf):  # also false on a NaN
            break
        # rounding is monotone, so bottom / top is the smallest entry of y / top
        if not bottom / top > 0.0:  # an entry underflowed
            break
        x = y / top
    return lo, hi, x


def _irreducible_blocks(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the irreducible diagonal blocks of a square float64 A.

    These are the strongly connected components of the off-diagonal
    digraph (edge i -> j whenever i != j and A[i, j] != 0), in the order of
    their smallest index; A is irreducible exactly when there is one.  Each
    component is the set of nodes that both reach and are reached from its
    smallest node, found among the nodes no earlier component took.

    A digraph with every off-diagonal edge, as that of a dense K, R or S,
    is one component: one count of the nonzero entries finds it, and the
    search does not run.  Otherwise sets of nodes are Python integers, bit
    j for node j, and the digraph's rows and its columns are packed once
    each.  A component is the intersection of a search along the edges and
    one against them, from its smallest node over the nodes left: every
    node on a path between two nodes of a component is in it, so the nodes
    that earlier components took cut no such path.  Each level of a search
    is the union of the rows (or columns) of its frontier's nodes, read
    from the lowest node up and stopped at the first that covers every
    node left unseen.  A self-loop leads a node only to itself, so the
    diagonal is not cleared.
    """
    n = A.shape[0]
    adj = A != 0.0
    if np.count_nonzero(adj) - np.count_nonzero(adj.diagonal()) == n * (n - 1):
        return [np.arange(n)]
    width = (n + 7) // 8
    # row j of the digraph at bytes j * width on in successors, column j in predecessors
    successors, predecessors = (np.packbits(m, axis=1, bitorder="little").tobytes() for m in (adj, adj.T.copy()))

    def reach(rows: bytes, pivot: int, left: int) -> int:
        """The nodes of left that pivot reaches through nodes of left, each node's row at rows[j * width:]."""
        seen = front = pivot
        while front:
            goal, out = left & ~seen, 0
            while front:
                low = front & -front
                k = (low.bit_length() - 1) * width
                out |= int.from_bytes(rows[k : k + width], "little")
                if out & goal == goal:
                    break
                front ^= low
            front = out & goal
            seen |= front
        return seen

    everything = left = (1 << n) - 1
    blocks = []
    while left:
        pivot = left & -left  # the smallest node left
        block = reach(successors, pivot, left) & reach(predecessors, pivot, left)
        if block == everything:
            return [np.arange(n)]  # A is irreducible
        left ^= block
        bits = np.unpackbits(np.frombuffer(block.to_bytes(width, "little"), np.uint8), count=n, bitorder="little")
        blocks.append(np.flatnonzero(bits))
    return blocks


def _perron_pair(A: np.ndarray, start: np.ndarray | None = None) -> tuple[float, np.ndarray | None]:
    """Perron root, to full accuracy, and a Perron vector of a finite, nonnegative, square float64 A.

    A 1x1 A is its own root, with vector 1.  Otherwise the root is the
    midpoint of the Collatz-Wielandt bounds of ``_noda_bounds``, a few
    LAPACK solves from ``start`` (a positive vector; None is 1), closed to
    a width of at most 1e-15 max(1, lo + c) with ``c = 1 + max diag(A)``,
    and the vector x > 0 is the iteration's last.  The bounds hold from
    any positive start; one near the Perron vector saves solves
    (``_perron_start`` normalizes a candidate and rejects one that is not
    positive).  Where they stay open on a reducible A (a Perron vector
    with zero entries, a nilpotent A), the root is the largest root of the
    irreducible diagonal blocks of ``_irreducible_blocks``, each taken by
    this function from 1, and x is None.  Where rounding stalls them on an
    irreducible A, the iteration reruns on diag(x_1)^-1 A diag(x_1), x_1
    its last vector: the same root, and a Perron vector x_2 near 1 whose
    small entries the solves no longer lose to the spread of x_1; then
    x = x_1 x_2 entrywise.  Where both runs still leave the bounds open, as
    on an A irreducible only through couplings of rounding size (the upper
    bound is then the root, and the lower one stalls), the lower bound of
    ``_pruned_lower_bound`` joins them.  Bounds within 1e-14 max(1, lo + c)
    give the root; wider ones raise NoConvergence.  So an irreducible A
    always has its vector.
    """
    if A.shape[0] == 1:
        return float(A[0, 0]), np.ones(1)
    c = 1.0 + float(A.diagonal().max())
    lo, hi, x = _noda_bounds(A, c, start)
    if hi - lo > 1e-15 * max(1.0, lo + c):
        blocks = _irreducible_blocks(A)
        if len(blocks) > 1:
            return max(_perron_pair(A[b[:, None], b])[0] for b in blocks), None
        lo_x, hi_x, y = _noda_bounds(A * x / x[:, None], c)
        lo, hi = max(lo, lo_x), min(hi, hi_x)
        if not hi - lo <= 1e-14 * max(1.0, lo + c):
            lo = max(lo, _pruned_lower_bound(A, c))
        if not hi - lo <= 1e-14 * max(1.0, lo + c):
            raise NoConvergence(
                f"Collatz-Wielandt bounds [{lo:.6e}, {hi:.6e}] failed to close on an irreducible matrix"
            )
        x = x * y
    return 0.5 * (lo + hi), x


def _pruned_lower_bound(A: np.ndarray, c: float) -> float:
    """A lower bound on rho(A) of a nonnegative square float64 A, read off A with its rounding-size couplings cut.

    A_0 is A with every off-diagonal entry below eps ||A||_inf set to
    zero.  As 0 <= A_0 <= A entrywise, rho(A_0) <= rho(A) (Perron-Frobenius
    monotonicity), and rho(A_0) is the largest root of its irreducible
    diagonal blocks; each block's lower Collatz-Wielandt bound from
    ``_noda_bounds`` is proved, so the largest of them bounds rho(A) from
    below.  Which entries are cut decides only how close the bound comes,
    never whether it holds.
    """
    A0 = A.copy()
    cut = A0 < EPS * inf_norm(A)
    np.fill_diagonal(cut, False)
    A0[cut] = 0.0
    return max(_noda_bounds(A0[b[:, None], b], c)[0] for b in _irreducible_blocks(A0))


def _perron_start(x: np.ndarray) -> np.ndarray | None:
    """``x / max x`` where that is finite and positive, a start for ``_perron_pair``; None otherwise."""
    top = x.max()
    if not (x.min() > 0.0 and top < math.inf):  # also false on a NaN
        return None
    x = x / top
    return x if x.min() > 0.0 else None


def spectral_radius_nonneg(P) -> float:
    """Perron root of an entrywise-nonnegative square matrix: the root of ``_perron_pair``."""
    A = as_square(P, "P")
    if (A < 0).any():
        raise ValueError("P must be entrywise nonnegative")
    return _perron_pair(A)[0]


"""Dense real linear-algebra kernels for the Riccati solver stack.

All routines work on dense float64 arrays and are pure functions of their
inputs with no module state, so concurrent use is safe.  Only the kernels
that carry a tolerance contract numpy does not offer are written here: the
semipositivity certificate of ``m_solve`` for matrices that the theory
makes nonsingular M-matrices, and the certified Perron root of a
nonnegative matrix with its Perron vector.  The certificate's column of
ones is laid out by the core ``_m_solve(A, *blocks)`` alone: its callers
pass their right-hand side blocks.  Every solve runs in LAPACK
through ``np.linalg.solve``; no general eigensolve is needed, as every
spectral quantity the package reports is a Perron root.  The Perron root is
bracketed by Collatz-Wielandt bounds on the vectors of Noda's shifted
inverse iteration, one LAPACK solve per step, and the last of those
vectors is the Perron vector (``perron_pair``).  Where those bounds stay
open on a reducible matrix, as when its Perron vector has zero entries,
the root is the largest one of its irreducible diagonal blocks (the
strongly connected components of its digraph, ``irreducible_blocks``),
each bracketed the same way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, ShapeMismatch, SingularMatrix

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array (row-major copy).

    This is the input check of the public entry points: ``m_solve``,
    ``perron_pair``, ``spectral_radius_nonneg`` and ``irreducible_blocks``
    here, the public functions of ``mstruct``, the problem model, its
    candidate solutions and its JSON loaders.  ``m_solve``,
    ``perron_pair``, ``irreducible_blocks`` and ``classify_zm`` are this
    check plus a call to a private core (``_m_solve``, ``_perron_pair``,
    ...) that does only the work.  The cores trust their callers to pass
    float64 arrays that have passed it, and the package's own callers do.
    """
    try:
        M = np.array(a, dtype=np.float64, order="C")
    except OverflowError as exc:  # a Python integer beyond the float64 range
        raise ValueError(f"{name} has an entry beyond the float64 range") from exc
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


def _as_rhs(rhs, rows: int) -> np.ndarray:
    """``rhs`` as a float64 vector or matrix with ``rows`` rows."""
    b = np.asarray(rhs, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != rows:
        raise ShapeMismatch(f"rhs of shape {b.shape} does not fit a matrix of order {rows}")
    return b


def _is_z(A: np.ndarray) -> bool:
    """True when the finite square A has no positive off-diagonal entry (a Z-matrix).

    The off-diagonal entries are read in place: the flat array after its
    first entry, in rows of n + 1, holds one diagonal entry at the end of
    each row.
    """
    n = A.shape[0]
    return n == 1 or bool(A.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].max() <= 0.0)


def _with_ones(*blocks: np.ndarray) -> np.ndarray:
    """``[blocks 1]``: the blocks side by side (a vector is one column) and a column of ones."""
    cols = [b[:, None] if b.ndim == 1 else b for b in blocks]
    out = np.empty((cols[0].shape[0], sum(c.shape[1] for c in cols) + 1))
    j = 0
    for c in cols:
        out[:, j : j + c.shape[1]] = c
        j += c.shape[1]
    out[:, j] = 1.0
    return out


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
    b = _as_rhs(rhs, A.shape[0])
    X, dist, certified = _m_solve(A, b)
    return (X[:, 0] if b.ndim == 1 else X), dist, certified


def _m_solve(A: np.ndarray, *blocks: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """The core of ``m_solve``: ``(A^{-1} [blocks], dist, certified)``.

    It builds ``[blocks 1]`` (``_with_ones``; a vector block is one column)
    and solves it once; x is the last column of that solution and is not
    returned.  A must be a square float64 array with as many rows as each
    block.  Its entries are checked to be finite here (ValueError), as the
    package's callers form it by arithmetic.
    """
    if not np.isfinite(A).all():
        raise ValueError("matrix contains NaN or Inf entries")
    try:
        sol = np.linalg.solve(A, _with_ones(*blocks))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is exactly singular ({exc})") from exc
    x = sol[:, -1]
    n = A.shape[0]
    certified = bool(_is_z(A) and x.min() > 0.0 and (A @ x > (n + 2) * EPS * (np.abs(A) @ x)).all())
    return sol[:, :-1], 1.0 / float(np.abs(x).max()), certified


# ---------------------------------------------------------------------------
# Spectral radius of entrywise-nonnegative matrices
# ---------------------------------------------------------------------------


# Noda's iteration closes the Perron bounds in at most 8 solves on every
# split of the acceptance suites and benchmark workloads; a width still open
# after this many creeps towards a Perron vector with zero entries.
_NODA_MAX_SOLVES = 20


def _noda_bounds(P: np.ndarray, c: float) -> tuple[float, float, np.ndarray]:
    """``(lo, hi, x)``: Collatz-Wielandt bounds lo <= rho(P) <= hi of P >= 0 and the last x > 0.

    For any x > 0, min (P x)_i / x_i <= rho(P) <= max (P x)_i / x_i.  The
    vector comes from Noda's shifted inverse iteration (Numer. Math. 17
    (1971) 382-386): from x = 1, each step solves (hi I - P) y = x with hi
    the current upper bound, and the bounds of successive vectors are
    intersected.  For irreducible P the width closes quadratically, in a
    handful of solves, to 1e-15 max(1, lo + c).  The iteration stops with a
    wider width when an iterate would not be strictly positive, LAPACK
    finds the shifted matrix singular, or the width stops shrinking: on a
    reducible P whose Perron vector has zero entries, and where rounding
    stalls it on an irreducible P.
    """
    n = P.shape[0]
    x = np.ones(n)
    lo, hi = 0.0, math.inf
    width = math.inf
    # hi I - P is -P with hi added to its diagonal, written in place each step
    shifted = np.negative(P, order="C")
    diagonal = shifted.diagonal().copy()
    on_diagonal = shifted.reshape(-1)[:: n + 1]
    for _ in range(_NODA_MAX_SOLVES):
        ratios = (P @ x) / x
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi - lo <= 1e-15 * max(1.0, lo + c) or not hi - lo < width:
            break
        width = hi - lo
        np.add(diagonal, hi, out=on_diagonal)
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        top = y.max()
        if not (y.min() > 0.0 and top < math.inf):  # also false on a NaN
            break
        y = y / top
        if not y.min() > 0.0:  # an entry underflowed
            break
        x = y
    return lo, hi, x


def _reach(adj: np.ndarray, start: int, allowed: np.ndarray) -> np.ndarray:
    """Mask of the ``allowed`` nodes reachable from ``start`` along ``adj``, by frontier expansion."""
    seen = np.zeros(len(adj), dtype=bool)
    seen[start] = True
    frontier = [start]
    while len(frontier):
        nxt = adj[frontier].any(axis=0) & allowed & ~seen
        frontier = np.flatnonzero(nxt)
        seen |= nxt
    return seen


def irreducible_blocks(M) -> list[np.ndarray]:
    """Index sets of the irreducible diagonal blocks of a square M.

    These are the strongly connected components of the off-diagonal
    digraph (edge i -> j whenever i != j and M[i, j] != 0), in the order of
    their smallest index; M is irreducible exactly when there is one.  Each
    component is the set of nodes that both reach and are reached from its
    smallest node, found among the nodes no earlier component took.
    """
    return _irreducible_blocks(as_square(M))


def _irreducible_blocks(A: np.ndarray) -> list[np.ndarray]:
    """The core of ``irreducible_blocks``, for a square float64 A."""
    adj = A != 0.0
    np.fill_diagonal(adj, False)
    left = np.ones(A.shape[0], dtype=bool)
    blocks = []
    while left.any():
        i = int(left.argmax())
        block = _reach(adj, i, left) & _reach(adj.T, i, left)
        blocks.append(np.flatnonzero(block))
        left &= ~block
    return blocks


def perron_pair(P) -> tuple[float, np.ndarray | None]:
    """Perron root of an entrywise-nonnegative square P, to full accuracy, and a Perron vector.

    A 1x1 P is its own root, with vector 1.  Otherwise the root is the
    midpoint of the Collatz-Wielandt bounds of ``_noda_bounds``, a few
    LAPACK solves, closed to a width of at most 1e-15 max(1, lo + c) with
    ``c = 1 + max diag(P)``, and the vector x > 0 is the iteration's last.
    Where they stay open on a reducible P (a Perron vector with zero
    entries, a nilpotent P), the root is the largest root of the
    irreducible diagonal blocks of ``irreducible_blocks``, each taken by
    this function, and x is None.  Where rounding stalls them on an
    irreducible P, the iteration reruns on diag(x_1)^-1 P diag(x_1), x_1
    its last vector: the same root, and a Perron vector x_2 near 1 whose
    small entries the solves no longer lose to the spread of x_1; then
    x = x_1 x_2 entrywise.  Bounds of both runs within 1e-14 max(1, lo + c)
    give the root; wider ones raise NoConvergence.  So an irreducible P
    always has its vector.
    """
    A = as_square(P, "P")
    if (A < 0).any():
        raise ValueError("P must be entrywise nonnegative")
    return _perron_pair(A)


def _perron_pair(A: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The core of ``perron_pair``, for a finite, entrywise-nonnegative, square float64 A."""
    if A.shape[0] == 1:
        return float(A[0, 0]), np.ones(1)
    c = 1.0 + float(A.diagonal().max())
    lo, hi, x = _noda_bounds(A, c)
    if hi - lo > 1e-15 * max(1.0, lo + c):
        blocks = _irreducible_blocks(A)
        if len(blocks) > 1:
            return max(_perron_pair(A[np.ix_(b, b)])[0] for b in blocks), None
        lo_x, hi_x, y = _noda_bounds(A * x / x[:, None], c)
        lo, hi = max(lo, lo_x), min(hi, hi_x)
        if not hi - lo <= 1e-14 * max(1.0, lo + c):
            raise NoConvergence(
                f"Collatz-Wielandt bounds [{lo:.6e}, {hi:.6e}] failed to close on an irreducible matrix"
            )
        x = x * y
    return 0.5 * (lo + hi), x


def spectral_radius_nonneg(P) -> float:
    """Perron root of an entrywise-nonnegative square matrix: the root of ``perron_pair``."""
    return perron_pair(P)[0]


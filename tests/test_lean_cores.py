"""The lean private cores give the same bits as the implementations they replaced.

The reference implementations below are the earlier, check-everything
versions of ``_m_solve``, Noda's iteration with ``_perron_pair``, the split
of ``classify_zm`` and the report writer, kept as they were.  So are the
cores that rebuilt their constants on every call: the block search by
boolean frontiers (``_reach``), the doubling's cross solves and initial
blocks on a fresh ``np.eye``, the residual and closing matrices that take
every 1-norm again, the loop form of ``observed_rate`` and the report
writer that formats a row entry by entry.  So is the doubling step that
counted and normed every block anew (``_ref_step_blocks`` and
``_ref_iterate``), with the stop test that took both norms on every
step (``_ref_stopped``).  Every
output of the new code is compared with theirs byte for byte: floats by
their bit patterns, signed zeros and NaN included, and reports as text.
The one exception is the certificate's similarity value, which the dense
reference forms another way: it is compared by verdict and within a
rounding bound derived below.
"""

import collections
import dataclasses
import inspect
import itertools
import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest

from helpers import bench_problems, reducible_m_matrix, reducible_problems, sign_flipped
from marekit import (
    FamilySpec,
    MareProblem,
    Regime,
    classify_problem,
    classify_zm,
    cli,
    doubling,
    fixed_point_solve,
    generate,
    linalg,
    make_certificate,
    mstruct,
    problem_from_json,
    residual_dual,
    residual_primal,
    solve,
)
from marekit.cli import dumps_report
from marekit.errors import (
    AmbiguousKernel,
    IterationBreakdown,
    MareError,
    MaxIterations,
    NoConvergence,
    SingularMatrix,
)
from marekit.linalg import EPS, as_square, one_norm, spectral_radius_nonneg
from marekit.mstruct import IrreducibleBlock, MatrixKind, MClassification, class_tol, gap_kind

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def _ref_m_solve(M, rhs):
    A = as_square(M)
    n = A.shape[0]
    b = np.asarray(rhs, dtype=np.float64)
    try:
        sol = np.linalg.solve(A, np.column_stack([b, np.ones(n)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"matrix is exactly singular ({exc})") from exc
    x = sol[:, -1]
    X = sol[:, 0] if b.ndim == 1 else sol[:, :-1]
    z_matrix = (A - np.diag(np.diag(A)) <= 0.0).all()
    certified = bool(z_matrix and (x > 0.0).all() and (A @ x > (n + 2) * EPS * (np.abs(A) @ x)).all())
    return X, 1.0 / float(np.abs(x).max()), certified


def _ref_noda_bounds(P, c):
    n = P.shape[0]
    x = np.ones(n)
    lo, hi = 0.0, math.inf
    width = math.inf
    for _ in range(linalg._NODA_MAX_SOLVES):
        ratios = (P @ x) / x
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi - lo <= 1e-15 * max(1.0, lo + c) or not hi - lo < width:
            break
        width = hi - lo
        shifted = -P
        shifted.flat[:: n + 1] += hi
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        if not ((y > 0.0) & (y < math.inf)).all():
            break
        y = y / y.max()
        if not (y > 0.0).all():
            break
        x = y
    return lo, hi, x


def _ref_perron_pair(P):
    A = as_square(P, "P")
    if (A < 0).any():
        raise ValueError("P must be entrywise nonnegative")
    if A.shape[0] == 1:
        return float(A[0, 0]), np.ones(1)
    c = 1.0 + float(np.diag(A).max())
    lo, hi, x = _ref_noda_bounds(A, c)
    if hi - lo > 1e-15 * max(1.0, lo + c):
        blocks = linalg._irreducible_blocks(A)
        if len(blocks) > 1:
            return max(_ref_perron_pair(A[np.ix_(b, b)])[0] for b in blocks), None
        lo_x, hi_x, y = _ref_noda_bounds(A * x / x[:, None], c)
        lo, hi = max(lo, lo_x), min(hi, hi_x)
        if not hi - lo <= 1e-14 * max(1.0, lo + c):
            raise NoConvergence("Collatz-Wielandt bounds failed to close on an irreducible matrix")
        x = x * y
    return 0.5 * (lo + hi), x


def _ref_split(M):
    s = float(np.diag(M).max())
    B = s * np.eye(M.shape[0]) - M
    B[B < 0] = 0.0
    return s, B


def _ref_classify_zm(M):
    A = as_square(M)
    s = float(np.diag(A).max())
    tol = class_tol(A)
    if (A - np.diag(np.diag(A)) > 0.0).any():
        return MClassification(MatrixKind.NOT_Z, s, math.nan, tol)
    blocks = []
    for b in linalg._irreducible_blocks(A):
        Mbb = A[np.ix_(b, b)]
        s_b, B = _ref_split(Mbb)
        rho, x = _ref_perron_pair(B)
        final = np.count_nonzero(A[b]) == np.count_nonzero(Mbb)
        blocks.append(IrreducibleBlock(b, s_b - rho, gap_kind(s_b - rho, tol), final, x))
    gap = min(b.gap for b in blocks)
    return MClassification(gap_kind(gap, tol), s, gap, tol, tuple(blocks))


def _ref_fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def _ref_dumps_report(obj, indent=0):
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _ref_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad_in + _ref_dumps_report(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad_in + json.dumps(str(k)) + ": " + _ref_dumps_report(v, indent + 1) for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _ref_similarity_residual(p, cert):
    """||H F - F diag(R, -S)||_1 / ||H||_1, H the sign-flipped matrix and F = [[I, psi], [phi, I]]."""
    n = p.n
    factor = np.eye(p.size)
    factor[:n, n:] = cert.psi
    factor[n:, :n] = cert.phi
    block_diag = np.zeros((p.size, p.size))
    block_diag[:n, :n] = cert.R
    np.negative(cert.S, out=block_diag[n:, n:])
    H = sign_flipped(p)
    return one_norm(H @ factor - factor @ block_diag) / max(one_norm(H), EPS)


def _ref_block_pair(K, n, blk, rest):
    """The kernel pair of K from its singular block ``blk``, by its own two solves on K_NN.

    The left Perron vector is the package's ``_left_perron``, so the pairs
    compare to the bit and the test pins the stacking alone.
    """
    b = blk.index
    y = mstruct._left_perron(K[np.ix_(b, b)], blk.perron)
    v = np.zeros(K.shape[0])
    u = np.zeros(K.shape[0])
    v[b], u[b] = blk.perron, y
    if rest.any():
        K_NN = K[np.ix_(rest, rest)]
        right_sol, _, right = _ref_m_solve(K_NN, -(K[np.ix_(rest, b)] @ blk.perron))
        left_sol, _, left = _ref_m_solve(K_NN.T.copy(), -(y @ K[np.ix_(b, rest)]))
        v[rest], u[rest] = right_sol, left_sol
        if not (right and left):
            raise SingularMatrix("M^{-1} 1 does not certify the nonsingular blocks of K")
    v, u = np.maximum(v, 0.0), np.maximum(u, 0.0)
    v, u = v / v.sum(), u / u.sum()
    tol = mstruct.null_tol(K)
    if linalg.inf_norm(K @ v) > tol or linalg.inf_norm(u @ K) > tol:
        raise AmbiguousKernel("kernel residual exceeds tolerance")
    return mstruct.NullPair(u, v, float(u[:n] @ v[:n] - u[n:] @ v[n:]))


def _ref_block_null_pairs(K, n, classification):
    A = as_square(K)
    rest = np.ones(A.shape[0], dtype=bool)
    for blk in classification.singular_blocks:
        rest[blk.index] = False
    return [_ref_block_pair(A, n, blk, rest) for blk in classification.singular_blocks]


def _ref_reach(adj, start, allowed):
    seen = np.zeros(len(adj), dtype=bool)
    seen[start] = True
    frontier = [start]
    while len(frontier):
        nxt = adj[frontier].any(axis=0) & allowed & ~seen
        frontier = np.flatnonzero(nxt)
        seen |= nxt
    return seen


def _ref_irreducible_blocks(A):
    adj = A != 0.0
    np.fill_diagonal(adj, False)
    left = np.ones(A.shape[0], dtype=bool)
    blocks = []
    while left.any():
        i = int(left.argmax())
        block = _ref_reach(adj, i, left) & _ref_reach(adj.T, i, left)
        blocks.append(np.flatnonzero(block))
        left &= ~block
    return blocks


def _ref_cross_solves(G, H):
    igh, ihg = G @ H, H @ G
    for M in (igh, ihg):
        np.subtract(0.0, M, out=M)
        M.reshape(-1)[:: len(M) + 1] += 1.0
    try:
        W, dist_igh, certified_igh, _ = linalg._m_solve(igh, np.eye(len(igh)))
    except SingularMatrix:
        W, dist_igh, certified_igh, dist_ihg, certified_ihg = None, 0.0, False, 0.0, False
    else:
        x2 = 1.0 + H @ (W @ G.sum(axis=1))
        dist_ihg, certified_ihg = 1.0 / float(np.abs(x2).max()), linalg._certifies(ihg, x2)
    kinds = [
        MatrixKind.NONSINGULAR_M if certified else mstruct.classify_zm(M).kind
        for M, certified in ((igh, certified_igh), (ihg, certified_ihg))
    ]
    return W, (dist_igh, kinds[0]), (dist_ihg, kinds[1])


def _ref_step_blocks(s):
    """(E+, F+, G+, H+) of ``doubling.step`` from s: its products and rebalancing, nonfinite blocks kept."""
    E, F, G, H, W = s.E, s.F, s.G, s.H, s.solves
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        EW, GF = E @ W, G @ F
        FHW = F @ H @ W
        E_new = EW @ E
        F_new = F @ F + FHW @ GF
        G_new = G + EW @ GF
        H_new = H + FHW @ E
        ne, nf = one_norm(E_new), one_norm(F_new)
        if max(ne, nf) > 1e100 and min(ne, nf) > 0.0:
            theta = math.sqrt(nf) / math.sqrt(ne)
            E_new = E_new * theta
            F_new = F_new / theta
    return E_new, F_new, G_new, H_new


def _ref_iterate(E, F, G, H, tau, prev):
    W, (dist_igh, kind_igh), (dist_ihg, kind_ihg) = doubling._cross_solves(G, H)
    if prev is None:
        k, dH_columns, dG, mono = 0, None, math.nan, 0
        sign_E, sign_F = np.count_nonzero(E > tau), np.count_nonzero(F > tau)
    else:
        k, dH_columns, dG = prev.k + 1, np.abs(H - prev.H).sum(axis=0), one_norm(G - prev.G)
        mono = np.count_nonzero(H < prev.H - tau) + np.count_nonzero(G < prev.G - tau)
        sign_E, sign_F = np.count_nonzero(E < -tau), np.count_nonzero(F < -tau)
    diag = doubling.StepDiagnostics(
        k=k,
        dH=math.nan if dH_columns is None else float(dH_columns.max()),
        dG=dG,
        dist_IGH=dist_igh,
        dist_IHG=dist_ihg,
        kind_IGH=kind_igh,
        kind_IHG=kind_ihg,
        sign_violations_E=int(sign_E),
        sign_violations_F=int(sign_F),
        monotonicity_violations=int(mono),
        dH_columns=dH_columns,
    )
    return doubling.DoublingState(k, E, F, G, H, diag, tau, W)


def _ref_stopped(state, tol):
    d = state.diagnostics
    return d.dH <= tol * max(1.0, one_norm(state.H)) and d.dG <= tol * max(1.0, one_norm(state.G))


def _ref_initial_blocks(p, params):
    """(E0, F0, G0, H0) of ``doubling.initialize``; SingularMatrix where the shifted K fails its certificate."""
    n = p.n
    shifted = p.K + np.diag(np.repeat([params.alpha, params.beta], [n, p.m]))
    Z, _, certified, _ = linalg._m_solve(shifted, np.eye(p.size))
    if not certified:
        raise SingularMatrix("matrix fails its nonsingular M-matrix certificate")
    Z *= params.alpha + params.beta
    return np.eye(n) - Z[:n, :n], np.eye(p.m) - Z[n:, n:], Z[:n, n:], Z[n:, :n]


def _ref_residual(X, A, B, C, D):
    num = one_norm(X @ C @ X - X @ D - A @ X + B)
    den = one_norm(X) * (one_norm(C) * one_norm(X) + one_norm(D) + one_norm(A)) + one_norm(B)
    return num, num / max(den, EPS)


def _ref_closing(D, C, X, start):
    M = as_square(D - C @ X)
    scale = one_norm(D) + one_norm(C) * one_norm(X)
    cls = mstruct._classify_blocks(M, start)
    return M, cls, scale, abs(cls.gap) <= 1e-8 * max(scale, EPS)


def _ref_observed_rate(trace):
    usable = []
    later = 0.0
    for d in reversed(trace):
        err = float(np.max(later))
        if err > 100 * EPS:
            usable.append((d.k, err))
        if d.dH_columns is not None:
            later = later + d.dH_columns
    if len(usable) < 2:
        return None
    return min(err ** (1.0 / 2.0**k) for k, err in usable[:3])


def _ref_dumps_report_entrywise(obj, indent=0):
    """The report writer that formats every float of a row on its own."""
    if isinstance(obj, (float, np.floating)):
        return _ref_fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            texts = map(_ref_fmt_float, obj)
        else:
            texts = [_ref_dumps_report_entrywise(v, indent + 1) for v in obj]
        return "[\n" + pad_in + (",\n" + pad_in).join(texts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad_in + encode_basestring_ascii(str(k)) + ": " + _ref_dumps_report_entrywise(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes (a float compares by its bit pattern); None only with None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _solve(M, rhs):
    """``_m_solve`` as the reference is called: a vector right-hand side gives a vector."""
    b = np.asarray(rhs, dtype=np.float64)
    X, dist, certified, _ = linalg._m_solve(as_square(M), b)
    return (X[:, 0] if b.ndim == 1 else X), dist, certified


def _assert_same_solve(M, rhs):
    try:
        want = _ref_m_solve(M, rhs)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            _solve(M, rhs)
        return
    got = _solve(M, rhs)
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1]) and got[2] is want[2]


def _assert_same_perron(B):
    want, got = _ref_perron_pair(B), linalg._perron_pair(as_square(B))
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def _assert_same_classification(M):
    want, got = _ref_classify_zm(M), classify_zm(M)
    assert got.kind is want.kind
    for name in ("s", "rho_B", "gap", "tol"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert len(got.blocks) == len(want.blocks)
    for g, w in zip(got.blocks, want.blocks):
        assert _same_bits(g.index, w.index) and _same_bits(g.gap, w.gap) and _same_bits(g.perron, w.perron)
        assert g.kind is w.kind and g.final == w.final


def _assert_same_split(M):
    s_want, B_want = _ref_split(M)
    s_got, B_got = mstruct._split(M)
    assert _same_bits(s_got, s_want) and _same_bits(B_got, B_want)
    assert B_got.flags.c_contiguous == B_want.flags.c_contiguous


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _random_z(rng, n, density=0.6, shift=0.0):
    """A Z-matrix: nonnegative off-diagonal part negated, diagonal row sums plus ``shift``."""
    N = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(N, 0.0)
    return np.diag(N.sum(axis=1) + shift) - N


def _random_matrices():
    rng = np.random.default_rng(20)
    out = []
    for n in (1, 2, 3, 5, 8, 13, 21):
        for shift in (0.0, 1e-12, 1e-3, 1.0, -0.5):
            out.append(_random_z(rng, n, shift=shift))  # singular, nearly and clearly nonsingular, not M
        out.append(_random_z(rng, n, density=0.15, shift=0.2))  # mostly reducible
        # block upper triangular: reducible with a coupled first block
        if n > 1:
            M = _random_z(rng, n, shift=0.1)
            k = n // 2
            M[k:, :k] = 0.0
            out.append(M)
        out.append(rng.standard_normal((n, n)))  # not a Z-matrix
    out.append(np.zeros((3, 3)))
    out.append(np.array([[-0.0, -0.0], [-0.0, -0.0]]))
    out.append(np.array([[0.0]]))
    out.append(np.array([[-2.5]]))
    out.append(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]]))  # a chain, final last block
    return out


@pytest.fixture(scope="module")
def matrices(solved_noncritical, solved_nonsingular):
    """Random Z-, M- and other matrices, and those of the solved acceptance suites.

    From each solved problem: K, its coefficient blocks A and D, the closing
    matrices R and S, I - Phi Psi and I - Psi Phi, and the leading principal
    block of K with its transpose.
    """
    out = _random_matrices()
    for p, rep in solved_noncritical + solved_nonsingular:
        cert = rep.certificate
        k = max(1, p.size // 2)
        out += [p.K, p.A, p.D, cert.R, cert.S, np.eye(p.m) - rep.phi @ rep.psi, np.eye(p.n) - rep.psi @ rep.phi]
        out += [p.K[:k, :k], p.K[:k, :k].T]
    return out


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestMSolve:
    def test_same_bits_on_suites_and_random_matrices(self, matrices):
        rng = np.random.default_rng(3)
        for M in matrices:
            n = len(M)
            _assert_same_solve(M, np.ones(n))
            _assert_same_solve(M, rng.random(n))
            _assert_same_solve(M, rng.standard_normal((n, 3)))
            _assert_same_solve(M, np.zeros((n, 0)))

    def test_edge_cases(self):
        _assert_same_solve([[2.0]], [4.0])  # 1x1 certified
        _assert_same_solve([[-2.0]], [[4.0, 1.0]])  # 1x1 not an M-matrix
        _assert_same_solve([[1.0, 2.0], [0.5, 3.0]], [1.0, 1.0])  # not a Z-matrix
        _assert_same_solve([[1.0, -1.0], [0.0, 1.0]], [[1.0], [2.0]])  # reducible
        _assert_same_solve([[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0])  # exactly singular

    def test_nan_rejected_by_the_public_function(self):
        # the exported entries that lead to a solve check their matrices before the core sees them
        with pytest.raises(ValueError, match="D contains NaN or Inf"):
            MareProblem(n=2, m=1, A=[[1.0]], B=[[1.0, 0.0]], C=[[0.0], [1.0]], D=[[1.0, math.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            classify_zm([[math.inf]])

    def test_core_checks_finiteness_of_built_matrices(self):
        # the doubling layer forms its matrices by arithmetic and relies on this check
        with pytest.raises(ValueError, match="NaN or Inf"):
            linalg._m_solve(np.array([[1.0, -math.inf], [0.0, 1.0]]), np.ones(2))


class TestPerronPair:
    def test_same_bits_on_every_split(self, matrices):
        for M in matrices:
            if linalg._is_z(np.asarray(M, dtype=np.float64)):
                _assert_same_perron(_ref_split(as_square(M))[1])
                _assert_same_perron(_ref_split(as_square(M).T)[1])

    def test_same_bits_on_nonnegative_matrices(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4, 9, 16):
            _assert_same_perron(rng.random((n, n)))
            _assert_same_perron(rng.random((n, n)) * (rng.random((n, n)) < 0.2))  # reducible, zero rows
            _assert_same_perron(np.triu(rng.random((n, n)), 1))  # nilpotent
        _assert_same_perron([[0.0]])
        _assert_same_perron([[3.0]])

    def test_nan_and_negative_entries_rejected_by_the_public_function(self):
        with pytest.raises(ValueError, match="P contains NaN or Inf"):
            spectral_radius_nonneg([[1.0, math.nan], [1.0, 1.0]])
        with pytest.raises(ValueError, match="P must be entrywise nonnegative"):
            spectral_radius_nonneg([[1.0, -1.0], [1.0, 1.0]])


class TestClassifyZM:
    def test_same_bits_on_suites_and_random_matrices(self, matrices):
        for M in matrices:
            _assert_same_classification(M)

    def test_split_same_bits(self, matrices):
        for M in matrices:
            A = np.asarray(M, dtype=np.float64)
            _assert_same_split(A)
            _assert_same_split(A.T)  # the left Perron vector splits a transpose
            _assert_same_split(-A)  # a negative max diagonal: s 0 is -0.0

    def test_single_block_is_final_and_its_own_split(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        cls = classify_zm(M)
        (blk,) = cls.blocks
        assert blk.final and cls.kind is MatrixKind.NONSINGULAR_M
        assert _same_bits(blk.index, np.arange(2))

    def test_nan_rejected_by_the_public_function(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            classify_zm([[1.0, math.nan], [0.0, 1.0]])


class TestBlockNullPairs:
    """One stacked solve per side gives the pairs of one solve pair per singular block."""

    @staticmethod
    def _singular_inputs(matrices):
        rng = np.random.default_rng(67)
        draws = [reducible_m_matrix(rng, int(rng.integers(3, 16)))[0] for _ in range(600)]
        return [M for M in [*matrices, *draws] if classify_zm(M).kind is MatrixKind.SINGULAR_M]

    def test_same_bits_as_one_solve_per_block(self, matrices):
        stacked = 0
        for M in self._singular_inputs(matrices):
            cls = classify_zm(M)
            n = len(M) // 2
            try:
                want = _ref_block_null_pairs(M, n, cls)
            except (SingularMatrix, AmbiguousKernel) as exc:
                with pytest.raises(type(exc)):
                    mstruct.block_null_pairs(M, n, cls)
                continue
            got, _ = mstruct.block_null_pairs(M, n, cls)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert _same_bits(g.u, w.u) and _same_bits(g.v, w.v) and _same_bits(g.drift, w.drift)
            if len(want) > 1 and len(cls.blocks) > len(want):
                stacked += len(want)
        assert stacked >= 100


class TestSimilarityResidual:
    """The similarity value read off the residuals gives the dense form's verdicts.

    Both forms evaluate the same exact matrix Z = H F - F diag(R, -S) at the
    certificate's phi, psi, R and S: zero diagonal blocks, the primal
    residual matrix E_p below them and minus the dual one E_d above.  With
    u = eps / 2, k = n + m + 3 and gamma = k u / (1 - k u), each entry of a
    product of inner length at most n + m, plus at most three sums, is
    within gamma of the sum of its terms' magnitudes:

    - the blockwise form computes E_p + e, |e| <= gamma W_p, with
      W_p = |B| + |A||phi| + |phi||D| + |phi||C||phi|, and E_d alike;
    - the dense form's (2, 1) block is within gamma (|B| + |A||phi|) +
      gamma |phi||R| + |phi| |R - (D - C phi)| <= 2 gamma W_p of E_p, and its
      (1, 1) block, two roundings of D - C phi, is at most
      2 gamma (|D| + |C||phi|); the (1, 2) and (2, 2) blocks alike.

    Every coefficient block's 1-norm is at most ||K||_1 = ||H||_1, so with
    t = max(||phi||_1, ||psi||_1) the 1-norms of W_p and W_d are at most
    ||K||_1 (1 + t)^2 and those of |D| + |C||phi| and |A| + |B||psi| at most
    ||K||_1 (1 + t).  The 1-norms' own sums add a relative gamma each.  The
    numerators thus differ by at most 7 gamma ||K||_1 (1 + t)^2, about
    3.5 k eps ||K||_1 (1 + t)^2.  Both are divided by the same ||K||_1, and
    the two divisions round by u each: the values differ by at most
    4 k eps (1 + t)^2, as k >= 5.
    """

    @staticmethod
    def _bound(p, cert):
        t = max(one_norm(cert.phi), one_norm(cert.psi))
        return 4 * (p.size + 3) * EPS * (1 + t) ** 2

    def test_same_verdicts_within_the_rounding_bound(self, solved_noncritical, solved_nonsingular):
        solved = [(p, rep.phi, rep.psi) for p, rep in solved_noncritical + solved_nonsingular]
        # of the tests/data problems only this one classifies; the other's K fails its certified solve
        data = problem_from_json((Path(__file__).parent / "data" / "fixed_point_closing.json").read_text())
        rep = solve(data)
        solved += [(data, rep.phi, rep.psi), (data, fixed_point_solve(data).phi, fixed_point_solve(data.dual()).phi)]
        verdicts = set()
        for p, phi, psi in solved:
            pc = classify_problem(p)
            for candidate, tol in itertools.product(
                ((phi, psi), (phi * (1 + 1e-6), psi), (phi, psi * (1 + 1e-4))), (1e-8, 1e-10)
            ):
                cert = make_certificate(p, *candidate, tol, problem_class=pc)
                (check,) = (c for c in cert.checks if c.name == "similarity-identity")
                want = _ref_similarity_residual(p, cert)
                assert check.value == cert.similarity_residual
                assert check.passed == (want <= tol), (p.name, tol, check.value, want)
                assert abs(cert.similarity_residual - want) <= self._bound(p, cert), p.name
                verdicts.add((tol, check.passed))
        assert verdicts == {(1e-8, True), (1e-8, False), (1e-10, True), (1e-10, False)}


class TestDumpsReport:
    # the seven types a report holds: dict, list, str, float, int, bool and None
    EDGE = {
        "nan": math.nan,
        "inf": [math.inf, -math.inf, math.nan],
        "negative_zero": -0.0,
        "zero_row": [0.0, -0.0, 5e-324],
        "ints": [1, -2, 7, 0],
        "bools": [True, False],
        "mixed_row": [1.0, 2, True, None, "x"],
        "empty": [],
        "empty_dict": {},
        "nested": [[], [[]], [[1.5, -0.0]], [{"a": [0.25]}]],
        "text": "résumé \"quoted\"\n",
        "none": None,
        "overflowing_sum": [1e308, 1e308, -0.0],  # finite entries whose sum is not
        "nan_row": [1.0, math.nan, 2.5],
        1: "a key that is not a string",
    }

    def test_edge_cases(self):
        assert dumps_report(self.EDGE) == _ref_dumps_report(self.EDGE)
        assert dumps_report(self.EDGE) == _ref_dumps_report_entrywise(self.EDGE)
        for value in self.EDGE.values():
            for indent in (0, 2):
                assert dumps_report(value, indent) == _ref_dumps_report(value, indent)
                assert dumps_report(value, indent) == _ref_dumps_report_entrywise(value, indent)
        assert '"nan": null' in dumps_report(self.EDGE)

    def test_rows_of_every_length(self):
        rng = np.random.default_rng(5)
        for length in range(1, 40):
            row = (rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)).tolist()
            for indent in (0, 3):
                assert dumps_report(row, indent) == _ref_dumps_report_entrywise(row, indent)
        with pytest.raises(TypeError):
            dumps_report({"x": object()})

    @pytest.mark.parametrize("value", [np.float64(1.0), np.zeros(2), (1.0,)], ids=["numpy-float", "array", "tuple"])
    def test_values_no_report_holds_are_refused(self, value):
        for obj in (value, {"x": value}, [value]):
            with pytest.raises(TypeError, match="cannot serialize"):
                dumps_report(obj)

    def test_same_text_on_reports_of_every_command(self, monkeypatch, tmp_path, reducible_singular, divergent):
        written = []

        def recording(obj, indent=0):
            written.append(obj)
            return _ref_dumps_report(obj, indent)

        monkeypatch.setattr(cli, "dumps_report", recording)
        path = tmp_path / "p.json"
        for p in (reducible_singular, divergent):
            path.write_text(cli.problem_to_json(p))
            for argv in (
                ["classify", str(path)],
                ["solve", str(path)],
                ["solve", str(path), "--method", "sda"],
                ["solve", str(path), "--method", "fixed-point"],
                ["oracle", str(path)],
                ["rate-study", str(path), "--grid", "2"],
                ["solve", str(path), "--tol", "-1"],
            ):
                cli.execute(argv)
        assert len(written) >= 10
        for obj in written:
            assert dumps_report(obj) == _ref_dumps_report(obj)
            assert dumps_report(obj) == _ref_dumps_report_entrywise(obj)

    def test_same_text_on_solve_reports(self, problems):
        compared = 0
        for p in problems:
            try:
                rep = solve(p)
            except MaxIterations as exc:
                rep = exc.report
            except MareError:
                continue
            for report in (cli._solve_report(rep), cli._report(rep.problem_class)):
                assert dumps_report(report) == _ref_dumps_report_entrywise(report)
                compared += 1
        assert compared >= 800


# ---------------------------------------------------------------------------
# Cores that build their constants once
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def one_sided():
    """Small problems of ``generate`` drawn with a one-sided mask: B = 0 or C = 0, a block triangular K."""
    out = []
    for regime in (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL):
        for seed in range(60):
            p = generate(FamilySpec(regime, 2 + seed % 5, 2 + seed % 4, seed=seed))
            if not p.B.any() or not p.C.any():
                out.append(p)
    assert len(out) >= 60
    return out


@pytest.fixture(scope="module")
def problems(noncritical_suite, nonsingular_suite, one_sided):
    """The acceptance suites, the reducible draws ``reducible_problems(29, 300)`` and the one-sided problems."""
    return noncritical_suite + nonsingular_suite + reducible_problems(29, 300) + one_sided


def _shapes(n):
    """Digraph shapes of order n: one block per node, diameter n - 1, and ten triangular blocks."""
    rng = np.random.default_rng(n)
    lower = np.tril(rng.random((n, n)))
    tridiagonal = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    k = max(1, n // 10)
    ten = np.tril(rng.random((n, n)))
    for i in range(0, n, k):
        block = ten[i : i + k, i : i + k]
        block[...] = rng.random(block.shape)
    return [lower, lower.T.copy(), tridiagonal, ten, ten.T.copy()]


class TestBlockSearch:
    # the early-cover break of a level's row reads, the irreducible return and the multi-block return
    BRANCHES = (
        ("if out & goal == goal:", "break"),
        ("if block == everything:", "# A is irreducible"),
        ("while left:", "return blocks"),
    )

    @classmethod
    def _check(cls, inputs):
        """The search on each input against ``_ref_irreducible_blocks``; each branch of BRANCHES ran on one."""
        fn = linalg._irreducible_blocks
        codes = {fn.__code__} | {c for c in fn.__code__.co_consts if inspect.iscode(c)}
        found = []
        calls = _lines_run(codes, lambda: found.extend(map(fn, inputs)))
        for (_, body) in _branch_lines(fn, *cls.BRANCHES).values():
            assert any(lines[body] for _, lines in calls)
        for A, got in zip(inputs, found, strict=True):
            want = _ref_irreducible_blocks(A)
            assert len(got) == len(want)
            assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_same_index_sets(self, matrices, problems):
        rng = np.random.default_rng(8)
        inputs = [np.asarray(M, dtype=np.float64) for M in matrices] + [p.K for p in problems]
        for n in (1, 2, 7, 8, 9, 63, 64, 65, 130):  # the bit sets cross byte and word boundaries
            inputs += [rng.random((n, n)) * (rng.random((n, n)) < d) for d in (0.02, 0.1, 0.5)]
            inputs += _shapes(n)
        inputs += _shapes(300)
        self._check(inputs)


    @staticmethod
    def _complete(rng, n):
        """Digraphs of order n with every off-diagonal edge: zero, nonzero and mixed diagonals."""
        full = rng.random((n, n)) + 0.5
        zero = full * (1.0 - np.eye(n))
        mixed = full.copy()
        mixed.reshape(-1)[:: 2 * (n + 1)] = 0.0
        return [full, zero, mixed, -zero]

    def test_complete_small_sparse_and_bench_digraphs(self):
        rng = np.random.default_rng(21)
        inputs = [A for n in range(1, 70) for A in self._complete(rng, n)]
        for n in (1, 2, 3):  # every digraph of order up to 3, diagonal included
            for bits in itertools.product((0.0, 1.0), repeat=n * n):
                inputs.append(np.array(bits).reshape(n, n) * (rng.random((n, n)) + 0.5))
        for n in (100, 200, 300):
            inputs += [rng.random((n, n)) * (rng.random((n, n)) < d / n) for d in (0.5, 1.0, 2.0, 4.0)]
        for p in bench_problems(13, ("sweep-small", "solve-large", "crosscheck", "critical")):
            inputs.append(p.K)
            try:
                cert = solve(p).certificate
            except MaxIterations as exc:
                cert = exc.report.certificate
            except MareError:
                continue
            inputs += [cert.R, cert.S]
        assert len(inputs) >= 1600
        self._check(inputs)

    def test_complete_digraph_is_one_block_without_a_search(self, monkeypatch):
        # one count decides a digraph with every off-diagonal edge: nothing is packed
        rng = np.random.default_rng(22)
        inputs = [A for n in (1, 2, 3, 8, 9, 64, 88, 130) for A in self._complete(rng, n)]

        def refuse(*args, **kwargs):
            raise AssertionError("the complete digraph was searched")

        monkeypatch.setattr(np, "packbits", refuse)
        for A in inputs:
            (block,) = linalg._irreducible_blocks(A)
            assert _same_bits(block, np.arange(len(A)))


def _run(p):
    """The states of a doubling run on p from its default parameters, to its stop test, the cap or a breakdown."""
    params = doubling.select_parameters(p)
    states = [doubling.initialize(p, params)]
    for _ in range(params.max_iter):
        try:
            state = doubling.step(states[-1])
        except IterationBreakdown:
            break
        states.append(state)
        d = state.diagnostics
        if d.dH <= 1e-14 * max(1.0, one_norm(state.H)) and d.dG <= 1e-14 * max(1.0, one_norm(state.G)):
            break
    return params, states


class TestDoublingCores:
    def test_initial_blocks_and_cross_solves_same_bits(self, problems, one_sided, critical_draws, bench_critical):
        # every state's cross solves against the formed test on both cross products:
        # H G is formed exactly where G or H has a negative entry, and the identity is
        # returned exactly where G or H is the zero block, on every state of a
        # one-sided solve
        one_sided_ids = {id(p) for p in one_sided}
        cross, formed, off, zero, zero_one_sided, one_sided_states = 0, 0, 0, 0, 0, 0
        for p in problems + critical_draws + bench_critical:
            for params in (doubling.select_parameters(p), doubling.select_parameters(p, mode=doubling.MODE_SDA)):
                try:
                    want = _ref_initial_blocks(p, params)
                except SingularMatrix:
                    with pytest.raises(SingularMatrix):
                        doubling.initialize(p, params)
                    continue
                st0 = doubling.initialize(p, params)
                assert all(_same_bits(g, w) for g, w in zip((st0.E, st0.F, st0.G, st0.H), want))
            _, states = _run(p)
            for state in states:
                got, formed_here, zero_here = _cross_paths(state.G, state.H)
                assert formed_here is bool(state.G.min() < 0.0 or state.H.min() < 0.0)
                assert zero_here is (not state.G.any() or not state.H.any())
                want = _ref_cross_solves(state.G, state.H)
                assert _same_bits(got[0], want[0]) and _same_bits(state.solves, want[0])
                for g, w in zip(got[1:], want[1:]):
                    assert _same_bits(g[0], w[0]) and g[1] is w[1]
                cross += 1
                formed += formed_here
                off += got[1][1] is not MatrixKind.NONSINGULAR_M
                zero += zero_here
                if id(p) in one_sided_ids:
                    one_sided_states += 1
                    zero_one_sided += zero_here

        # of 9555 states, 74 form I - H G and 1198 have an I - G H that is no nonsingular
        # M-matrix (962 of them bench critical); 1319 have a zero block, among them all
        # 654 states of the one-sided solves
        assert cross >= 9000 and formed >= 50 and off >= 1100 and zero >= 1200
        assert zero_one_sided == one_sided_states >= 600

    def test_observed_rate_same_bits(self, problems):
        compared = 0
        for p in problems:
            _, states = _run(p)
            trace = [s.diagnostics for s in states]
            for part in (trace, trace[1:], trace[:-1], trace[:2], trace[-1:]):
                want = _ref_observed_rate(part)
                if want is None:
                    assert doubling.observed_rate(part) is None
                    continue
                assert _same_bits(doubling.observed_rate(part), want)
                compared += 1
        assert compared >= 1000


class TestCrossSolveEdges:
    """Hand-built states at the edges of rounding and of the sign test, against the formed test."""

    @staticmethod
    def _assert_reference(got, G, H):
        want = _ref_cross_solves(G, H)
        assert _same_bits(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert _same_bits(g[0], w[0]) and g[1] is w[1]

    def test_tiny_negative_entry_of_h(self):
        # (G H)_01 = (H G)_01 = -5e-301: neither cross product is a Z-matrix, which
        # only the sign test on H sees
        G = np.array([[0.5, 0.0], [0.25, 0.5]])
        H = np.array([[0.5, -1e-300], [0.25, 0.5]])
        state = doubling._iterate(-0.5 * np.eye(2), -0.5 * np.eye(2), G, H, 1e-12)
        got, formed, _ = _cross_paths(G, H)
        assert formed
        self._assert_reference(got, G, H)
        assert (state.diagnostics.kind_IGH, state.diagnostics.kind_IHG) == (MatrixKind.NOT_Z, MatrixKind.NOT_Z)

    def test_wide_cross_product_takes_the_kind_of_the_narrow_one(self):
        # n = 1, m = 5, and every value below is exact: I - G H = 2^-40, so W = 2^40
        # and x2 = (2^46 + 1/2, 1, 1, 1, 1); the formed rule certifies I - H G, its
        # row 0 having A x2 = 1 against 7 eps (127 + 2^-40)
        G = np.array([[1.0 - 2.0**-40, 63.0, 2.0**-41, 0.0, 0.0]])
        H = np.array([[1.0], [0.0], [0.0], [0.0], [0.0]])
        x2 = np.array([2.0**46 + 0.5, 1.0, 1.0, 1.0, 1.0])
        got, formed, _ = _cross_paths(G, H)
        assert not formed
        self._assert_reference(got, G, H)
        assert got[2] == (1.0 / x2.max(), MatrixKind.NONSINGULAR_M)

    def test_near_singular_pair_is_singular_in_both_orders(self):
        # I - G H = I - H G = [[1, -1], [-(1 - 2^-49), 1]], with W and x2 = (2^50, 2^50 - 1)
        # exact: a gap of about 2^-50 classifies as singular
        G = np.array([[0.0, 1.0], [1.0 - 2.0**-49, 0.0]])
        H = np.eye(2)
        got, formed, _ = _cross_paths(G, H)
        assert not formed
        self._assert_reference(got, G, H)
        assert got[1][1] is got[2][1] is MatrixKind.SINGULAR_M

    def test_overflowing_h_g_takes_the_kind_of_i_minus_gh(self):
        # x2 = (4/3, about 1.8e308) is finite, and nothing is formed past it, so no
        # warning is raised.  rho(H G) = rho(G H) = 0.25 makes I - H G a nonsingular
        # M-matrix; the formed reference calls it singular, as its gap of 0.75 sits
        # below class_tol, which scales with ||I - H G||_1, about 1.35e308
        G = np.array([[1e150, 1e-200]])
        H = np.array([[float.fromhex("0x1.a2fe76a3f94b2p-501")], [float.fromhex("0x1.3a3ed8fafaf48p+525")]])
        x2 = 1.0 + H @ (np.linalg.solve(np.eye(1) - G @ H, np.eye(1)) @ G.sum(axis=1))
        assert np.isfinite(x2).all()
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got, formed, _ = _cross_paths(G, H)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = _ref_cross_solves(G, H)
        assert not formed and ours == []
        assert _same_bits(got[0], want[0]) and got[1] == want[1]
        assert got[1][1] is got[2][1] is MatrixKind.NONSINGULAR_M
        assert _same_bits(got[2][0], want[2][0]) and want[2][1] is MatrixKind.SINGULAR_M

    def test_falling_h_with_a_negative_entry_forms_i_minus_hg(self):
        # from G, H >= 0, E with a positive entry makes H+ - H negative and H+ with
        # negative entries, while G+ >= G: the minimum of H+ refuses the shared kind,
        # I - G+ H+ is not a Z-matrix, and I - H+ G+ is formed
        E = np.array([[-1.0, 0.25], [-0.25, -0.5]])
        F = np.array([[-0.25, 0.0], [-0.5, -0.5]])
        G = np.array([[0.125, 0.25], [0.25, 0.25]])
        H = np.array([[0.25, 0.0], [0.25, 0.0]])
        new = doubling.step(doubling._iterate(E, F, G, H, 1e-12))
        assert (new.H - H).min() < 0.0 <= (new.G - G).min() and new.H.min() < 0.0
        got, formed, _ = _cross_paths(new.G, new.H)
        assert formed
        self._assert_reference(got, new.G, new.H)
        assert (new.diagnostics.kind_IGH, new.diagnostics.kind_IHG) == (got[1][1], got[2][1])
        assert new.diagnostics.kind_IGH is MatrixKind.NOT_Z

    def test_overflowing_g_h_has_no_w_and_breaks_down_at_the_next_step(self):
        # fl(G H) = inf (G, H >= 0) and NaN (a cancelling sum of overflows): no solve runs,
        # nothing warns, and both kinds are SingularM, which the next step refuses
        for G, H in (([[1e200]], [[1e200]]), ([[1e200, -1e200]], [[1e200], [1e200]])):
            G, H = np.array(G), np.array(H)
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                got = doubling._cross_solves(G, H)
            assert ours == []
            assert got == (None, (0.0, MatrixKind.SINGULAR_M), (0.0, MatrixKind.SINGULAR_M))
            state = doubling._iterate(-np.eye(len(G)), -np.eye(len(H)), G, H, 1e-12)
            with pytest.raises(IterationBreakdown, match="singular at step 0 \\(kinds SingularM, SingularM\\)"):
                doubling.step(state)

    def test_i_minus_g_h_whose_one_norm_overflows_breaks_down_at_the_next_step(self):
        # fl(G H) is finite, but its columns sum to 2e308: classified at an infinite
        # tolerance, not refused as classify_zm refuses it, I - G H is SingularM
        G, H = np.array([[1e308], [1e308]]), np.array([[1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W, igh, ihg = doubling._cross_solves(G, H)
        assert W is not None and igh[1] is ihg[1] is MatrixKind.SINGULAR_M
        state = doubling._iterate(-np.eye(2), -np.eye(1), G, H, 1e-12)
        with pytest.raises(IterationBreakdown, match="singular at step 0 \\(kinds SingularM, SingularM\\)"):
            doubling.step(state)

    def test_zero_x2_has_zero_dist(self):
        # m = n = 1: G H = 2^60 + 1 rounds to 2^60, so W = -2^-60 and H W G 1 =
        # -(1 + 2^-60) rounds to -1, and x2 = 0; the distance of I - H G is then 0,
        # not a ZeroDivisionError
        G, H = np.array([[2.0**30]]), np.array([[2.0**30 + 2.0**-30]])
        x2 = 1.0 + H @ (np.linalg.solve(np.eye(1) - G @ H, np.eye(1)) @ G.sum(axis=1))
        assert x2[0] == 0.0
        _, igh, ihg = doubling._cross_solves(G, H)
        assert igh[1] is ihg[1] is MatrixKind.Z_NOT_M and ihg[0] == 0.0

    @staticmethod
    def _zero_block_pairs(n, m):
        """(G, H) of shapes n x m and m x n with G or H the zero block: signed, -0.0 and both-zero."""
        rng = np.random.default_rng(n * 100 + m)
        zero_g, zero_h = np.zeros((n, m)), np.zeros((m, n))
        g, h = rng.random((n, m)), rng.random((m, n))
        return [
            (zero_g, h),  # H >= 0
            (zero_g, h - 0.5),  # H with negative entries
            (g, zero_h),
            (g - 0.5, zero_h),
            (zero_g, zero_h),
            (-zero_g, h - 0.5),  # every entry of G is -0.0
            (g, -zero_h),
            (-zero_g, -zero_h),
        ]

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 5), (5, 2), (7, 7), (linalg._EYE_MAX_ORDER + 6, 3), (3, 80)])
    def test_zero_block_returns_the_identity_with_the_same_bits(self, n, m):
        # G H = H G = 0 exactly, so the formed rule solves I against [I 1] and reads
        # back W = I, both dists 1 and both kinds NonsingularM; here no solve runs
        def refuse(*args, **kwargs):
            raise AssertionError("a cross solve with a zero block ran a solve")

        for G, H in self._zero_block_pairs(n, m):
            want = _ref_cross_solves(G, H)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "_m_solve", refuse)
                mp.setattr(mstruct, "classify_zm", refuse)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got, formed, zero = _cross_paths(G, H)
            assert zero and not formed
            self._assert_reference(got, G, H)
            W, igh, ihg = got
            assert W is linalg._eye(n) or n > linalg._EYE_MAX_ORDER
            assert not W.flags.writeable and _same_bits(W, np.eye(n))
            assert igh == ihg == (1.0, MatrixKind.NONSINGULAR_M) == want[1] == want[2]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (linalg._EYE_MAX_ORDER + 1, 2)])
    def test_zero_g_with_nonfinite_h_keeps_no_w(self, bad, n, m):
        # 0 times inf or NaN is NaN, so G H is not finite: no solve runs, W is None and
        # both kinds are SingularM, whatever the zero G; the next step breaks down
        G, H = np.zeros((n, m)), np.full((m, n), 0.25)
        H[-1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, zero = _cross_paths(G, H)
        assert not zero
        assert got == (None, (0.0, MatrixKind.SINGULAR_M), (0.0, MatrixKind.SINGULAR_M))
        state = doubling._iterate(-np.eye(n), -np.eye(m), G, H, 1e-12)
        with pytest.raises(IterationBreakdown, match="singular at step 0 \\(kinds SingularM, SingularM\\)"):
            doubling.step(state)

    def test_zero_h_with_an_overflowing_row_sum_of_g_keeps_its_zero_dist(self):
        # G is finite, but its first row sums to inf: x2 = 1 + H (W (G 1)) is NaN there,
        # so dist_IHG is 0 as on the formed path, which still runs
        G, H = np.array([[1e308, 1e308], [0.5, 0.25]]), np.zeros((2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, zero = _cross_paths(G, H)
        assert not zero
        W, igh, ihg = got
        assert _same_bits(W, np.eye(2))
        assert igh == (1.0, MatrixKind.NONSINGULAR_M) and ihg == (0.0, MatrixKind.NONSINGULAR_M)


def _same_diagnostics(a, b) -> bool:
    """Every field of two ``StepDiagnostics`` the same: the kinds by identity, the rest by ``_same_bits``."""
    pairs = [(f.name, getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)]
    return all(x is y if name.startswith("kind") else _same_bits(x, y) for name, x, y in pairs)


def _cross_paths(G, H):
    """(``doubling._cross_solves(G, H)``, whether the line that forms H G ran, whether the zero-block return ran)."""
    out = []
    ((_, lines),) = _lines_run({doubling._cross_solves.__code__}, lambda: out.append(doubling._cross_solves(G, H)))
    return out[0], bool(lines[_FORMED_LINE]), bool(lines[_ZERO_LINE])


def _branch_lines(fn, *pairs):
    """Line numbers of fn for each (test, fallback) pair of source snippets, each found on one line."""
    lines, start = inspect.getsourcelines(fn)

    def at(snippet):
        (i,) = [i for i, line in enumerate(lines) if snippet in line]
        return start + i

    return {fallback: (at(test), at(fallback)) for test, fallback in pairs}


def _lines_run(codes, run):
    """How often each line ran in each call of a function with a code object in ``codes``, during run()."""
    calls = []

    def on_call(frame, event, arg):
        if frame.f_code not in codes:
            return None
        lines = collections.Counter()
        calls.append((frame.f_code, lines))

        def on_line(frame, event, arg):
            if event == "line":
                lines[frame.f_lineno] += 1
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return calls


# the line of doubling._cross_solves that forms H G, where G or H has a negative entry
(_, _FORMED_LINE) = _branch_lines(doubling._cross_solves, ("if not nonneg:", "H @ G"))["H @ G"]
# the line of doubling._cross_solves that returns the identity, where G or H is the zero block
(_, _ZERO_LINE) = _branch_lines(doubling._cross_solves, ("if zero_block", "return linalg._eye"))["return linalg._eye"]


@pytest.fixture(scope="module")
def bench_critical():
    """The benchmark's critical problems at seed 13: near convergence many of their I - G H go uncertified."""
    return bench_problems(13, ("critical",))


@pytest.fixture(scope="module")
def critical_draws():
    """``probgen`` critical draws at seeds 0-19, n = m = 2 + seed mod 7: they reach the rebalancing."""
    return [generate(FamilySpec(Regime.CRITICAL, 2 + seed % 7, 2 + seed % 7, seed=seed)) for seed in range(20)]


class TestStepBookkeeping:
    """Each step's diagnostics and each stop step equal those of the step that counted and normed everything."""

    STEP_BRANCHES = (
        ("if not (2 * len(E)", "ne, nf = one_norm(E_new), one_norm(F_new)"),
        ("if e_lo < -tau:", "sign_E = np.count_nonzero(E_new < -tau)"),
        ("if f_lo < -tau:", "sign_F = np.count_nonzero(F_new < -tau)"),
        ("if low_h < 0.0:", "mono += np.count_nonzero(H_new < H - tau)"),
        ("if low_g < 0.0:", "mono += np.count_nonzero(G_new < G - tau)"),
    )

    @staticmethod
    def _replay(p):
        """The stop step of the exact rule, or the step that breaks down, each state checked against the reference."""
        params = doubling.select_parameters(p)
        state = doubling.initialize(p, params)
        assert _same_diagnostics(
            state.diagnostics, _ref_iterate(state.E, state.F, state.G, state.H, state.tau_sign, None).diagnostics
        )
        trace = [state.diagnostics]
        for _ in range(params.max_iter):
            finite = None
            if state.solves is not None:
                blocks = _ref_step_blocks(state)
                with np.errstate(over="ignore", invalid="ignore"):
                    # the column sums of |H+ - H| and |G+ - G|, each nonfinite where its change is
                    sums = [np.abs(after - before).sum(axis=0) for after, before in zip(blocks[2:], (state.G, state.H))]
                finite = all(np.isfinite(b).all() for b in (*blocks, *sums))
            try:
                new = doubling.step(state)
            except IterationBreakdown as exc:
                d = state.diagnostics
                if "nonfinite" in str(exc):
                    assert str(exc) == f"nonfinite iterate at step {state.k + 1}"
                    assert finite is False  # a block, a change or a column sum
                else:
                    assert state.solves is None or MatrixKind.SINGULAR_M in (d.kind_IGH, d.kind_IHG)
                return trace, None, str(exc)
            assert finite
            assert all(_same_bits(g, w) for g, w in zip((new.E, new.F, new.G, new.H), blocks))
            want = _ref_iterate(*blocks, state.tau_sign, state)
            assert _same_bits(new.solves, want.solves) and _same_diagnostics(new.diagnostics, want.diagnostics)
            state = new
            trace.append(state.diagnostics)
            if _ref_stopped(state, params.stop_tol):
                return trace, True, None
        return trace, False, None

    def test_same_diagnostics_and_stop_steps(self, problems, critical_draws):
        shortcut, fallback = set(), set()
        step_lines = _branch_lines(doubling.step, *self.STEP_BRANCHES)
        outcomes = {}
        for p in problems + critical_draws:
            want_trace, want_converged, want_error = self._replay(p)

            def run():
                try:
                    outcomes["report"] = solve(p)
                except MaxIterations as exc:
                    outcomes["report"] = exc.report
                except IterationBreakdown as exc:
                    outcomes["report"] = str(exc)

            for _, lines in _lines_run({doubling.step.__code__}, run):
                for name, (test, body) in step_lines.items():
                    if lines[body]:
                        fallback.add(name)
                    if lines[test] > lines[body]:
                        shortcut.add(name)
            rep = outcomes["report"]
            if want_error is not None:
                assert rep == want_error
                continue
            assert rep.converged is want_converged and rep.iterations == len(want_trace) - 1
            assert all(_same_diagnostics(g, w) for g, w in zip(rep.trace, want_trace, strict=True))
        # every shortcut and every fallback ran at least once
        every = set(step_lines)
        assert shortcut == every
        assert fallback == every

    def test_stop_step_at_edge_tolerances(self, noncritical_suite, nonsingular_suite, critical_draws):
        # stop_tol is the smallest float whose exact H test passes at step k: the
        # next float below it fails there, so a stop test whose norm or tolerance
        # rounded down by one step would miss the stop
        cases = 0
        for p in noncritical_suite + nonsingular_suite + critical_draws:
            params = dataclasses.replace(doubling.select_parameters(p), max_iter=12)
            state, rows = doubling.initialize(p, params), []
            for _ in range(params.max_iter):
                try:
                    state = doubling.step(state)
                except IterationBreakdown:
                    break
                rows.append((state.diagnostics.dH, state.diagnostics.dG, one_norm(state.H), one_norm(state.G)))
            for dh, _, nh, _ in rows:
                if dh == 0.0 or nh <= 1.0:
                    continue
                tol = dh / nh
                while tol * nh < dh:
                    tol = float(np.nextafter(tol, math.inf))
                while np.nextafter(tol, 0.0) * nh >= dh:
                    tol = float(np.nextafter(tol, 0.0))
                stops = [k for k, (h, g, a, b) in enumerate(rows, 1) if h <= tol * max(1.0, a) and g <= tol * max(1.0, b)]
                try:
                    rep = solve(p, dataclasses.replace(params, stop_tol=tol))
                except MaxIterations as exc:
                    rep = exc.report
                assert (rep.converged, rep.iterations) == ((True, stops[0]) if stops else (False, len(rows)))
                cases += 1
        assert cases >= 400


class TestCertificateCores:
    """The residuals, the closing matrices and their verdicts, from the cached norms, as from norms taken anew."""

    @staticmethod
    def _assert_same(p, cert, r_start, s_start):
        num_p, res_p = _ref_residual(cert.phi, p.A, p.B, p.C, p.D)
        num_d, res_d = _ref_residual(cert.psi, p.D, p.C, p.B, p.A)
        assert _same_bits(cert.residual_primal, res_p) and _same_bits(cert.residual_dual, res_d)
        assert _same_bits(cert.similarity_residual, max(num_p, num_d) / max(one_norm(p.K), EPS))
        R, r_cls, scale_r, r_sing = _ref_closing(p.D, p.C, cert.phi, r_start)
        S, s_cls, scale_s, s_sing = _ref_closing(p.A, p.B, cert.psi, s_start)
        assert _same_bits(cert.R, R) and _same_bits(cert.S, S)
        assert _same_bits(cert.r_class.gap, r_cls.gap) and _same_bits(cert.s_class.gap, s_cls.gap)
        assert (cert.r_singular, cert.s_singular) == (r_sing, s_sing)
        (check,) = (c for c in cert.checks if c.name == "exactly-one-closing-singular")
        if check.passed is not None:
            want = min(abs(r_cls.gap) / max(scale_r, EPS), abs(s_cls.gap) / max(scale_s, EPS))
            assert _same_bits(check.value, want)
        assert _same_bits(residual_primal(p, cert.phi), res_p) and _same_bits(residual_dual(p, cert.psi), res_d)

    def test_same_bits_on_solved_and_perturbed_pairs(self, problems):
        compared = 0
        for p in problems:
            try:
                rep = solve(p)
            except MaxIterations as exc:
                rep = exc.report
            except MareError:
                continue
            pc = rep.problem_class
            v1 = v2 = None
            if pc.witness is not None:
                v1, v2 = pc.witness[: p.n], pc.witness[p.n :]
            _, states = _run(p)
            r0, s0 = doubling._closing_starts(states[-1])
            self._assert_same(p, rep.certificate, v1 if r0 is None else r0, v2 if s0 is None else s0)
            for phi, psi in ((rep.phi, rep.psi), (rep.phi * (1 + 1e-6), rep.psi), (rep.phi, rep.psi * (1 + 1e-4))):
                try:
                    cert = make_certificate(p, phi, psi, problem_class=pc)
                except MareError:
                    continue
                self._assert_same(p, cert, v1, v2)
                compared += 1
        assert compared >= 1000

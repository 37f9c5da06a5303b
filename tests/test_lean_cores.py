"""The lean private cores give the same bits as the implementations they replaced.

The reference implementations below are the earlier, check-everything
versions of ``m_solve``, Noda's iteration with ``perron_pair``, the split
of ``classify_zm`` and the report writer, kept as they were.  Every
output of the new code is compared with theirs byte for byte: floats by
their bit patterns, signed zeros and NaN included, and reports as text.
"""

import json
import math

import numpy as np
import pytest

from marekit import classify_zm, cli, linalg, mstruct
from marekit.cli import dumps_report
from marekit.errors import NoConvergence, SingularMatrix
from marekit.linalg import EPS, as_square, m_solve, perron_pair
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
        blocks = linalg.irreducible_blocks(A)
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
        return MClassification(MatrixKind.NOT_Z, s, math.nan, math.nan, tol)
    blocks = []
    for b in linalg.irreducible_blocks(A):
        Mbb = A[np.ix_(b, b)]
        s_b, B = _ref_split(Mbb)
        rho, x = _ref_perron_pair(B)
        final = np.count_nonzero(A[b]) == np.count_nonzero(Mbb)
        blocks.append(IrreducibleBlock(b, s_b - rho, gap_kind(s_b - rho, tol), final, x))
    gap = min(b.gap for b in blocks)
    return MClassification(gap_kind(gap, tol), s, s - gap, gap, tol, tuple(blocks))


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


# ---------------------------------------------------------------------------
# Bitwise comparison
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes (a float compares by its bit pattern); None only with None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_solve(M, rhs):
    try:
        want = _ref_m_solve(M, rhs)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            m_solve(M, rhs)
        return
    got = m_solve(M, rhs)
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1]) and got[2] is want[2]


def _assert_same_perron(B):
    want, got = _ref_perron_pair(B), perron_pair(B)
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
        with pytest.raises(ValueError, match="NaN or Inf"):
            m_solve([[1.0, math.nan], [0.0, 1.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="NaN or Inf"):
            m_solve([[math.inf]], [1.0])

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
        with pytest.raises(ValueError, match="NaN or Inf"):
            perron_pair([[1.0, math.nan], [1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            perron_pair([[1.0, -1.0], [1.0, 1.0]])


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


class TestDumpsReport:
    EDGE = {
        "nan": math.nan,
        "inf": [math.inf, -math.inf, np.float64(math.nan)],
        "negative_zero": -0.0,
        "zero_row": [0.0, -0.0, 5e-324],
        "ints": [1, -2, np.int64(7), 0],
        "bools": [True, False, np.bool_(True)],
        "mixed_row": [1.0, 2, True, None, "x"],
        "numpy_floats": [np.float64(0.1), np.float32(0.5)],
        "empty": [],
        "empty_dict": {},
        "nested": [[], [[]], [[1.5, -0.0]], ({"a": [0.25]},)],
        "array": np.array([[1.0, math.nan], [-0.0, 1e300]]),
        "text": "résumé \"quoted\"\n",
        "none": None,
    }

    def test_edge_cases(self):
        assert dumps_report(self.EDGE) == _ref_dumps_report(self.EDGE)
        for value in self.EDGE.values():
            assert dumps_report(value, 2) == _ref_dumps_report(value, 2)
        assert '"nan": null' in dumps_report(self.EDGE)

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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import check_against_squaring, count_m_solves, reducible_m_matrix, regularity_witness, replay
from marekit import linalg
from marekit.errors import NoConvergence, SingularMatrix
from marekit.linalg import EPS, inf_norm, spectral_radius_nonneg
from marekit.mstruct import (
    MatrixKind,
    block_null_pairs,
    class_tol,
    classify_zm,
    null_tol,
)


def _singular_m_matrix(rng, size):
    """K = diag(s) - N with K v = 0 for a drawn positive v (exactly singular)."""
    N = rng.uniform(0.1, 1.0, (size, size))
    np.fill_diagonal(N, 0.0)
    v = rng.uniform(0.5, 1.5, size)
    s = (N @ v) / v
    return np.diag(s) - N, v


class TestClassify:
    def test_nilpotent_split_is_nonsingular(self):
        c = classify_zm([[1.0, -2.0], [0.0, 1.0]])
        assert c.kind is MatrixKind.NONSINGULAR_M
        assert c.rho_B == pytest.approx(0.0, abs=1e-10)
        assert c.s == 1.0

    def test_zero_row_sums_singular(self):
        c = classify_zm([[1.0, -1.0], [-1.0, 1.0]])
        assert c.kind is MatrixKind.SINGULAR_M
        assert abs(c.gap) <= c.tol

    def test_positive_off_diagonal_not_z(self):
        assert classify_zm([[1.0, 2.0], [0.0, 1.0]]).kind is MatrixKind.NOT_Z

    def test_z_not_m(self):
        # s = 1, B = [[0, 3], [3, 0]], rho = 3 > 1
        assert classify_zm([[1.0, -3.0], [-3.0, 1.0]]).kind is MatrixKind.Z_NOT_M

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_split_reconstruction_exact_on_integers(self, rows):
        # integer entries make s - (s - m) exact in floating point, so the
        # split reconstructs the input bit for bit
        M = np.array(rows, dtype=float)
        off = np.ones_like(M) - np.eye(M.shape[0])
        M = M * np.eye(M.shape[0]) - np.abs(M) * off  # force Z structure
        c = classify_zm(M)
        B = c.s * np.eye(M.shape[0]) - M
        assert np.array_equal(c.s * np.eye(M.shape[0]) - B, M)

    def test_split_reconstruction_float_close(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            M = -rng.uniform(0.0, 1.0, (n, n))
            M[np.diag_indices(n)] = rng.uniform(0.0, 3.0, n)
            c = classify_zm(M)
            B = c.s * np.eye(n) - M
            assert np.allclose(c.s * np.eye(n) - B, M, atol=4 * np.finfo(float).eps * max(1.0, c.s))


class TestZmKind:
    """The Z/M kind and Perron root of ``classify_zm`` agree with the squaring reference of ``test_linalg``."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 8),
        triangular=st.booleans(),
        masked=st.booleans(),
        log_scale=st.floats(-6.0, 6.0),
        sign=st.sampled_from([-1.0, 0.0, 1.0]),
        log_shift=st.floats(math.log10(0.5), 9.0),
    )
    @example(seed=0, size=1, triangular=False, masked=False, log_scale=0.0, sign=0.0, log_shift=0.0)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_classify_zm_near_the_singular_boundary(
        self, seed, size, triangular, masked, log_scale, sign, log_shift
    ):
        # a scaled singular M-matrix, shifted off the boundary by a multiple
        # of its classification tolerance (0.5 tol lands inside the band)
        rng = np.random.default_rng(seed)
        K, _ = _singular_m_matrix(rng, size)
        if triangular:
            K = np.triu(K)  # K stays a Z-matrix; its spectrum is its diagonal
        if masked:
            # dropped off-diagonal entries often make K reducible
            K = np.where(np.eye(size, dtype=bool) | (rng.uniform(size=K.shape) < 0.5), K, 0.0)
        K = 10.0**log_scale * K
        M = K + sign * 10.0**log_shift * class_tol(K) * np.eye(size)
        check_against_squaring(M)

    @pytest.mark.parametrize(
        "M",
        [
            [[1.0, -2.0], [0.0, 1.0]],  # defective split, rho(B) = 0
            [[1.0, 2.0], [0.0, 1.0]],  # not a Z-matrix
            [[0.0, 1e-300], [-1.0, 0.0]],
            [[1.0, -3.0], [-3.0, 1.0]],
            [[1.0, -1.0], [-1.0, 1.0]],
            [[5.0]],
            [[0.0]],
            [[-1e-9]],
            [[0.0, -1.0], [0.0, 1.0]],
        ],
    )
    def test_agrees_on_fixed_inputs(self, M):
        check_against_squaring(M)

    def test_agrees_on_every_acceptance_solve(self, solved_noncritical, solved_nonsingular):
        count = 0
        for p, rep in solved_noncritical + solved_nonsingular:
            mats = [np.eye(p.m) - rep.phi @ rep.psi, np.eye(p.n) - rep.psi @ rep.phi]
            for state in replay(p, rep):
                mats += [np.eye(p.n) - state.G @ state.H, np.eye(p.m) - state.H @ state.G]
            for M in mats:
                check_against_squaring(M)
            count += len(mats)
        assert count > 1000


def _phase_one_reference(G, h, max_pivots=20000):
    """Row-by-row phase-one simplex for {x >= 0 : G x >= h}, the reference for the regularity verdict."""
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
            T[i, r + i] = -1.0
            T[i, art_start + ai] = 1.0
            T[i, -1] = h[i]
            basis[i] = art_start + ai
            ai += 1
        else:
            T[i, :r] = -G[i]
            T[i, r + i] = 1.0
            T[i, -1] = -h[i]
            basis[i] = r + i
    for i in range(q):
        if basis[i] >= art_start:
            T[-1, :] += T[i, :]
    T[-1, art_start : art_start + n_art] -= 1.0

    tol_piv = 1e-11 * max(1.0, float(np.abs(G).max()), float(np.abs(h).max()))
    for _ in range(max_pivots):
        enter = -1
        for j in range(width):
            if T[-1, j] > tol_piv:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = math.inf
        for i in range(q):
            a = T[i, enter]
            if a > tol_piv:
                ratio = T[i, -1] / a
                if ratio < best - 1e-15 or (abs(ratio - best) <= 1e-15 and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(q + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i, :] -= T[i, enter] * T[leave, :]
        basis[leave] = enter
    else:
        raise NoConvergence("phase-one simplex exceeded its pivot budget")

    if T[-1, -1] > 1e-9 * max(1.0, float(np.abs(h).sum())):
        return None
    x = np.zeros(width)
    for i in range(q):
        x[basis[i]] = T[i, -1]
    return np.maximum(x[:r], 0.0)


def _reference_regular(M) -> bool:
    """Regularity by the phase-one simplex: is {v >= 1 : M v >= 0} feasible?"""
    M = np.asarray(M, dtype=float)
    return _phase_one_reference(M, -(M @ np.ones(M.shape[0]))) is not None


def _checked_verdict(M) -> bool:
    """The block rule's verdict on an M-matrix, with its witness checked.

    A witness must be positive with M v >= 0 up to rounding in the product
    and, where M was judged singular with a gap below zero, up to that gap.
    A nonsingular M's witness is M^{-1} 1 bit for bit.
    """
    M = np.asarray(M, dtype=float)
    cls = classify_zm(M)
    v = regularity_witness(M, cls)
    assert (v is not None) == cls.regular
    if v is not None:
        assert (v > 0).all()
        slack = 4 * M.shape[0] * EPS * inf_norm(M) + max(0.0, -cls.gap)
        assert (M @ v >= -slack * inf_norm(v)).all()
        if cls.kind is MatrixKind.NONSINGULAR_M:
            assert np.array_equal(v, linalg._m_solve(M, np.ones(M.shape[0]))[0][:, 0])
    return v is not None


@st.composite
def _integer_m_matrices(draw):
    """An integer Z-matrix that is an M-matrix, with edges only towards equal or higher levels.

    Each level's diagonal block B has B 1 = d >= 0, d in {0, 1}, so every
    level block is an M-matrix, and so is the level-block-triangular M.
    """
    size = draw(st.integers(2, 5))

    def ints(hi, count):
        return np.array(draw(st.lists(st.integers(0, hi), min_size=count, max_size=count)), dtype=float)

    level = ints(2, size)
    off = ints(3, size * size).reshape(size, size)
    off[level[:, None] > level[None, :]] = 0.0
    np.fill_diagonal(off, 0.0)
    d = ints(1, size)
    same = level[:, None] == level[None, :]
    return np.diag((off * same).sum(axis=1) + d) - off


class TestPhaseOneReference:
    """The block rule gives the verdict of the phase-one simplex, with a checked witness."""

    def test_not_regular_cases(self, not_regular_problem):
        for M in ([[0.0, -1.0], [0.0, 1.0]], not_regular_problem.K):
            assert not _reference_regular(M)
            assert not _checked_verdict(M)

    def test_suite_coefficients_and_closing_matrices(self, solved_noncritical, solved_nonsingular):
        for p, rep in solved_noncritical + solved_nonsingular:
            for M in (p.K, rep.certificate.R, rep.certificate.S):
                assert classify_zm(M).kind in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M)
                assert _checked_verdict(M) == _reference_regular(M)

    def test_random_reducible_singular_m_matrices(self):
        rng = np.random.default_rng(59)
        verdicts = []
        for _ in range(150):
            M, regular = reducible_m_matrix(rng, int(rng.integers(2, 11)))
            if classify_zm(M).kind is not MatrixKind.SINGULAR_M:
                continue
            assert _checked_verdict(M) == regular == _reference_regular(M)
            verdicts.append(regular)
        assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20

    @given(_integer_m_matrices())
    @settings(max_examples=300, deadline=None)
    def test_integer_m_matrices(self, M):
        assert classify_zm(M).kind in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M)
        assert _checked_verdict(M) == _reference_regular(M)


class TestRegularity:
    def test_nonsingular_witness(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        v = regularity_witness(M, classify_zm(M))
        assert np.allclose(v, [1.0, 1.0])
        assert (M @ v >= 0).all()

    def test_singular_perron_witness(self):
        M = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = regularity_witness(M, classify_zm(M))
        assert (v > 0).all()
        assert np.allclose(M @ v, 0.0, atol=1e-12)

    def test_infeasible_case(self):
        # first row forces -v2 >= 0, impossible for positive v
        M = np.array([[0.0, -1.0], [0.0, 1.0]])
        assert regularity_witness(M, classify_zm(M)) is None

    def test_tiny_nonsingular_block_over_a_final_singular_one(self):
        # v = (2e11, 1) gives M v = (1, 0); the simplex's pivot tolerance of
        # 1e-11 drops the first column and finds no witness
        M = np.array([[1e-11, -1.0], [0.0, 0.0]])
        v = regularity_witness(M, classify_zm(M))
        assert v == pytest.approx([2e11, 1.0], rel=1e-15)
        assert M @ v == pytest.approx([1.0, 0.0], rel=1e-15)

    def test_every_nonsingular_m_matrix_regular(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            N = rng.uniform(0.0, 1.0, (n, n))
            M = (spectral_radius_nonneg(N) + rng.uniform(0.1, 2.0)) * np.eye(n) - N
            assert classify_zm(M).kind is MatrixKind.NONSINGULAR_M
            assert _checked_verdict(M)

    def test_every_irreducible_singular_m_matrix_regular(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            K, _ = _singular_m_matrix(rng, n)
            assert classify_zm(K).kind is MatrixKind.SINGULAR_M
            assert len(linalg._irreducible_blocks(K)) == 1
            assert _checked_verdict(K)

    def test_uncertified_nonsingular_witness_raises(self):
        # a nonsingular M-matrix within rounding of singular: M^{-1} 1 is
        # too large for M v > 0 to clear its rounding margin
        # (judged nonsingular, so all of M is the nonsingular rest)
        M = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-15]])
        cls = dataclasses.replace(classify_zm(M), kind=MatrixKind.NONSINGULAR_M, blocks=())
        with pytest.raises(SingularMatrix, match="certify the nonsingular blocks of K"):
            block_null_pairs(M, 1, cls)

    def test_requires_m_matrix(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            regularity_witness(M, classify_zm(M))


def _irreducible(M) -> bool:
    return len(linalg._irreducible_blocks(np.asarray(M, dtype=float))) == 1


class TestIrreducibility:
    def test_complete_graph(self):
        assert _irreducible([[1.0, -1.0], [-1.0, 1.0]])

    def test_one_way_edge(self):
        assert not _irreducible([[1.0, -1.0], [0.0, 1.0]])

    def test_one_by_one_convention(self):
        assert _irreducible([[5.0]])

    def test_against_transitive_closure(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            M = (rng.random((n, n)) < 0.3).astype(float)
            np.fill_diagonal(M, 1.0)
            # Floyd-Warshall boolean closure as the oracle
            reach = M != 0.0
            np.fill_diagonal(reach, True)
            for k in range(n):
                reach |= np.outer(reach[:, k], reach[k, :])
            assert _irreducible(M) == bool(reach.all())


def _null_pair(K, n):
    """The kernel pair of K's one singular irreducible block."""
    K = np.asarray(K, dtype=float)
    (pair,), _ = block_null_pairs(K, n, classify_zm(K))
    return pair


class TestNullPair:
    def test_symmetric_two_by_two(self):
        pair = _null_pair([[1.0, -1.0], [-1.0, 1.0]], 1)
        assert np.allclose(pair.u, [0.5, 0.5])
        assert np.allclose(pair.v, [0.5, 0.5])
        assert pair.drift == 0.0

    def test_reducible_three_by_three(self):
        # hand null-space solve: v = (1/3, 1/3, 1/3), u = (0, 1/2, 1/2)
        K = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        pair = _null_pair(K, 1)
        assert np.allclose(pair.v, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        assert np.allclose(pair.u, [0.0, 0.5, 0.5], atol=1e-12)
        assert pair.drift == pytest.approx(-1 / 3, abs=1e-12)

    def test_nonsingular_has_no_pair(self):
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert block_null_pairs(K, 1, classify_zm(K))[0] == []

    def test_coupled_singular_block(self):
        # K = [[0, -1], [0, 1]]: the singular block {0} couples into {1};
        # v = (1, 0) and u = (1, 1) / 2 by hand, exact kernel vectors
        pair = _null_pair([[0.0, -1.0], [0.0, 1.0]], 1)
        assert np.array_equal(pair.v, [1.0, 0.0])
        assert np.array_equal(pair.u, [0.5, 0.5])
        assert pair.drift == 0.5

    def test_one_certified_solve_per_side_for_several_singular_blocks(self, monkeypatch):
        # two final singular blocks {0, 1} and {3, 4}, and the nonsingular
        # row 2 coupled into both: one solve on K_NN and one on its
        # transpose, each with both blocks' right-hand sides
        K = np.array([
            [1.0, -1.0, 0.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0, 0.0],
            [-1.0, 0.0, 3.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, 0.0, -1.0, 1.0],
        ])
        cls = classify_zm(K)
        calls = count_m_solves(monkeypatch)
        pairs, _ = block_null_pairs(K, 2, cls)
        assert calls == [(1, 2), (1, 2)]
        for pair in pairs:
            assert inf_norm(K @ pair.v) <= null_tol(K) and inf_norm(pair.u @ K) <= null_tol(K)
        assert [pair.v[2] > 0 for pair in pairs] == [True, True]

    def test_one_certified_solve_per_side_on_random_reducible_k(self, monkeypatch):
        rng = np.random.default_rng(61)
        calls = count_m_solves(monkeypatch)
        counts = set()
        for _ in range(300):
            M, _ = reducible_m_matrix(rng, int(rng.integers(4, 13)))
            cls = classify_zm(M)
            singular = cls.singular_blocks
            if not (cls.regular and len(singular) >= 2 and len(singular) < len(cls.blocks)):
                continue
            calls.clear()
            assert len(block_null_pairs(M, len(M) // 2, cls)[0]) == len(singular)
            assert len(calls) == 2 and all(blocks == len(singular) for _, blocks in calls)
            counts.add(len(singular))
        assert {2, 3} <= counts

    def test_nonsingular_k_is_one_solve_of_k(self, monkeypatch):
        K = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, 0.0, 1.0]])
        cls = classify_zm(K)
        calls = count_m_solves(monkeypatch)
        assert block_null_pairs(K, 1, cls)[0] == []
        assert calls == [(3, 0)]

    @pytest.mark.parametrize("n", [0, 3])
    def test_split_at_either_end(self, n):
        # everything is one block: the drift is -u.v or u.v
        K = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        pair = _null_pair(K, n)
        assert pair.drift == pytest.approx((1 if n else -1) * pair.u @ pair.v, abs=1e-15)

    def test_residual_within_tolerance_on_random_singular(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            size = int(rng.integers(2, 16))
            K, _ = _singular_m_matrix(rng, size)
            pair = _null_pair(K, size // 2)
            tau = null_tol(K)
            assert inf_norm(K @ pair.v) <= tau
            assert inf_norm(pair.u @ K) <= tau
            assert pair.u.min() >= 0 and pair.v.min() >= 0
            assert abs(pair.u.sum() - 1.0) <= 1e-14
            assert abs(pair.v.sum() - 1.0) <= 1e-14

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_drift_invariant_under_scaling(self, cu, cv):
        K = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        pair = _null_pair(K, 1)
        u = cu * pair.u
        v = cv * pair.v
        u /= np.abs(u).sum()
        v /= np.abs(v).sum()
        drift = u[:1] @ v[:1] - u[1:] @ v[1:]
        assert drift == pytest.approx(pair.drift, abs=1e-14)


def test_public_surface():
    # one entry point per fact: the kernel is block_null_pairs, irreducibility
    # one block of classify_zm, and nothing raises NotSingular
    import importlib
    import pkgutil

    import marekit

    # one name per kernel: no module binds both name and _name, as the
    # names of marekit.__all__ check their arguments and the kernels do not
    submodules = [importlib.import_module(f"marekit.{m.name}") for m in pkgutil.iter_modules(marekit.__path__)]
    for module in [marekit, *submodules]:
        names = set(vars(module))
        assert [n for n in sorted(names) if not n.startswith("_") and "_" + n in names] == [], module.__name__

    assert set(marekit.__all__) == {
        "AmbiguousKernel", "Certificate", "CheckResult", "DoublingParams", "DoublingState",
        "FamilySpec", "GenerationFailed", "InsufficientTrace", "InvalidParameters",
        "IterationBreakdown", "MClassification", "MareError", "MareProblem", "MatrixKind",
        "MaxIterations", "NoConvergence", "NonpositiveDiagonal", "NotZMatrix", "NullPair",
        "OracleReport", "ProblemClass", "Regime", "ShapeMismatch", "SingularMatrix",
        "SolveReport", "classify_problem", "classify_zm", "fixed_point_solve", "generate",
        "initialize", "make_certificate", "matrix_from_json", "matrix_to_jsonable",
        "observed_rate", "problem_from_json", "problem_to_json", "residual_dual",
        "residual_primal", "select_parameters", "solve", "spectral_radius_nonneg", "step",
        "theoretical_rate", "trace_to_csv",
    }
    # the benchmark's tracer (bench/tracing.py) wraps exactly these names
    assert len(marekit.__all__) == 44
    assert [f.name for f in dataclasses.fields(marekit.NullPair)] == ["u", "v", "drift"]

import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import squaring_root, zm_split
from marekit import linalg, solve
from marekit.errors import NoConvergence, ShapeMismatch, SingularMatrix
from marekit.linalg import one_norm, spectral_radius_nonneg
from marekit.mstruct import MatrixKind, classify_zm
from marekit.problem import MareProblem, make_certificate


class TestSpectralRadiusNonneg:
    def test_identity(self):
        assert spectral_radius_nonneg(np.eye(2)) == pytest.approx(1.0, abs=1e-10)

    def test_permutation_modulus_tie(self):
        # eigenvalues +-1: the diagonal shift breaks the tie
        assert spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-10)

    def test_rank_one(self):
        # rho(v w^T) = w.v = 3 + 2 = 5
        P = np.outer([1.0, 2.0], [3.0, 1.0])
        assert spectral_radius_nonneg(P) == pytest.approx(5.0, abs=1e-8)

    def test_nilpotent(self):
        # two 1x1 blocks [[0]]: the root is exact
        assert spectral_radius_nonneg([[0.0, 2.0], [0.0, 0.0]]) == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius_nonneg([[1.0, -0.5], [0.0, 1.0]])

    def test_perron_bracketing_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 21))
            P = rng.uniform(0.0, 2.0, (n, n))
            rho = spectral_radius_nonneg(P)
            row_sums = P.sum(axis=1)
            assert row_sums.min() - 1e-8 <= rho <= row_sums.max() + 1e-8

    def test_matches_characteristic_polynomial_small(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            P = rng.uniform(0.0, 1.0, (n, n))
            if n == 2:
                tr = P[0, 0] + P[1, 1]
                det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
                roots = np.roots([1.0, -tr, det])
            else:
                c2 = -np.trace(P)
                c1 = 0.5 * (np.trace(P) ** 2 - np.trace(P @ P))
                c0 = -np.linalg.det(P)
                roots = np.roots([1.0, c2, c1, c0])
            assert spectral_radius_nonneg(P) == pytest.approx(max(abs(roots)), abs=1e-8)


    def test_loose_bounds_raise(self, monkeypatch):
        # with bounds that never close, a reducible matrix of 1x1 blocks still
        # has its root, but an irreducible block raises
        monkeypatch.setattr(linalg, "_noda_bounds", lambda P, c, x=None: (0.0, 100.0, np.ones(len(P))))
        assert spectral_radius_nonneg([[2.0, 1.0], [0.0, 1.0]]) == 2.0
        for P in ([[2.0, 1.0], [1.0, 1.0]], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 3.0]]):
            with pytest.raises(NoConvergence, match="failed to close"):
                spectral_radius_nonneg(P)

    def test_noda_stops_before_a_vector_that_underflows(self, monkeypatch):
        # a reducible P of extreme scales (found by a random search): solve 18
        # of its run from 1 gives a positive vector whose smallest entry is
        # flushed to zero by the scaling to max 1, so the run keeps the vector
        # before it, and the root comes from the irreducible blocks
        P = np.array([
            [6.278612531767006e-45, 0.0, 0.0],
            [3.949857800123913e289, 0.0, 1.3555702283031977e-72],
            [1.081265488868297e97, 0.0, 4.10806385237078e284],
        ])
        solved = []
        real = linalg._solve

        def recording(a, b):
            solved.append(real(a, b))
            return solved[-1]

        monkeypatch.setattr(linalg, "_solve", recording)
        _, _, x = linalg._noda_bounds(P, 1.0 + P.diagonal().max())
        assert len(solved) == 18
        y = solved[-1]
        assert y.min() > 0.0 and y.max() < np.inf and (y / y.max()).min() == 0.0
        assert np.array_equal(x, solved[-2] / solved[-2].max())
        monkeypatch.undo()
        assert spectral_radius_nonneg(P) == P[2, 2]

    @pytest.mark.parametrize(
        "P, stalls",
        [
            # a Perron vector with entries 1 to 1e-3: width 1.2e-13 at the stall
            ([
                [0.898164466787317, 0.2534909409788879, 0.0],
                [0.6712200607469431, 0.9589346374849559, 0.18172299662216862],
                [0.0, 0.000986160175509232, 0.5675012549010134],
            ], True),
            # rounding may leave the width at 1.4e-15, also after the rerun
            ([
                [0.06034497974511022, 0.26093383337630527, 0.5586448659220349, 0.2378604873355189],
                [0.0, 0.20104455511344888, 0.0, 0.04854784825412317],
                [0.9871446216288375, 0.0, 0.5832282552359743, 0.7640484851665448],
                [0.5606779324912547, 0.9867814096344177, 0.0, 0.0],
            ], False),
        ],
    )
    def test_rounding_stall_on_irreducible_input(self, P, stalls):
        P = np.array(P)
        c = 1.0 + P.diagonal().max()
        lo, hi, _ = linalg._noda_bounds(P, c)
        assert len(linalg._irreducible_blocks(P)) == 1
        assert hi - lo > 1e-14 * (lo + c) or not stalls
        want = float(_mp_perron_root(P))
        assert abs(spectral_radius_nonneg(P) - want) <= 1e-15 * (want + c)


@pytest.mark.parametrize("P", [[[1.0, 0.1], [1e-20, 0.5]], [[1.0, 1e-3], [1e-200, 0.5]]])
def test_rounding_size_coupling_closes_by_the_pruned_bound(P):
    # irreducible only through an entry below eps ||P||_inf: both Noda runs
    # leave the bounds open with the upper one at the root, 1, and P without
    # that entry gives the lower one
    A = np.array(P)
    c = 1.0 + A.diagonal().max()
    lo, hi, x = linalg._noda_bounds(A, c)
    assert len(linalg._irreducible_blocks(A)) == 1 and hi - lo > 1e-14 * (lo + c)
    assert linalg._pruned_lower_bound(A, c) == 1.0
    assert spectral_radius_nonneg(P) == 1.0


def test_pruned_bound_is_a_lower_bound():
    # couplings of every size down to below the cut: the bound never passes the root
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        P = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        P *= 10.0 ** -rng.integers(0, 20, (n, n))
        bound = linalg._pruned_lower_bound(P, 1.0 + P.diagonal().max())
        assert bound <= float(_mp_perron_root(P)) * (1.0 + 1e-14)


def _perron_matrix(what, M):
    """The nonnegative matrix whose Perron root the package takes for input ``what``."""
    return M if what == "PhiPsi" else zm_split(M)[1]


@pytest.fixture(scope="module")
def perron_inputs(solved_noncritical, solved_nonsingular, scalar_nonsingular, scalar_critical, reducible_singular):
    """``(label, what, M)`` for K, R, S and Phi Psi of every solved acceptance and worked problem."""
    worked = [(p, solve(p)) for p in (scalar_nonsingular, scalar_critical, reducible_singular)]
    inputs = []
    for suite, solved in (("noncritical", solved_noncritical), ("nonsingular", solved_nonsingular), ("worked", worked)):
        for p, rep in solved:
            cert = rep.certificate
            for what, M in (("K", p.K), ("R", cert.R), ("S", cert.S), ("PhiPsi", cert.phi @ cert.psi)):
                inputs.append((f"{suite}:{p.name}:{what}", what, M))
    return inputs


def _mp_perron_root(P):
    """A 40-digit Perron root: the largest real eigenvalue (mpmath) over the irreducible blocks."""
    mpmath = pytest.importorskip("mpmath")
    roots = []
    with mpmath.workdps(40):
        for b in linalg._irreducible_blocks(P):
            block = P[np.ix_(b, b)]
            if len(b) == 1:
                roots.append(mpmath.mpf(float(block[0, 0])))
                continue
            eig = mpmath.eig(mpmath.matrix(block.tolist()), left=False, right=False)
            roots.append(max(mpmath.re(e) for e in eig))
        return max(roots)


class TestCollatzWielandtRoot:
    """The Collatz-Wielandt root agrees with the squaring reference; reducible input is split into blocks."""

    @staticmethod
    def _counted(monkeypatch):
        """Counts of bounds left open (on any input, on irreducible input) and of block splits."""
        calls = {"gave_up": 0, "gave_up_irreducible": 0, "split": 0}
        noda, blocks = linalg._noda_bounds, linalg._irreducible_blocks

        def counted_noda(P, c, start=None):
            lo, hi, x = noda(P, c, start)
            if hi - lo > 1e-15 * max(1.0, lo + c):
                calls["gave_up"] += 1
                calls["gave_up_irreducible"] += len(blocks(P)) == 1
            return lo, hi, x

        def counted_blocks(M):
            calls["split"] += 1
            return blocks(M)

        monkeypatch.setattr(linalg, "_noda_bounds", counted_noda)
        monkeypatch.setattr(linalg, "_irreducible_blocks", counted_blocks)
        return calls

    def test_agrees_with_squaring_on_every_split(self, perron_inputs, monkeypatch):
        for label, what, M in perron_inputs:
            B = _perron_matrix(what, M)
            want, c = squaring_root(B)
            calls = self._counted(monkeypatch)
            got = spectral_radius_nonneg(B)
            assert abs(got - want) <= 4e-15 * (want + c), label
            # the block split runs only where the iteration gave up, never on an irreducible block
            assert calls["split"] == calls["gave_up"], label
            assert calls["gave_up_irreducible"] == 0, label

    def test_same_kinds_as_squaring(self, perron_inputs, monkeypatch):
        splits = [(label, M) for label, what, M in perron_inputs if what != "PhiPsi"]
        kinds = [classify_zm(M).kind for _, M in splits]
        pair = linalg._perron_pair
        monkeypatch.setattr(linalg, "_perron_pair", lambda P, start=None: (squaring_root(P)[0], pair(P, start)[1]))
        for (label, M), kind in zip(splits, kinds):
            assert classify_zm(M).kind is kind, label

    def test_reducible_closing_matrices_reach_the_fallback(self, perron_inputs, monkeypatch):
        reducible = [
            _perron_matrix(what, M)
            for label, what, M in perron_inputs
            if label.startswith("noncritical") and what in ("R", "S") and len(linalg._irreducible_blocks(M)) > 1
        ]
        calls = self._counted(monkeypatch)
        for B in reducible:
            spectral_radius_nonneg(B)
        assert calls["gave_up"] >= 1
        assert calls["split"] == calls["gave_up"]
        assert calls["gave_up_irreducible"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sparse_random_matrices_give_up_quietly(self, monkeypatch):
        # sparse draws are often reducible: the iteration must give up before
        # it divides by a zero or non-finite iterate, and agree with squaring
        rng = np.random.default_rng(5)
        calls = self._counted(monkeypatch)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6) + np.diag(rng.uniform(0.1, 1.0, n))
            want, c = squaring_root(P)
            assert abs(spectral_radius_nonneg(P) - want) <= 4e-15 * (want + c), P
        assert calls["gave_up"] > 0
        # a draw that is irreducible and stalls by rounding is carried by its rerun
        assert calls["split"] == calls["gave_up"]

    def test_zero_and_1x1_inputs_exact(self, perron_inputs):
        rng = np.random.default_rng(17)
        for n in range(1, 6):
            assert spectral_radius_nonneg(np.zeros((n, n))) == 0.0
        entries = [0.0, 1.0, 2.0, 5e-324, 1e-300, 1e300]
        entries += [*rng.uniform(0.0, 3.0, 200), *(10.0 ** rng.uniform(-300, 300, 200))]
        entries += [_perron_matrix(what, M)[0, 0] for _, what, M in perron_inputs if M.shape == (1, 1)]
        for a in entries:
            assert spectral_radius_nonneg([[a]]) == a, a

    def test_no_farther_from_mpmath_than_squaring(self, perron_inputs):
        # the splits the iteration leaves open, and the 1x1 ones, were once
        # taken by squaring alone; the new root is at least as close to a
        # 40-digit reference as that one
        inputs = [_perron_matrix(what, M) for _, what, M in perron_inputs]
        inputs += [np.array([[0.0, 2.0], [0.0, 0.0]]), np.array([[2.0, 1.0], [0.0, 1.0]])]
        checked = 0
        for P in inputs:
            c = 1.0 + float(np.diag(P).max())
            lo, hi, _ = linalg._noda_bounds(P, c)
            if P.shape[0] > 1 and hi - lo <= 1e-15 * max(1.0, lo + c):
                continue
            want = _mp_perron_root(P)
            old, _ = squaring_root(P)
            assert abs(spectral_radius_nonneg(P) - want) <= abs(old - want), P
            checked += 1
        assert checked >= 50


class TestPerronPair:
    def test_vector_of_random_irreducible_matrices(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.8)
            P[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # a cycle through every node
            rho, x = linalg._perron_pair(P)
            assert rho == spectral_radius_nonneg(P)
            assert (x > 0).all()
            assert np.abs(P @ x - rho * x).max() <= 1e-14 * (rho + 1.0) * x.max()

    def test_vector_after_a_rounding_stall(self):
        # the stalled input of test_rounding_stall_on_irreducible_input: the
        # vector is the product of both runs' last vectors
        P = np.array(
            [
                [0.898164466787317, 0.2534909409788879, 0.0],
                [0.6712200607469431, 0.9589346374849559, 0.18172299662216862],
                [0.0, 0.000986160175509232, 0.5675012549010134],
            ]
        )
        rho, x = linalg._perron_pair(P)
        assert (x > 0).all()
        assert np.abs(P @ x - rho * x).max() <= 1e-14 * (rho + 1.0) * x.max()


def _assert_blocks_of_closure(M):
    """``_irreducible_blocks(M)`` against the transitive closure of M's digraph (Floyd-Warshall)."""
    n = len(M)
    reach = M != 0.0
    np.fill_diagonal(reach, True)
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    blocks = linalg._irreducible_blocks(M)
    # a partition in the order of smallest index, i and j together iff each reaches the other
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n))
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    assert all(np.array_equal(b, np.sort(b)) for b in blocks)
    label = np.empty(n, dtype=int)
    for k, b in enumerate(blocks):
        label[b] = k
    assert np.array_equal(label[:, None] == label[None, :], reach & reach.T)
    return blocks


class TestIrreducibleBlocks:
    def test_against_transitive_closure(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            _assert_blocks_of_closure((rng.random((n, n)) < rng.uniform(0.05, 0.5)).astype(float))
        for n in (63, 64, 65, 129):  # node sets of more than one byte and one machine word
            for density in (0.005, 0.02, 0.1):
                _assert_blocks_of_closure((rng.random((n, n)) < density).astype(float))

    def test_shapes_against_transitive_closure(self):
        rng = np.random.default_rng(44)
        n = 300
        lower = np.tril(rng.uniform(0.1, 1.0, (n, n)))
        assert len(_assert_blocks_of_closure(lower)) == n  # one block per node
        assert len(_assert_blocks_of_closure(lower.T.copy())) == n
        tridiagonal = np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)  # diameter n - 1
        assert len(_assert_blocks_of_closure(tridiagonal)) == 1
        # ten irreducible diagonal blocks, each coupled to every earlier one, symmetrically permuted
        ten = np.kron(np.tril(np.ones((10, 10))), np.ones((30, 30))) * rng.uniform(0.1, 1.0, (n, n))
        perm = rng.permutation(n)
        blocks = _assert_blocks_of_closure(ten[np.ix_(perm, perm)])
        assert sorted(len(b) for b in blocks) == [30] * 10
        cycle = np.eye(n) + np.roll(np.eye(n), 1, axis=1)  # one block, one edge out of each node
        assert len(_assert_blocks_of_closure(cycle)) == 1

    def test_block_triangular(self):
        M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 2.0]])
        assert [b.tolist() for b in linalg._irreducible_blocks(M)] == [[0, 1], [2]]


class TestIdentityCache:
    def test_read_only_identity_and_its_ones_column(self):
        for n in (1, 3, linalg._EYE_MAX_ORDER, linalg._EYE_MAX_ORDER + 1):
            eye = linalg._eye(n)
            assert np.array_equal(eye, np.eye(n)) and not eye.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                eye[0, 0] = 2.0
            laid = linalg._with_ones(n, eye)
            assert np.array_equal(laid, linalg._with_ones(n, np.eye(n)))
            X, _, certified, x = linalg._m_solve(2.0 * np.eye(n), eye)
            assert certified and np.array_equal(X, 0.5 * np.eye(n)) and np.array_equal(x, np.full(n, 0.5))
        assert linalg._eye(3) is linalg._eye(3)
        assert linalg._eye(linalg._EYE_MAX_ORDER + 1) is not linalg._eye(linalg._EYE_MAX_ORDER + 1)

    def test_bounded(self):
        for n in range(1, 3 * linalg._EYE_MAX_ORDER):
            linalg._eye(n)
        assert len(linalg._EYES) <= linalg._EYE_MAX_ORDER
        assert max(linalg._EYES) <= linalg._EYE_MAX_ORDER
        held = sum(eye.nbytes + laid.nbytes for eye, laid in linalg._EYES.values())
        assert held <= sum(8 * n * (2 * n + 1) for n in range(1, linalg._EYE_MAX_ORDER + 1)) < 1.45e6

    def test_threads_share_the_cache(self):
        # more threads than cores, switching often, each filling the cache and
        # asking for orders beyond it
        errors = []

        def work(offset):
            try:
                for _ in range(20):
                    for n in range(1, 2 * linalg._EYE_MAX_ORDER):
                        k = (n + offset) % (2 * linalg._EYE_MAX_ORDER) + 1
                        eye = linalg._eye(k)
                        assert eye.shape == (k, k) and eye[k - 1, k - 1] == 1.0
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(17 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(linalg._EYES) <= linalg._EYE_MAX_ORDER
        for n, (eye, laid) in linalg._EYES.items():
            assert np.array_equal(eye, np.eye(n)) and np.array_equal(laid, linalg._with_ones(n, np.eye(n)))


class TestMSolve:
    """One LAPACK solve on [blocks 1]: the solution plus a semipositivity certificate."""

    def test_certified_nonsingular_m_matrix(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        X, dist, certified, _ = linalg._m_solve(M, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert certified
        assert np.allclose(X, np.linalg.inv(M), rtol=0, atol=1e-15)
        # M^{-1} 1 = (1, 1): ||M^{-1}||_inf = 1
        assert dist == pytest.approx(1.0, rel=1e-15)

    def test_blocks_side_by_side(self):
        # a vector block is one column; with no block the solution has none
        M = np.diag([2.0, 4.0])
        X, dist, certified, x = linalg._m_solve(M, np.array([2.0, 4.0]), np.array([[4.0, 0.0], [0.0, 8.0]]))
        assert np.array_equal(X, [[1.0, 2.0, 0.0], [1.0, 0.0, 2.0]])
        # the ones column is returned too: x = M^{-1} 1, the witness that certifies M
        assert certified and dist == 2.0 and np.array_equal(x, [0.5, 0.25])
        assert linalg._m_solve(M)[0].shape == (2, 0)

    def test_uncertified_kinds(self):
        # Z but not M (rho(B) = 2 > s = 1), not Z (M^{-1} 1 > 0 all the
        # same), and a nonsingular M-matrix within rounding of singular
        for M in ([[1.0, -2.0], [-2.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, -1.0], [-1.0, 1.0 + 1e-15]]):
            _, _, certified, _ = linalg._m_solve(np.array(M), np.ones((2, 1)))
            assert not certified

    def test_exactly_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg._m_solve(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.ones(2))

    def test_rejects_nonfinite_matrix(self):
        with pytest.raises(ValueError):
            linalg._m_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_verdict_matches_kind_on_random_z_matrices(self):
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 9))
            N = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6) + np.diag(rng.uniform(0.1, 1.0, n))
            M = (spectral_radius_nonneg(N) * rng.uniform(0.5, 1.5)) * np.eye(n) - N
            _, dist, certified, _ = linalg._m_solve(M)
            kind = classify_zm(M).kind
            seen.add(kind)
            assert certified == (kind is MatrixKind.NONSINGULAR_M)
            if certified:
                want = 1.0 / np.abs(np.linalg.inv(M)).sum(axis=1).max()
                assert dist == pytest.approx(want, rel=1e-12)
        assert {MatrixKind.NONSINGULAR_M, MatrixKind.Z_NOT_M} <= seen


class TestSolveEntry:
    """``linalg._solve``, the package's one LAPACK solve: the bits and the error of ``np.linalg.solve``."""

    def test_same_bits_as_numpy(self):
        # vector and matrix right-hand sides, the read-only [I 1] of _eye, and
        # the matrix as drawn, as a row-major transpose and in column-major order
        rng = np.random.default_rng(40)
        for n in range(1, 101):
            A = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 2.0, n))
            rhs = (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, 1 + n % 5)), linalg._with_ones(n, linalg._eye(n)))
            assert n > linalg._EYE_MAX_ORDER or not rhs[2].flags.writeable
            for M in (A, A.T.copy(), np.asfortranarray(A)):
                for b in rhs:
                    got, want = linalg._solve(M, b), np.linalg.solve(M, b)
                    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_exactly_singular_raises_numpys_error_and_warns_nothing(self):
        for A in (np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros((3, 3))):
            for b in (np.ones(len(A)), np.ones((len(A), 2))):
                with pytest.raises(np.linalg.LinAlgError) as want:
                    np.linalg.solve(A, b)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(np.linalg.LinAlgError) as got:
                        linalg._solve(A, b)
                assert str(got.value) == str(want.value) == "Singular matrix"


def test_no_wrapper_solve_or_ix_gather():
    # the package's solves go through linalg._solve, and its blocks are gathered
    # by fancy indexing, whose wrappers cost more than the work on small blocks
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "np.linalg.solve(" not in text and "np.ix_(" not in text, path.name


def test_general_kernels_are_gone():
    # every solve is a certified _m_solve and every spectral quantity a Perron root
    import marekit

    for name in ("lu_factor", "Factorization", "solve_linear", "spectral_radius"):
        assert not hasattr(linalg, name) and name not in marekit.__all__


@pytest.mark.parametrize(
    "check, value, message",
    [
        (linalg.as_matrix, np.ones(3), "matrix must be 2-D, got shape (3,)"),
        (linalg.as_matrix, np.zeros((0, 2)), "matrix must have positive dimensions"),
        (linalg.as_square, np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
    ],
)
def test_input_checks(check, value, message):
    with pytest.raises(ShapeMismatch) as info:
        check(value)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, refusal",
    [
        (np.array([[2.0 + 1j]]), "complex entries"),
        (np.array([[2.0 + 0j]]), "complex entries"),
        ([[2.0 + 1j]], "an entry that is not a real number"),
    ],
    ids=["complex-array", "real-valued-complex-array", "python-complex-in-list"],
)
@pytest.mark.parametrize("entry", ["MareProblem", "make_certificate", "classify_zm", "spectral_radius_nonneg"])
def test_complex_input_is_refused(entry, value, refusal):
    # numpy casts a complex array to float64 with only a ComplexWarning, and
    # a Python complex in a list fails its conversion with a TypeError
    p = MareProblem(1, 1, A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
    calls = {
        "MareProblem": lambda: MareProblem(1, 1, A=value, B=[[1.0]], C=[[1.0]], D=[[2.0]]),
        "make_certificate": lambda: make_certificate(p, value, [[0.5]]),
        "classify_zm": lambda: classify_zm(value),
        "spectral_radius_nonneg": lambda: spectral_radius_nonneg(value),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f" has {refusal}$"):
            calls[entry]()


def test_one_norm_matrix_and_vector():
    assert one_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert one_norm(np.array([1.0, -2.0])) == 3.0

"""Reference computations and call counters shared by the test modules.

Not a test module (no ``test_`` prefix), so pytest does not collect it;
the test modules import from here and never from each other.
"""

import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from marekit import doubling, linalg, mstruct
from marekit.errors import SingularMatrix
from marekit.linalg import EPS, one_norm
from marekit.mstruct import MatrixKind, classify_zm
from marekit.problem import MareProblem


def _squaring_bounds(M: np.ndarray, max_squarings: int = 80):
    """Yield two-sided bounds ``(lo, hi)`` on rho(M) from repeated squaring.

    M must be nonnegative with a positive diagonal.  For any k,
    max_i (M^k)_ii <= rho(M)^k <= ||M^k||_1, and with k = 2^j and 1-norm
    rescaling both ends close in geometrically in j, even for a defective
    dominant eigenvalue.  An independent reference for the Perron root;
    the iterate may underflow to zero once the bounds are already tight.
    """
    N = M.copy()
    log_scale = 0.0  # sum of 2^{-i} log t_i accumulated so far
    weight = 1.0
    for _ in range(max_squarings):
        t = one_norm(N)
        if t <= 0.0:
            return
        log_scale += weight * math.log(t)
        N = N / t
        lo = math.exp(log_scale + weight * math.log(max(np.diag(N).max(), 5e-324)))
        hi = math.exp(log_scale)  # ||N||_1 == 1 after scaling
        yield lo, hi
        N = N @ N
        weight *= 0.5


def squaring_root(P):
    """``(rho, c)``: the Perron root of P from squaring bounds on P + c I, c = 1 + max diag(P)."""
    P = np.asarray(P, dtype=np.float64)
    c = 1.0 + float(np.diag(P).max())
    lo, hi = 0.0, math.inf
    for lo, hi in _squaring_bounds(P + c * np.eye(len(P))):
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    assert hi - lo <= 1e-9 * max(1.0, lo)
    return max(0.5 * (lo + hi) - c, 0.0), c


def zm_split(M):
    """``(s, B)`` of the Z-matrix split ``M = s I - B`` that ``classify_zm`` makes."""
    M = np.asarray(M, dtype=np.float64)
    s = float(np.diag(M).max())
    B = s * np.eye(len(M)) - M
    B[B < 0] = 0.0
    return s, B


def check_against_squaring(M):
    """``classify_zm(M)`` against the squaring reference: its root, and its kind off the band edges."""
    M = np.asarray(M, dtype=np.float64)
    got = classify_zm(M)
    if (M - np.diag(np.diag(M)) > 0).any():
        assert got.kind is MatrixKind.NOT_Z
        return
    s, B = zm_split(M)
    want, c = squaring_root(B)
    # squaring is itself off by a few eps (rho + c), up to 4e-15 (rho + c) on
    # scaled triangular splits, whose exact root is a diagonal entry
    slack = 1e-14 * (want + c)
    assert abs(got.rho_B - want) <= slack
    gap = s - want
    if abs(abs(gap) - got.tol) > slack + 4 * EPS * max(abs(s), want):
        assert got.kind is mstruct.gap_kind(gap, got.tol)


def sign_flipped(p):
    """Block matrix [[D, -C], [B, -A]] = diag(I_n, -I_m) K of a problem p.

    Its zero-eigenvalue structure decides whether a singular problem is
    well posed; the package reads it through K, and the tests form it as
    the operand of their SVD references.
    """
    H = p.K.copy()
    np.negative(H[p.n :], out=H[p.n :])
    return H


def regularity_witness(M, classification):
    """A positive v with M v >= 0 built from the blocks of ``classification``, or None.

    The constructive side of ``MClassification.regular``, kept here as a
    reference: each singular block's Perron vector, scaled to min 1, and
    M_NN^{-1} (1 - M_NS v_S) on the nonsingular rest N, solved and
    certified by ``linalg._m_solve`` (SingularMatrix where it fails or the
    solution is not positive).  A nonsingular M is all rest, so v = M^{-1} 1.
    """
    A = np.asarray(M, dtype=float)
    if classification.kind not in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M):
        raise ValueError("regularity is defined for M-matrices only")
    if not classification.regular:
        return None
    v = np.ones(len(A))
    final = np.zeros(len(A), dtype=bool)
    for blk in classification.singular_blocks:
        v[blk.index] = blk.perron / blk.perron.min()
        final[blk.index] = True
    rest = ~final
    if rest.any():
        rows = A[rest]
        X, _, certified, _ = linalg._m_solve(rows[:, rest], 1.0 - rows[:, final] @ v[final])
        if not (certified and (X > 0.0).all()):
            raise SingularMatrix("M^{-1} 1 does not certify a nonsingular M-matrix")
        v[rest] = X[:, 0]
    return v


# Two certified Perron runs of one nonnegative matrix from different start
# vectors each close their Collatz-Wielandt bounds to 1e-15 max(1, lo + c),
# c = 1 + max diag, which is at most 1e-15 (1 + 2 s) for the split of an
# M-matrix with max diagonal s; so their roots, and the gaps read off them,
# differ by at most twice that plus rounding.  Measured: 2.9e-16 (1 + 2 s)
# on the closing matrices of the acceptance suites and the reducible draws
# (2.1e-16 there and on the benchmark's sweep-small and solve-large
# problems while only K's witness started them).
START_SLACK = 4e-15


def replay(p, rep):
    """The states of the doubling run behind ``rep``, k = 0 through ``rep.iterations``.

    A report keeps no iterate; ``initialize`` and ``step`` are pure
    functions of their arguments, so from ``rep.params`` they rebuild the
    run's own iterates, bit for bit, with their diagnostics.
    """
    state = doubling.initialize(p, rep.params)
    states = [state]
    for _ in range(rep.iterations):
        state = doubling.step(state)
        states.append(state)
    return states


def reference_observed_rate(p, rep):
    """``observed_rate`` as it was defined on iterates: ||H_k - phi||_1^(1 / 2^k) on the replayed run.

    Steps with an error of at most 100 eps are skipped, the smallest value
    of the last three usable steps is taken, and None stands for fewer
    than two usable steps.
    """
    usable = []
    for state in replay(p, rep):
        err = one_norm(state.H - rep.phi)
        if err > 100 * EPS:
            usable.append((state.k, err))
    if len(usable) < 2:
        return None
    return min(err ** (1.0 / 2.0**k) for k, err in usable[-3:])


def _mp_doubling(p, params, dps=50):
    """Phi and Psi by the same doubling iteration in ``dps``-digit mpmath arithmetic.

    The blocks are numpy object arrays of mpf, inverted by ``mpmath.inverse``.
    The iteration stops when H and G move by less than 10^(10 - dps) of
    their size.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):

        def mp_array(M):
            return np.array([[mpmath.mpf(float(x)) for x in row] for row in np.asarray(M)], dtype=object)

        def inv(M):
            return np.array(mpmath.inverse(mpmath.matrix(M.tolist())).tolist(), dtype=object)

        def norm(M):
            return max(abs(x) for x in M.flat)

        n, m = p.n, p.m
        alpha, beta = mpmath.mpf(params.alpha), mpmath.mpf(params.beta)
        shifted = mp_array(p.K) + np.diag([alpha] * n + [beta] * m)
        Z = (alpha + beta) * inv(shifted)
        I_n, I_m = mp_array(np.eye(n)), mp_array(np.eye(m))
        E, F, G, H = I_n - Z[:n, :n], I_m - Z[n:, n:], Z[:n, n:], Z[n:, :n]
        small = mpmath.mpf(10) ** (10 - dps)
        for _ in range(80):
            igh_inv, ihg_inv = inv(I_n - G @ H), inv(I_m - H @ G)
            E, F, G_new, H_new = E @ igh_inv @ E, F @ ihg_inv @ F, G + E @ igh_inv @ G @ F, H + F @ ihg_inv @ H @ E
            done = norm(H_new - H) <= small * max(1, norm(H_new)) and norm(G_new - G) <= small * max(1, norm(G_new))
            G, H = G_new, H_new
            if done:
                return H.astype(np.float64), G.astype(np.float64)
    raise AssertionError("the mpmath doubling did not converge")


def reference_path(monkeypatch):
    """Patch the package back to its classification and certificate before the one-solve paths.

    Three patches, each the exact code those paths fall back to: K is
    classified by ``classify_zm(K)`` alone (its certified K^{-1} 1 decides
    nothing, and ``block_null_pairs`` solves K again), every left Perron
    vector is a Noda run on the transposed split, and every Perron run
    starts at 1, whatever start the caller passes (K's witness, the trial
    K^{-1} 1, the doubling's last iterate).  Use it inside
    ``monkeypatch.context()`` to compare the two paths on one problem.
    """
    perron = linalg._perron_pair
    monkeypatch.setattr(mstruct, "classify_by_solve", lambda K, norm=None: (classify_zm(K), None))
    monkeypatch.setattr(mstruct, "_left_perron", lambda M, x: perron(mstruct._split(M.T)[1])[1])
    monkeypatch.setattr(linalg, "_perron_pair", lambda A, start=None: perron(A))


def count_m_solves(monkeypatch):
    """The (order, block count) of every ``linalg._m_solve`` call from here on."""
    calls = []
    real = linalg._m_solve

    def counting(A, *blocks, **options):
        calls.append((len(A), len(blocks)))
        return real(A, *blocks, **options)

    monkeypatch.setattr(linalg, "_m_solve", counting)
    return calls


def reducible_m_matrix(rng, size):
    """A block upper-triangular M-matrix, symmetrically permuted, and whether it is regular.

    Each diagonal block is dense and either singular (zero row sums) or
    clearly nonsingular (row sums of at least 0.5); a block couples to the
    later ones in its rows with probability 1/2.  M is regular exactly when
    no singular block is coupled.
    """
    cuts = np.sort(rng.choice(np.arange(1, size), size=int(rng.integers(1, min(size, 4))), replace=False))
    bounds = [0, *cuts.tolist(), size]
    M = np.zeros((size, size))
    regular = True
    for lo, hi in zip(bounds, bounds[1:]):
        M[lo:hi, lo:] = -rng.uniform(0.1, 1.0, (hi - lo, size - lo))
        if hi == size or rng.random() < 0.5:
            M[lo:hi, hi:] = 0.0
        singular = rng.random() < 0.6
        M[lo:hi, lo:hi] += np.diag(-M[lo:hi, lo:hi].sum(axis=1) + (0.0 if singular else rng.uniform(0.5, 2.0)))
        regular = regular and not (singular and M[lo:hi, hi:].any())
    perm = rng.permutation(size)
    return M[np.ix_(perm, perm)], regular


def reducible_problems(seed, count):
    """Z-matrix K with 2-4 irreducible diagonal blocks in block upper triangular form, permuted and split.

    K = diag(N x / x + w) - N for a drawn positive x, N >= 0 block upper
    triangular; w > 0 makes every block nonsingular, and in about half of
    the draws the last block, which is final and of order >= 2 so that K
    has no zero row, gets w = 0 and is singular.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        orders = rng.integers(1, 5, int(rng.integers(2, 5)))
        orders[-1] = max(orders[-1], 2)
        size = int(orders.sum())
        starts = np.concatenate([[0], np.cumsum(orders)])
        N = np.zeros((size, size))
        for a, b in zip(starts[:-1], starts[1:]):
            N[a:b, a:] = rng.uniform(0.1, 1.0, (b - a, size - a)) * (rng.uniform(size=(b - a, size - a)) < 0.7)
            N[a:b, a:b] = rng.uniform(0.1, 1.0, (b - a, b - a))
        np.fill_diagonal(N, 0.0)
        x = rng.uniform(0.5, 1.5, size)
        w = rng.uniform(0.0, 1.0, size)
        if rng.uniform() < 0.5:
            w[starts[-2]:] = 0.0
        K = np.diag(N @ x / x + w) - N
        perm = rng.permutation(size)
        K = K[np.ix_(perm, perm)]
        n = int(rng.integers(1, size))
        problems.append(MareProblem(n=n, m=size - n, D=K[:n, :n], C=-K[:n, n:], B=-K[n:, :n], A=K[n:, n:]))
    return problems


def bench_problems(seed, workloads=("sweep-small", "solve-large", "crosscheck")):
    """The problems of the benchmark's ``workloads`` at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "problems.py"
    spec = importlib.util.spec_from_file_location("bench_problems", path)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # its dataclasses look their module up there
    spec.loader.exec_module(bench)
    return [
        MareProblem(n=b.n, m=b.m, A=b.A, B=b.B, C=b.C, D=b.D)
        for workload in workloads
        for b in bench.generate(workload, seed)
    ]


# draws of ``z_matrix_draws`` whose doubling used to escape ``cli.execute``: where
# m = 1 and x2 = 1 + H W G 1 rounds to 0 (2912, 12978, 20848, 21774, 34962), and
# where G H or x2 overflowed with a warning (17347, 20707, 31035)
Z_DRAWS = (2912, 12978, 17347, 20707, 20848, 21774, 31035, 34962)


@functools.cache
def z_matrix_draws():
    """{draw: MareProblem} of the draws in ``Z_DRAWS``, numpy draws only, no solve.

    The t-th of 40000 draws of ``default_rng(1)``, from 0: a Z-matrix K of
    order n + m, n and m in 1..3, whose off-diagonal part -N has density
    0.7 and whose diagonal is 0.6-1.0 times N v / v (at least 0.05) for a
    positive v, so that K is most often no M-matrix; the problem takes
    K's blocks.
    """
    rng = np.random.default_rng(1)
    draws = {}
    for t in range(Z_DRAWS[-1] + 1):
        n, m = (int(x) for x in rng.integers(1, 4, 2))
        N = rng.uniform(0, 1, (n + m, n + m)) * (rng.random((n + m, n + m)) < 0.7)
        np.fill_diagonal(N, 0)
        v = rng.uniform(0.5, 1.5, n + m)
        s = np.maximum((N @ v) / v * rng.uniform(0.6, 1.0), 0.05)
        K = np.diag(s) - N
        if t in Z_DRAWS:
            draws[t] = MareProblem(n, m, A=K[n:, n:], B=-K[n:, :n], C=-K[:n, n:], D=K[:n, :n])
    return draws

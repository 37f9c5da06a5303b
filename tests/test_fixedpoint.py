import re
import tracemalloc

import numpy as np
import pytest

from marekit import FamilySpec, MareProblem, Regime, generate, solve
from marekit import fixedpoint
from marekit.doubling import DoublingParams, sign_tol
from marekit.errors import InvalidParameters, IterationBreakdown, SingularMatrix
from marekit.fixedpoint import OracleReport, _fixed_point, fixed_point_solve
from marekit.linalg import EPS, one_norm
from marekit.problem import _residual, make_certificate, residual_dual, residual_primal

GOLDEN = (3 - 5**0.5) / 2


def _reference_fixed_point(p, tol=1e-10, max_iter=5000, residuals=None):
    """Reference oracle that takes the exact residual at every step.

    ``residuals``, when given, receives the residual of every step.
    """
    a, d = np.diag(p.A), np.diag(p.D)
    denom = a[:, None] + d[None, :]
    floor = p.K.shape[0] * EPS * one_norm(p.K)
    if denom.min() <= floor:
        raise SingularMatrix("diagonal splitting is singular to tolerance")
    N_A = np.diag(a) - p.A
    N_D = np.diag(d) - p.D
    tau = sign_tol(p)
    X = np.zeros((p.m, p.n))
    res = residual_primal(p, X)
    violations = 0
    for k in range(1, max_iter + 1):
        X_new = (X @ p.C @ X + p.B + N_A @ X + X @ N_D) / denom
        violations += int((X_new < X - tau).sum())
        X = X_new
        res = residual_primal(p, X)
        if residuals is not None:
            residuals.append(res)
        if res <= tol:
            return OracleReport(X, k, True, res, violations)
    return OracleReport(X, max_iter, False, res, violations)


def _reference_dual(p, tol=1e-10, max_iter=5000, residuals=None):
    """Reference for the dual side of the oracle pair, with the exact residual at every step.

    It iterates Z = Psi^T on the transposed coefficients, as the pair does,
    judges each step by ``residual_dual`` of Z^T and reports Psi.
    """
    a, d = np.diag(p.A), np.diag(p.D)
    denom = a[:, None] + d[None, :]
    N_A, B, C, N_D = (np.ascontiguousarray(M.T) for M in (np.diag(a) - p.A, p.C, p.B, np.diag(d) - p.D))
    tau = sign_tol(p)
    Z = np.zeros((p.m, p.n))
    violations = 0
    for k in range(1, max_iter + 1):
        Z_new = (Z @ C @ Z + B + N_A @ Z + Z @ N_D) / denom
        violations += int((Z_new < Z - tau).sum())
        Z = Z_new
        res = residual_dual(p, Z.T)
        if residuals is not None:
            residuals.append(res)
        if res <= tol:
            break
    return OracleReport(np.ascontiguousarray(Z.T), k, res <= tol, res, violations)


def _assert_same_report(got, want):
    assert got.phi.shape == want.phi.shape
    assert got.phi.tobytes() == want.phi.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert np.float64(got.final_residual).tobytes() == np.float64(want.final_residual).tobytes()
    assert got.monotonicity_violations == want.monotonicity_violations


def _record_stops(reference, p):
    """(k, r): the steps among the first 80 whose exact residual r is a record low, past the first third.

    tol set to such an r sits at the screen's edge: a slack smaller than the
    rounding gap lets the fused value miss it, and the run must stop on step k.
    """
    residuals = []
    reference(p, tol=0.0, max_iter=80, residuals=residuals)
    record = [k for k in range(1, len(residuals) + 1) if residuals[k - 1] < min(residuals[: k - 1], default=np.inf)]
    return [(k, residuals[k - 1]) for k in record[len(record) // 3 :]]


def test_scalar_nonsingular(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=1e-12)
    assert rep.converged
    assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-11)
    assert rep.phi[0, 0] == pytest.approx(0.3819660113, abs=1e-9)
    assert rep.monotonicity_violations == 0


def test_zero_b_converges_immediately(reducible_singular):
    rep = fixed_point_solve(reducible_singular)
    assert rep.converged
    assert rep.iterations == 1
    assert np.array_equal(rep.phi, np.zeros((2, 1)))


def test_critical_does_not_converge_but_increases(scalar_critical):
    # hand iteration x <- (x^2 + 1)/2 climbs monotonically toward 1
    rep = fixed_point_solve(scalar_critical, tol=1e-12, max_iter=200)
    assert not rep.converged
    assert rep.iterations == 200
    assert 0.9 < rep.phi[0, 0] < 1.0
    assert rep.monotonicity_violations == 0
    longer = fixed_point_solve(scalar_critical, tol=1e-12, max_iter=400)
    assert longer.phi[0, 0] > rep.phi[0, 0]


def test_limit_satisfies_equation(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=1e-10)
    assert residual_primal(scalar_nonsingular, rep.phi) <= 1e-10
    assert rep.final_residual <= 1e-10


def test_agrees_with_doubling_on_worked_problems(scalar_nonsingular, reducible_singular):
    for p in (scalar_nonsingular, reducible_singular):
        doubled = solve(p)
        oracle = fixed_point_solve(p, tol=1e-12)
        assert oracle.converged
        gap = one_norm(doubled.phi - oracle.phi)
        assert gap <= 1e-8 * max(1.0, one_norm(oracle.phi))


def test_converges_at_m_times_n_above_2500():
    p = generate(FamilySpec(Regime.NONSINGULAR_K, 51, 51, seed=5))
    rep = fixed_point_solve(p, tol=1e-12)
    assert rep.converged
    assert rep.monotonicity_violations == 0
    gap = one_norm(solve(p).phi - rep.phi)
    assert gap <= 1e-8 * max(1.0, one_norm(rep.phi))


def test_zero_denominator_raises():
    # a + d = 0 leaves the diagonal splitting nothing to divide by
    for a, d in ((0.0, 0.0), (1.0, -1.0)):
        p = MareProblem(n=1, m=1, A=[[a]], B=[[1.0]], C=[[1.0]], D=[[d]])
        with pytest.raises(SingularMatrix):
            fixed_point_solve(p)


# the entry points that take iteration limits; the certificate has a tol only
_LIMITED = {
    "fixed_point_solve": fixed_point_solve,
    "DoublingParams": lambda p, tol=1e-14, **limits: DoublingParams(2.0, 1.0, stop_tol=tol, **limits),
    "make_certificate": lambda p, tol: make_certificate(p, [[GOLDEN]], [[GOLDEN]], tol),
}


@pytest.mark.parametrize(
    "entry, limits, message",
    [
        pytest.param(entry, limits, message, id=f"{entry}-{name}")
        for name, limits, message in [
            ("tol-negative", {"tol": -1.0}, "tol must be nonnegative"),
            ("tol-tiny-negative", {"tol": -1e-300}, "tol must be nonnegative"),
            ("tol-nan", {"tol": float("nan")}, "tol must be nonnegative"),
            ("tol-inf", {"tol": float("inf")}, "tol must be finite, got inf"),
            ("tol-bool", {"tol": True}, "tol must be a real number"),
            ("tol-none", {"tol": None}, "tol must be a real number"),
            ("tol-string", {"tol": "1e-3"}, "tol must be a real number"),
            ("max_iter-zero", {"max_iter": 0}, "max_iter must be at least 1, got 0"),
            ("max_iter-negative", {"max_iter": -5}, "max_iter must be at least 1, got -5"),
            ("max_iter-float", {"max_iter": 2.5}, "max_iter must be an integer"),
            ("max_iter-numpy-float", {"max_iter": np.float64(3.0)}, "max_iter must be an integer"),
            ("max_iter-none", {"max_iter": None}, "max_iter must be an integer"),
            ("max_iter-bool", {"max_iter": True}, "max_iter must be an integer"),
        ]
        for entry in _LIMITED
        if entry != "make_certificate" or "max_iter" not in limits
    ],
)
def test_bad_limits_rejected(scalar_nonsingular, entry, limits, message):
    with pytest.raises(InvalidParameters, match=message):
        _LIMITED[entry](scalar_nonsingular, **limits)


def test_zero_tol_and_one_step_accepted(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=0.0, max_iter=1)
    assert rep.iterations == 1 and not rep.converged


def test_numpy_integer_max_iter_accepted(scalar_nonsingular):
    rep = fixed_point_solve(scalar_nonsingular, tol=0.0, max_iter=np.int64(3))
    assert rep.iterations == 3 and not rep.converged


_SMALL = {
    "scalar-nonsingular": MareProblem(n=1, m=1, A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]]),
    "scalar-critical": MareProblem(n=1, m=1, A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]]),
    "reducible-zero-b": MareProblem(n=1, m=2, A=[[1.0, -1.0], [-1.0, 1.0]], B=[[0.0], [0.0]], C=[[1.0, 1.0]], D=[[2.0]]),
    "nonsingular-3x4": FamilySpec(Regime.NONSINGULAR_K, 3, 4, seed=5),
    "noncritical-3x4": FamilySpec(Regime.SINGULAR_NONCRITICAL, 3, 4, seed=5),
    "critical-2x3": FamilySpec(Regime.CRITICAL, 2, 3, seed=5),
}
_LARGE = {
    "nonsingular-51x51": FamilySpec(Regime.NONSINGULAR_K, 51, 51, seed=5),
    "noncritical-20x25": FamilySpec(Regime.SINGULAR_NONCRITICAL, 20, 25, seed=5),
    "noncritical-30x31": FamilySpec(Regime.SINGULAR_NONCRITICAL, 30, 31, seed=7),
    "critical-4x4": FamilySpec(Regime.CRITICAL, 4, 4, seed=5),
}
_CASES = {**_SMALL, **_LARGE}
# caps on either side of the first and second block boundaries
_BLOCK_CAPS = (fixedpoint._BLOCK - 1, fixedpoint._BLOCK, fixedpoint._BLOCK + 1, 2 * fixedpoint._BLOCK + 1)


def _problem(case):
    return case if isinstance(case, MareProblem) else generate(case)


class TestFusedResidual:
    """The fused residual only screens, so the reports match the exact-residual loop bit for bit."""

    @pytest.mark.parametrize(
        "name, tol, max_iter",
        [
            (name, tol, max_iter)
            for name in sorted(_SMALL)
            for tol in (0.0, 1e-16, 1e-12, 1e-10)
            for max_iter in (1, 50, 5000, *_BLOCK_CAPS)
            # a critical problem runs to the same 5000-step cap at every tol
            if not ("critical" in name and max_iter == 5000 and tol < 1e-10)
        ],
    )
    def test_small_problems_match_reference(self, name, tol, max_iter):
        p = _problem(_SMALL[name])
        for q in (p, p.dual()):
            _assert_same_report(fixed_point_solve(q, tol, max_iter), _reference_fixed_point(q, tol, max_iter))

    @pytest.mark.parametrize(
        "tol, max_iter",
        [(1e-12, 5000), (1e-10, 5000), (0.0, 1), (1e-16, 50), *((1e-10, cap) for cap in _BLOCK_CAPS)],
    )
    @pytest.mark.parametrize("name", sorted(_LARGE))
    def test_large_problems_match_reference(self, name, tol, max_iter):
        p = _problem(_LARGE[name])
        want = _reference_fixed_point(p, tol, max_iter)
        _assert_same_report(fixed_point_solve(p, tol, max_iter), want)
        if name.startswith("critical"):
            assert not want.converged

    @pytest.mark.parametrize(
        "name", ["scalar-nonsingular", "nonsingular-3x4", "noncritical-3x4", "nonsingular-51x51", "noncritical-20x25"]
    )
    def test_stop_on_the_step_whose_exact_residual_is_tol(self, name):
        p = _problem(_CASES[name])
        stops = _record_stops(_reference_fixed_point, p)
        for k, tol in stops:
            want = _reference_fixed_point(p, tol=tol, max_iter=5000)
            assert want.iterations == k and want.converged
            _assert_same_report(fixed_point_solve(p, tol=tol, max_iter=5000), want)
        assert len(stops) >= 5

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12, 1e-15])
    def test_violations_counted_through_the_stop(self, tol):
        # a negative C (not a valid problem, set past the checks) makes the
        # iterates oscillate, so every other step is a monotonicity violation
        p = MareProblem(n=1, m=1, A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        object.__setattr__(p, "C", -p.C)
        want = _reference_fixed_point(p, tol, 5000)
        assert want.converged and want.monotonicity_violations > 0
        _assert_same_report(fixed_point_solve(p, tol, 5000), want)

    def test_one_exact_residual_when_capped_at_most_two_when_converged(self, monkeypatch, scalar_critical):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _residual(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "_residual", counted)
        for case in ("scalar-nonsingular", "nonsingular-3x4", "noncritical-3x4", "nonsingular-51x51"):
            for tol in (1e-12, 1e-10):
                calls.clear()
                assert fixed_point_solve(_problem(_CASES[case]), tol=tol).converged
                assert 1 <= len(calls) <= 2
        for p, max_iter in ((scalar_critical, 200), (generate(_LARGE["critical-4x4"]), 1000)):
            calls.clear()
            rep = fixed_point_solve(p, tol=1e-12, max_iter=max_iter)
            assert not rep.converged
            assert len(calls) == 1


@pytest.mark.filterwarnings("error")
def test_divergent_iterates_break_down(divergent):
    # the look-ahead steps past the overflow overflow too; the block silences them all
    for p in (divergent, divergent.dual()):
        with pytest.raises(IterationBreakdown, match=r"step \d+") as info:
            fixed_point_solve(p, tol=1e-12, max_iter=5000)
        # the step a step-by-step loop names, inside a block, not at its end
        assert int(re.search(r"step (\d+)", str(info.value)).group(1)) == 12


@pytest.mark.parametrize(
    "case, tol, max_iter",
    [("scalar-nonsingular", 1e-12, 5000), ("nonsingular-3x4", 1e-10, 5000), ("critical-2x3", 1e-12, 2 * fixedpoint._BLOCK + 1)],
)
def test_returned_phi_owns_its_memory(case, tol, max_iter):
    # the iterate buffer is reused from block to block, so an answer must not view it
    rep = fixed_point_solve(_problem(_CASES[case]), tol, max_iter)
    assert rep.phi.base is None


# bounds on the tracemalloc peaks of the calls below with blocks of 16 steps,
# whose 49 slabs of sides m n floats exceed the byte budget at n = m = 200,
# where the buffers must keep that size; the calls peak at 18_311_746 and
# 37_192_116 (Python 3.11, numpy 2.4)
_PEAKS_WITH_16_STEP_BLOCKS = {False: 18_577_882, True: 39_385_180}


@pytest.mark.parametrize("dual", [False, True], ids=["one-side", "pair"])
def test_buffers_keep_their_size_above_the_byte_budget(dual):
    p = generate(FamilySpec(Regime.NONSINGULAR_K, 200, 200, seed=0))
    p.norms  # K and the coefficient norms are cached on the problem, outside the count
    assert 49 * 8 * (1 + dual) * p.m * p.n > fixedpoint._BUDGET
    tracemalloc.start()
    try:
        _fixed_point(p, max_iter=2, dual=True) if dual else fixed_point_solve(p, max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAKS_WITH_16_STEP_BLOCKS[dual]


# both B and C nonzero, so the primal and the dual both take many steps
_TWO_SIDED = {
    "two-sided-nonsingular-3x4": FamilySpec(Regime.NONSINGULAR_K, 3, 4, seed=0),
    "two-sided-noncritical-3x4": FamilySpec(Regime.SINGULAR_NONCRITICAL, 3, 4, seed=0),
    "two-sided-nonsingular-1x6": FamilySpec(Regime.NONSINGULAR_K, 1, 6, seed=0),
    "two-sided-noncritical-11x13": FamilySpec(Regime.SINGULAR_NONCRITICAL, 11, 13, seed=7),
}
# two-sided too, at the shapes of the crosscheck benchmark: n m in 110..169
# with n far from m, and a wide one
_CROSSCHECK = {
    "crosscheck-7x21": FamilySpec(Regime.SINGULAR_NONCRITICAL, 7, 21, seed=0),
    "crosscheck-21x7": FamilySpec(Regime.SINGULAR_NONCRITICAL, 21, 7, seed=0),
    "crosscheck-13x13": FamilySpec(Regime.SINGULAR_NONCRITICAL, 13, 13, seed=76),
    "crosscheck-1x40": FamilySpec(Regime.SINGULAR_NONCRITICAL, 1, 40, seed=7),
}


def _waste(stop):
    """The most steps a run computes past ``stop``: the rest of the first block, or _AHEAD past a later stop."""
    return fixedpoint._BLOCK - stop if stop <= fixedpoint._BLOCK else fixedpoint._AHEAD


def _breakdown_step(run, *args, **kwargs):
    with pytest.raises(IterationBreakdown) as info:
        run(*args, **kwargs)
    return int(re.search(r"step (\d+)", str(info.value)).group(1))


class TestPair:
    """The primal and the transposed dual advance as one stacked iteration, each side stopping on its own step."""

    @pytest.mark.parametrize(
        "name, tol, max_iter",
        [
            (name, tol, max_iter)
            for name in sorted({**_SMALL, **_LARGE, **_TWO_SIDED, **_CROSSCHECK})
            for tol in (0.0, 1e-16, 1e-12, 1e-10)
            for max_iter in (*_BLOCK_CAPS, 5000)
            # tol 0, and on a critical problem every tol below 1e-10, would
            # only add runs to the 5000-step cap; the block caps cover them
            if not (max_iter == 5000 and (tol == 0.0 or ("critical" in name and tol < 1e-10)))
        ],
    )
    def test_pair_matches_two_single_runs(self, name, tol, max_iter):
        p = _problem({**_CASES, **_TWO_SIDED, **_CROSSCHECK}[name])
        primal, dual = _fixed_point(p, tol, max_iter, dual=True)
        _assert_same_report(primal, fixed_point_solve(p, tol, max_iter))
        # the transposed products and sums round in another order than the dual run's
        want = fixed_point_solve(p.dual(), tol, max_iter)
        assert (dual.iterations, dual.converged, dual.monotonicity_violations) == (
            want.iterations,
            want.converged,
            want.monotonicity_violations,
        )
        assert dual.phi.shape == want.phi.shape == (p.n, p.m)
        assert one_norm(dual.phi - want.phi) <= 8 * EPS * one_norm(want.phi)
        assert dual.phi.base is None and dual.phi.flags.c_contiguous
        assert dual.final_residual == residual_dual(p, dual.phi)
        # and bit for bit the reference that iterates Psi^T as the pair does
        _assert_same_report(dual, _reference_dual(p, tol, max_iter))

    @pytest.mark.parametrize(
        "name",
        ["scalar-nonsingular", "reducible-zero-b", "noncritical-30x31", *sorted(_TWO_SIDED)],
    )
    def test_dual_stops_on_the_step_whose_exact_residual_is_tol(self, name):
        # the mirror of the primal test: the dual's screen must take Psi's
        # 1-norm, the row sums of the stored Psi^T; column sums pass every
        # answer but move the stop off the step the exact residual picks
        p = _problem({**_CASES, **_TWO_SIDED}[name])
        stops = _record_stops(_reference_dual, p)
        for k, tol in stops:
            want = _reference_dual(p, tol=tol, max_iter=5000)
            assert want.iterations == k and want.converged
            _assert_same_report(_fixed_point(p, tol=tol, max_iter=5000, dual=True)[1], want)
        assert len(stops) >= 5

    @pytest.mark.parametrize("name", sorted(_CROSSCHECK))
    def test_each_side_stops_on_the_step_whose_exact_residual_is_tol(self, name):
        # the screen sums |X| and |T(X) - denom X| by matrix-vector products
        # in BLAS, which round otherwise than the exact residual's sums; at the
        # shapes crosscheck runs, both sides still stop where the exact residual
        # first meets tol
        p = _problem(_CROSSCHECK[name])
        for side, reference in enumerate((_reference_fixed_point, _reference_dual)):
            stops = _record_stops(reference, p)
            for k, tol in stops:
                want = reference(p, tol=tol, max_iter=5000)
                assert want.iterations == k and want.converged
                _assert_same_report(_fixed_point(p, tol=tol, max_iter=5000, dual=True)[side], want)
            assert len(stops) >= 5

    @staticmethod
    def _count_steps(monkeypatch):
        """Record the number of dimensions of every iterate whose numerator is taken, in step order."""
        steps = []
        make_stepper = fixedpoint._stepper

        def counted(*coefficients):
            stepper = make_stepper(*coefficients)

            def run(T, slabs):
                steps.extend(X.ndim for X, *_ in slabs)
                return stepper(T, slabs)

            return run

        monkeypatch.setattr(fixedpoint, "_stepper", counted)
        return steps

    @pytest.mark.parametrize(
        "name, stops",
        [
            # the sides stop at steps 296 and 279, in different blocks
            ("two-sided-noncritical-3x4", (296, 279)),
            # C = 0: the dual stops at step 1, the primal at step 50
            ("nonsingular-51x51", (50, 1)),
        ],
    )
    def test_pair_steps_the_stack_to_its_first_stop(self, monkeypatch, name, stops):
        # the stack steps T(0) and then blocks through the first stop; from
        # the next block on the survivor steps its own 2-D slices, as a single
        # side does throughout.  Past a stop in the first block the rest of it
        # is computed, past a later one, predicted, at most _AHEAD steps
        p = _problem({**_TWO_SIDED, **_LARGE}[name])
        steps = self._count_steps(monkeypatch)
        primal, dual = _fixed_point(p, dual=True)
        assert (primal.iterations, dual.iterations) == stops
        stacked = steps.count(3)
        assert steps == [3] * stacked + [2] * (len(steps) - stacked)
        assert 0 <= stacked - 1 - min(stops) <= _waste(min(stops))
        assert 0 <= len(steps) - 1 - max(stops) <= _waste(max(stops))
        for q, stop in zip((p, p.dual()), stops):
            steps.clear()
            assert fixed_point_solve(q).iterations == stop
            assert set(steps) == {2} and 0 <= len(steps) - 1 - stop <= _waste(stop)

    @pytest.mark.filterwarnings("error")
    def test_divergent_pair_breaks_down_at_the_primal_step(self, divergent):
        assert _breakdown_step(_fixed_point, divergent, 1e-12, 5000, dual=True) == 12
        assert _breakdown_step(_fixed_point, divergent.dual(), 1e-12, 5000, dual=True) == 12

    def test_primal_breakdown_ends_the_run_in_its_own_block(self, monkeypatch, breaks_later_than_its_dual):
        # the primal overflows at step 110, the dual would at step 128: the run
        # stops with the block whose iterate 109 has the nonfinite screen, all
        # of it on the stack.  The blocks have 16, 16, 64 and 16 steps: the
        # fused residuals grow at every step from 49 (one side) and 57 (the
        # other) on, so the block after steps 33..96 counts _BLOCK steps, not
        # the 64 their first-to-last decay would predict, and the run computes
        # 112 steps
        p = breaks_later_than_its_dual.dual()
        assert _breakdown_step(fixed_point_solve, p, 1e-12, 10**6) == 110
        assert _breakdown_step(fixed_point_solve, p.dual(), 1e-12, 10**6) == 128
        steps = self._count_steps(monkeypatch)
        assert _breakdown_step(_fixed_point, p, 1e-12, 10**6, dual=True) == 110
        assert set(steps) == {3} and 109 <= len(steps) - 1 <= 112

    def test_dual_breakdown_ends_the_run_in_its_own_block(self, monkeypatch, breaks_later_than_its_dual):
        # the dual overflows at step 110, the primal would at step 128: either
        # side's overflow ends the run, here with the block of iterate 109
        p = breaks_later_than_its_dual
        steps = self._count_steps(monkeypatch)
        assert _breakdown_step(_fixed_point, p, 1e-12, 10**6, dual=True) == 110
        assert set(steps) == {3} and 109 <= len(steps) - 1 <= 112

    @pytest.mark.parametrize(
        "name, stacked, alone",
        [
            ("two-sided-nonsingular-3x4", 52, 0),
            ("two-sided-noncritical-3x4", 282, 17),
            ("two-sided-nonsingular-1x6", 41, 4),
            ("two-sided-noncritical-11x13", 137, 0),
            ("crosscheck-7x21", 76, 0),
            ("crosscheck-21x7", 57, 0),
            ("crosscheck-13x13", 122, 0),
            ("crosscheck-1x40", 40, 0),
        ],
    )
    def test_steps_computed_are_pinned(self, monkeypatch, name, stacked, alone):
        # the numerators taken on the stack, T(0) among them, and then by the
        # survivor alone: the screen's sums size the blocks, so sums that round
        # otherwise would move these counts before they move any report
        p = _problem({**_TWO_SIDED, **_CROSSCHECK}[name])
        steps = self._count_steps(monkeypatch)
        _fixed_point(p, dual=True)
        assert (steps.count(3), steps.count(2)) == (stacked, alone)

    @pytest.mark.parametrize("first_block", [4, 16, 49, 52, 53, 64])
    def test_earliest_overflow_is_named_whatever_the_blocks(self, monkeypatch, first_block):
        # K = [[1, -1.02e8], [-1e-8, 1]] is not an M-matrix: x <- (c x^2 + b) / 2
        # overflows at step 53, its dual at step 52, both inside the block of
        # steps 49..64 of 16-step blocks.  The first nonfinite update in step
        # order ends the run, whichever side and block it falls in
        p = MareProblem(n=1, m=1, A=[[1.0]], B=[[1e-8]], C=[[1.02e8]], D=[[1.0]])
        monkeypatch.setattr(fixedpoint, "_BLOCK", first_block)
        assert _breakdown_step(fixed_point_solve, p, 1e-12, 10**6) == 53
        assert _breakdown_step(fixed_point_solve, p.dual(), 1e-12, 10**6) == 52
        assert _breakdown_step(_fixed_point, p, 1e-12, 10**6, dual=True) == 52
        assert _breakdown_step(_fixed_point, p.dual(), 1e-12, 10**6, dual=True) == 52

    def test_input_checks_apply_to_the_pair(self):
        p = MareProblem(n=1, m=1, A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        with pytest.raises(SingularMatrix):
            _fixed_point(p, dual=True)
        with pytest.raises(InvalidParameters, match="max_iter"):
            _fixed_point(_problem(_SMALL["scalar-nonsingular"]), max_iter=0, dual=True)

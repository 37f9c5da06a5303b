import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from marekit import FamilySpec, Regime, doubling, generate, linalg, mstruct
from marekit.doubling import (
    MODE_SDA,
    DoublingParams,
    initialize,
    observed_rate,
    select_parameters,
    sign_tol,
    solve,
    step,
    theoretical_rate,
    trace_to_csv,
)
from marekit.errors import (
    InvalidParameters,
    IterationBreakdown,
    MareError,
    MaxIterations,
    NonpositiveDiagonal,
    SingularMatrix,
)
from marekit.linalg import EPS
from marekit.mstruct import MatrixKind
from marekit.problem import MareProblem

from helpers import Z_DRAWS, _mp_doubling, bench_problems, reducible_problems, reference_observed_rate, replay, z_matrix_draws

GOLDEN = (3 - 5**0.5) / 2
# scalar rate at (alpha, beta) = (2, 1): ((golden)/(R + 2))^2 with R = (sqrt5 - 1)/2
SCALAR_RATE = (GOLDEN / ((5**0.5 - 1) / 2 + 2.0)) ** 2


class TestSelectParameters:
    def test_optimal_defaults(self, scalar_nonsingular):
        params = select_parameters(scalar_nonsingular)
        assert (params.alpha, params.beta) == (2.0, 1.0)

    def test_explicit_override_accepted(self, scalar_nonsingular):
        params = select_parameters(scalar_nonsingular, (3.0, 2.0))
        assert (params.alpha, params.beta) == (3.0, 2.0)

    def test_below_bounds_rejected(self, scalar_nonsingular):
        with pytest.raises(InvalidParameters):
            select_parameters(scalar_nonsingular, (1.0, 1.0))

    def test_nonpositive_diagonal(self):
        p = MareProblem(n=1, m=1, A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(NonpositiveDiagonal):
            select_parameters(p)

    def test_single_parameter_mode_takes_max(self, scalar_nonsingular):
        params = select_parameters(scalar_nonsingular, mode=MODE_SDA)
        assert params.alpha == params.beta == 2.0

    def test_single_parameter_mode_rejects_split(self, scalar_nonsingular):
        with pytest.raises(InvalidParameters, match="single-parameter mode requires alpha == beta"):
            select_parameters(scalar_nonsingular, (3.0, 2.0), mode=MODE_SDA)

    def test_error_order(self, scalar_nonsingular):
        # a nonpositive diagonal, then the bounds, then the single-parameter pair
        p = MareProblem(n=1, m=1, A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        with pytest.raises(NonpositiveDiagonal):
            select_parameters(p, (1.0, 2.0), mode=MODE_SDA)
        with pytest.raises(InvalidParameters, match="below the admissible bounds"):
            select_parameters(scalar_nonsingular, (1.0, 2.0), mode=MODE_SDA)
        with pytest.raises(InvalidParameters, match="single-parameter"):
            select_parameters(scalar_nonsingular, (2.0, 3.0), mode=MODE_SDA)

    def test_params_hold_no_mode(self):
        # SDA is ADDA at alpha == beta, so the parameters carry no mode
        assert [f.name for f in dataclasses.fields(DoublingParams)] == ["alpha", "beta", "max_iter", "stop_tol"]

    def test_limits_have_one_home(self):
        # select_parameters picks alpha and beta; max_iter and stop_tol are set on DoublingParams
        assert list(inspect.signature(select_parameters).parameters) == ["p", "requested", "mode"]

    @pytest.mark.parametrize("stop_tol", [-1.0, -1e-300, math.nan, math.inf, True, None, "1e-3"])
    def test_bad_stop_tol_rejected(self, stop_tol):
        with pytest.raises(InvalidParameters, match="stop_tol"):
            DoublingParams(2.0, 1.0, stop_tol=stop_tol)

    def test_zero_stop_tol_accepted(self):
        assert DoublingParams(2.0, 1.0, stop_tol=0.0).stop_tol == 0.0

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda p: DoublingParams(0.0, 1.0), "alpha and beta must be positive"),
            (lambda p: DoublingParams(1.0, -1.0), "alpha and beta must be positive"),
            (lambda p: DoublingParams(1e308, 1e308), "alpha + beta must be finite, got 1e+308 + 1e+308"),
            (lambda p: DoublingParams(math.inf, 1.0), "alpha + beta must be finite, got inf + 1.0"),
            (lambda p: DoublingParams(1.0, 1.0, max_iter=0), "max_iter must be at least 1, got 0"),
            (lambda p: DoublingParams(1.0, 1.0, max_iter=2.5), "max_iter must be an integer, got 2.5"),
            (
                lambda p: DoublingParams(1.0, 1.0, max_iter=np.float64(3.0)),
                f"max_iter must be an integer, got {np.float64(3.0)!r}",
            ),
            (lambda p: DoublingParams(True, True), "alpha must be a real number, got True"),
            (lambda p: DoublingParams(None, 1.0), "alpha must be a real number, got None"),
            (lambda p: DoublingParams(1.0, "2"), "beta must be a real number, got '2'"),
            (lambda p: select_parameters(p, mode="x"), "unknown mode 'x'"),
            (lambda p: select_parameters(p, ("3", True)), "alpha must be a real number, got '3'"),
            (lambda p: select_parameters(p, (3.0, True)), "beta must be a real number, got True"),
            (lambda p: select_parameters(p, (None, 2.0)), "alpha must be a real number, got None"),
            (lambda p: select_parameters(p, (3.0, 2.0, 9.0)), "requested (alpha, beta) must be a pair, got (3.0, 2.0, 9.0)"),
            (lambda p: select_parameters(p, (3.0,)), "requested (alpha, beta) must be a pair, got (3.0,)"),
            (lambda p: select_parameters(p, 3.0), "requested (alpha, beta) must be a pair, got 3.0"),
        ],
        ids=[
            "alpha",
            "beta",
            "sum-overflow",
            "sum-inf",
            "max_iter",
            "max_iter-float",
            "max_iter-numpy-float",
            "alpha-bool",
            "alpha-none",
            "beta-string",
            "mode",
            "requested-string",
            "requested-bool",
            "requested-none",
            "requested-triple",
            "requested-single",
            "requested-scalar",
        ],
    )
    def test_input_checks(self, scalar_nonsingular, build, message):
        with pytest.raises(InvalidParameters) as info:
            build(scalar_nonsingular)
        assert str(info.value) == message


def _ref_initial_blocks(p, params):
    """The nested Schur-complement initialization that the one shifted-K solve replaced, as it was.

    With As = A + beta I, Ds = D + alpha I, W = As - B Ds^{-1} C and
    V = Ds - C As^{-1} B: E0 = I - gamma V^{-1}, F0 = I - gamma W^{-1},
    G0 = gamma Ds^{-1} C W^{-1} and H0 = gamma W^{-1} B Ds^{-1}, from the
    same four solves.
    """

    def solve_m(M, *blocks):
        return linalg._m_solve(M, *blocks)[0]

    alpha, beta = params.alpha, params.beta
    gamma = alpha + beta
    As = p.A + beta * np.eye(p.m)
    Ds = p.D + alpha * np.eye(p.n)
    Ds_inv_C_I = solve_m(Ds, p.C, np.eye(p.n))
    Ds_inv_C, Ds_inv = Ds_inv_C_I[:, : p.m], Ds_inv_C_I[:, p.m :]
    As_inv_B = solve_m(As, p.B)
    W = As - p.B @ Ds_inv_C
    V = Ds - p.C @ As_inv_B
    W_inv_I_B = solve_m(W, np.eye(p.m), p.B)
    W_inv, W_inv_B = W_inv_I_B[:, : p.m], W_inv_I_B[:, p.m :]
    return (
        np.eye(p.n) - gamma * solve_m(V, np.eye(p.n)),
        np.eye(p.m) - gamma * W_inv,
        gamma * Ds_inv_C @ W_inv,
        gamma * W_inv_B @ Ds_inv,
    )


class TestInitialize:
    def test_blocks_match_nested_schur_complements(self, noncritical_suite, nonsingular_suite):
        # the blocks of gamma (K + diag(alpha I, beta I))^{-1} are gamma V^{-1},
        # gamma Ds^{-1} C W^{-1}, gamma W^{-1} B Ds^{-1} and gamma W^{-1}; the
        # largest ratio seen over these problems is about 9.1
        problems = noncritical_suite + nonsingular_suite + reducible_problems(29, 300) + bench_problems(13)
        worst = 0.0
        for p in problems:
            for params in (select_parameters(p), select_parameters(p, mode=MODE_SDA)):
                st0 = initialize(p, params)
                for new, ref in zip((st0.E, st0.F, st0.G, st0.H), _ref_initial_blocks(p, params)):
                    assert new.shape == ref.shape
                    worst = max(worst, linalg.one_norm(new - ref) / (EPS * max(1.0, linalg.one_norm(ref))))
        assert worst <= 64.0

    def test_scalar_critical_worked_values(self, scalar_critical):
        st0 = initialize(scalar_critical, DoublingParams(1.0, 1.0))
        assert st0.E[0, 0] == pytest.approx(-1 / 3, abs=1e-15)
        assert st0.F[0, 0] == pytest.approx(-1 / 3, abs=1e-15)
        assert st0.G[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert st0.H[0, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert st0.diagnostics.sign_violations_E == 0
        assert st0.diagnostics.sign_violations_F == 0

    def test_zero_b_gives_zero_h(self, reducible_singular):
        st0 = initialize(reducible_singular, select_parameters(reducible_singular))
        assert np.array_equal(st0.H, np.zeros((2, 1)))

    def test_initial_blocks_signed(self, scalar_nonsingular):
        st0 = initialize(scalar_nonsingular, select_parameters(scalar_nonsingular))
        tau = sign_tol(scalar_nonsingular)
        assert (st0.E <= tau).all() and (st0.F <= tau).all()
        assert (st0.G >= -tau).all() and (st0.H >= -tau).all()
        # derived by hand from the init formulas at (alpha, beta) = (2, 1)
        assert st0.E[0, 0] == pytest.approx(-1 / 8, abs=1e-15)
        assert st0.H[0, 0] == pytest.approx(3 / 8, abs=1e-15)

    def test_sda_equals_adda_at_equal_parameters(self, scalar_nonsingular):
        a = initialize(scalar_nonsingular, DoublingParams(2.0, 2.0))
        s = initialize(scalar_nonsingular, select_parameters(scalar_nonsingular, mode=MODE_SDA))
        for name in "EFGH":
            assert np.array_equal(getattr(a, name), getattr(s, name))


class TestStep:
    def test_critical_hand_recurrence(self, scalar_critical):
        st0 = initialize(scalar_critical, DoublingParams(1.0, 1.0))
        st1 = step(st0)
        assert st1.E[0, 0] == pytest.approx(1 / 5, abs=1e-14)
        assert st1.F[0, 0] == pytest.approx(1 / 5, abs=1e-14)
        assert st1.G[0, 0] == pytest.approx(4 / 5, abs=1e-14)
        assert st1.H[0, 0] == pytest.approx(4 / 5, abs=1e-14)
        st2 = step(st1)
        assert st2.E[0, 0] == pytest.approx(1 / 9, abs=1e-14)
        assert st2.H[0, 0] == pytest.approx(8 / 9, abs=1e-14)

    def test_zero_g_specialization(self):
        # with G = 0: E+ = E^2, H+ = H + F H E
        E = np.array([[0.5]])
        F = np.array([[0.25]])
        G = np.array([[0.0]])
        H = np.array([[0.125]])
        st1 = step(doubling._iterate(E, F, G, H, 1e-12))
        assert st1.E[0, 0] == pytest.approx(0.25, abs=1e-16)
        assert st1.H[0, 0] == pytest.approx(0.125 + 0.25 * 0.125 * 0.5, abs=1e-16)

    def test_breakdown_on_singular_cross_product(self):
        E = F = np.array([[0.1]])
        G = H = np.array([[1.0]])  # I - G H = 0
        state = doubling._iterate(E, F, G, H, 1e-12)
        assert state.solves is None
        with pytest.raises(IterationBreakdown):
            step(state)

    def test_breakdown_on_singular_kind_that_lapack_solves(self):
        # I - G H = I - H G = [[1, -1], [-1, 1 + 1e-15]]: LAPACK solves it, the
        # certificate fails its rounding margin, and classify_zm finds it singular
        E = F = 0.1 * np.eye(2)
        G = np.eye(2)
        H = np.array([[0.0, 1.0], [1.0, -1e-15]])
        assert mstruct.classify_zm(np.eye(2) - G @ H).kind is MatrixKind.SINGULAR_M
        state = doubling._iterate(E, F, G, H, 1e-12)
        assert state.diagnostics.kind_IGH is state.diagnostics.kind_IHG is MatrixKind.SINGULAR_M
        with pytest.raises(IterationBreakdown):
            step(state)

    def test_uncertified_cross_product_is_classified(self):
        # I - G H = -1.25 is a Z-matrix but no M-matrix: the step goes on and
        # records the kind of the new iterate's I - G H = 1 - 1.488^2
        E = F = np.array([[0.1]])
        G = H = np.array([[1.5]])
        st1 = step(doubling._iterate(E, F, G, H, 1e-12))
        assert st1.G[0, 0] == pytest.approx(1.488, abs=1e-15)
        assert st1.diagnostics.kind_IGH is st1.diagnostics.kind_IHG is MatrixKind.Z_NOT_M

    def test_uncertified_cross_products_of_unequal_orders(self):
        # n = 2, m = 1: I - G H = [[0, -1], [-0.5, 0.5]] has inverse W =
        # [[-1, -2], [-1, 0]], so x1 = W 1 = (-3, -1); I - H G = -0.5 and
        # x2 = 1 + H W G 1 = -2.  Both are Z-matrices but no M-matrices.
        E, F = 0.1 * np.eye(2), np.array([[0.1]])
        G, H = np.array([[1.0], [0.5]]), np.array([[1.0, 1.0]])
        state = doubling._iterate(E, F, G, H, 1e-12)
        d = state.diagnostics
        assert d.kind_IGH is d.kind_IHG is MatrixKind.Z_NOT_M
        assert d.dist_IGH == pytest.approx(1 / 3, rel=1e-15)
        assert d.dist_IHG == pytest.approx(1 / 2, rel=1e-15)
        # G+ = G + E W G F = G - 0.01 (2, 1)
        st1 = step(state)
        assert st1.G[:, 0] == pytest.approx([0.98, 0.49], abs=1e-15)

    def test_breakdown_on_singular_cross_product_of_unequal_orders(self):
        # I - G H = [[0.5, -0.5], [-0.5, 0.5]] is exactly singular, and so is I - H G = 0
        E, F = 0.1 * np.eye(2), np.array([[0.1]])
        G, H = np.array([[0.5], [0.5]]), np.array([[1.0, 1.0]])
        state = doubling._iterate(E, F, G, H, 1e-12)
        assert state.solves is None
        assert state.diagnostics.dist_IGH == state.diagnostics.dist_IHG == 0.0
        with pytest.raises(IterationBreakdown):
            step(state)


def _ref_step(s):
    """The step as it was before W = (I - G H)^{-1}: one solve on each of [E G] and [F H].

    E+ = E (I - G H)^{-1} E, F+ = F (I - H G)^{-1} F, G+ = G + E (I - G H)^{-1} G F
    and H+ = H + F (I - H G)^{-1} H E, with the same rebalancing of E+ and F+.
    """
    E, F, G, H = s.E, s.F, s.G, s.H
    n, m = len(E), len(F)
    X_igh = np.linalg.solve(np.eye(n) - G @ H, np.hstack([E, G]))
    X_ihg = np.linalg.solve(np.eye(m) - H @ G, np.hstack([F, H]))
    E_new = E @ X_igh[:, :n]
    F_new = F @ X_ihg[:, :m]
    G_new = G + E @ X_igh[:, n:] @ F
    H_new = H + F @ X_ihg[:, m:] @ E
    ne, nf = linalg.one_norm(E_new), linalg.one_norm(F_new)
    if max(ne, nf) > 1e100 and min(ne, nf) > 0.0:
        theta = math.sqrt(nf) / math.sqrt(ne)
        E_new = E_new * theta
        F_new = F_new / theta
    return E_new, F_new, G_new, H_new


class TestBookkeepingFallbacks:
    """Hand-built states on which each of the step's exact counts and checks runs, with today's numbers."""

    TAU = 1e-12
    # E < 0 in one entry pulls H+ and G+ below H and G in four of their eight
    # entries and makes two entries of E+ negative
    E = np.array([[-0.5, 0.1], [0.0, 0.2]])
    F = np.array([[0.5, 0.0], [0.1, 0.3]])
    G = np.array([[0.25, 0.1], [0.0, 0.2]])
    H = np.array([[0.25, 0.0], [0.1, 0.2]])

    def test_monotonicity_count_where_h_falls(self):
        s = doubling._iterate(self.E, self.F, self.G, self.H, self.TAU)
        new = step(s)
        assert (new.H - s.H).min() < -self.TAU and (new.G - s.G).min() < -self.TAU
        want = np.count_nonzero(new.H < s.H - self.TAU) + np.count_nonzero(new.G < s.G - self.TAU)
        assert new.diagnostics.monotonicity_violations == want == 4

    def test_sign_counts_where_e_or_f_falls_below_minus_tau(self):
        new = step(doubling._iterate(self.E, self.F, self.G, self.H, self.TAU))
        assert new.diagnostics.sign_violations_E == np.count_nonzero(new.E < -self.TAU) == 2
        assert new.diagnostics.sign_violations_F == 0
        # the step is symmetric in (E, G) and (F, H): swapped, F+ has those entries
        swapped = step(doubling._iterate(self.F, self.E, self.H, self.G, self.TAU))
        assert swapped.diagnostics.sign_violations_F == np.count_nonzero(swapped.F < -self.TAU) == 2
        assert swapped.diagnostics.sign_violations_E == 0

    def test_blocks_above_1e100_are_rebalanced(self):
        # G = H = 0 makes W = I and every product exact: E+ = 2^340 [[1, -2], [0, 1]]
        # (1-norm 6.7e102) and F+ = 2^-340 [[1, 0], [2, 1]], rebalanced by 2^-340
        E = 2.0**170 * np.array([[1.0, -1.0], [0.0, 1.0]])
        F = 2.0**-170 * np.array([[1.0, 0.0], [1.0, 1.0]])
        s = doubling._iterate(E, F, np.zeros((2, 2)), np.zeros((2, 2)), self.TAU)
        new = step(s)
        for got, want in zip((new.E, new.F, new.G, new.H), _ref_step(s)):
            assert got.tobytes() == want.tobytes()
        assert new.E.tolist() == [[1.0, -2.0], [0.0, 1.0]] and new.F.tolist() == [[1.0, 0.0], [2.0, 1.0]]
        # the sign count reads the rebalanced E+
        assert new.diagnostics.sign_violations_E == 1 and new.diagnostics.sign_violations_F == 0

    def test_overflowing_g_breaks_down_at_its_step(self):
        # H = 0 keeps H+ = 0, while G+ = G + E G F = 1e300 + 1e310 overflows
        s = doubling._iterate(np.array([[1e10]]), np.array([[1.0]]), np.array([[1e300]]), np.array([[0.0]]), self.TAU)
        with pytest.raises(IterationBreakdown, match="^nonfinite iterate at step 6$"):
            step(dataclasses.replace(s, k=5))

    def test_overflowing_column_sum_breaks_down_at_its_step(self):
        # G = 0 makes W = I and H+ = H + F H E = (1e154 + 1e308) 1 exactly as
        # computed, a finite H+ whose change has the column sum 2e308 = inf
        s = doubling._iterate(np.array([[1e77]]), 1e77 * np.eye(2), np.zeros((1, 2)), np.full((2, 1), 1e154), self.TAU)
        H_new = s.H + s.F @ s.H @ s.E
        with np.errstate(over="ignore"):
            assert np.isfinite(H_new).all() and np.abs(H_new - s.H).sum() == math.inf
        with pytest.raises(IterationBreakdown, match="^nonfinite iterate at step 1$"):
            step(s)


class TestBestEffortBreakdowns:
    """Safety branches of ``solve`` that only problems outside the guaranteed regimes reach."""

    def test_nonfinite_iterate_breaks_down(self):
        # K's block on rows and columns 0 and 2, [[0.4, -1], [-2, 1.5]], is no
        # M-matrix; E and F overflow together at step 12, where the rebalancing
        # turns both into NaN: one IterationBreakdown naming that step (H
        # would overflow at step 13), no warning before it
        p = MareProblem(n=1, m=2, A=[[0.3, 0.0], [0.0, 1.5]], B=[[0.0], [2.0]], C=[[0.0, 1.0]], D=[[0.4]])
        with pytest.raises(IterationBreakdown, match="nonfinite iterate at step 12$"):
            solve(p)

    @pytest.mark.parametrize("draw", Z_DRAWS)
    def test_z_matrix_that_is_no_m_matrix_raises_only_mare_errors(self, draw):
        # the draws whose cross solve once divided by a zero x2 or warned of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                solve(z_matrix_draws()[draw])
            except MareError:
                pass

    def test_theoretical_rate_unavailable_is_flagged(self):
        # a converged best-effort solve whose S + beta I is no M-matrix:
        # beta + tau(S) = 0.7 - 1.148 <= 0
        p = MareProblem(n=1, m=2, A=[[0.2, 0.0], [-0.1, 1.5]], B=[[2.0], [3.0]], C=[[0.0, 1.0]], D=[[0.7]])
        rep = solve(p)
        assert rep.converged and rep.theoretical_rate is None
        assert "theoretical-rate-unavailable" in rep.flags
        assert rep.params.beta + rep.certificate.s_class.gap <= 0.0
        with pytest.raises(SingularMatrix):
            theoretical_rate(p, rep.certificate, rep.params)


class TestStepFormulas:
    """The step by W = (I - G H)^{-1} and products against ``_ref_step``, within 64 eps."""

    def test_step_matches_two_solve_formulas(self, noncritical_suite, nonsingular_suite):
        # from the same iterate, E+, F+, G+ and H+ by W and products against the
        # two solves they replaced; the largest ratio seen over these problems is
        # about 9.4
        worst, steps = 0.0, 0
        for p in noncritical_suite + nonsingular_suite + reducible_problems(29, 300):
            for params in (select_parameters(p), select_parameters(p, mode=MODE_SDA)):
                state = initialize(p, params)
                for _ in range(params.max_iter):
                    try:
                        new = step(state)
                    except IterationBreakdown:
                        break
                    for got, ref in zip((new.E, new.F, new.G, new.H), _ref_step(state)):
                        worst = max(worst, linalg.one_norm(got - ref) / (EPS * max(1.0, linalg.one_norm(ref))))
                    steps += 1
                    state = new
                    tol = params.stop_tol
                    d = state.diagnostics
                    if d.dH <= tol * max(1.0, linalg.one_norm(state.H)) and d.dG <= tol * max(
                        1.0, linalg.one_norm(state.G)
                    ):
                        break
        assert steps > 5000
        assert worst <= 64.0


class TestCarriedFactors:
    """Each iterate's I - G H is inverted and certified once, by LAPACK; I - H G is certified without a solve.

    Where G or H is the zero matrix, as on a one-sided problem (B = 0 or
    C = 0, a block triangular K), both cross products are I and no solve
    runs: W is the read-only identity of ``linalg._eye``.
    """

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Live _m_solve / classify_zm call counts, plus per-phase deltas."""
        calls = {"m_solve": 0, "classify_zm": 0}
        phases = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def phase(name, fn):
            def wrapper(*args, **kwargs):
                before = dict(calls)
                result = fn(*args, **kwargs)
                phases.append((name, {k: calls[k] - before[k] for k in calls}))
                return result

            return wrapper

        monkeypatch.setattr(linalg, "_m_solve", counting("m_solve", linalg._m_solve))
        monkeypatch.setattr(mstruct, "classify_zm", counting("classify_zm", mstruct.classify_zm))
        monkeypatch.setattr(doubling, "initialize", phase("initialize", doubling.initialize))
        monkeypatch.setattr(doubling, "step", phase("step", doubling.step))
        return phases

    def test_solve_factors_once_per_step(self, counts, noncritical_suite):
        kinds = []
        for p in noncritical_suite[:5] + [noncritical_suite[-1]]:
            counts.clear()
            rep = doubling.solve(p)
            assert rep.iterations >= 1
            assert [name for name, _ in counts] == ["initialize"] + ["step"] * rep.iterations
            # a block triangular K has a zero G0 or H0, which stays zero at every step
            one_sided = not p.B.any() or not p.C.any()
            kinds.append(one_sided)
            # initialize solves (K + diag(alpha I, beta I))^{-1} [I 1] and, unless
            # G0 or H0 is zero, the first iterate's (I - G H)^{-1} [I 1]
            assert counts[0][1] == {"m_solve": 1 if one_sided else 2, "classify_zm": 0}
            # a step solves the new iterate's (I - G H)^{-1} [I 1], unless G or H is
            # zero; its certificate settles both kinds, as G, H >= 0
            step_solves = 0 if one_sided else 1
            assert all(delta == {"m_solve": step_solves, "classify_zm": 0} for _, delta in counts[1:])
        # the inputs hold problems of both kinds
        assert set(kinds) == {False, True}

    def test_step_from_hand_built_state_solves_only_the_new_iterate(self, counts):
        E = F = np.array([[0.5]])
        G = H = np.array([[0.25]])
        state = doubling._iterate(E, F, G, H, 1e-12)
        doubling.step(state)
        # the hand-built iterate's W was computed when it was built
        assert counts == [("step", {"m_solve": 1, "classify_zm": 0})]

    def test_noncritical_steps_run_no_full_perron_root(self, monkeypatch, solved_noncritical):
        # far from singular, the M^{-1} 1 certificate settles every cross product's kind
        def refuse(P, *args, **kwargs):
            raise AssertionError("full Perron root computed during a doubling step")

        monkeypatch.setattr(linalg, "_perron_pair", refuse)
        monkeypatch.setattr(linalg, "spectral_radius_nonneg", refuse)
        for p, rep in solved_noncritical:
            state = initialize(p, rep.params)
            for _ in range(rep.iterations):
                state = step(state)
            assert np.array_equal(np.maximum(state.H, 0.0), rep.phi)
            assert np.array_equal(state.diagnostics.dH_columns, rep.trace[-1].dH_columns)


class TestCrossProductCertificate:
    """The M^{-1} 1 certificate of each cross product agrees with ``classify_zm``."""

    @staticmethod
    def _check(p, rep):
        count = 0
        for d, state in zip(rep.trace, replay(p, rep), strict=True):
            for M, dist, kind in (
                (np.eye(p.n) - state.G @ state.H, d.dist_IGH, d.kind_IGH),
                (np.eye(p.m) - state.H @ state.G, d.dist_IHG, d.kind_IHG),
            ):
                _, _, certified, _ = linalg._m_solve(M)
                assert kind is mstruct.classify_zm(M).kind
                assert certified == (kind is MatrixKind.NONSINGULAR_M)
                if certified:
                    want = 1.0 / np.abs(np.linalg.inv(M)).sum(axis=1).max()
                    assert dist == pytest.approx(want, rel=1e-12)
                count += 1
        return count

    def test_acceptance_suites(self, solved_noncritical, solved_nonsingular):
        assert sum(self._check(p, rep) for p, rep in solved_noncritical + solved_nonsingular) > 1500

    def test_scalar_critical_run(self, scalar_critical):
        rep = solve(scalar_critical)
        assert self._check(scalar_critical, rep) == 2 * len(rep.trace)

    def test_capped_critical_run_classifies_i_minus_gh_on_15_states(self, monkeypatch):
        # G, H >= 0 on every state, so I - H G (order 7) takes the kind of I - G H
        # (order 6) and is never formed; the certificate of I - G H fails on 15 of the
        # 61 states, and a stagnation stop (ROADMAP item 3) would cut the run short
        orders, classify = [], mstruct.classify_zm
        monkeypatch.setattr(mstruct, "classify_zm", lambda M: orders.append(len(M)) or classify(M))
        with pytest.raises(MaxIterations) as info:
            solve(generate(FamilySpec(Regime.CRITICAL, 6, 7, seed=4)))
        trace = info.value.report.trace
        assert len(trace) == 61 and all(0.0 < d.dist_IHG < math.inf for d in trace)
        assert (orders.count(6), orders.count(7)) == (15, 0)


class TestSolve:
    def test_scalar_nonsingular(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.psi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.iterations <= 8
        assert rep.converged
        assert rep.flags == ()
        assert rep.certificate.all_passed
        last = replay(scalar_nonsingular, rep)[-1]
        assert np.array_equal(rep.phi, last.H)
        assert np.array_equal(rep.psi, last.G)

    def test_reducible(self, reducible_singular):
        rep = solve(reducible_singular)
        assert (rep.params.alpha, rep.params.beta) == (1.0, 2.0)
        assert np.allclose(rep.phi, 0.0, atol=1e-12)
        assert np.allclose(rep.psi, [[0.5, 0.5]], atol=1e-12)
        assert rep.certificate.all_passed

    def test_critical_best_effort(self, scalar_critical):
        rep = solve(scalar_critical)
        assert "regime-unsupported:Critical" in rep.flags
        assert "non-quadratic" in rep.flags
        errs = [abs(s.H[0, 0] - 1.0) for s in replay(scalar_critical, rep)[:4]]
        assert errs[0] == pytest.approx(1 / 3, abs=1e-12)
        assert errs[1] == pytest.approx(1 / 5, abs=1e-12)
        assert errs[2] == pytest.approx(1 / 9, abs=1e-12)
        # halving, not squaring: the critical slow mode
        assert errs[1] / errs[0] == pytest.approx(0.6, abs=0.05)

    def test_unguaranteed_regime_is_reported_by_its_flag_only(self, scalar_critical):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(scalar_critical)
        assert "regime-unsupported:Critical" in rep.flags

    @pytest.mark.parametrize("max_iter", [3, np.int64(3)], ids=["int", "numpy-int"])
    def test_max_iterations_carries_report(self, scalar_critical, max_iter):
        with pytest.raises(MaxIterations) as exc_info:
            solve(scalar_critical, DoublingParams(1.0, 1.0, max_iter=max_iter))
        rep = exc_info.value.report
        assert rep is not None
        assert rep.iterations == 3
        assert not rep.converged

    def test_sda_and_adda_identical_iterates(self, noncritical_suite):
        p = noncritical_suite[0]
        gamma = max(np.diag(p.A).max(), np.diag(p.D).max())
        rep_a = solve(p, DoublingParams(gamma, gamma))
        rep_s = solve(p, select_parameters(p, mode=MODE_SDA))
        assert rep_s.params == rep_a.params
        assert rep_a.iterations == rep_s.iterations
        for ra, rs in zip(replay(p, rep_a), replay(p, rep_s), strict=True):
            assert np.array_equal(ra.H, rs.H)
            assert np.array_equal(ra.G, rs.G)


class TestRates:
    def test_scalar_theoretical_rate(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        assert rep.theoretical_rate == pytest.approx(SCALAR_RATE, abs=1e-12)
        assert rep.theoretical_rate == pytest.approx(0.0212862, abs=1e-6)

    def test_reducible_rate_vanishes(self, reducible_singular):
        rep = solve(reducible_singular)
        assert rep.theoretical_rate == pytest.approx(0.0, abs=1e-14)

    def test_single_parameter_reduction(self, scalar_nonsingular):
        # alpha = beta = gamma collapses the two factors to the same map
        rep = solve(scalar_nonsingular, DoublingParams(2.0, 2.0))
        R = rep.certificate.R[0, 0]
        S = rep.certificate.S[0, 0]
        expected = abs((R - 2.0) / (R + 2.0)) * abs((S - 2.0) / (S + 2.0))
        assert rep.theoretical_rate == pytest.approx(expected, abs=1e-12)

    def test_observed_rate_bounded(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        assert rep.observed_rate is not None
        assert rep.observed_rate <= rep.theoretical_rate + 0.05

    def test_observed_rate_requires_information(self, reducible_singular):
        # converged at the initial iterate: nothing to estimate from
        rep = solve(reducible_singular)
        assert observed_rate(rep.trace) is None
        assert rep.observed_rate is None

    def test_rate_at_order_above_50(self):
        rep = solve(generate(FamilySpec(Regime.NONSINGULAR_K, 60, 60, seed=5)))
        assert "theoretical-rate-unavailable" not in rep.flags
        assert 0.0 < rep.theoretical_rate < 1.0

    def test_critical_rate_approaches_one(self, scalar_critical):
        rep = solve(scalar_critical)
        assert rep.observed_rate is not None
        assert rep.observed_rate >= 0.95

    def test_parameter_optimality_on_worked_problem(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        base = rep.theoretical_rate
        for fa in (1.0, 1.3, 2.0):
            for fb in (1.0, 1.6, 2.5):
                alt = DoublingParams(2.0 * fa, 1.0 * fb)
                assert base <= theoretical_rate(scalar_nonsingular, rep.certificate, alt) + 1e-12


class TestObservedRateFromIncrements:
    """``observed_rate`` read off the step sums is its definition on the replayed iterates, bit for bit."""

    @staticmethod
    def _check(p, rep):
        want = reference_observed_rate(p, rep)
        if want is None:
            assert rep.observed_rate is None
        else:
            assert np.float64(rep.observed_rate).tobytes() == np.float64(want).tobytes()
        return "monotonicity-violations" in rep.flags

    @staticmethod
    def _solved(p):
        try:
            return solve(p)
        except MaxIterations as exc:
            return exc.report

    def test_acceptance_suites(self, solved_noncritical, solved_nonsingular):
        for p, rep in solved_noncritical + solved_nonsingular:
            self._check(p, rep)

    def test_scalar_critical(self, scalar_critical):
        rep = solve(scalar_critical)
        assert rep.observed_rate is not None
        self._check(scalar_critical, rep)

    def test_bench_critical_draws(self):
        # about half run to the cap with steps against monotonicity, where the
        # summed increments bound ||H_k - H_N||_1 from above
        flagged = [self._check(p, self._solved(p)) for p in bench_problems(13, ("critical",))]
        assert len(flagged) == 102 and sum(flagged) >= 20

    def test_random_reducible_k(self):
        for p in reducible_problems(29, 300):
            self._check(p, self._solved(p))


def _eigvals_rate(cert, alpha, beta):
    """Reference r(alpha, beta): the spectral radii of both factors from a solve and a general eigensolve."""
    R, S = cert.R, cert.S
    T1 = np.linalg.solve(R + alpha * np.eye(len(R)), R - beta * np.eye(len(R)))
    T2 = np.linalg.solve(S + beta * np.eye(len(S)), S - alpha * np.eye(len(S)))
    return float(np.abs(np.linalg.eigvals(T1)).max() * np.abs(np.linalg.eigvals(T2)).max())


class TestRateIdentity:
    """theoretical_rate, read off the gaps of R and S, against the spectral radii of both factors."""

    @staticmethod
    def _check(p, rep, params):
        got = theoretical_rate(p, rep.certificate, params)
        assert got == pytest.approx(_eigvals_rate(rep.certificate, params.alpha, params.beta), rel=1e-12, abs=1e-15)

    def test_worked_examples(self, scalar_nonsingular, reducible_singular, scalar_critical):
        for p in (scalar_nonsingular, reducible_singular, scalar_critical):
            try:
                rep = solve(p)
            except MaxIterations as exc:
                rep = exc.report
            for fa, fb in ((1.0, 1.0), (1.3, 2.5), (3.0, 1.0)):
                self._check(p, rep, DoublingParams(rep.params.alpha * fa, rep.params.beta * fb))

    def test_acceptance_suites_default_and_sampled(self, solved_noncritical, solved_nonsingular):
        # the default pair, then the sampler of acceptance criterion 7
        rng = np.random.default_rng(77)
        for p, rep in solved_noncritical + solved_nonsingular:
            assert rep.theoretical_rate == pytest.approx(
                _eigvals_rate(rep.certificate, rep.params.alpha, rep.params.beta), rel=1e-12, abs=1e-15
            )
            for _ in range(5):
                alpha = rep.params.alpha * float(rng.uniform(1.0, 3.0))
                beta = rep.params.beta * float(rng.uniform(1.0, 3.0))
                self._check(p, rep, DoublingParams(alpha, beta))

    def test_random_reducible_k(self):
        regimes = []
        for p in reducible_problems(29, 60):
            # a Phi.Psi, R or S block irreducible only through entries of
            # rounding size closes its Perron bracket by the pruned lower bound
            try:
                rep = solve(p)
            except MaxIterations as exc:
                rep = exc.report
            regimes.append(rep.problem_class.regime)
            assert len(rep.problem_class.k_class.blocks) > 1
            self._check(p, rep, rep.params)
            self._check(p, rep, DoublingParams(rep.params.alpha * 1.7, rep.params.beta * 1.2))
        assert {Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL} <= set(regimes)
        assert len(regimes) == 60

    def test_inadmissible_parameters_raise(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
            with pytest.raises(InvalidParameters):
                theoretical_rate(scalar_nonsingular, rep.certificate, DoublingParams(alpha, beta))

    def test_shifted_closing_matrix_not_m_raises(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        for field in ("r_class", "s_class"):
            cls = dataclasses.replace(getattr(rep.certificate, field), gap=-5.0)
            cert = dataclasses.replace(rep.certificate, **{field: cls})
            with pytest.raises(SingularMatrix):
                theoretical_rate(scalar_nonsingular, cert, rep.params)


class TestHighPrecisionReference:
    """phi and psi are within 1e-13 of a 50-digit doubling run from the same data."""

    def test_forward_error(self, nonsingular_suite, noncritical_suite, reducible_singular):
        sda = select_parameters(noncritical_suite[30], mode=MODE_SDA)
        cases = [
            (nonsingular_suite[9], None),
            (nonsingular_suite[11], None),
            (noncritical_suite[16], None),
            (noncritical_suite[30], None),
            (noncritical_suite[30], sda),
            # reducible K: three blocks, singular noncritical
            (reducible_problems(29, 60)[54], None),
            # reducible K with B = 0, so Phi = 0
            (reducible_singular, None),
        ]
        for p, params in cases:
            rep = solve(p, params)
            phi_ref, psi_ref = _mp_doubling(p, rep.params)
            for got, ref in ((rep.phi, phi_ref), (rep.psi, psi_ref)):
                scale = linalg.one_norm(ref)
                assert linalg.one_norm(got - ref) <= 1e-13 * (scale if scale > 0 else 1.0)


class TestTraceCsv:
    def test_columns_and_rows(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        text = trace_to_csv(rep.trace)
        lines = text.strip().splitlines()
        assert lines[0] == (
            "k,dH,dG,dist_IGH,dist_IHG,"
            "sign_violations_E,sign_violations_F,monotonicity_violations"
        )
        assert len(lines) == len(rep.trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "" and first[2] == ""
        assert all(len(line.split(",")) == 8 for line in lines[1:])

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
    InsufficientTrace,
    InvalidParameters,
    IterationBreakdown,
    MaxIterations,
    NoConvergence,
    NonpositiveDiagonal,
    SingularMatrix,
)
from marekit.mstruct import MatrixKind
from marekit.problem import MareProblem

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

    @pytest.mark.parametrize("stop_tol", [-1.0, -1e-300, math.nan])
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
            (lambda p: DoublingParams(1.0, 1.0, max_iter=0), "max_iter must be >= 1"),
            (lambda p: select_parameters(p, mode="x"), "unknown mode 'x'"),
        ],
        ids=["alpha", "beta", "max_iter", "mode"],
    )
    def test_input_checks(self, scalar_nonsingular, build, message):
        with pytest.raises(InvalidParameters) as info:
            build(scalar_nonsingular)
        assert str(info.value) == message


class TestInitialize:
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
        st1 = step(doubling._iterate(E, F, G, H, 1e-12, None))
        assert st1.E[0, 0] == pytest.approx(0.25, abs=1e-16)
        assert st1.H[0, 0] == pytest.approx(0.125 + 0.25 * 0.125 * 0.5, abs=1e-16)

    def test_breakdown_on_singular_cross_product(self):
        E = F = np.array([[0.1]])
        G = H = np.array([[1.0]])  # I - G H = 0
        state = doubling._iterate(E, F, G, H, 1e-12, None)
        assert state.solves == (None, None)
        with pytest.raises(IterationBreakdown):
            step(state)

    def test_breakdown_on_singular_kind_that_lapack_solves(self):
        # I - G H = I - H G = [[1, -1], [-1, 1 + 1e-15]]: LAPACK solves it, the
        # certificate fails its rounding margin, and classify_zm finds it singular
        E = F = 0.1 * np.eye(2)
        G = np.eye(2)
        H = np.array([[0.0, 1.0], [1.0, -1e-15]])
        assert mstruct.classify_zm(np.eye(2) - G @ H).kind is MatrixKind.SINGULAR_M
        state = doubling._iterate(E, F, G, H, 1e-12, None)
        assert state.diagnostics.kind_IGH is state.diagnostics.kind_IHG is MatrixKind.SINGULAR_M
        with pytest.raises(IterationBreakdown):
            step(state)

    def test_uncertified_cross_product_is_classified(self):
        # I - G H = -1.25 is a Z-matrix but no M-matrix: the step goes on and
        # records the kind of the new iterate's I - G H = 1 - 1.488^2
        E = F = np.array([[0.1]])
        G = H = np.array([[1.5]])
        st1 = step(doubling._iterate(E, F, G, H, 1e-12, None))
        assert st1.G[0, 0] == pytest.approx(1.488, abs=1e-15)
        assert st1.diagnostics.kind_IGH is st1.diagnostics.kind_IHG is MatrixKind.Z_NOT_M


class TestCarriedFactors:
    """Each iterate's I - G H and I - H G are solved and certified once, by LAPACK."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        """Live m_solve / classify_zm call counts, plus per-phase deltas."""
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

        # the doubling layer calls the core of m_solve
        monkeypatch.setattr(linalg, "_m_solve", counting("m_solve", linalg._m_solve))
        monkeypatch.setattr(mstruct, "classify_zm", counting("classify_zm", mstruct.classify_zm))
        monkeypatch.setattr(doubling, "initialize", phase("initialize", doubling.initialize))
        monkeypatch.setattr(doubling, "step", phase("step", doubling.step))
        return phases

    def test_solve_factors_and_classifies_twice_per_step(self, counts, noncritical_suite):
        for p in noncritical_suite[:5] + [noncritical_suite[-1]]:
            counts.clear()
            rep = doubling.solve(p)
            assert rep.iterations >= 1
            assert [name for name, _ in counts] == ["initialize"] + ["step"] * rep.iterations
            # initialize solves Ds^{-1} [C I 1], As^{-1} [B 1], W^{-1} [I B 1],
            # V^{-1} [I 1] and the two cross products of the first iterate
            assert counts[0][1] == {"m_solve": 6, "classify_zm": 0}
            # a step solves the new iterate's (I-GH)^{-1} [E G 1] and
            # (I-HG)^{-1} [F H 1], whose certificates settle both kinds
            assert all(delta == {"m_solve": 2, "classify_zm": 0} for _, delta in counts[1:])

    def test_step_from_hand_built_state_solves_only_the_new_iterate(self, counts):
        E = F = np.array([[0.5]])
        G = H = np.array([[0.25]])
        state = doubling._iterate(E, F, G, H, 1e-12, None)
        doubling.step(state)
        # the hand-built iterate's cross products were solved when it was built
        assert counts == [("step", {"m_solve": 2, "classify_zm": 0})]

    def test_noncritical_steps_run_no_full_perron_root(self, monkeypatch, solved_noncritical):
        # far from singular, the M^{-1} 1 certificate settles every cross product's kind
        def refuse(P, *args, **kwargs):
            raise AssertionError("full Perron root computed during a doubling step")

        monkeypatch.setattr(linalg, "perron_pair", refuse)
        monkeypatch.setattr(linalg, "_perron_pair", refuse)
        monkeypatch.setattr(linalg, "spectral_radius_nonneg", refuse)
        for p, rep in solved_noncritical:
            state = initialize(p, rep.params)
            for _ in range(rep.iterations):
                state = step(state)
            assert np.array_equal(state.H, rep.trace[-1].H)


class TestCrossProductCertificate:
    """The M^{-1} 1 certificate of each cross product agrees with ``classify_zm``."""

    @staticmethod
    def _check(p, rep):
        count = 0
        for rec in rep.trace:
            d = rec.diagnostics
            for M, dist, kind in (
                (np.eye(p.n) - rec.G @ rec.H, d.dist_IGH, d.kind_IGH),
                (np.eye(p.m) - rec.H @ rec.G, d.dist_IHG, d.kind_IHG),
            ):
                _, _, certified = linalg.m_solve(M, np.zeros((len(M), 0)))
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


class TestSolve:
    def test_scalar_nonsingular(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        assert rep.phi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.psi[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep.iterations <= 8
        assert rep.converged
        assert rep.flags == ()
        assert rep.certificate.all_passed
        assert np.array_equal(rep.phi, rep.trace[-1].H)
        assert np.array_equal(rep.psi, rep.trace[-1].G)

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
        errs = [abs(r.H[0, 0] - 1.0) for r in rep.trace[:4]]
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

    def test_max_iterations_carries_report(self, scalar_critical):
        with pytest.raises(MaxIterations) as exc_info:
            solve(scalar_critical, DoublingParams(1.0, 1.0, max_iter=3))
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
        for ra, rs in zip(rep_a.trace, rep_s.trace):
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
        with pytest.raises(InsufficientTrace):
            observed_rate(rep.trace, rep.phi)
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


def _eigvals_rate(cert, alpha, beta):
    """Reference r(alpha, beta): the spectral radii of both factors from a solve and a general eigensolve."""
    R, S = cert.R, cert.S
    T1 = np.linalg.solve(R + alpha * np.eye(len(R)), R - beta * np.eye(len(R)))
    T2 = np.linalg.solve(S + beta * np.eye(len(S)), S - alpha * np.eye(len(S)))
    return float(np.abs(np.linalg.eigvals(T1)).max() * np.abs(np.linalg.eigvals(T2)).max())


def _reducible_problems(seed, count):
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
        regimes, unsolved = [], 0
        for p in _reducible_problems(29, 60):
            try:
                rep = solve(p)
            except MaxIterations as exc:
                rep = exc.report
            except NoConvergence:
                # the open defect of ROADMAP item 8: a Phi.Psi, R or S block
                # irreducible only through entries of rounding size
                unsolved += 1
                continue
            regimes.append(rep.problem_class.regime)
            assert len(rep.problem_class.k_class.blocks) > 1
            self._check(p, rep, rep.params)
            self._check(p, rep, DoublingParams(rep.params.alpha * 1.7, rep.params.beta * 1.2))
        assert {Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL} <= set(regimes)
        assert unsolved <= 6 and len(regimes) + unsolved == 60

    def test_inadmissible_parameters_raise(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        for alpha, beta in ((1.0, 1.0), (2.0, 0.5)):
            with pytest.raises(InvalidParameters):
                theoretical_rate(scalar_nonsingular, rep.certificate, DoublingParams(alpha, beta))

    def test_shifted_closing_matrix_not_m_raises(self, scalar_nonsingular):
        rep = solve(scalar_nonsingular)
        for field in ("r_gap", "s_gap"):
            cert = dataclasses.replace(rep.certificate, **{field: -5.0})
            with pytest.raises(SingularMatrix):
                theoretical_rate(scalar_nonsingular, cert, rep.params)


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

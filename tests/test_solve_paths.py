"""Classification at one solve per fact, against the exact paths it falls back to.

A nonsingular K is decided by its certified K^{-1} 1, a singular block's
left Perron vector is one transposed solve, and every Perron run starts
from a vector the solve already holds: the trial K^{-1} 1 for a singular
K, the doubling's last iterate for R and S, and K's witness for Phi Psi
and wherever the iterate gives none.  Each cheap path has a fallback, the
code it replaced; ``helpers.reference_path`` patches the package back to
those fallbacks, so the last test here compares the two paths whole.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import START_SLACK, count_m_solves, reducible_problems, reference_path, regularity_witness, replay
from marekit import (
    FamilySpec,
    Regime,
    classify_problem,
    cli,
    doubling,
    fixed_point_solve,
    generate,
    linalg,
    make_certificate,
    mstruct,
    problem_to_json,
    solve,
)
from marekit import problem as problem_module
from marekit.errors import SingularMatrix
from marekit.linalg import inf_norm, one_norm
from marekit.mstruct import MatrixKind, classify_zm, null_tol
from marekit.problem import MareProblem, problem_from_json

DATA = Path(__file__).resolve().parent / "data"

# the one-solve left vector against the Noda run, both at unit 1-norm, in
# max-entry relative terms (5.9e-15 at most on the draws below)
LEFT_SLACK = 5e-14
# the drift is u1.v1 - u2.v2 of unit vectors; it moves by 1.1e-15 at most
DRIFT_SLACK = 1e-14


def _shift_solve(M, x):
    """The z of the one solve of ``mstruct._left_perron`` on the block M with right vector x (LinAlgError where singular)."""
    Pt = mstruct._split(M.T)[1]
    hi = float(((x @ Pt) / x).max())
    shifted = np.negative(Pt, order="C")
    shifted.reshape(-1)[:: len(Pt) + 1] += hi
    return np.linalg.solve(shifted, np.ones(len(Pt)))


def _shift_outcome(M, x):
    """What the one solve of ``mstruct._left_perron`` meets on the block M with right vector x."""
    try:
        z = _shift_solve(M, x)
    except np.linalg.LinAlgError:
        return "singular"
    return "positive" if z.min() > 0.0 and z.max() < math.inf else "not positive"


def _noda_left(M, start=None):
    """The left Perron vector of the split of M by a Noda run on the transpose, from ``start`` (None is 1)."""
    return linalg._perron_pair(mstruct._split(M.T)[1], start)[1]


def _singular_blocks(problems):
    """(problem, block, K_bb) of every singular block of order >= 2 of the problems' K."""
    for p in problems:
        cls = classify_zm(p.K)
        for blk in cls.singular_blocks:
            if len(blk.index) >= 2:
                yield p, blk, p.K[np.ix_(blk.index, blk.index)]


class TestNonsingularByItsSolve:
    def test_uncertified_solve_falls_back_and_still_raises(self):
        # the chain K = [[g, 0, 0], [-1, g, 0], [0, -1, g]], g = 1e-10: K^{-1} 1
        # reaches 1e30 and does not certify, so classify_zm(K) classifies it
        # (nonsingular) and the second solve raises, as before
        g = 1e-10
        p = MareProblem(n=1, m=2, A=[[g, 0.0], [-1.0, g]], B=[[1.0], [0.0]], C=[[0.0, 0.0]], D=[[g]])
        cls, solved = mstruct.classify_by_solve(p.K)
        assert solved is None and cls == classify_zm(p.K) and cls.kind is MatrixKind.NONSINGULAR_M
        with pytest.raises(SingularMatrix, match="certify the nonsingular blocks of K"):
            classify_problem(p)

    def test_certified_solve_below_class_tol_falls_back_with_the_same_verdict(self, monkeypatch):
        # K = [[g, 0], [-1, g]], g = 1e-7: x = K^{-1} 1 = (1e7, 1e7 + 1e14)
        # certifies, but 1 / max x = 1e-14 is below class_tol(K) = 1e-13, so
        # the bracket decides nothing; classify_zm(K) finds the gap g and
        # block_null_pairs reuses the certified x instead of solving again
        g = 1e-7
        p = MareProblem(n=1, m=1, A=[[g]], B=[[1.0]], C=[[0.0]], D=[[g]])
        _, dist, certified, _ = linalg._m_solve(p.K)
        assert certified and dist <= mstruct.class_tol(p.K)
        calls = count_m_solves(monkeypatch)
        pc = classify_problem(p)
        assert calls == [(2, 0)]
        assert pc.k_class == classify_zm(p.K) and pc.k_class.gap == pytest.approx(g, rel=1e-12)
        assert pc.regime is Regime.NONSINGULAR_K and pc.r == 0
        assert np.array_equal(pc.witness, linalg._m_solve(p.K)[3])

    def test_certified_solve_below_class_tol_on_a_singular_k(self):
        # K = [[1, -1], [-1, 1 + 1e-13]]: x = K^{-1} 1 certifies, 1 / max x is
        # 5e-14 (below class_tol), and classify_zm(K) judges the gap zero:
        # a singular K, whose kernel pair passes null_tol
        K = np.array([[1.0, -1.0], [-1.0, 1.0 + 1e-13]])
        _, dist, certified, _ = linalg._m_solve(K)
        assert certified and dist <= mstruct.class_tol(K)
        cls, solved = mstruct.classify_by_solve(K)
        assert cls == classify_zm(K) and cls.kind is MatrixKind.SINGULAR_M and solved is not None
        (pair,), witness = mstruct.block_null_pairs(K, 1, cls, solved)
        assert inf_norm(K @ pair.v) <= null_tol(K) and inf_norm(pair.u @ K) <= null_tol(K)
        assert (witness > 0).all()

    def test_decided_classification_brackets_the_exact_gap(self, nonsingular_suite):
        for p in nonsingular_suite + reducible_problems(29, 100):
            exact = classify_zm(p.K)
            if exact.kind is not MatrixKind.NONSINGULAR_M:
                continue
            cls, solved = mstruct.classify_by_solve(p.K)
            assert cls.kind is MatrixKind.NONSINGULAR_M
            # the stored gap is the lower end 1 / max x of [1 / max x, 1 / min x]
            assert cls.gap == 1.0 / solved.max() and cls.s == exact.s and cls.rho_B == cls.s - cls.gap
            assert cls.gap <= exact.gap * (1 + 1e-12) and exact.gap <= (1.0 / solved.min()) * (1 + 1e-12)
            assert [b.index.tolist() for b in cls.blocks] == [b.index.tolist() for b in exact.blocks]
            assert [b.final for b in cls.blocks] == [b.final for b in exact.blocks]
            assert min(b.gap for b in cls.blocks) == cls.gap
            for got, want in zip(cls.blocks, exact.blocks):
                assert got.perron is None and got.gap <= want.gap * (1 + 1e-12)


class TestLeftVectorByOneSolve:
    def test_exactly_singular_shift_falls_back_to_the_noda_run(self):
        # a directed 3-cycle of unit weights is K's singular final block: its
        # right run stops at x = 1 with hi = 1 exactly, and hi I - P^T is the
        # integer matrix K_bb^T, which LAPACK factors exactly to a zero pivot
        p = problem_from_json((DATA / "exact_left_shift.json").read_text())
        pc = classify_problem(p)
        assert (pc.regime, pc.r) == (Regime.SINGULAR_NONCRITICAL, 1)
        (blk,) = pc.k_class.singular_blocks
        M = p.K[np.ix_(blk.index, blk.index)]
        assert _shift_outcome(M, blk.perron) == "singular"
        assert np.array_equal(mstruct._left_perron(M, blk.perron), _noda_left(M))
        u, v = pc.nulls.u, pc.nulls.v
        assert inf_norm(p.K @ v) <= null_tol(p.K) and inf_norm(u @ p.K) <= null_tol(p.K)
        assert np.allclose(u[blk.index], 1 / 3) and pc.drift == pytest.approx(-2 / 27, abs=1e-15)
        assert cli.execute(["solve", str(DATA / "exact_left_shift.json")]).exit_code == 0

    def test_each_fallback_is_the_noda_run_and_passes_null_tol(self):
        # an exactly singular shift runs Noda from 1, a z that is not positive
        # from |z| / max |z|, the trial solve's own inverse-iteration step
        outcomes = set()
        for p, blk, M in _singular_blocks(reducible_problems(29, 300)):
            outcome = _shift_outcome(M, blk.perron)
            outcomes.add(outcome)
            if outcome != "positive":
                start = None if outcome == "singular" else linalg._perron_start(np.abs(_shift_solve(M, blk.perron)))
                assert np.array_equal(mstruct._left_perron(M, blk.perron), _noda_left(M, start))
                pc = classify_problem(p)  # AmbiguousKernel where a pair misses null_tol
                assert pc.nulls is not None and inf_norm(pc.nulls.u @ p.K) <= null_tol(p.K)
        assert outcomes == {"positive", "singular", "not positive"}

    def test_z_with_a_negative_entry_runs_noda_from_its_absolute_value(self, monkeypatch, noncritical_suite):
        # the one solve returns a z whose first entry is -z.max() / 2 and the
        # Noda run's solves go through: |z| / max |z| is off the left vector
        # in that entry, and only the run brings it to the kernel
        blocks = _singular_blocks(noncritical_suite)
        blk, M = next((b, M) for _, b, M in blocks if _shift_outcome(M, b.perron) == "positive")
        solve, starts = linalg._solve, []

        def fault_first(a, b):
            z = solve(a, b)
            if not starts:
                z[0] = -z.max() / 2
                starts.append(linalg._perron_start(np.abs(z)))
            return z

        monkeypatch.setattr(linalg, "_solve", fault_first)
        y = mstruct._left_perron(M, blk.perron)
        (start,) = starts
        tol = null_tol(M)
        assert inf_norm(start @ M) > tol
        assert inf_norm(y @ M) <= tol and y.min() > 0.0
        assert not np.array_equal(y, start)

    def test_one_solve_vector_is_the_noda_vector_to_rounding(self, noncritical_suite):
        critical = [generate(FamilySpec(Regime.CRITICAL, 2 + s % 7, 2 + s % 7, seed=s)) for s in range(20)]
        solved = 0
        for p, blk, M in _singular_blocks(reducible_problems(29, 300) + noncritical_suite + critical):
            got, want = mstruct._left_perron(M, blk.perron), _noda_left(M)
            assert got.min() > 0.0
            got, want = got / got.sum(), want / want.sum()
            assert np.abs(got - want).max() <= LEFT_SLACK * want.max()
            assert inf_norm(got @ M) <= 1e-5 * null_tol(p.K)
            solved += _shift_outcome(M, blk.perron) == "positive"
        assert solved >= 200


class TestWitness:
    def test_witness_is_positive_with_k_v_nonnegative(self, noncritical_suite, nonsingular_suite):
        for p in noncritical_suite + nonsingular_suite + reducible_problems(29, 100):
            pc = classify_problem(p)
            if not pc.k_class.regular:
                assert pc.witness is None
                continue
            v = pc.witness
            assert (v > 0).all()
            K = p.K
            assert (K @ v >= -1e-12 * one_norm(K) * v.max()).all()
            # the reference builds the same v with its own solve on the rest
            assert np.allclose(v, regularity_witness(K, pc.k_class), rtol=1e-10, atol=0.0)
            if pc.regime is Regime.NONSINGULAR_K:
                assert np.array_equal(v, linalg._m_solve(K)[3])

    def test_witness_starts_save_certificate_solves(self, solved_noncritical, solved_nonsingular, monkeypatch):
        # every LAPACK solve of make_certificate is a Noda step on R, S or Phi Psi
        solves = []
        real = linalg._solve
        monkeypatch.setattr(linalg, "_solve", lambda *a: solves.append(1) or real(*a))
        counts = {}
        for start in (True, False):
            solves.clear()
            for p, rep in solved_noncritical + solved_nonsingular:
                pc = rep.problem_class if start else dataclasses.replace(rep.problem_class, witness=None)
                make_certificate(p, rep.phi, rep.psi, problem_class=pc)
            counts[start] = len(solves)
        assert 0 < counts[True] <= 0.8 * counts[False]

    def test_not_regular_k_has_no_witness(self, not_regular_problem):
        pc = classify_problem(not_regular_problem)
        assert pc.regime is Regime.NOT_REGULAR and pc.witness is None


def _solves_inside(monkeypatch, module, name):
    """A one-entry list counting the LAPACK solves made inside ``module.name`` from here on."""
    count, depth = [0], [0]
    real_solve, real = linalg._solve, getattr(module, name)

    def counting_solve(*args):
        count[0] += depth[0] > 0
        return real_solve(*args)

    def wrapped(*args):
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(linalg, "_solve", counting_solve)
    monkeypatch.setattr(module, name, wrapped)
    return count


class TestStartsTheSolveHolds:
    """Perron runs started from vectors the solve already holds; the roots are certified from any start."""

    def test_singular_k_is_classified_from_its_trial_vector(self, noncritical_suite, monkeypatch):
        # the trial K x = 1 is inverse iteration at the exact shift: from
        # |x| / max |x| the Noda runs on the suite's singular K take 398
        # solves, from 1 they took 829
        solves = _solves_inside(monkeypatch, mstruct, "_classify_blocks")
        for p in noncritical_suite:
            cls, _ = mstruct.classify_by_solve(p.K)
            assert cls.kind is MatrixKind.SINGULAR_M
        assert 0 < solves[0] <= 398

    def test_closing_runs_start_from_the_last_iterate(self, noncritical_suite, nonsingular_suite, monkeypatch):
        # W E 1 and F 1 + H W G F 1 point along the Perron vectors of R and
        # S: the runs on R and S take 38 solves on the suites, from K's
        # witness they took 570
        solves = _solves_inside(monkeypatch, problem_module, "_closing")
        for p in noncritical_suite + nonsingular_suite:
            solve(p)
        assert 0 < solves[0] <= 38

    def test_underflowed_e_certifies_from_the_witness(self, monkeypatch):
        # E0 = I - Z_11 = [[0, -5e-171], [-5e-171, 0]], so E1 = E0 W E0
        # underflows to 0, and F0 = 0: neither W E 1 nor F 1 + H W G F 1 is
        # positive, and the runs on R and S start from K's witness
        p = MareProblem(n=2, m=1, D=[[1.0, -1e-170], [-1e-170, 1.0]], C=[[0.0], [0.0]], B=[[0.5, 0.5]], A=[[1.0]])
        starts = []
        real = problem_module._closing
        monkeypatch.setattr(problem_module, "_closing", lambda D, C, X, start, scale: starts.append(start) or real(D, C, X, start, scale))
        rep = solve(p)
        last = replay(p, rep)[-1]
        assert rep.iterations == 1 and not last.E.any() and not last.F.any()
        assert doubling._closing_starts(last) == (None, None)
        v = rep.problem_class.witness
        assert len(starts) == 2 and np.array_equal(starts[0], v[:2]) and np.array_equal(starts[1], v[2:])
        want = make_certificate(p, rep.phi, rep.psi, problem_class=rep.problem_class)
        assert rep.problem_class.regime is Regime.NONSINGULAR_K
        assert rep.certificate.checks == want.checks and rep.certificate.all_passed

    def test_iterate_without_w_certifies_from_the_witness(self, noncritical_suite, monkeypatch):
        # an iterate that carries no W = (I - G H)^{-1} gives no start for
        # R or S, and the certificate is make_certificate's, check for check
        p = noncritical_suite[0]
        pc = classify_problem(p)
        state = dataclasses.replace(doubling.initialize(p, doubling.select_parameters(p)), solves=None)
        assert doubling._closing_starts(state) == (None, None)
        starts = []
        real = problem_module._closing
        monkeypatch.setattr(problem_module, "_closing", lambda D, C, X, start, scale: starts.append(start) or real(D, C, X, start, scale))
        phi, psi = np.maximum(state.H, 0.0), np.maximum(state.G, 0.0)
        cert = problem_module._certificate(p, phi, psi, problem_module.CERT_TOL, pc, *doubling._closing_starts(state))
        v = pc.witness
        assert len(starts) == 2 and np.array_equal(starts[0], v[: p.n]) and np.array_equal(starts[1], v[p.n :])
        assert cert.checks == make_certificate(p, phi, psi, problem_class=pc).checks
        assert np.array_equal(starts[2], starts[0]) and np.array_equal(starts[3], starts[1])

    def test_rounding_irreducible_closing_solves(self, tmp_path):
        # draw 154 of reducible_problems(29, 300): its R is irreducible only
        # through entries of rounding size.  The Noda run from W E 1 closes;
        # the one from K's witness, which verify starts, stalls and closes by
        # the pruned lower bound
        path = DATA / "rounding_irreducible_closing.json"
        p = problem_from_json(path.read_text())
        assert _same_problem(p, reducible_problems(29, 155)[154])
        rep = solve(p)
        assert rep.problem_class.regime is Regime.SINGULAR_NONCRITICAL
        assert rep.converged and rep.certificate.all_passed and rep.certificate.r_singular
        for got, q in ((rep.phi, p), (rep.psi, p.dual())):
            want = fixed_point_solve(q, tol=1e-13).phi
            assert one_norm(got - want) <= 1.2e-11 * one_norm(want)
        printed = json.loads(cli.execute(["solve", str(path)]).report_json)
        pair = []
        for key in ("phi", "psi"):
            pair += ["--" + key, str(tmp_path / f"{key}.json")]
            (tmp_path / f"{key}.json").write_text(json.dumps(printed[key]))
        out = cli.execute(["verify", str(path), *pair])
        assert out.exit_code == 0
        assert all(c["passed"] in (True, None) for c in json.loads(out.report_json)["checks"])


def _same_problem(p, q):
    return p.n == q.n and np.array_equal(p.K, q.K)


def _reports(path):
    return {cmd: cli.execute([cmd, str(path)]) for cmd in ("classify", "solve")}


def _evidence_problems(noncritical_suite, nonsingular_suite):
    problems = [problem_from_json(f.read_text()) for f in sorted(DATA.glob("*.json"))]
    problems += noncritical_suite + nonsingular_suite
    for regime in (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL, Regime.CRITICAL):
        problems += [generate(FamilySpec(regime, 2 + s % 7, 2 + s % 7, seed=s)) for s in range(20)]
    return problems + reducible_problems(29, 300)


def test_byte_exception_keeps_every_verdict(noncritical_suite, nonsingular_suite, tmp_path, monkeypatch):
    """The new path against ``reference_path``: equal verdicts, and values moved by rounding only.

    Regime, r, every check verdict, the flags, the exit codes and the
    failing step are equal.  The drift moves by at most ``DRIFT_SLACK``;
    rho(Phi Psi) and the closing gaps, Perron roots from other start
    vectors, by at most ``START_SLACK`` (1 + 2 max diag) of their matrix.

    ``solve`` on the problem of ``rounding_irreducible_closing.json``,
    draw 154 of the reducible draws, met twice here, is pinned apart.  Its
    R is irreducible only through entries of rounding size: the Noda run
    from the doubling's W E 1 closes, and the one from 1 closes by the
    pruned lower bound of ``linalg._pruned_lower_bound``.  Both paths exit
    0 in the SingularNoncritical regime with every check passing.
    """
    closing = problem_from_json((DATA / "rounding_irreducible_closing.json").read_text())
    changed = exceptions = 0
    path = tmp_path / "p.json"
    for p in _evidence_problems(noncritical_suite, nonsingular_suite):
        path.write_text(problem_to_json(p))
        got = _reports(path)
        with monkeypatch.context() as mp:
            reference_path(mp)
            want = _reports(path)
        for cmd in got:
            changed += got[cmd].report_json != want[cmd].report_json
            g, w = json.loads(got[cmd].report_json), json.loads(want[cmd].report_json)
            if cmd == "solve" and _same_problem(p, closing):
                assert (got[cmd].exit_code, want[cmd].exit_code) == (0, 0)
                for r in (g, w):
                    assert r["regime"] == "SingularNoncritical" and all(c["passed"] for c in r["checks"])
                exceptions += 1
                continue
            assert got[cmd].exit_code == want[cmd].exit_code, (p.name, cmd)
            if "step" in w:  # a failed command: the same exception (its message may quote other bounds)
                assert g["step"] == w["step"], (p.name, cmd)
                continue
            for key in ("regime", "r", "flags", "iterations", "error"):
                assert g.get(key) == w.get(key), (p.name, cmd, key)
            assert [(c["name"], c["passed"]) for c in g["checks"]] == [(c["name"], c["passed"]) for c in w["checks"]]
            assert (g["drift"] is None) == (w["drift"] is None)
            if w["drift"] is not None:
                assert abs(g["drift"] - w["drift"]) <= DRIFT_SLACK, p.name
            if cmd == "solve":
                _assert_roots_close(p, g, w)
    assert changed > 0  # the exception is real: some report bytes move
    assert exceptions == 2


def _assert_roots_close(p, got, want):
    phi = np.array(want["phi"]["entries"])
    psi = np.array(want["psi"]["entries"])
    phi_psi = phi @ psi
    if want["rho_phi_psi"] is not None:
        slack = START_SLACK * (1 + 2 * max(phi_psi.diagonal().max(), 1.0))
        assert abs(got["rho_phi_psi"] - want["rho_phi_psi"]) <= slack
    closing = {"closing-R-regular-m-matrix": p.D - p.C @ phi, "closing-S-regular-m-matrix": p.A - p.B @ psi}
    for g, w in zip(got["checks"], want["checks"]):
        if g["name"] in closing and w["value"] is not None:
            s = np.abs(closing[g["name"]].diagonal()).max()
            assert abs(g["value"] - w["value"]) <= START_SLACK * (1 + 2 * s), (p.name, g["name"])

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import marekit
from marekit import FamilySpec, Regime, cli, generate
from marekit.cli import dumps_report, execute
from marekit.problem import MareProblem, problem_from_json, problem_to_json

GOLDEN = (3 - 5**0.5) / 2
# bench solve-large problem 3 at seed 13 (n = 38, m = 42, singular noncritical):
# the fixed-point oracle's stop leaves R's smallest eigenvalue at 1.5e-10 of
# its scale, inside the 1e-8 singular threshold, while R's smallest LU pivot
# stays at 1.1e-8, so a pivot test rejects this correct answer
FIXED_POINT_CLOSING = str(Path(__file__).parent / "data" / "fixed_point_closing.json")
# a reducible singular K whose nonsingular 1x1 blocks of 9.9e-11 and 7.3e-12
# pass the gap test (tolerance 1.6e-13), while K_NN^{-1} 1 reaches 7.9e20, so
# the certified solves on K_NN of the kernel pair fail
SINGULAR_BOUNDARY = str(Path(__file__).parent / "data" / "singular_boundary_block_pair.json")

REPORT_KEYS = {
    "regime",
    "drift",
    "r",
    "alpha",
    "beta",
    "iterations",
    "residual_primal",
    "residual_dual",
    "rho_phi_psi",
    "theoretical_rate",
    "observed_rate",
    "checks",
}


@pytest.fixture()
def problem_file(tmp_path, scalar_nonsingular):
    path = tmp_path / "p211.json"
    path.write_text(problem_to_json(scalar_nonsingular))
    return str(path)


@pytest.fixture()
def critical_file(tmp_path, scalar_critical):
    path = tmp_path / "crit.json"
    path.write_text(problem_to_json(scalar_critical))
    return str(path)


@pytest.fixture()
def divergent_file(tmp_path, divergent):
    path = tmp_path / "div.json"
    path.write_text(problem_to_json(divergent))
    return str(path)


def _matrix_file(tmp_path, name, value):
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    path = tmp_path / name
    path.write_text(
        json.dumps({"rows": arr.shape[0], "cols": arr.shape[1], "entries": arr.tolist()})
    )
    return str(path)


class TestClassify:
    def test_critical_report(self, critical_file):
        out = execute(["classify", critical_file])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert rep["regime"] == "Critical"
        assert rep["drift"] == 0
        assert rep["r"] == 2
        assert REPORT_KEYS <= set(rep)

    @pytest.mark.parametrize(
        "coefficients, r",
        [
            ({"A": [[0.4562551427827235]], "B": [[0.4562551427827235]], "C": [[0.4562551427827235]], "D": [[0.4562551427827235]]}, 2),
            ({"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]], "D": [[1.0, 0.0], [0.0, 1.0]]}, 4),
            ({"A": [[1.0]], "B": [[2.0]], "C": [[2.0]], "D": [[1.0]]}, None),
        ],
    )
    def test_zero_eigenvalue_multiplicity(self, tmp_path, coefficients, r):
        # r is null where K is not an M-matrix
        path = tmp_path / "p.json"
        size = len(coefficients["A"])
        path.write_text(json.dumps({"n": size, "m": size, **coefficients}))
        out = execute(["classify", str(path)])
        assert out.exit_code == 0
        assert json.loads(out.report_json)["r"] == r
        assert f'"r": {"null" if r is None else r},' in out.report_json

    def test_missing_file_is_usage_error(self):
        assert execute(["classify", "/nonexistent/x.json"]).exit_code == 2

    def test_unknown_field_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n":1,"m":1,"A":[[1]],"B":[[1]],"C":[[1]],"D":[[1]],"zz":1}')
        assert execute(["classify", str(path)]).exit_code == 2

    @pytest.mark.parametrize("field, value", [("A", [["2.0"]]), ("D", [[True]]), ("n", True), ("m", True)])
    def test_string_or_boolean_field_is_usage_error(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        payload = {"n": 1, "m": 1, "A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]], field: value}
        path.write_text(json.dumps(payload))
        for argv in (["classify", str(path)], ["solve", str(path)]):
            out = execute(argv)
            assert out.exit_code == 2
            assert "error" in json.loads(out.report_json)

    def test_boolean_matrix_size_is_usage_error(self, tmp_path, problem_file):
        phi = tmp_path / "phi.json"
        phi.write_text('{"rows": true, "cols": 1, "entries": [[0.5]]}')
        out = execute(["verify", problem_file, "--phi", str(phi), "--psi", str(phi)])
        assert out.exit_code == 2

    def test_unknown_command_is_usage_error(self):
        assert execute(["frobnicate"]).exit_code == 2

    def test_uncertified_kernel_pair_is_breakdown(self):
        out = execute(["classify", SINGULAR_BOUNDARY])
        assert out.exit_code == 3
        assert json.loads(out.report_json) == {
            "error": "M^{-1} 1 does not certify the nonsingular blocks of K",
            "step": "SingularMatrix",
        }


class TestSolve:
    def test_adda_report(self, problem_file):
        out = execute(["solve", problem_file, "--method", "adda"])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert rep["phi"]["entries"][0][0] == pytest.approx(GOLDEN, abs=1e-12)
        assert rep["phi"]["entries"][0][0] == pytest.approx(0.3819660113, abs=1e-9)
        assert (rep["alpha"], rep["beta"]) == (2.0, 1.0)
        assert rep["regime"] == "NonsingularK"
        assert REPORT_KEYS <= set(rep)

    def test_seventeen_digit_floats(self, problem_file):
        out = execute(["solve", problem_file])
        value = json.loads(out.report_json)["phi"]["entries"][0][0]
        assert format(value, ".17g") in out.report_json
        assert len(format(value, ".17g").replace("0.", "")) == 17

    def test_deterministic_bytes(self, problem_file):
        first = execute(["solve", problem_file])
        second = execute(["solve", problem_file])
        assert first.report_json == second.report_json

    def test_same_bytes_on_one_and_two_blas_threads(self, tmp_path):
        # the doubling solves run in LAPACK's blocked routines; their
        # results must not depend on how many threads the BLAS uses
        path = str(tmp_path / "p40x45.json")
        gen = ["generate", "--regime", "nonsingular", "--n", "40", "--m", "45", "--seed", "3", "-o", path]
        assert execute(gen).exit_code == 0
        src = str(Path(marekit.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-m", "marekit.cli", "solve", path],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outputs.append(run.stdout)
        assert json.loads(outputs[0])["iterations"] >= 1
        assert outputs[0] == outputs[1]

    def test_trace_csv_written(self, problem_file, tmp_path):
        trace = tmp_path / "trace.csv"
        out = execute(["solve", problem_file, "--trace", str(trace)])
        assert out.trace_csv_path == str(trace)
        lines = trace.read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "k",
            "dH",
            "dG",
            "dist_IGH",
            "dist_IHG",
            "sign_violations_E",
            "sign_violations_F",
            "monotonicity_violations",
        ]
        assert len(lines) >= 3

    def test_explicit_parameters(self, problem_file):
        out = execute(["solve", problem_file, "--alpha", "3", "--beta", "2"])
        rep = json.loads(out.report_json)
        assert (rep["alpha"], rep["beta"]) == (3.0, 2.0)

    def test_alpha_without_beta_is_usage_error(self, problem_file):
        assert execute(["solve", problem_file, "--alpha", "3"]).exit_code == 2

    def test_below_bound_parameters_usage_error(self, problem_file):
        out = execute(["solve", problem_file, "--alpha", "1", "--beta", "1"])
        assert out.exit_code == 2
        out = execute(["solve", problem_file, "--alpha", "-1e3", "--beta", "1"])
        assert out.exit_code == 2
        assert "below the admissible bounds" in json.loads(out.report_json)["error"]

    def test_sda_method(self, problem_file):
        out = execute(["solve", problem_file, "--method", "sda"])
        rep = json.loads(out.report_json)
        assert rep["alpha"] == rep["beta"] == 2.0
        assert out.exit_code == 0

    def test_fixed_point_method(self, problem_file):
        out = execute(["solve", problem_file, "--method", "fixed-point", "--tol", "1e-12"])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert rep["phi"]["entries"][0][0] == pytest.approx(GOLDEN, abs=1e-10)
        assert rep["psi"]["entries"][0][0] == pytest.approx(GOLDEN, abs=1e-10)

    @pytest.mark.parametrize("option, value", [("--trace", "t.csv"), ("--alpha", "0.1"), ("--beta", "0.1")])
    def test_doubling_option_with_fixed_point_is_usage_error(self, tmp_path, option, value):
        if option == "--trace":
            value = str(tmp_path / value)
        out = execute(["solve", FIXED_POINT_CLOSING, "--method", "fixed-point", option, value])
        assert out.exit_code == 2
        assert option in json.loads(out.report_json)["error"]
        assert out.trace_csv_path is None and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "bc, reason",
        [(3.0, "matrix fails its nonsingular M-matrix certificate"), (2.0, "matrix is exactly singular (Singular matrix)")],
    )
    def test_doubling_start_on_non_m_matrix_is_breakdown(self, tmp_path, bc, reason):
        # K + diag(alpha I, beta I) = [[2, -bc], [-bc, 2]] is not a nonsingular M-matrix
        path = tmp_path / "notm.json"
        path.write_text(problem_to_json(MareProblem(n=1, m=1, A=[[1.0]], B=[[bc]], C=[[bc]], D=[[1.0]])))
        out = execute(["solve", str(path)])
        assert out.exit_code == 3
        assert json.loads(out.report_json) == {
            "error": f"doubling initialization failed: {reason}",
            "step": "SingularMatrix",
        }

    def test_fixed_point_divergence_is_breakdown(self, divergent_file):
        # the primal's breakdown, raised in its own block of steps
        out = execute(["solve", divergent_file, "--method", "fixed-point"])
        assert out.exit_code == 3
        assert json.loads(out.report_json) == {
            "error": "nonfinite fixed-point update at step 12",
            "step": "IterationBreakdown",
        }

    @pytest.mark.parametrize("dual", [False, True], ids=["problem", "its-dual"])
    def test_fixed_point_breakdown_of_either_side_ends_the_run(self, tmp_path, breaks_later_than_its_dual, dual):
        # one side overflows at step 110, the other would at step 128
        p = breaks_later_than_its_dual.dual() if dual else breaks_later_than_its_dual
        path = tmp_path / "breaks.json"
        path.write_text(problem_to_json(p))
        out = execute(["solve", str(path), "--method", "fixed-point"])
        assert out.exit_code == 3
        assert json.loads(out.report_json) == {
            "error": "nonfinite fixed-point update at step 110",
            "step": "IterationBreakdown",
        }

    def test_iteration_cap_is_breakdown(self, critical_file):
        out = execute(["solve", critical_file, "--max-iter", "2"])
        assert out.exit_code == 3
        rep = json.loads(out.report_json)
        assert "error" in rep
        assert rep["iterations"] == 2  # best-effort report still attached

    def test_capped_solve_writes_its_trace(self, critical_file, tmp_path):
        trace = tmp_path / "t.csv"
        out = execute(["solve", critical_file, "--max-iter", "3", "--trace", str(trace)])
        assert out.exit_code == 3 and out.trace_csv_path == str(trace)
        header, *rows = trace.read_text().splitlines()
        assert header.startswith("k,dH,dG,") and [row.split(",")[0] for row in rows] == ["0", "1", "2", "3"]
        rep = json.loads(out.report_json)
        assert rep["iterations"] == 3
        assert list(rep)[-1] == "error" and "within 3 iterations" in rep["error"]


class TestSdaIsAddaAtEqualParameters:
    """``--method sda`` prints the bytes of ``--alpha g --beta g``, g = max(a*, d*)."""

    def test_same_bytes(self, tmp_path, noncritical_suite, nonsingular_suite, scalar_nonsingular, scalar_critical, reducible_singular):
        regimes = (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL, Regime.CRITICAL)
        generated = [generate(FamilySpec(regimes[s % 3], 2 + s % 5, 3 + s % 4, seed=100 + s)) for s in range(10)]
        worked = [scalar_nonsingular, scalar_critical, reducible_singular]
        for i, p in enumerate(worked + noncritical_suite + nonsingular_suite + generated):
            path = tmp_path / f"p{i}.json"
            path.write_text(problem_to_json(p))
            sda = execute(["solve", str(path), "--method", "sda"])
            g = json.loads(sda.report_json)["alpha"]
            assert g == max(p.A.diagonal().max(), p.D.diagonal().max())
            adda = execute(["solve", str(path), "--alpha", repr(g), "--beta", repr(g)])
            assert (sda.exit_code, sda.report_json) == (adda.exit_code, adda.report_json), p.name

    def test_unequal_pair_is_usage_error(self, problem_file):
        out = execute(["solve", problem_file, "--method", "sda", "--alpha", "5", "--beta", "6"])
        assert out.exit_code == 2
        assert json.loads(out.report_json)["error"] == "single-parameter mode requires alpha == beta"


@pytest.mark.parametrize(
    "plain, explicit",
    [
        (["solve"], ["solve", "--tol", "1e-14", "--max-iter", "60"]),
        (["solve", "--method", "fixed-point"], ["solve", "--method", "fixed-point", "--tol", "1e-10", "--max-iter", "5000"]),
        (["oracle"], ["oracle", "--tol", "1e-10", "--max-iter", "5000"]),
    ],
)
def test_library_defaults_reach_the_command_line(critical_file, problem_file, plain, explicit):
    for path in (problem_file, critical_file):
        a = execute([plain[0], path, *plain[1:]])
        b = execute([explicit[0], path, *explicit[1:]])
        assert (a.exit_code, a.report_json) == (b.exit_code, b.report_json)


def test_verify_and_generate_defaults(tmp_path, problem_file):
    phi = _matrix_file(tmp_path, "phi.json", [[GOLDEN + 1e-9]])
    psi = _matrix_file(tmp_path, "psi.json", [[GOLDEN]])
    plain = execute(["verify", problem_file, "--phi", phi, "--psi", psi])
    assert plain.report_json == execute(["verify", problem_file, "--phi", phi, "--psi", psi, "--tol", "1e-8"]).report_json
    spec = ["generate", "--regime", "nonsingular", "--n", "3", "--m", "2", "--seed", "4", "-o"]
    execute([*spec, str(tmp_path / "a.json")])
    execute([*spec, str(tmp_path / "b.json"), "--density", "0.7"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestParserOnce:
    """The argument parser is built once per process and keeps nothing between calls."""

    def test_three_calls_build_the_parser_once(self, problem_file):
        cli._build_parser.cache_clear()
        for argv in (["classify", problem_file], ["solve", problem_file], ["solve", problem_file, "--alpha", "3"]):
            execute(argv)
        assert cli._build_parser.cache_info().misses == 1

    def test_options_do_not_leak_into_the_next_call(self, problem_file, tmp_path):
        src = str(Path(marekit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = subprocess.run(
            [sys.executable, "-m", "marekit.cli", "solve", problem_file],
            env=env, capture_output=True, check=True, timeout=120,
        ).stdout.decode()
        trace = str(tmp_path / "t.csv")
        with_options = execute(["solve", problem_file, "--alpha", "3", "--beta", "2", "--tol", "1e-12", "--trace", trace])
        assert with_options.report_json + "\n" != fresh
        plain = execute(["solve", problem_file])
        assert plain.report_json + "\n" == fresh
        assert plain.trace_csv_path is None


class TestFixedPointClosing:
    """The closing dichotomy of an oracle answer whose singular R is judged by its gap, not an LU pivot."""

    @staticmethod
    def _dichotomy(out):
        rep = json.loads(out.report_json)
        assert rep["regime"] == "SingularNoncritical"
        return next(c for c in rep["checks"] if c["name"] == "exactly-one-closing-singular")

    def test_fixed_point_passes(self):
        out = execute(["solve", FIXED_POINT_CLOSING, "--method", "fixed-point"])
        assert out.exit_code == 0
        check = self._dichotomy(out)
        assert check["passed"] is True
        assert check["value"] < 1e-9 and check["detail"] == "R_singular=True, S_singular=False"

    def test_adda_passes(self):
        out = execute(["solve", FIXED_POINT_CLOSING])
        assert out.exit_code == 0
        assert self._dichotomy(out)["passed"] is True


def test_no_general_eigensolve(monkeypatch, problem_file):
    def refuse(*args, **kwargs):
        raise AssertionError("general eigensolve called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for argv in (["solve", problem_file], ["solve", FIXED_POINT_CLOSING], ["rate-study", problem_file], ["rate-study", FIXED_POINT_CLOSING, "--grid", "2"]):
        out = execute(argv)
        assert out.exit_code == 0, argv
        rep = json.loads(out.report_json)
        assert rep["theoretical_rate"] is not None and "flags" not in rep, argv


class TestStoppingLimits:
    """Zero values are honored, not replaced by defaults; unusable limits exit 2."""

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--max-iter", "0"],
            ["solve", "--method", "sda", "--max-iter", "-1"],
            ["solve", "--tol=-1e-12"],
            ["solve", "--method", "fixed-point", "--max-iter", "0"],
            ["solve", "--method", "fixed-point", "--max-iter", "-3"],
            ["solve", "--method", "fixed-point", "--tol", "-1"],
            ["oracle", "--max-iter", "0"],
            ["oracle", "--max-iter", "-3"],
            ["oracle", "--tol", "-1"],
            ["solve", "--tol", "-1e-12"],
            ["oracle", "--tol", "-1e-12"],
        ],
    )
    def test_unusable_limit_is_usage_error(self, problem_file, args):
        out = execute([args[0], problem_file, *args[1:]])
        assert out.exit_code == 2
        assert "must be" in json.loads(out.report_json)["error"]

    def test_zero_tol_is_honored(self, critical_file, tmp_path):
        # stop_tol = 0 stops only once H and G stop moving; 1e-14 would
        # accept the one-ulp creep of the stagnating critical iterates
        trace = tmp_path / "trace.csv"
        out = execute(["solve", critical_file, "--tol", "0", "--trace", str(trace)])
        assert out.exit_code == 0
        last = trace.read_text().strip().splitlines()[-1].split(",")
        assert float(last[1]) == 0.0 and float(last[2]) == 0.0

    def test_fixed_point_max_iter_is_honored(self, problem_file):
        out = execute(["solve", problem_file, "--method", "fixed-point", "--tol", "0", "--max-iter", "1"])
        assert out.exit_code == 3
        assert json.loads(out.report_json)["iterations"] == 1


class TestVerify:
    def test_wrong_candidate_exits_one(self, problem_file, tmp_path):
        phi = _matrix_file(tmp_path, "phi.json", [[0.9]])
        psi = _matrix_file(tmp_path, "psi.json", [[0.9]])
        out = execute(["verify", problem_file, "--phi", phi, "--psi", psi])
        assert out.exit_code == 1
        rep = json.loads(out.report_json)
        failed = {c["name"] for c in rep["checks"] if c["passed"] is False}
        assert "residual-primal" in failed

    def test_correct_candidate_exits_zero(self, problem_file, tmp_path):
        phi = _matrix_file(tmp_path, "phi.json", [[GOLDEN]])
        psi = _matrix_file(tmp_path, "psi.json", [[GOLDEN]])
        out = execute(["verify", problem_file, "--phi", phi, "--psi", psi])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert all(c["passed"] in (True, None) for c in rep["checks"])

    def test_critical_endpoint_reported_singular(self, critical_file, tmp_path):
        phi = _matrix_file(tmp_path, "phi.json", [[1.0]])
        psi = _matrix_file(tmp_path, "psi.json", [[1.0]])
        out = execute(["verify", critical_file, "--phi", phi, "--psi", psi])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert rep["rho_phi_psi"] == pytest.approx(1.0, abs=1e-12)
        rho_check = next(c for c in rep["checks"] if c["name"] == "i-minus-phipsi-nonsingular")
        assert rho_check["passed"] is None
        assert "SingularM" in rho_check["detail"]

    @pytest.mark.parametrize("tol", ["-1", "nan", "-1e-12"])
    def test_unusable_tol_is_usage_error(self, problem_file, tmp_path, tol):
        phi = _matrix_file(tmp_path, "phi.json", [[GOLDEN]])
        psi = _matrix_file(tmp_path, "psi.json", [[GOLDEN]])
        out = execute(["verify", problem_file, "--phi", phi, "--psi", psi, "--tol", tol])
        assert out.exit_code == 2
        assert "--tol must be nonnegative" in json.loads(out.report_json)["error"]


class TestOracle:
    def test_oracle_command(self, problem_file):
        out = execute(["oracle", problem_file, "--tol", "1e-12"])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert rep["phi"]["entries"][0][0] == pytest.approx(GOLDEN, abs=1e-10)
        assert rep["converged"] is True
        assert rep["iterations"] >= 1

    def test_oracle_nonconvergence_is_breakdown(self, critical_file):
        out = execute(["oracle", critical_file, "--tol", "1e-12", "--max-iter", "50"])
        assert out.exit_code == 3

    def test_divergence_is_breakdown(self, divergent_file):
        out = execute(["oracle", divergent_file])
        assert out.exit_code == 3
        rep = json.loads(out.report_json)
        assert rep["step"] == "IterationBreakdown"
        assert "step 12" in rep["error"]

    def test_divergence_names_the_primal_step(self, tmp_path, breaks_later_than_its_dual):
        # the oracle runs the primal alone, which overflows at step 128; the
        # dual's overflow at step 110 is no concern of it
        path = tmp_path / "breaks.json"
        path.write_text(problem_to_json(breaks_later_than_its_dual))
        out = execute(["oracle", str(path)])
        assert out.exit_code == 3
        assert json.loads(out.report_json)["error"] == "nonfinite fixed-point update at step 128"

    def test_singular_splitting_is_breakdown(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(problem_to_json(MareProblem(n=1, m=1, A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]])))
        out = execute(["oracle", str(path)])
        assert out.exit_code == 3
        assert json.loads(out.report_json)["step"] == "SingularMatrix"


class TestGenerate:
    def test_round_trip_regime(self, tmp_path):
        dest = tmp_path / "gen.json"
        out = execute(
            [
                "generate",
                "--regime",
                "singular-noncritical",
                "--n",
                "2",
                "--m",
                "3",
                "--seed",
                "5",
                "-o",
                str(dest),
            ]
        )
        assert out.exit_code == 0
        assert json.loads(out.report_json)["regime"] == "SingularNoncritical"
        again = execute(["classify", str(dest)])
        assert json.loads(again.report_json)["regime"] == "SingularNoncritical"
        problem_from_json(dest.read_text())  # parses strictly

    def test_generated_file_deterministic(self, tmp_path):
        args = lambda dest: [
            "generate", "--regime", "critical", "--n", "2", "--m", "2",
            "--seed", "9", "-o", str(dest),
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        execute(args(a))
        execute(args(b))
        assert a.read_bytes() == b.read_bytes()


class TestRateStudy:
    def test_grid_and_optimality(self, problem_file):
        out = execute(["rate-study", problem_file, "--grid", "3"])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert len(rep["grid"]) == 9
        check = next(c for c in rep["checks"] if c["name"] == "optimal-parameters-minimize-rate")
        assert check["passed"] is True
        base = rep["theoretical_rate"]
        assert all(entry["theoretical_rate"] >= base - 1e-12 for entry in rep["grid"])

    def test_order_above_50(self, tmp_path):
        path = str(tmp_path / "big.json")
        gen = ["generate", "--regime", "nonsingular", "--n", "30", "--m", "60", "--seed", "5", "-o", path]
        assert execute(gen).exit_code == 0
        out = execute(["rate-study", path, "--grid", "2"])
        assert out.exit_code == 0
        rep = json.loads(out.report_json)
        assert len(rep["grid"]) == 4
        assert "flags" not in rep

    def test_capped_solve_is_breakdown(self, tmp_path):
        path = str(tmp_path / "crit.json")
        execute(["generate", "--regime", "critical", "--n", "1", "--m", "1", "--seed", "0", "-o", path])
        out = execute(["rate-study", path, "--grid", "2"])
        assert out.exit_code == 3
        assert json.loads(out.report_json) == {"error": "doubling did not meet stop_tol 1.0e-14 within 60 iterations"}

    @pytest.mark.parametrize("grid", ["1", "0", "-2"])
    def test_grid_below_two_is_usage_error(self, problem_file, grid):
        out = execute(["rate-study", problem_file, "--grid", grid])
        assert out.exit_code == 2
        assert "--grid must be at least 2" in json.loads(out.report_json)["error"]


def test_main_prints_the_report_and_returns_the_exit_code(problem_file, capsys):
    assert cli.main(["classify", problem_file]) == 0
    assert capsys.readouterr() == (execute(["classify", problem_file]).report_json + "\n", "")
    assert cli.main(["solve", problem_file, "--tol", "-1"]) == 2
    assert capsys.readouterr() == ('{\n  "error": "--tol must be nonnegative, got -1.0"\n}\n', "")


def test_dumps_report_17_digits():
    text = dumps_report({"x": 1 / 3, "flag": True, "none": None, "list": [1, 2.5]})
    assert "0.33333333333333331" in text
    assert '"flag": true' in text
    assert '"none": null' in text
    parsed = json.loads(text)
    assert parsed["x"] == 1 / 3

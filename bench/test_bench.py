"""Self-tests of the benchmark (not of marekit).

    python3 -m pytest bench -q

They check that the inputs are deterministic and independent of marekit,
that the answer check rejects wrong answers, and that the span tracer's
accounting is consistent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import problems
import run
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(problems.SCHEDULES))
def test_generator_is_byte_deterministic(workload):
    a = problems.generate(workload, 7)
    b = problems.generate(workload, 7)
    assert [p.to_json() for p in a] == [p.to_json() for p in b]
    assert problems.digest(a) == problems.digest(b)
    assert problems.digest(problems.generate(workload, 8)) != problems.digest(a)


def test_generator_imports_nothing_from_marekit():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import problems\n"
        "for w in problems.SCHEDULES: problems.generate(w, 3)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'marekit'], 'marekit imported'\n"
    )
    subprocess.run([sys.executable, "-I", "-c", code, str(BENCH)], check=True, cwd=BENCH, timeout=120)


@pytest.mark.parametrize("workload", sorted(problems.SCHEDULES))
def test_generated_problems_have_their_labels(workload):
    for p in problems.generate(workload, 5):
        K = np.block([[p.D, -p.C], [-p.B, p.A]])
        off = K - np.diag(np.diag(K))
        assert (off <= 0).all(), p.name
        if p.regime == problems.NONSINGULAR:
            assert np.linalg.eigvals(K).real.min() > 0, p.name
        else:
            assert abs(np.linalg.det(K / np.abs(K).max())) < 1e-10, p.name
        if p.regime == problems.CRITICAL:
            assert abs(problems.drift_of(K, p.n)) < 1e-10, p.name
        if p.regime == problems.NONCRITICAL:
            assert p.size * abs(p.drift) >= problems.DRIFT_MARGIN, p.name
        if p.mask == "full":
            assert p.irreducible, p.name


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    # critical runs on demand only; see the run.py docstring for why
    assert listed == {k: v for k, v in problems.WHY.items() if k != "critical"}
    metrics, _ = tracing.layer_metrics(tracing.Tracer(), 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in metrics.items()}


# ---------------------------------------------------------------------------
# Answer check
# ---------------------------------------------------------------------------


class Scalar:
    """x c x - x d - a x + b = 0 with 1x1 blocks."""

    def __init__(self, a, b, c, d):
        self.n = self.m = 1
        self.A, self.B, self.C, self.D = (np.array([[v]], dtype=float) for v in (a, b, c, d))


def test_check_accepts_minimal_and_rejects_maximal_root():
    p = Scalar(2, 1, 1, 1)  # x^2 - 3x + 1 = 0
    lo, hi = (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2
    assert check.check_answer(p, [[lo]], [[lo]]) == (check.OK, "ok")
    assert check.check_answer(p, [[hi]], [[lo]])[0] == check.WRONG


def test_check_rejects_non_minimal_matrix_solution():
    # two decoupled copies of the scalar problem; one block takes the larger root
    A, B, C, D = 2 * np.eye(2), np.eye(2), np.eye(2), np.eye(2)
    p = type("P", (), {"n": 2, "m": 2, "A": A, "B": B, "C": C, "D": D})
    lo, hi = (3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2
    assert check.check_answer(p, lo * np.eye(2), lo * np.eye(2))[0] == check.OK
    assert check.check_answer(p, np.diag([lo, hi]), lo * np.eye(2))[0] == check.WRONG


def test_check_widens_to_sqrt_eps_only_in_the_critical_regime():
    p = Scalar(1, 1, 1, 1)  # (x - 1)^2 = 0
    x = [[1 + 5e-8]]  # residual 2.5e-15, closing matrix -5e-8
    assert check.check_answer(p, x, [[1.0]], critical=True)[0] == check.OK
    assert check.check_answer(p, x, [[1.0]], critical=False)[0] == check.INACCURATE


def test_check_rejects_perturbed_phi_of_a_real_solve(tmp_path):
    wl = run.Workload(run.import_marekit(), "solve-large", 2, tmp_path)
    p = wl.problems[1]
    phi, psi = wl.answer(wl.op(1))
    assert check.check_answer(p, phi, psi) == (check.OK, "ok")
    assert check.check_answer(p, phi * (1 + 1e-6), psi)[0] == check.INACCURATE
    assert check.check_answer(p, phi * 1.1, psi)[0] == check.WRONG
    assert check.check_answer(p, phi[:, :-1], psi)[0] == check.WRONG


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _small_workload(name, tmp_path, count):
    wl = run.Workload(run.import_marekit(), name, 4, tmp_path)
    wl.problems = wl.problems[:count]
    return wl


def _traced_passes(wl, passes):
    judge = run.Judge(wl)
    tracer = tracing.Tracer()
    per_pass = []
    for _ in range(passes):
        mark = len(tracer.spans)
        tracer.install(wl.mk)
        try:
            _, _, failed = run.run_pass(wl, judge, tracer)
        finally:
            tracer.uninstall()
        assert failed == 0
        per_pass.append(tracing.call_counts(tracer.spans[mark:]))
    return tracer, per_pass


@pytest.mark.parametrize("workload", ["sweep-small", "crosscheck"])
def test_span_self_time_and_children_fit_their_parent(workload, tmp_path):
    tracer, _ = _traced_passes(_small_workload(workload, tmp_path, 3), 1)
    spans = {sid: (parent, t0, t1) for sid, parent, _, t0, t1 in tracer.spans}
    children = {}
    for sid, (parent, t0, t1) in spans.items():
        if parent >= 0:
            _, p0, p1 = spans[parent]
            assert p0 <= t0 <= t1 <= p1
            children[parent] = children.get(parent, 0) + (t1 - t0)
    for sid, self_ns in tracer.self_times().items():
        _, t0, t1 = spans[sid]
        assert 0 <= self_ns <= t1 - t0
        assert children.get(sid, 0) <= t1 - t0
    assert sum(1 for parent, _, _ in spans.values() if parent < 0) == 3  # one root per operation


def test_counts_repeat_exactly_and_absent_layers_are_reported(tmp_path):
    wl = _small_workload("sweep-small", tmp_path, 4)
    tracer, per_pass = _traced_passes(wl, 2)
    assert per_pass[0] == per_pass[1]
    metrics, absent = tracing.layer_metrics(tracer, 2 * len(wl.problems), 0.0)
    assert "fixedpoint.fixed_point_solve.iterations" in absent
    assert "doubling.step.calls" not in absent
    assert metrics["doubling.step.calls"][0] > 0
    assert not hasattr(wl.mk.doubling.step, "__wrapped__")  # uninstalled


def test_a_name_missing_from_the_package_is_reported_not_fatal(tmp_path, monkeypatch):
    wl = _small_workload("solve-large", tmp_path, 1)
    monkeypatch.setattr(wl.mk, "__all__", [*wl.mk.__all__, "no_such_layer"])
    tracer, _ = _traced_passes(wl, 1)
    assert "no_such_layer" in tracer.absent


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_run_fails_without_marekit_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

#!/usr/bin/env python3
"""marekit benchmark: certified solves in a closed loop, timed from outside.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 15 --trace 0

Run from the root of a marekit checkout; marekit is imported from its
``src/`` directory and nothing under ``src/`` is changed.  One caller runs
in one process and sends each operation only after the previous one has
returned (a closed loop with one client); the BLAS is pinned to one thread.

Workloads (inputs from ``problems.py``: seeded, numpy only):

  sweep-small   ``cli.execute(["solve", path])`` on nonsingular and
                singular-noncritical problems of sizes 2-20, mixed masks
  solve-large   ``marekit.solve`` on irreducible problems, n+m 80-88, n, m <= 50
  critical      ``marekit.solve`` on zero-drift problems of sizes 2-24
  crosscheck    ``cli.execute(["solve", path, "--method", "fixed-point"])``

critical is not listed in BENCHMARK.json: a benchmark workload must not
fail operations, and at this marekit commit 1-3% of its problems do.  Those
are solves that reach the 60-step cap and keep stepping in rounding noise
after they stagnate; the closing eigenvalue, about 1e-9 (relative) at steps
26-50, drifts to -1e-7 .. -2e-6 by step 60, below the sqrt(eps) accuracy
the check asks.  It still runs on demand and reports those failures.

A run measures whole passes over the workload's problems until --seconds
have passed and at least 100 operations were timed.
Each answer is judged by ``check.py``.  An operation fails when it raises
anything other than MaxIterations with a report attached, returns no
answer, or returns an answer the check finds inaccurate or wrong.  A wrong
answer also makes the run incorrect.

Times are reported at reference machine speed.  On a shared virtual
machine (measured on a 2-vCPU x86-64 VM with other tenants) the speed of
every process swings by up to 2x for tens of seconds at a time, and raw
medians of identical runs differed by 30-40%.  So a fixed speed probe
(``speed_probe``, 1000 products of 8x8 matrices) runs before and after
every operation, and each time is scaled by REFERENCE_PROBE_MS / (mean of
the two probe times).  The unscaled wall-clock figures are printed in the
``# timing`` record.

--trace 0 reports the end-to-end metrics:
  ops_per_s    problems per second of busy time: number of problems over
               the sum of their median latencies
  op_ms_mean   mean latency of one operation, over all timed operations
  op_ms_p90    90th-percentile latency, over all timed operations
  ok_frac      share of attempted operations that did not fail (1 - fail_frac)
  setup_s      process start to the first timed operation (marekit import,
               input generation, one warm-up operation): median over five
               fresh processes spread over the run
  peak_rss_mb  peak resident memory of this process
The median latency is printed in the ``# timing`` record but is not one
of these metrics: on critical about half the problems run to the 60-step cap,
a coin flip per problem, so the median falls in one or the other of two
modes depending on the seed, while the mean moves in proportion.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.py``, means per operation.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when no answer
was wrong, 1 when one was, 2 when the run could not start
(for example, no marekit sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

# pinned before numpy loads its BLAS; setup probes inherit it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import problems  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # the 90th percentile needs ten samples beyond it
CEILING_FACTOR = 3  # a run stops after this many --seconds whatever the floors
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
REFERENCE_PROBE_MS = 2.0  # speed_probe time that defines reference speed
CLI_WORKLOADS = {"sweep-small": [], "crosscheck": ["--method", "fixed-point"]}


class StartError(Exception):
    """The benchmark cannot run in this directory."""


def import_marekit():
    if not (SRC / "marekit" / "__init__.py").is_file():
        raise StartError(f"no marekit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import marekit
    import marekit.cli

    if Path(marekit.__file__).resolve().parent != SRC / "marekit":
        raise StartError(f"imported marekit from {marekit.__file__}, not from {SRC}")
    return marekit


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class Workload:
    """The problems of one workload and the operation run on each."""

    def __init__(self, marekit, name: str, seed: int, workdir: Path):
        self.mk = marekit
        self.problems = problems.generate(name, seed)
        self.cli_args = CLI_WORKLOADS.get(name)
        self.paths = []
        if self.cli_args is not None:
            for i, p in enumerate(self.problems):
                path = workdir / f"problem-{i}.json"
                path.write_text(p.to_json(), encoding="utf-8")
                self.paths.append(str(path))

    def op(self, i: int):
        """One user-visible operation on problem i; returns its raw outcome."""
        mk = self.mk
        if self.cli_args is not None:
            return mk.cli.execute(["solve", self.paths[i], *self.cli_args])
        p = self.problems[i]
        try:
            return mk.solve(mk.MareProblem(p.n, p.m, p.A, p.B, p.C, p.D))
        except mk.MaxIterations as exc:
            if exc.report is None:
                raise
            return exc.report

    def answer(self, raw):
        """(phi, psi) from a raw outcome, or None when it carries none."""
        if self.cli_args is None:
            return raw.phi, raw.psi
        report = json.loads(raw.report_json)
        if "phi" not in report or "psi" not in report:
            return None
        return report["phi"]["entries"], report["psi"]["entries"]


class Judge:
    """Runs the answer check once per distinct (problem, answer) pair."""

    def __init__(self, workload: Workload):
        self.wl = workload
        self.verdicts: dict = {}
        self.failures: Counter = Counter()
        self.wrong = 0

    def record(self, i: int, raw, exc) -> bool:
        """True when the operation succeeded; tallies the reason otherwise."""
        if exc is not None:
            self.failures[f"raised {type(exc).__name__}"] += 1
            return False
        ans = self.wl.answer(raw)
        if ans is None:
            self.failures["no answer"] += 1
            return False
        try:
            phi, psi = (np.asarray(a, dtype=np.float64) for a in ans)
        except (TypeError, ValueError):
            self.wrong += 1
            self.failures[f"wrong: {self.wl.problems[i].name}: answer is not a numeric matrix"] += 1
            return False
        key = (i, phi.tobytes(), psi.tobytes())
        if key not in self.verdicts:
            p = self.wl.problems[i]
            self.verdicts[key] = check.check_answer(p, phi, psi, critical=p.regime == problems.CRITICAL)
        verdict, why = self.verdicts[key]
        if verdict != check.OK:
            self.wrong += verdict == check.WRONG
            self.failures[f"{verdict}: {self.wl.problems[i].name}: {why}"] += 1
        return verdict == check.OK


def call(wl: Workload, i: int, tracer=None):
    """(latency ns, raw outcome, exception) of one operation."""
    t0 = time.perf_counter_ns()
    try:
        raw = wl.op(i) if tracer is None else tracer.span(tracing.OP, wl.op, i)
        exc = None
    except Exception as e:  # any failure of the code under test is a failed operation
        raw, exc = None, e
    return time.perf_counter_ns() - t0, raw, exc


_PROBE_M = np.random.default_rng(0).random((8, 8)) / 8


def speed_probe() -> int:
    """ns taken now by a fixed kernel: 1000 products of 8x8 matrices.

    Like marekit's hot loops it is bound by interpreter and numpy call
    overhead, so it slows down with them when the machine is contended.
    """
    x = _PROBE_M
    t0 = time.perf_counter_ns()
    for _ in range(1000):
        x = _PROBE_M @ x + _PROBE_M
    return time.perf_counter_ns() - t0


def at_reference(values, probe_ns):
    """Times (any unit) scaled to reference machine speed."""
    return np.asarray(values, dtype=np.float64) * (REFERENCE_PROBE_MS * 1e6 / np.asarray(probe_ns, dtype=np.float64))


def run_pass(wl: Workload, judge: Judge, tracer=None):
    """One pass over every problem.

    Returns (latencies ns, mean probe ns around each operation, ops failed).
    """
    lat, probes, failed = [], [speed_probe()], 0
    for i in range(len(wl.problems)):
        ns, raw, exc = call(wl, i, tracer)
        probes.append(speed_probe())
        lat.append(ns)
        failed += not judge.record(i, raw, exc)
    return lat, [(a + b) / 2 for a, b in zip(probes, probes[1:])], failed


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Import, input generation and one untimed warm-up operation."""
    wl = Workload(import_marekit(), name, seed, workdir)
    call(wl, 0)
    return wl


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> dict:
    """Fixed numpy kernels, ms: the speed probe and 20 products of 256x256
    matrices (BLAS throughput), median of five repeats each."""
    big = np.random.default_rng(1).random((256, 256)) / 256

    def matmul():
        x = big
        t0 = time.perf_counter_ns()
        for _ in range(20):
            x = big @ x
        return time.perf_counter_ns() - t0

    return {
        "speed_probe_ms": statistics.median(speed_probe() for _ in range(5)) / 1e6,
        "matmul_ms": statistics.median(matmul() for _ in range(5)) / 1e6,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration": calibrate(),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class SetupProbe:
    """Times fresh processes from spawn to their 'ready' line.

    Each probe process imports marekit, generates the inputs and runs the
    warm-up operation, exactly as this process did, then exits.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        self.seconds: list[float] = []
        self.probes: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)  # a hung probe must not hang the run
        watchdog.start()
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, *probes = line.split() or [""]
        if word != "ready" or len(probes) != 2 or proc.returncode != 0:
            raise StartError(f"setup probe failed (exit {proc.returncode})")
        self.seconds.append(t1 - t0)
        # the probe process may run on another CPU than this one, so it
        # measures its own speed, before and after its setup
        self.probes.append(sum(map(float, probes)) / 2)


def timed_run(wl: Workload, judge: Judge, seconds: float, setup: SetupProbe):
    """Whole passes until the time and sample floors are met.

    The setup probes are spread over the run, between passes, so that they
    sample the machine at different moments rather than in one burst.
    Returns (latency ns, probe ns) arrays of shape (passes, problems),
    the failed count and the seconds measured.
    """
    lat, probes, failed = [], [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while len(setup.seconds) < SETUP_PROBES and elapsed >= len(setup.seconds) * seconds / SETUP_PROBES:
            setup()
            elapsed = time.perf_counter() - start
        pl, pp, pf = run_pass(wl, judge)
        lat.append(pl)
        probes.append(pp)
        failed += pf
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(lat) * len(pl) >= MIN_OPS
        if done or elapsed >= CEILING_FACTOR * seconds:
            break
    while len(setup.seconds) < SETUP_PROBES:
        setup()
    return np.asarray(lat, dtype=np.float64), np.asarray(probes), failed, elapsed


def traced_run(wl: Workload, judge: Judge, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    Runs pairs of passes until --seconds have passed, at least one pair.
    """
    tracer = tracing.Tracer()
    plain, traced, traced_probes, per_pass = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        pl, pp, pf = run_pass(wl, judge)
        plain.append(at_reference(pl, pp))
        mark, before = len(tracer.spans), Counter(tracer.values)
        tracer.install(wl.mk)
        try:
            tl, tp, tf = run_pass(wl, judge, tracer)
        finally:
            tracer.uninstall()
        traced.append(at_reference(tl, tp))
        traced_probes += tp
        per_pass.append((tracing.call_counts(tracer.spans[mark:]), Counter(tracer.values) - before))
        failed += pf + tf
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    overhead = np.median(traced, axis=0).sum() / np.median(plain, axis=0).sum() - 1.0
    scale = float(at_reference(1.0, statistics.median(traced_probes)))
    metrics, absent = tracing.layer_metrics(tracer, len(traced) * len(wl.problems), overhead, scale)
    attempted = (len(plain) + len(traced)) * len(wl.problems)
    return tracer, metrics, absent, per_pass, attempted, failed, elapsed


def emit(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="marekit benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(problems.SCHEDULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # marekit warns on every best-effort critical solve

    workdir = None
    try:
        if not args.setup_probe:
            import_marekit()  # fail before measuring anything when there is nothing to measure
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        if args.setup_probe:
            before = speed_probe()
            prepare(args.workload, args.seed, workdir)
            emit(f"ready {before} {speed_probe()}")
            return 0
        env = environment()
        wl = prepare(args.workload, args.seed, workdir)
        judge = Judge(wl)
        inputs = {"workload": args.workload, "seed": args.seed, "why": problems.WHY[args.workload]}
        inputs.update(problems.summary(wl.problems))
        emit("# inputs " + json.dumps(inputs))

        if args.trace:
            tracer, layer, absent, per_pass, attempted, failed, elapsed = traced_run(wl, judge, args.seconds)
            tracer.write_spans(OUT / f"spans-{args.workload}.csv")
            record = {
                "traced_passes": len(per_pass),
                # None when a single traced pass leaves nothing to compare
                "counts_repeat_across_passes": all(p == per_pass[0] for p in per_pass) if len(per_pass) > 1 else None,
                "absent": absent,
                "not_in_package": tracer.absent,
            }
            emit("# trace " + json.dumps(record))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            setup = SetupProbe(args)
            lat, probes, failed, elapsed = timed_run(wl, judge, args.seconds, setup)
            attempted = lat.size
            ref_ms = at_reference(lat, probes) / 1e6
            per_problem = np.median(ref_ms, axis=0)
            metrics = {
                "ops_per_s": {"value": len(per_problem) / (per_problem.sum() / 1e3), "unit": "1/s"},
                "op_ms_mean": {"value": float(ref_ms.mean()), "unit": "ms"},
                "op_ms_p90": {"value": float(np.percentile(ref_ms, 90)), "unit": "ms"},
                "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
                "setup_s": {"value": float(np.median(at_reference(setup.seconds, setup.probes))), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            wall_ms = lat / 1e6
            record = {
                "passes": len(lat),
                "ops": attempted,
                "wall_ops_per_s": len(per_problem) / (np.median(wall_ms, axis=0).sum() / 1e3),
                "op_ms_p50": float(np.percentile(ref_ms, 50)),
                "wall_op_ms_p50": float(np.percentile(wall_ms, 50)),
                "wall_op_ms_p90": float(np.percentile(wall_ms, 90)),
                "wall_setup_s": setup.seconds,
                "speed_probe_ms_median": float(np.median(probes) / 1e6),
                "speed_probe_ms_min": float(probes.min() / 1e6),
            }
            emit("# timing " + json.dumps(record))

        env["calibration_after"] = calibrate()
        env["measured_s"] = round(elapsed, 3)
        emit("# env " + json.dumps(env))
        emit("# failures " + json.dumps(dict(judge.failures)))
        for k, m in metrics.items():
            emit(f"# {k:<42} {m['value']:>14.6g} {m['unit']}")
        correct = judge.wrong == 0
        emit(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    except StartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands over problem JSON files:

    classify <problem.json>
    solve <problem.json> [--method adda|sda|fixed-point] [--alpha X --beta Y]
                         [--tol T] [--max-iter N] [--trace out.csv]
    verify <problem.json> --phi <phi.json> --psi <psi.json> [--tol T]
    oracle <problem.json> [--tol T] [--max-iter N]
    generate --regime nonsingular|singular-noncritical|critical
             --n N --m M --seed S [--density F] -o <out.json>
    rate-study <problem.json> [--grid G]

--alpha, --beta and --trace apply to the doubling methods only; with
--method fixed-point each is a usage error.

Reports are JSON on stdout with a fixed field set; every float is printed
with 17 significant digits so identical runs produce identical bytes.
Exit codes: 0 all requested checks passed, 1 check failures, 2 input or
usage errors, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import doubling, probgen
from .errors import (
    AmbiguousKernel,
    GenerationFailed,
    InvalidParameters,
    IterationBreakdown,
    MaxIterations,
    NoConvergence,
    NonpositiveDiagonal,
    NotZMatrix,
    ShapeMismatch,
    SingularMatrix,
)
from .fixedpoint import _fixed_point, fixed_point_solve
from .problem import (
    Regime,
    classify_problem,
    make_certificate,
    matrix_from_json,
    matrix_to_jsonable,
    problem_from_json,
    problem_to_json,
)


class _UsageError(Exception):
    pass


_USAGE_ERRORS = (
    _UsageError,
    NotZMatrix,
    ShapeMismatch,
    InvalidParameters,
    NonpositiveDiagonal,
    ValueError,
    OSError,
    json.JSONDecodeError,
)
_BREAKDOWN_ERRORS = (
    SingularMatrix,
    IterationBreakdown,
    NoConvergence,
    AmbiguousKernel,
    GenerationFailed,
)


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report_json: str
    trace_csv_path: str | None = None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse on Python 3.10/3.11 reads only -1 and -.5 as negative
        # numbers, so "--tol -1e-12" would be an option, not a (bad) value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Deterministic report serialization (17 significant digits)
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order.

    NaN and infinities are written as null.  A list of plain floats, such
    as a matrix row, is formatted entry by entry without recursing.
    """
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            texts = map(_fmt_float, obj)
        else:
            texts = [dumps_report(v, indent + 1) for v in obj]
        return "[\n" + pad_in + (",\n" + pad_in).join(texts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad_in + encode_basestring_ascii(str(k)) + ": " + dumps_report(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _base_report(pc) -> dict:
    """The report fields every command prints, with those of the problem class ``pc`` filled."""
    return {
        "regime": pc.regime.value,
        "drift": pc.drift,
        "r": pc.r,
        "alpha": None,
        "beta": None,
        "iterations": None,
        "residual_primal": None,
        "residual_dual": None,
        "rho_phi_psi": None,
        "theoretical_rate": None,
        "observed_rate": None,
        "checks": [],
    }


def _check_entry(c) -> dict:
    return {
        "name": c.name,
        "passed": c.passed,
        "value": c.value,
        "threshold": c.threshold,
        "detail": c.detail,
    }


def _fill_certificate(report: dict, cert) -> None:
    report["residual_primal"] = cert.residual_primal
    report["residual_dual"] = cert.residual_dual
    report["rho_phi_psi"] = cert.rho_phi_psi
    report["checks"] = [_check_entry(c) for c in cert.checks]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _load_problem(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_json(fh.read())


def _cmd_classify(ns) -> CommandOutcome:
    p = _load_problem(ns.problem)
    return CommandOutcome(0, dumps_report(_base_report(classify_problem(p))))


def _given(**values) -> dict:
    """The keyword arguments the user set; the library holds every default."""
    return {name: value for name, value in values.items() if value is not None}


def _check_limits(ns) -> None:
    """Reject a negative or NaN --tol and a --max-iter below 1 (usage error, exit 2).

    ``verify`` has a --tol (the certificate's) but no --max-iter.
    """
    if ns.tol is not None and not ns.tol >= 0:
        raise _UsageError(f"--tol must be nonnegative, got {ns.tol}")
    if getattr(ns, "max_iter", None) is not None and ns.max_iter < 1:
        raise _UsageError(f"--max-iter must be at least 1, got {ns.max_iter}")


def _cmd_solve(ns) -> CommandOutcome:
    _check_limits(ns)
    if ns.method == "fixed-point":
        # the oracle has no doubling parameters and writes no per-step trace
        for option in ("alpha", "beta", "trace"):
            if getattr(ns, option) is not None:
                raise _UsageError(f"--{option} does not apply to --method fixed-point")
    p = _load_problem(ns.problem)
    if ns.method == "fixed-point":
        primal, dual = _fixed_point(p, **_given(tol=ns.tol, max_iter=ns.max_iter), dual=True)
        pc = classify_problem(p)
        cert = make_certificate(p, primal.phi, dual.phi, problem_class=pc)
        report = _base_report(pc)
        _fill_certificate(report, cert)
        report["iterations"] = primal.iterations
        report["phi"] = matrix_to_jsonable(primal.phi)
        report["psi"] = matrix_to_jsonable(dual.phi)
        if not (primal.converged and dual.converged):
            return CommandOutcome(3, dumps_report(report))
        return CommandOutcome(0 if cert.all_passed else 1, dumps_report(report))

    requested = None
    if (ns.alpha is None) != (ns.beta is None):
        raise _UsageError("--alpha and --beta must be given together")
    if ns.alpha is not None:
        requested = (ns.alpha, ns.beta)
    params = replace(
        doubling.select_parameters(p, requested, mode=ns.method),
        **_given(max_iter=ns.max_iter, stop_tol=ns.tol),
    )
    try:
        result, error = doubling.solve(p, params), None
    except MaxIterations as exc:  # the best report so far is attached
        result, error = exc.report, str(exc)
    report = _solve_report(result)
    trace_path = _write_trace(ns.trace, result.trace) if ns.trace else None
    if error is not None:
        report["error"] = error
        return CommandOutcome(3, dumps_report(report), trace_path)
    ok = result.certificate.all_passed and result.converged
    return CommandOutcome(0 if ok else 1, dumps_report(report), trace_path)


def _solve_report(result) -> dict:
    """The report of a doubling ``SolveReport``."""
    report = _base_report(result.problem_class)
    _fill_certificate(report, result.certificate)
    report["alpha"] = result.params.alpha
    report["beta"] = result.params.beta
    report["iterations"] = result.iterations
    report["theoretical_rate"] = result.theoretical_rate
    report["observed_rate"] = result.observed_rate
    report["phi"] = matrix_to_jsonable(result.phi)
    report["psi"] = matrix_to_jsonable(result.psi)
    if result.flags:
        report["flags"] = list(result.flags)
    return report


def _write_trace(path: str, trace) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doubling.trace_to_csv(trace))
    return path


def _cmd_verify(ns) -> CommandOutcome:
    _check_limits(ns)
    p = _load_problem(ns.problem)
    with open(ns.phi, "r", encoding="utf-8") as fh:
        phi = matrix_from_json(fh.read())
    with open(ns.psi, "r", encoding="utf-8") as fh:
        psi = matrix_from_json(fh.read())
    pc = classify_problem(p)
    cert = make_certificate(p, phi, psi, problem_class=pc, **_given(tol=ns.tol))
    report = _base_report(pc)
    _fill_certificate(report, cert)
    return CommandOutcome(0 if cert.all_passed else 1, dumps_report(report))


def _cmd_oracle(ns) -> CommandOutcome:
    _check_limits(ns)
    p = _load_problem(ns.problem)
    result = fixed_point_solve(p, **_given(tol=ns.tol, max_iter=ns.max_iter))
    report = _base_report(classify_problem(p))
    report["iterations"] = result.iterations
    report["residual_primal"] = result.final_residual
    report["phi"] = matrix_to_jsonable(result.phi)
    report["converged"] = result.converged
    return CommandOutcome(0 if result.converged else 3, dumps_report(report))


_REGIME_NAMES = {
    "nonsingular": Regime.NONSINGULAR_K,
    "singular-noncritical": Regime.SINGULAR_NONCRITICAL,
    "critical": Regime.CRITICAL,
}


def _cmd_generate(ns) -> CommandOutcome:
    spec = probgen.FamilySpec(
        regime_target=_REGIME_NAMES[ns.regime],
        n=ns.n,
        m=ns.m,
        seed=ns.seed,
        **_given(density=ns.density),
    )
    problem = probgen.generate(spec)
    with open(ns.output, "w", encoding="utf-8") as fh:
        fh.write(problem_to_json(problem))
        fh.write("\n")
    report = _base_report(classify_problem(problem))
    report["path"] = ns.output
    return CommandOutcome(0, dumps_report(report))


def _cmd_rate_study(ns) -> CommandOutcome:
    if ns.grid < 2:
        # one level compares the default parameters with themselves
        raise _UsageError(f"--grid must be at least 2, got {ns.grid}")
    p = _load_problem(ns.problem)
    params = doubling.select_parameters(p)
    result = doubling.solve(p, params)
    report = _solve_report(result)
    base_rate = result.theoretical_rate
    grid = []
    ok = True
    levels = [1.0 + 0.5 * i for i in range(ns.grid)]
    for fa in levels:
        for fb in levels:
            alt = doubling.DoublingParams(params.alpha * fa, params.beta * fb)
            rate = doubling.theoretical_rate(p, result.certificate, alt)
            grid.append({"alpha": alt.alpha, "beta": alt.beta, "theoretical_rate": rate})
            if base_rate > rate + 1e-12:
                ok = False
    report["grid"] = grid
    report["checks"] = report["checks"] + [
        {
            "name": "optimal-parameters-minimize-rate",
            "passed": ok,
            "value": base_rate,
            "threshold": 1e-12,
            "detail": f"{len(grid)} grid points",
        }
    ]
    return CommandOutcome(0 if ok and result.certificate.all_passed else 1, dumps_report(report))


# ---------------------------------------------------------------------------
# Argument grammar and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument grammar, built once per process: parsing keeps no state between calls."""
    parser = _Parser(prog="marekit", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="report the problem regime")
    c.add_argument("problem")
    c.set_defaults(handler=_cmd_classify)

    s = sub.add_parser("solve", help="compute the minimal nonnegative solutions")
    s.add_argument("problem")
    s.add_argument("--method", choices=["adda", "sda", "fixed-point"], default="adda")
    s.add_argument("--alpha", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iter", type=int, dest="max_iter")
    s.add_argument("--trace")
    s.set_defaults(handler=_cmd_solve)

    v = sub.add_parser("verify", help="certify a candidate solution pair")
    v.add_argument("problem")
    v.add_argument("--phi", required=True)
    v.add_argument("--psi", required=True)
    v.add_argument("--tol", type=float)
    v.set_defaults(handler=_cmd_verify)

    o = sub.add_parser("oracle", help="independent monotone fixed-point solve")
    o.add_argument("problem")
    o.add_argument("--tol", type=float)
    o.add_argument("--max-iter", type=int, dest="max_iter")
    o.set_defaults(handler=_cmd_oracle)

    g = sub.add_parser("generate", help="emit a seeded problem in a target regime")
    g.add_argument("--regime", choices=sorted(_REGIME_NAMES), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--density", type=float)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(handler=_cmd_generate)

    r = sub.add_parser("rate-study", help="compare convergence factors on a parameter grid")
    r.add_argument("problem")
    r.add_argument("--grid", type=int, default=3)
    r.set_defaults(handler=_cmd_rate_study)

    return parser


def execute(argv) -> CommandOutcome:
    """Run one CLI invocation; never raises for expected failure modes."""
    try:
        ns = _build_parser().parse_args(argv)
        return ns.handler(ns)
    except _USAGE_ERRORS as exc:
        return CommandOutcome(2, dumps_report({"error": str(exc)}))
    except MaxIterations as exc:
        return CommandOutcome(3, dumps_report({"error": str(exc)}))
    except _BREAKDOWN_ERRORS as exc:
        return CommandOutcome(3, dumps_report({"error": str(exc), "step": type(exc).__name__}))


def main(argv=None) -> int:
    outcome = execute(sys.argv[1:] if argv is None else argv)
    print(outcome.report_json)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())

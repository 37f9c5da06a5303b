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
--method fixed-point each is a usage error.  --tol must be finite and
nonnegative, and --max-iter at least 1.

Reports are JSON on stdout: twelve base keys in a fixed order, then the
command's own.  Every float is printed with 17 significant digits so
identical runs produce identical bytes.
Exit codes: 0 all requested checks passed, 1 check failures, 2 input or
usage errors, 3 numerical breakdown or iteration cap.  The class of the
error decides: an input error (ShapeMismatch, NotZMatrix,
InvalidParameters, NonpositiveDiagonal, or a bad option), a ValueError
or an OSError exits 2; a breakdown (SingularMatrix, IterationBreakdown,
NoConvergence, AmbiguousKernel, GenerationFailed) exits 3 and names its
class as "step"; MaxIterations exits 3.  Every exit-3 report carries
"error".  -h prints this help and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from . import doubling, probgen
from .errors import Breakdown, InputError, MaxIterations
from .fixedpoint import _fixed_point, fixed_point_solve
from .problem import (
    CERT_TOL,
    Regime,
    _certificate,
    _check_max_iter,
    _check_tol,
    classify_problem,
    make_certificate,
    matrix_from_json,
    matrix_to_jsonable,
    problem_from_json,
    problem_to_json,
)


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report_json: str


class _Help(Exception):
    """A -h: its one argument is the help text, which ``execute`` returns with exit 0."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse (the same pattern from Python 3.10 through 3.13) reads only -1
        # and -.5 as negative numbers, so "--tol -1e-12" would be an option,
        # not a (bad) value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise InputError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help().rstrip("\n"))


# ---------------------------------------------------------------------------
# Deterministic report serialization (17 significant digits)
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


@functools.lru_cache(maxsize=256)
def _float_row_format(length: int, indent: int) -> str:
    """The %-format of a list of ``length`` finite floats at ``indent``: "%.17g" is ``format(x, ".17g")``."""
    pad_in = "  " * (indent + 1)
    return "[\n" + pad_in + (",\n" + pad_in).join(["%.17g"] * length) + "\n" + "  " * indent + "]"


def dumps_report(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order.

    A report holds dicts, lists, str, float, int, bool and None, and only
    those: each is matched by its exact type, and any other value, a
    numpy scalar or array or a tuple included, raises TypeError.  NaN and
    infinities are written as null.  A list of floats whose sum is finite,
    such as a matrix row, is formatted in one %-format; any other list,
    one with a NaN or an infinity included, entry by entry.
    """
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if kind is list:
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj) and math.isfinite(sum(obj)):
            return _float_row_format(len(obj), indent) % tuple(obj)
        texts = [dumps_report(v, indent + 1) for v in obj]
        return "[\n" + pad_in + (",\n" + pad_in).join(texts) + "\n" + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad_in + encode_basestring_ascii(str(k)) + ": " + dumps_report(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _report(pc, cert=None, **fields) -> dict:
    """The report of the problem class ``pc``: the twelve base keys in their order, then ``fields``.

    A certificate ``cert`` fills the residuals, rho(Phi Psi) and the
    checks, each entry a copy of the ``CheckResult``'s own fields in their
    declaration order.  A field the base holds keeps its place; any other
    is appended in the order given.
    """
    report = {
        "regime": pc.regime.value,
        "drift": pc.drift,
        "r": pc.r,
        "alpha": None,
        "beta": None,
        "iterations": None,
        "residual_primal": None if cert is None else cert.residual_primal,
        "residual_dual": None if cert is None else cert.residual_dual,
        "rho_phi_psi": None if cert is None else cert.rho_phi_psi,
        "theoretical_rate": None,
        "observed_rate": None,
        "checks": [] if cert is None else [c.__dict__.copy() for c in cert.checks],
    }
    report.update(fields)
    return report


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _load(path: str, parse=problem_from_json):
    """The problem, or with ``parse=matrix_from_json`` the matrix, that the JSON file ``path`` holds."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _outcome(report: dict, passed: bool = True, error: str | None = None) -> CommandOutcome:
    """The outcome of ``report``: exit 3 with the ``error`` appended where one is given, else 0, or 1 where not ``passed``."""
    if error is not None:
        report["error"] = error
    return CommandOutcome(3 if error is not None else 0 if passed else 1, dumps_report(report))


def _cap_error(**sides) -> str | None:
    """The error of a fixed-point run whose named sides, each an ``OracleReport``, did not all meet tol; else None.

    A side that did not meet tol ran to max_iter, the largest count.
    """
    capped = [side for side, result in sides.items() if not result.converged]
    steps = max(result.iterations for result in sides.values())
    return f"fixed-point oracle did not meet tol within {steps} iterations on the {' and the '.join(capped)}" if capped else None


def _cmd_classify(ns) -> CommandOutcome:
    return _outcome(_report(classify_problem(_load(ns.problem))))


def _given(**values) -> dict:
    """The keyword arguments the user set; the library holds every default."""
    return {name: value for name, value in values.items() if value is not None}


def _check_limits(ns) -> None:
    """Reject a --tol that is negative, NaN or infinite and a --max-iter below 1 by the library's rules (exit 2).

    ``verify`` has a --tol (the certificate's) but no --max-iter.
    """
    if ns.tol is not None:
        _check_tol(ns.tol, "--tol")
    if getattr(ns, "max_iter", None) is not None:
        _check_max_iter(ns.max_iter, "--max-iter")


def _cmd_solve(ns) -> CommandOutcome:
    _check_limits(ns)
    if ns.method == "fixed-point":
        # the oracle has no doubling parameters and writes no per-step trace
        for option in ("alpha", "beta", "trace"):
            if getattr(ns, option) is not None:
                raise InputError(f"--{option} does not apply to --method fixed-point")
    p = _load(ns.problem)
    if ns.method == "fixed-point":
        primal, dual = _fixed_point(p, **_given(tol=ns.tol, max_iter=ns.max_iter), dual=True)
        pc = classify_problem(p)
        # the oracle's iterates are finite and >= 0 exactly: no boundary check or clamp to repeat
        cert = _certificate(p, primal.phi, dual.phi, CERT_TOL, pc)
        report = _report(
            pc, cert, iterations=primal.iterations, phi=matrix_to_jsonable(primal.phi), psi=matrix_to_jsonable(dual.phi)
        )
        return _outcome(report, cert.all_passed, _cap_error(primal=primal, dual=dual))

    requested = None
    if (ns.alpha is None) != (ns.beta is None):
        raise InputError("--alpha and --beta must be given together")
    if ns.alpha is not None:
        requested = (ns.alpha, ns.beta)
    params = replace(
        doubling.select_parameters(p, requested, mode=ns.method),
        **_given(max_iter=ns.max_iter, stop_tol=ns.tol),
    )
    result, error = _best_effort(p, params)
    if ns.trace:
        with open(ns.trace, "w", encoding="utf-8") as fh:
            fh.write(doubling.trace_to_csv(result.trace))
    return _outcome(_solve_report(result), result.certificate.all_passed, error)


def _best_effort(p, params):
    """The doubling's report and None or, when it hits the iteration cap, the best report so far and the error."""
    try:
        return doubling.solve(p, params), None
    except MaxIterations as exc:
        return exc.report, str(exc)


def _solve_report(result, **fields) -> dict:
    """The report of a doubling ``SolveReport``: its parameters, pair, rates and flags, then ``fields``."""
    if result.flags:
        fields = {"flags": list(result.flags), **fields}
    return _report(
        result.problem_class,
        result.certificate,
        alpha=result.params.alpha,
        beta=result.params.beta,
        iterations=result.iterations,
        theoretical_rate=result.theoretical_rate,
        observed_rate=result.observed_rate,
        phi=matrix_to_jsonable(result.phi),
        psi=matrix_to_jsonable(result.psi),
        **fields,
    )


def _cmd_verify(ns) -> CommandOutcome:
    _check_limits(ns)
    p = _load(ns.problem)
    phi, psi = _load(ns.phi, matrix_from_json), _load(ns.psi, matrix_from_json)
    pc = classify_problem(p)
    cert = make_certificate(p, phi, psi, problem_class=pc, **_given(tol=ns.tol))
    return _outcome(_report(pc, cert), cert.all_passed)


def _cmd_oracle(ns) -> CommandOutcome:
    _check_limits(ns)
    p = _load(ns.problem)
    result = fixed_point_solve(p, **_given(tol=ns.tol, max_iter=ns.max_iter))
    report = _report(
        classify_problem(p),
        iterations=result.iterations,
        residual_primal=result.final_residual,
        phi=matrix_to_jsonable(result.phi),
        converged=result.converged,
    )
    return _outcome(report, error=_cap_error(primal=result))


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
    return _outcome(_report(classify_problem(problem), path=ns.output))


def _cmd_rate_study(ns) -> CommandOutcome:
    if ns.grid < 2:
        # one level compares the default parameters with themselves
        raise InputError(f"--grid must be at least 2, got {ns.grid}")
    p = _load(ns.problem)
    params = doubling.select_parameters(p)
    result, error = _best_effort(p, params)
    levels = [1.0 + 0.5 * i for i in range(ns.grid)]
    grid = []
    for fa in levels:
        for fb in levels:
            alt = doubling.DoublingParams(params.alpha * fa, params.beta * fb)
            try:
                rate = doubling.theoretical_rate(p, result.certificate, alt)
            except Breakdown:  # R + alpha I or S + beta I is no nonsingular M-matrix, as solve flags it
                rate = None
            grid.append({"alpha": alt.alpha, "beta": alt.beta, "theoretical_rate": rate})
    return _outcome(_solve_report(result, grid=grid), result.certificate.all_passed, error)


# ---------------------------------------------------------------------------
# Argument grammar and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument grammar, built once per process: parsing keeps no state between calls."""
    parser = _Parser(prog="marekit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # each option shared by several subcommands is declared once, in a parent parser
    problem, tol, max_iter = (_Parser(add_help=False) for _ in range(3))
    problem.add_argument("problem")
    tol.add_argument("--tol", type=float)
    max_iter.add_argument("--max-iter", type=int)

    c = sub.add_parser("classify", parents=[problem], help="report the problem regime")
    c.set_defaults(handler=_cmd_classify)

    s = sub.add_parser("solve", parents=[problem, tol, max_iter], help="compute the minimal nonnegative solutions")
    s.add_argument("--method", choices=["adda", "sda", "fixed-point"], default="adda")
    s.add_argument("--alpha", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--trace")
    s.set_defaults(handler=_cmd_solve)

    v = sub.add_parser("verify", parents=[problem, tol], help="certify a candidate solution pair")
    v.add_argument("--phi", required=True)
    v.add_argument("--psi", required=True)
    v.set_defaults(handler=_cmd_verify)

    o = sub.add_parser("oracle", parents=[problem, tol, max_iter], help="independent monotone fixed-point solve")
    o.set_defaults(handler=_cmd_oracle)

    g = sub.add_parser("generate", help="emit a seeded problem in a target regime")
    g.add_argument("--regime", choices=sorted(_REGIME_NAMES), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--density", type=float)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(handler=_cmd_generate)

    r = sub.add_parser("rate-study", parents=[problem], help="compare convergence factors on a parameter grid")
    r.add_argument("--grid", type=int, default=3)
    r.set_defaults(handler=_cmd_rate_study)

    return parser


def execute(argv) -> CommandOutcome:
    """Run one CLI invocation; never raises for expected failure modes.

    A -h returns the help text (not JSON) with exit 0; every other outcome
    is a JSON report with the exit code of the module docstring.
    """
    try:
        ns = _build_parser().parse_args(argv)
        return ns.handler(ns)
    except _Help as exc:
        return CommandOutcome(0, exc.args[0])
    except (InputError, ValueError, OSError) as exc:
        return CommandOutcome(2, dumps_report({"error": str(exc)}))
    except MaxIterations as exc:
        return CommandOutcome(3, dumps_report({"error": str(exc)}))
    except Breakdown as exc:
        return CommandOutcome(3, dumps_report({"error": str(exc), "step": type(exc).__name__}))


def main(argv=None) -> int:
    outcome = execute(sys.argv[1:] if argv is None else argv)
    print(outcome.report_json)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())

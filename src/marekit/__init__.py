"""marekit: doubling solvers and structure verification for M-matrix
algebraic Riccati equations.

The equation solved is ``X C X - X D - A X + B = 0`` (with its dual
``Y B Y - Y A - D Y + C = 0``), for coefficient data whose block matrix
``[[D, -C], [-B, A]]`` is an M-matrix.  The package classifies the problem
(nonsingular / singular-noncritical / critical / degenerate), computes the
minimal nonnegative solutions by a two-parameter doubling iteration with a
slow independent fixed-point cross-check, and certifies the structural
invariants the theory promises.
"""

from .errors import (
    AmbiguousKernel,
    GenerationFailed,
    InvalidParameters,
    IterationBreakdown,
    MareError,
    MaxIterations,
    NoConvergence,
    NonpositiveDiagonal,
    NotZMatrix,
    ShapeMismatch,
    SingularMatrix,
)
from .linalg import spectral_radius_nonneg
from .mstruct import (
    MatrixKind,
    MClassification,
    NullPair,
    classify_zm,
)
from .problem import (
    Certificate,
    CheckResult,
    MareProblem,
    ProblemClass,
    Regime,
    classify_problem,
    make_certificate,
    matrix_from_json,
    matrix_to_jsonable,
    problem_from_json,
    problem_to_json,
    residual_dual,
    residual_primal,
)
from .doubling import (
    DoublingParams,
    DoublingState,
    SolveReport,
    initialize,
    observed_rate,
    select_parameters,
    solve,
    step,
    theoretical_rate,
    trace_to_csv,
)
from .fixedpoint import OracleReport, fixed_point_solve
from .probgen import FamilySpec, generate

__version__ = "0.1.0"

__all__ = [
    "AmbiguousKernel",
    "Certificate",
    "CheckResult",
    "DoublingParams",
    "DoublingState",
    "FamilySpec",
    "GenerationFailed",
    "InvalidParameters",
    "IterationBreakdown",
    "MClassification",
    "MareError",
    "MareProblem",
    "MatrixKind",
    "MaxIterations",
    "NoConvergence",
    "NonpositiveDiagonal",
    "NotZMatrix",
    "NullPair",
    "OracleReport",
    "ProblemClass",
    "Regime",
    "ShapeMismatch",
    "SingularMatrix",
    "SolveReport",
    "classify_problem",
    "classify_zm",
    "fixed_point_solve",
    "generate",
    "initialize",
    "make_certificate",
    "matrix_from_json",
    "matrix_to_jsonable",
    "observed_rate",
    "problem_from_json",
    "problem_to_json",
    "residual_dual",
    "residual_primal",
    "select_parameters",
    "solve",
    "spectral_radius_nonneg",
    "step",
    "theoretical_rate",
    "trace_to_csv",
]

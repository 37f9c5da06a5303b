"""Problem model for the Riccati equation ``X C X - X D - A X + B = 0``.

Holds the coefficient quadruple (A, B, C, D), derives the block matrix
``K = [[D, -C], [-B, A]]`` and its sign-flipped companion
``[[D, -C], [B, -A]]``, classifies the problem regime, evaluates residuals
and builds solution certificates: closing matrices R = D - C.Phi and
S = A - B.Psi, the block similarity identity they satisfy, the spectral
radius of Phi.Psi, and the singular/nonsingular dichotomy of R and S.

The regime, the drift and the multiplicity of the sign-flipped matrix's
zero eigenvalue are all read off the irreducible diagonal blocks of K
(``mstruct.classify_zm``): the kernel pair of a singular block is its
Perron vectors and one certified solve on the nonsingular rest, and the
zero eigenvalue is simple or double as the drift is nonzero or zero.

The JSON problem format accepted here is the package's on-disk contract:

    { "name": str?, "n": int, "m": int,
      "A": [[...]...], "B": [[...]...], "C": [[...]...], "D": [[...]...] }

with row-major nested arrays and no extra fields.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, mstruct
from .errors import NotZMatrix, ShapeMismatch
from .linalg import EPS, as_matrix, one_norm
from .mstruct import (
    MatrixKind,
    MClassification,
    NullPair,
    RegularityReport,
    ZeroEigenStructure,
)

TAU_DRIFT = 1e-8


class Regime(enum.Enum):
    NONSINGULAR_K = "NonsingularK"
    SINGULAR_NONCRITICAL = "SingularNoncritical"
    CRITICAL = "Critical"
    ASSUMPTION_FAILS = "AssumptionFails"
    NOT_REGULAR = "NotRegular"


def _require_z(M: np.ndarray, label: str) -> None:
    off = M - np.diag(np.diag(M))
    if (off > 0.0).any():
        raise NotZMatrix(f"{label} has a positive off-diagonal entry")


@dataclass(frozen=True)
class MareProblem:
    """Coefficient data (A, B, C, D) with sizes m x m, m x n, n x m, n x n.

    B and C must be entrywise nonnegative and A, D must be Z-matrices, so
    that the block matrix K is a Z-matrix; everything beyond that (M-matrix,
    singularity, regularity) is measured, not assumed.
    """

    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    name: str | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ShapeMismatch("n and m must be positive")
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        object.__setattr__(self, "C", as_matrix(self.C, "C"))
        object.__setattr__(self, "D", as_matrix(self.D, "D"))
        shapes = {
            "A": (self.A.shape, (self.m, self.m)),
            "B": (self.B.shape, (self.m, self.n)),
            "C": (self.C.shape, (self.n, self.m)),
            "D": (self.D.shape, (self.n, self.n)),
        }
        for label, (got, want) in shapes.items():
            if got != want:
                raise ShapeMismatch(f"{label} must be {want}, got {got}")
        if (self.B < 0).any():
            raise NotZMatrix("B must be entrywise nonnegative")
        if (self.C < 0).any():
            raise NotZMatrix("C must be entrywise nonnegative")
        _require_z(self.A, "A")
        _require_z(self.D, "D")

    @cached_property
    def K(self) -> np.ndarray:
        """Block matrix [[D, -C], [-B, A]] (a Z-matrix by construction)."""
        return np.block([[self.D, -self.C], [-self.B, self.A]])

    @cached_property
    def sign_flipped(self) -> np.ndarray:
        """Block matrix [[D, -C], [B, -A]], whose zero-eigenvalue structure
        decides whether a singular problem is well posed."""
        return np.block([[self.D, -self.C], [self.B, -self.A]])

    @property
    def size(self) -> int:
        return self.n + self.m

    def dual(self) -> "MareProblem":
        """The problem whose minimal solution is Psi: swap (A, D) and (B, C)."""
        return MareProblem(
            n=self.m,
            m=self.n,
            A=self.D,
            B=self.C,
            C=self.B,
            D=self.A,
            name=None if self.name is None else f"{self.name}-dual",
        )


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def residual_primal(p: MareProblem, X) -> float:
    """Normalized residual of X C X - X D - A X + B at a candidate X (m x n)."""
    Xm = as_matrix(X, "X")
    if Xm.shape != (p.m, p.n):
        raise ShapeMismatch(f"X must be {p.m}x{p.n}, got {Xm.shape}")
    num = one_norm(Xm @ p.C @ Xm - Xm @ p.D - p.A @ Xm + p.B)
    den = one_norm(Xm) * (one_norm(p.C) * one_norm(Xm) + one_norm(p.D) + one_norm(p.A)) + one_norm(p.B)
    return num / max(den, EPS)


def residual_dual(p: MareProblem, Y) -> float:
    """Normalized residual of Y B Y - Y A - D Y + C at a candidate Y (n x m)."""
    Ym = as_matrix(Y, "Y")
    if Ym.shape != (p.n, p.m):
        raise ShapeMismatch(f"Y must be {p.n}x{p.m}, got {Ym.shape}")
    num = one_norm(Ym @ p.B @ Ym - Ym @ p.A - p.D @ Ym + p.C)
    den = one_norm(Ym) * (one_norm(p.B) * one_norm(Ym) + one_norm(p.A) + one_norm(p.D)) + one_norm(p.C)
    return num / max(den, EPS)


# ---------------------------------------------------------------------------
# Problem classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemClass:
    """Everything the theory conditions on, measured for one problem.

    ``nulls`` is populated only when K is a singular M-matrix with exactly
    one singular irreducible block, so that the null vectors, and hence the
    drift, are well defined.  ``zero_structure`` is None where the theory
    attaches no multiplicity to the zero eigenvalue of the sign-flipped
    matrix: K is not an M-matrix, or K is not regular and has two or more
    singular blocks.
    """

    k_class: MClassification
    regular: RegularityReport
    irreducible: bool
    zero_structure: ZeroEigenStructure | None
    nulls: NullPair | None
    regime: Regime

    @property
    def drift(self) -> float | None:
        return None if self.nulls is None else self.nulls.drift


def classify_problem(p: MareProblem) -> ProblemClass:
    """Assign the problem to one of the five handled regimes.

    Everything is read off the irreducible diagonal blocks of K, which
    ``mstruct.classify_zm`` classifies with their Perron vectors in one
    pass.  K must be an M-matrix and regular (otherwise NotRegular).  The
    sign-flipped matrix H = diag(I_n, -I_m) K has the kernel of K: a
    nonsingular K is NonsingularK with no zero eigenvalue, (0, 0).  A
    singular block contributes one eigenvector of H and a Jordan chain of
    length 1 when the drift of its kernel pair exceeds ``TAU_DRIFT`` in
    modulus, 2 when it does not.  A regular K with two or more singular
    blocks is AssumptionFails; with one, the drift separates
    SingularNoncritical (r = 1) from Critical (r = 2).
    """
    K = p.K
    k_class = mstruct.classify_zm(K)
    irr = len(k_class.blocks) == 1

    if k_class.kind == MatrixKind.NONSINGULAR_M:
        regular = mstruct.regularity_witness(K, k_class)
        return ProblemClass(k_class, regular, irr, ZeroEigenStructure(0, 0), None, Regime.NONSINGULAR_K)
    if k_class.kind != MatrixKind.SINGULAR_M:
        return ProblemClass(k_class, RegularityReport(False, None), irr, None, None, Regime.NOT_REGULAR)

    regular = mstruct.regularity_witness(K, k_class)
    if not regular.regular and len(k_class.singular_blocks) > 1:
        return ProblemClass(k_class, regular, irr, None, None, Regime.NOT_REGULAR)
    pairs = mstruct.block_null_pairs(K, p.n, k_class)
    zero = ZeroEigenStructure(len(pairs), sum(1 if abs(q.drift) > TAU_DRIFT else 2 for q in pairs))
    nulls = pairs[0] if len(pairs) == 1 else None

    if not regular.regular:
        return ProblemClass(k_class, regular, irr, zero, nulls, Regime.NOT_REGULAR)
    if nulls is None:
        return ProblemClass(k_class, regular, irr, zero, None, Regime.ASSUMPTION_FAILS)
    regime = Regime.SINGULAR_NONCRITICAL if zero.algebraic_multiplicity == 1 else Regime.CRITICAL
    return ProblemClass(k_class, regular, irr, zero, nulls, regime)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named verification outcome.  ``passed`` is None when the check
    does not apply in the problem's regime (recorded, not asserted)."""

    name: str
    passed: bool | None
    value: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    """Measured evidence that (phi, psi) solve the problem as the theory says.

    R and S are the closing matrices D - C.phi and A - B.psi exactly as
    computed.  ``r_gap``/``s_gap`` are their certified gaps s - rho(B) of
    ``mstruct.classify_zm``: on a Z-matrix, which R and S are, the gap is
    the smallest real eigenvalue tau.  ``r_singular``/``s_singular`` say
    that the gap is zero to 1e-8 times the scale of the closing matrix's
    operands.  ``checks`` record the five certificate clauses, each with
    its measured value.
    """

    phi: np.ndarray
    psi: np.ndarray
    R: np.ndarray
    S: np.ndarray
    residual_primal: float
    residual_dual: float
    similarity_residual: float
    rho_phi_psi: float
    r_gap: float
    s_gap: float
    r_singular: bool
    s_singular: bool
    i_phipsi_kind: MatrixKind
    i_psiphi_kind: MatrixKind
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


_SINGULAR_GAP_REL = 1e-8
_NONSINGULAR_GAP_REL = 1e-4


def _closing_status(M: np.ndarray, scale: float):
    """(classification, regularity-or-None, singular?) of a closing matrix.

    The matrix is singular when its certified gap is zero to
    ``_SINGULAR_GAP_REL * scale``.  ``scale`` is the magnitude of the
    operands the matrix was built from (e.g. ||D||_1 + ||C||_1 ||phi||_1
    for R = D - C.phi): a singular closing matrix can be tiny in norm
    outright (1x1 case, R -> 0), in which case a test relative to its own
    norm is blind.
    """
    cls = mstruct.classify_zm(M)
    singular = abs(cls.gap) <= _SINGULAR_GAP_REL * max(scale, EPS)
    reg = None
    if cls.kind in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M):
        reg = mstruct.regularity_witness(M, cls)
    return cls, reg, singular


def make_certificate(
    p: MareProblem,
    phi,
    psi,
    tol: float = 1e-8,
    problem_class: ProblemClass | None = None,
) -> Certificate:
    """Verify a candidate solution pair against the structural invariants.

    Checks recorded (pass/fail with measured values):
      1. primal and dual normalized residuals <= tol;
      2. R and S classify as M-matrices and admit a regularity witness;
      3. the block similarity identity holds to tol: the sign-flipped
         matrix times [[I, psi], [phi, I]] equals that factor times
         diag(R, -S);
      4. rho(phi.psi) < 1 where the regime promises it (nonsingular K or
         singular noncritical); always recorded;
      5. in the singular noncritical regime exactly one of R, S is
         singular (|gap| <= 1e-8 * scale, the other gap >= 1e-4 * scale).

    The value of each closing-matrix check is its signed gap, and that of
    the dichotomy the smaller |gap| / scale of the two.

    Candidates must be nonnegative up to the kernel residual tolerance of
    K; tiny negative round-off is clamped.
    """
    tau = mstruct.null_tol(p.K)
    phi_m = as_matrix(phi, "phi")
    psi_m = as_matrix(psi, "psi")
    if phi_m.shape != (p.m, p.n):
        raise ShapeMismatch(f"phi must be {p.m}x{p.n}, got {phi_m.shape}")
    if psi_m.shape != (p.n, p.m):
        raise ShapeMismatch(f"psi must be {p.n}x{p.m}, got {psi_m.shape}")
    if phi_m.min() < -tau or psi_m.min() < -tau:
        raise ValueError("candidate solutions must be entrywise nonnegative (to tolerance)")
    phi_m = np.maximum(phi_m, 0.0)
    psi_m = np.maximum(psi_m, 0.0)

    pc = classify_problem(p) if problem_class is None else problem_class
    regime = pc.regime

    res_p = residual_primal(p, phi_m)
    res_d = residual_dual(p, psi_m)

    R = p.D - p.C @ phi_m
    S = p.A - p.B @ psi_m

    factor = np.block([[np.eye(p.n), psi_m], [phi_m, np.eye(p.m)]])
    block_diag = np.block(
        [[R, np.zeros((p.n, p.m))], [np.zeros((p.m, p.n)), -S]]
    )
    sim_res = one_norm(p.sign_flipped @ factor - factor @ block_diag) / max(
        one_norm(p.sign_flipped), EPS
    )

    # in the split of I - Phi Psi and of I - Psi Phi the gap is 1 - rho(Phi Psi)
    phi_psi = phi_m @ psi_m
    rho = linalg.spectral_radius_nonneg(phi_psi)
    i_phipsi_kind = mstruct.gap_kind(1.0 - rho, mstruct.class_tol(np.eye(p.m) - phi_psi))
    i_psiphi_kind = mstruct.gap_kind(1.0 - rho, mstruct.class_tol(np.eye(p.n) - psi_m @ phi_m))

    scale_r = one_norm(p.D) + one_norm(p.C) * one_norm(phi_m)
    scale_s = one_norm(p.A) + one_norm(p.B) * one_norm(psi_m)
    r_cls, r_reg, r_sing = _closing_status(R, scale_r)
    s_cls, s_reg, s_sing = _closing_status(S, scale_s)

    checks = [
        CheckResult("residual-primal", res_p <= tol, res_p, tol),
        CheckResult("residual-dual", res_d <= tol, res_d, tol),
        CheckResult(
            "closing-R-regular-m-matrix",
            r_reg is not None and r_reg.regular,
            r_cls.gap,
            math.nan,
            f"kind={r_cls.kind.value}",
        ),
        CheckResult(
            "closing-S-regular-m-matrix",
            s_reg is not None and s_reg.regular,
            s_cls.gap,
            math.nan,
            f"kind={s_cls.kind.value}",
        ),
        CheckResult("similarity-identity", sim_res <= tol, sim_res, tol),
    ]

    rho_applicable = regime in (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL)
    checks.append(
        CheckResult(
            "i-minus-phipsi-nonsingular",
            rho < 1.0 if rho_applicable else None,
            rho,
            1.0,
            f"kind={i_phipsi_kind.value}",
        )
    )

    if regime == Regime.SINGULAR_NONCRITICAL:
        exactly_one = r_sing != s_sing
        separated = (
            (s_cls.gap >= _NONSINGULAR_GAP_REL * scale_s) if r_sing else (r_cls.gap >= _NONSINGULAR_GAP_REL * scale_r)
        )
        checks.append(
            CheckResult(
                "exactly-one-closing-singular",
                exactly_one and separated,
                min(abs(r_cls.gap) / max(scale_r, EPS), abs(s_cls.gap) / max(scale_s, EPS)),
                _SINGULAR_GAP_REL,
                f"R_singular={r_sing}, S_singular={s_sing}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "exactly-one-closing-singular",
                None,
                math.nan,
                math.nan,
                f"not applicable in regime {regime.value}",
            )
        )

    return Certificate(
        phi=phi_m,
        psi=psi_m,
        R=R,
        S=S,
        residual_primal=res_p,
        residual_dual=res_d,
        similarity_residual=sim_res,
        rho_phi_psi=rho,
        r_gap=r_cls.gap,
        s_gap=s_cls.gap,
        r_singular=r_sing,
        s_singular=s_sing,
        i_phipsi_kind=i_phipsi_kind,
        i_psiphi_kind=i_psiphi_kind,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _nested_list(M: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in M]


def problem_to_json(p: MareProblem) -> str:
    """Serialize a problem to the on-disk JSON format (row-major arrays)."""
    payload: dict = {}
    if p.name is not None:
        payload["name"] = p.name
    payload.update(
        {
            "n": p.n,
            "m": p.m,
            "A": _nested_list(p.A),
            "B": _nested_list(p.B),
            "C": _nested_list(p.C),
            "D": _nested_list(p.D),
        }
    )
    return json.dumps(payload, indent=2)


def _as_nested(value, label: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"field {label!r} must be a nested array of numbers")
    return as_matrix(value, label)


def problem_from_json(text: str) -> MareProblem:
    """Parse the JSON problem format; unknown fields are rejected."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("problem JSON must be an object")
    allowed = {"name", "n", "m", "A", "B", "C", "D"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown problem fields: {sorted(unknown)}")
    missing = {"n", "m", "A", "B", "C", "D"} - set(data)
    if missing:
        raise ValueError(f"missing problem fields: {sorted(missing)}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("field 'name' must be a string")
    if not isinstance(data["n"], int) or not isinstance(data["m"], int):
        raise ValueError("fields 'n' and 'm' must be integers")
    return MareProblem(
        n=data["n"],
        m=data["m"],
        A=_as_nested(data["A"], "A"),
        B=_as_nested(data["B"], "B"),
        C=_as_nested(data["C"], "C"),
        D=_as_nested(data["D"], "D"),
        name=name,
    )


def matrix_to_jsonable(M) -> dict:
    """{"rows", "cols", "entries"} object for a dense matrix."""
    A = as_matrix(M)
    return {"rows": A.shape[0], "cols": A.shape[1], "entries": _nested_list(A)}


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the {"rows", "cols", "entries"} matrix format (strict)."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object")
    unknown = set(data) - {"rows", "cols", "entries"}
    if unknown:
        raise ValueError(f"unknown matrix fields: {sorted(unknown)}")
    missing = {"rows", "cols", "entries"} - set(data)
    if missing:
        raise ValueError(f"missing matrix fields: {sorted(missing)}")
    M = _as_nested(data["entries"], "entries")
    if M.shape != (data["rows"], data["cols"]):
        raise ValueError(
            f"entries shape {M.shape} does not match rows/cols "
            f"({data['rows']}, {data['cols']})"
        )
    return M

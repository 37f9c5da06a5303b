"""Problem model for the Riccati equation ``X C X - X D - A X + B = 0``.

Holds the coefficient quadruple (A, B, C, D), derives the block matrix
``K = [[D, -C], [-B, A]]`` (its sign-flipped companion
``[[D, -C], [B, -A]] = diag(I_n, -I_m) K`` is read through K and never
formed), classifies the problem regime, evaluates residuals
and builds solution certificates: closing matrices R = D - C.Phi and
S = A - B.Psi, the block similarity identity they satisfy (read off the two
residuals), rho(Phi.Psi), and the singular/nonsingular dichotomy of R and S.

The regime, the drift and the multiplicity of the sign-flipped matrix's
zero eigenvalue are all read off the irreducible diagonal blocks of K
(``mstruct.classify_by_solve``, whose certified K^{-1} 1 decides a
nonsingular K, and ``mstruct.classify_zm`` otherwise): the kernel pair of
a singular block is its Perron vectors and its columns of the certified
solves on the nonsingular rest, one per side for all blocks, and the zero
eigenvalue is simple or double as the drift is nonzero or zero.  The same
solves give K's witness v > 0, K v >= 0, whose parts start the
certificate's Perron runs (``doubling.solve`` starts those on R and S
from vectors its last iterate gives).

The JSON problem format accepted here is the package's on-disk contract:

    { "name": str?, "n": int, "m": int,
      "A": [[...]...], "B": [[...]...], "C": [[...]...], "D": [[...]...] }

with row-major nested arrays and no extra fields.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import linalg, mstruct
from .errors import InvalidParameters, NotZMatrix, ShapeMismatch
from .linalg import EPS, as_matrix, one_norm
from .mstruct import MatrixKind, MClassification, NullPair

TAU_DRIFT = 1e-8


def sign_tol(p: MareProblem) -> float:
    """Elementwise sign tolerance: exact sign claims must absorb round-off."""
    return 1e-12 * max(1.0, p.norms.K)


class Regime(enum.Enum):
    NONSINGULAR_K = "NonsingularK"
    SINGULAR_NONCRITICAL = "SingularNoncritical"
    CRITICAL = "Critical"
    ASSUMPTION_FAILS = "AssumptionFails"
    NOT_REGULAR = "NotRegular"


# the regimes whose theory promises rho(Phi Psi) < 1 and quadratic doubling
GUARANTEED_REGIMES = (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL)


def _require_z(M: np.ndarray, label: str) -> None:
    if not linalg._is_z(M):
        raise NotZMatrix(f"{label} has a positive off-diagonal entry")


def _as_int(value, label: str, error: type[Exception] = ShapeMismatch) -> int:
    """``value`` as a Python int (``operator.index``); a bool or a non-integer raises ``error``.

    The one integer rule of the package: the sizes (``error`` ShapeMismatch,
    as ``problem_from_json`` reads back the integers they are written as),
    the iteration caps (``_check_max_iter``) and the generator's seed.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{label} must be an integer, got {value!r}")


def _check_real(value, name: str, error: type[Exception] = InvalidParameters) -> None:
    """Refuse a parameter ``name`` that is no real number (a bool, None or a string) with ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


def _check_tol(tol: float, name: str) -> None:
    """Refuse a tolerance ``name`` that is no real number, or is negative, NaN or infinite, with InvalidParameters.

    An infinite tolerance would pass every residual test it bounds, so it
    is no tolerance.
    """
    _check_real(tol, name)
    if not tol >= 0:
        raise InvalidParameters(f"{name} must be nonnegative, got {tol}")
    if tol == math.inf:
        raise InvalidParameters(f"{name} must be finite, got {tol}")


def _check_max_iter(value, label: str = "max_iter") -> int:
    """The iteration cap ``label`` as a Python int (``_as_int``); one below 1 is refused too.

    Raises InvalidParameters.
    """
    value = _as_int(value, label, InvalidParameters)
    if value < 1:
        raise InvalidParameters(f"{label} must be at least 1, got {value}")
    return value


class OneNorms(NamedTuple):
    """The 1-norms of a problem's coefficient blocks and of its K."""

    A: float
    B: float
    C: float
    D: float
    K: float


@dataclass(frozen=True)
class MareProblem:
    """Coefficient data (A, B, C, D) with sizes m x m, m x n, n x m, n x n.

    B and C must be entrywise nonnegative and A, D must be Z-matrices, so
    that the block matrix K is a Z-matrix; everything beyond that (M-matrix,
    singularity, regularity) is measured, not assumed.

    A, B, C and D are checked float64 copies of the arrays given, and they
    are read-only, as is K: it is built from them once, when the problem
    is made, and so are their 1-norms (``norms``), which the residuals,
    the certificate and the sign tolerance read.  A K whose 1-norm
    overflows float64 is refused (ValueError), as no tolerance can be read
    off it.  A write into a block would leave K and the norms stale, so it
    raises ValueError; the caller's own arrays stay writable.  ``n`` and
    ``m`` are Python ints (``_as_int``, ShapeMismatch) and ``name`` is a
    string or None (ValueError otherwise), as ``problem_from_json`` reads
    back what ``problem_to_json`` writes.
    """

    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    name: str | None = None

    def __post_init__(self):
        if self.name is not None and not isinstance(self.name, str):
            raise ValueError(f"name must be a string or None, got {self.name!r}")
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        object.__setattr__(self, "m", _as_int(self.m, "m"))
        if self.n < 1 or self.m < 1:
            raise ShapeMismatch("n and m must be positive")
        m, n = self.m, self.n
        for label, shape in zip("ABCD", ((m, m), (m, n), (n, m), (n, n))):
            M = as_matrix(getattr(self, label), label)
            if M.shape != shape:
                raise ShapeMismatch(f"{label} must be {shape}, got {M.shape}")
            M.flags.writeable = False
            object.__setattr__(self, label, M)
        if (self.B < 0).any():
            raise NotZMatrix("B must be entrywise nonnegative")
        if (self.C < 0).any():
            raise NotZMatrix("C must be entrywise nonnegative")
        _require_z(self.A, "A")
        _require_z(self.D, "D")
        self.norms  # K and its 1-norm are taken now, so that one that overflows is refused here

    @cached_property
    def K(self) -> np.ndarray:
        """Block matrix [[D, -C], [-B, A]] (a Z-matrix by construction)."""
        n = self.n
        K = np.empty((self.size, self.size))
        K[:n, :n] = self.D
        np.negative(self.C, out=K[:n, n:])
        np.negative(self.B, out=K[n:, :n])
        K[n:, n:] = self.A
        K.flags.writeable = False
        return K

    @cached_property
    def norms(self) -> OneNorms:
        """The 1-norms of A, B, C, D and K, taken once; K's first, refused where it overflows (ValueError).

        A block's 1-norm is at most K's, so none of them overflows after it.
        """
        k_norm = mstruct._checked_norm(self.K, "K")
        return OneNorms(*map(one_norm, (self.A, self.B, self.C, self.D)), k_norm)

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


def _candidate(X, rows: int, cols: int, label: str) -> np.ndarray:
    """``X`` as a checked float64 matrix of shape rows x cols (``as_matrix``)."""
    Xm = as_matrix(X, label)
    if Xm.shape != (rows, cols):
        raise ShapeMismatch(f"{label} must be {rows}x{cols}, got {Xm.shape}")
    return Xm


def _residual(p: MareProblem, X: np.ndarray, x_norm: float, dual: bool = False) -> tuple[float, float]:
    """(1-norm, normalized value) of X C X - X D - A X + B at a checked X of 1-norm ``x_norm``.

    X is m x n; with ``dual`` it is n x m and the equation that of the dual
    problem, (A, B, C, D) -> (D, C, B, A).  The 1-norms of the coefficients
    are the problem's cached ``norms``.  A product that overflows makes the
    values Inf or NaN, which fail every check that reads them.
    """
    nrm = p.norms
    if dual:
        A, B, C, D, nA, nB, nC, nD = p.D, p.C, p.B, p.A, nrm.D, nrm.C, nrm.B, nrm.A
    else:
        A, B, C, D, nA, nB, nC, nD = p.A, p.B, p.C, p.D, nrm.A, nrm.B, nrm.C, nrm.D
    with np.errstate(over="ignore", invalid="ignore"):
        num = one_norm(X @ C @ X - X @ D - A @ X + B)
    return num, num / max(_residual_scale(x_norm, nA, nB, nC, nD), EPS)


def _residual_scale(x, nA, nB, nC, nD):
    """The normalizer x (||C|| x + ||D|| + ||A||) + ||B|| of a residual at 1-norm x.

    The arguments are floats or arrays that broadcast (the oracle screens
    a block of steps at once), and the operations run in the same order
    on either, so both give the same bits.
    """
    return x * (nC * x + nD + nA) + nB


def residual_primal(p: MareProblem, X) -> float:
    """Normalized residual of X C X - X D - A X + B at a candidate X (m x n)."""
    Xm = _candidate(X, p.m, p.n, "X")
    return _residual(p, Xm, one_norm(Xm))[1]


def residual_dual(p: MareProblem, Y) -> float:
    """Normalized residual of Y B Y - Y A - D Y + C at a candidate Y (n x m).

    This is the primal residual of the dual problem, (A, B, C, D) -> (D, C, B, A).
    """
    Ym = _candidate(Y, p.n, p.m, "Y")
    return _residual(p, Ym, one_norm(Ym), dual=True)[1]


# ---------------------------------------------------------------------------
# Problem classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemClass:
    """Everything the theory conditions on, measured for one problem.

    ``k_class`` is the classification of K with its irreducible blocks:
    K is regular when ``k_class.regular``, irreducible when it has one
    block, and the zero eigenvalue of the sign-flipped matrix has one
    eigenvector per singular block.  ``r`` is that eigenvalue's algebraic
    multiplicity, 0 for a nonsingular K, and None where the theory
    attaches none: K is not an M-matrix, or K is not regular and has two
    or more singular blocks.  ``nulls`` is populated only when K is a
    singular M-matrix with exactly one singular irreducible block, so that
    the null vectors, and hence the drift, are well defined.

    A nonsingular K that its certified K^{-1} 1 decides has the ``k_class``
    of ``mstruct.classify_by_solve``: its gap is the lower end 1 / max x
    of the bracket [1 / max x, 1 / min x] around tau(K), and its blocks
    carry no Perron vector.  ``witness`` is ``mstruct.block_null_pairs``'s
    v > 0 with K v >= 0 (K^{-1} 1 on a nonsingular K), None where K is not
    regular or not an M-matrix.  Its parts v1 (first n) and v2 start the
    certificate's Perron runs on R, S and Phi Psi: R v1 >= 0, S v2 >= 0
    and Phi Psi v2 <= v2 at the minimal solution.  ``doubling.solve``
    starts the runs on R and S from its last iterate instead, and falls
    back to v1 and v2 where that gives no positive vector.
    """

    k_class: MClassification
    r: int | None
    nulls: NullPair | None
    regime: Regime
    witness: np.ndarray | None = None

    @property
    def drift(self) -> float | None:
        return None if self.nulls is None else self.nulls.drift


def classify_problem(p: MareProblem) -> ProblemClass:
    """Assign the problem to one of the five handled regimes.

    Everything is read off the irreducible diagonal blocks of K, which
    ``mstruct.classify_by_solve`` classifies: one certified solve decides
    a nonsingular K with no Noda run, and every other K is classified by
    ``mstruct.classify_zm`` with its blocks' Perron vectors in one pass.
    K must be an M-matrix and regular (``k_class.regular``,
    otherwise NotRegular; r is None for a non-M K and for a non-regular
    K with two or more singular blocks).  Every other K goes through
    ``mstruct.block_null_pairs``, which certifies the solve on K's
    nonsingular blocks (SingularMatrix otherwise; on a nonsingular K it is
    the solve already made, where that certified) and gives one kernel
    pair per singular block and K's witness.  The sign-flipped matrix H = diag(I_n, -I_m)
    K has the kernel of K.  A singular block contributes one eigenvector
    of H and a Jordan chain of length 1 when the drift of its kernel pair
    exceeds ``TAU_DRIFT`` in modulus, 2 when it does not; r sums them.  A
    nonsingular K has no pair: NonsingularK, r = 0.  A regular K with two
    or more singular blocks is AssumptionFails; with one, the drift
    separates SingularNoncritical (r = 1) from Critical (r = 2).
    """
    K, k_norm = p.K, p.norms.K
    k_class, solved = mstruct.classify_by_solve(K, k_norm)
    if k_class.kind not in (MatrixKind.SINGULAR_M, MatrixKind.NONSINGULAR_M) or (
        not k_class.regular and len(k_class.singular_blocks) > 1
    ):
        return ProblemClass(k_class, None, None, Regime.NOT_REGULAR)

    pairs, witness = mstruct.block_null_pairs(K, p.n, k_class, solved, k_norm)
    r = sum(1 if abs(q.drift) > TAU_DRIFT else 2 for q in pairs)
    nulls = pairs[0] if len(pairs) == 1 else None
    if not pairs:
        regime = Regime.NONSINGULAR_K
    elif not k_class.regular:
        regime = Regime.NOT_REGULAR
    elif nulls is None:
        regime = Regime.ASSUMPTION_FAILS
    else:
        regime = Regime.SINGULAR_NONCRITICAL if r == 1 else Regime.CRITICAL
    return ProblemClass(k_class, r, nulls, regime, witness)


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
    computed, and ``r_class``/``s_class`` their classification as
    ``mstruct.classify_zm`` makes it, with the irreducible blocks, its Noda
    runs started near their Perron vectors (see ``make_certificate``), and
    its kinds judged at ``class_tol`` of the scale of the closing matrix's
    operands, ||D||_1 + ||C||_1 ||phi||_1 for R.  Their certified gaps
    s - rho(B) are, on a Z-matrix, which R and S are, the smallest real
    eigenvalue tau.  ``r_singular``/``s_singular`` say that the gap is
    zero to 1e-8 times that scale.  ``checks`` record the
    five certificate clauses, each with its measured value.
    """

    phi: np.ndarray
    psi: np.ndarray
    R: np.ndarray
    S: np.ndarray
    residual_primal: float
    residual_dual: float
    similarity_residual: float
    rho_phi_psi: float
    r_class: MClassification
    s_class: MClassification
    r_singular: bool
    s_singular: bool
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)


_SINGULAR_GAP_REL = 1e-8
_NONSINGULAR_GAP_REL = 1e-4
CERT_TOL = 1e-8  # the residual tolerance of a certificate that names none


def _closing(D: np.ndarray, C: np.ndarray, X: np.ndarray, start: np.ndarray | None, scale: float):
    """(D - C X, its classification) of a closing matrix.

    R = D - C.phi, and S = A - B.psi is the same for the dual problem.
    D - C X is a fresh square float64 array; it is checked to be finite
    (ValueError) and classified with its Noda runs started at ``start``, a
    positive vector near its Perron vector (None is 1).  Its kind is
    judged at ``class_tol`` of ``scale``, the magnitude ||D||_1 + ||C||_1
    ||X||_1 of its operands that ``_singular`` reads too, not at that of
    its own norm: the rounding in D - C X is that of its operands, so a
    singular closing matrix tiny in norm next to them would read ZNotM or
    NonsingularM at its own.
    """
    with np.errstate(over="ignore"):  # an overflow is reported by the ValueError below
        M = D - C @ X
    if not np.isfinite(M).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return M, mstruct._classify_blocks(M, start, mstruct.class_tol(M, scale))


def _singular(cls: MClassification, scale: float) -> bool:
    """A closing matrix is singular when its certified gap is zero to ``_SINGULAR_GAP_REL * scale``.

    The scale ||D||_1 + ||C||_1 ||X||_1 is the magnitude of the operands
    of D - C X: a singular closing matrix can be tiny in norm outright (1x1
    case, R -> 0), in which case a test relative to its own norm is blind.
    """
    return abs(cls.gap) <= _SINGULAR_GAP_REL * max(scale, EPS)


def make_certificate(
    p: MareProblem,
    phi,
    psi,
    tol: float = CERT_TOL,
    problem_class: ProblemClass | None = None,
) -> Certificate:
    """Verify a candidate solution pair against the structural invariants.

    Checks recorded (pass/fail with measured values):
      1. primal and dual normalized residuals <= tol;
      2. R and S are regular M-matrices (``MClassification.regular``), their
         kinds judged at the scale of their operands (``_closing``);
      3. the block similarity identity H F = F diag(R, -S) holds to tol (H
         the sign-flipped matrix, F = [[I, psi], [phi, I]]).  Its diagonal
         blocks are zero by the definitions of R and S, and its off-diagonal
         ones are the primal residual matrix and minus the dual one: the
         value is their larger 1-norm over ||K||_1, not over check 1's scale;
      4. rho(phi.psi) < 1 where the regime promises it (nonsingular K or
         singular noncritical); always recorded;
      5. in the singular noncritical regime exactly one of R, S is
         singular (|gap| <= 1e-8 * scale, the other gap >= 1e-4 * scale).

    The value of each closing-matrix check is its signed gap, and that of
    the dichotomy the smaller |gap| / scale of the two.  The Perron runs
    on R, S and phi.psi start at the parts v1, v2 and v2 of the problem
    class's witness (R v1 >= 0, S v2 >= 0 and phi.psi v2 <= v2 at the
    minimal pair), and at 1 where there is none: the roots are certified
    from any positive start, and one near the Perron vector saves solves.
    ``doubling.solve`` certifies its answer through the same core,
    ``_certificate``, with starts for R and S read off its last iterate,
    and ``solve --method fixed-point`` the oracle's pair, which is finite
    and nonnegative as built, with the starts above.

    In the guaranteed regimes passing checks identify the minimal pair: with
    zero residuals, R and S M-matrices and rho(phi.psi) < 1, F is
    nonsingular, so sigma(H) = sigma(R) u sigma(-S), the n eigenvalues of H
    in the closed right half-plane are R's (a zero one placed by check 5),
    and [I; phi] spans the unique invariant subspace for them (Guo, SIMAX 23
    (2001)).  Each premise holds only to its tolerance, so a rho near 1 or a
    gap near its threshold leaves the conclusion approximate.  Elsewhere the
    fixed-point oracle is the only evidence of minimality.

    Candidates must be nonnegative up to the kernel residual tolerance of
    K; tiny negative round-off is clamped.  Raises InvalidParameters for a
    negative, NaN or infinite ``tol``.
    """
    _check_tol(tol, "tol")
    tau = mstruct.null_tol(p.K, p.norms.K)
    phi_m = _candidate(phi, p.m, p.n, "phi")
    psi_m = _candidate(psi, p.n, p.m, "psi")
    if phi_m.min() < -tau or psi_m.min() < -tau:
        raise ValueError("candidate solutions must be entrywise nonnegative (to tolerance)")
    pc = classify_problem(p) if problem_class is None else problem_class
    return _certificate(p, np.maximum(phi_m, 0.0), np.maximum(psi_m, 0.0), tol, pc)


def _certificate(
    p: MareProblem,
    phi_m: np.ndarray,
    psi_m: np.ndarray,
    tol: float,
    pc: ProblemClass,
    r_start: np.ndarray | None = None,
    s_start: np.ndarray | None = None,
) -> Certificate:
    """``make_certificate`` of a checked nonnegative pair, its Perron runs on R and S started at r_start and s_start.

    Either start that is None is the part v1 or v2 of the witness of
    ``pc`` (or 1 where there is none); the run on phi.psi always starts at
    v2.  phi_m and psi_m must be finite float64 arrays of the problem's
    shapes with no negative entry, and ``tol`` nonnegative.
    """
    regime = pc.regime
    nrm = p.norms
    phi_norm, psi_norm = one_norm(phi_m), one_norm(psi_m)
    num_p, res_p = _residual(p, phi_m, phi_norm)
    num_d, res_d = _residual(p, psi_m, psi_norm, dual=True)
    sim_res = max(num_p, num_d) / max(nrm.K, EPS)

    v1 = v2 = None
    if pc.witness is not None:
        v1, v2 = pc.witness[: p.n], pc.witness[p.n :]
    # in the split of I - Phi Psi the gap is 1 - rho(Phi Psi); Phi Psi >= 0 as phi and psi are
    with np.errstate(over="ignore"):  # an overflow is reported by the ValueError below
        phi_psi = phi_m @ psi_m
    if not np.isfinite(phi_psi).all():
        raise ValueError("phi psi contains NaN or Inf entries")
    rho = linalg._perron_pair(phi_psi, v2)[0]
    i_phipsi_kind = mstruct.gap_kind(1.0 - rho, mstruct.class_tol(np.subtract(linalg._eye(p.m), phi_psi)))

    scale_r, scale_s = nrm.D + nrm.C * phi_norm, nrm.A + nrm.B * psi_norm
    R, r_cls = _closing(p.D, p.C, phi_m, v1 if r_start is None else r_start, scale_r)
    S, s_cls = _closing(p.A, p.B, psi_m, v2 if s_start is None else s_start, scale_s)
    r_sing, s_sing = _singular(r_cls, scale_r), _singular(s_cls, scale_s)

    checks = [
        CheckResult("residual-primal", res_p <= tol, res_p, tol),
        CheckResult("residual-dual", res_d <= tol, res_d, tol),
        *(
            CheckResult(f"closing-{label}-regular-m-matrix", cls.regular, cls.gap, math.nan, f"kind={cls.kind.value}")
            for label, cls in (("R", r_cls), ("S", s_cls))
        ),
        CheckResult("similarity-identity", sim_res <= tol, sim_res, tol),
        CheckResult(
            "i-minus-phipsi-nonsingular",
            rho < 1.0 if regime in GUARANTEED_REGIMES else None,
            rho,
            1.0,
            f"kind={i_phipsi_kind.value}",
        ),
    ]

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
        r_class=r_cls,
        s_class=s_cls,
        r_singular=r_sing,
        s_singular=s_sing,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def problem_to_json(p: MareProblem) -> str:
    """Serialize a problem to the on-disk JSON format (row-major arrays)."""
    payload: dict = {}
    if p.name is not None:
        payload["name"] = p.name
    payload.update(
        {
            "n": p.n,
            "m": p.m,
            "A": p.A.tolist(),
            "B": p.B.tolist(),
            "C": p.C.tolist(),
            "D": p.D.tolist(),
        }
    )
    return json.dumps(payload, indent=2)


_NUMBER_TYPES = frozenset((int, float))


def _check_nested(value, label: str):
    """``value``, once it is a JSON nested array of numbers; strings and booleans are refused.

    One pass reads the type of every entry: a JSON number parses to int or
    float, and ``true``, ``false`` and strings to neither.  The conversion
    to a matrix is ``as_matrix``'s, where the value is used.
    """
    rows_ok = isinstance(value, list) and all(type(row) is list for row in value)
    if not (rows_ok and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(value)))):
        raise ValueError(f"field {label!r} must be a nested array of numbers")
    return value


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` parse to bool, a subclass of int, and are refused."""
    return type(value) is int


def _json_object(text: str, what: str, required: set[str], optional: set[str]) -> dict:
    """The JSON object in ``text``, once it has every ``required`` field and no field beyond ``optional``.

    ``what`` names the format in the ValueError.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    unknown = set(data) - required - optional
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing {what} fields: {sorted(missing)}")
    return data


def problem_from_json(text: str) -> MareProblem:
    """Parse the JSON problem format; unknown fields are rejected.

    The format's own rules are checked here: ``n`` and ``m`` are JSON
    integers, and the matrices nested arrays of numbers.  The rest, the
    ``name`` among them, is ``MareProblem``'s.
    """
    data = _json_object(text, "problem", {"n", "m", "A", "B", "C", "D"}, {"name"})
    if not (_is_int(data["n"]) and _is_int(data["m"])):
        raise ValueError("fields 'n' and 'm' must be integers")
    return MareProblem(
        n=data["n"],
        m=data["m"],
        A=_check_nested(data["A"], "A"),
        B=_check_nested(data["B"], "B"),
        C=_check_nested(data["C"], "C"),
        D=_check_nested(data["D"], "D"),
        name=data.get("name"),
    )


def matrix_to_jsonable(M) -> dict:
    """{"rows", "cols", "entries"} object for a dense matrix."""
    A = as_matrix(M)
    return {"rows": A.shape[0], "cols": A.shape[1], "entries": A.tolist()}


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the {"rows", "cols", "entries"} matrix format (strict)."""
    data = _json_object(text, "matrix", {"rows", "cols", "entries"}, set())
    if not (_is_int(data["rows"]) and _is_int(data["cols"])):
        raise ValueError("fields 'rows' and 'cols' must be integers")
    M = as_matrix(_check_nested(data["entries"], "entries"), "entries")
    if M.shape != (data["rows"], data["cols"]):
        raise ValueError(
            f"entries shape {M.shape} does not match rows/cols "
            f"({data['rows']}, {data['cols']})"
        )
    return M

"""Two-parameter doubling solver for the minimal nonnegative solutions.

The iteration carries four blocks (E, F, G, H) and squares the
approximation exponent each step; H converges up to the primal solution
Phi and G up to the dual solution Psi.  With the parameter choice
alpha = max diag(A), beta = max diag(D) (the default), the convergence
factor

    r(alpha, beta) = rho((R + alpha I)^{-1} (R - beta I))
                   * rho((S + beta I)^{-1} (S - alpha I))

is minimized over all admissible parameters, where R = D - C.Phi and
S = A - B.Psi are the closing matrices.

Initialization, with As = A + beta I and Ds = D + alpha I:

    W  = As - B Ds^{-1} C            V  = Ds - C As^{-1} B
    E0 = I - (alpha+beta) V^{-1}     F0 = I - (alpha+beta) W^{-1}
    G0 = (alpha+beta) Ds^{-1} C W^{-1}
    H0 = (alpha+beta) W^{-1} B Ds^{-1}

(note the cross pairing: A is shifted by beta, D by alpha -- this is what
makes E0, F0 <= 0 and H_k monotone increasing to Phi, which the pairing
with same-letter shifts provably violates).  Single-parameter mode forces
alpha = beta, which reduces the two-parameter iteration to the classical
one-parameter method.

Each accepted step verifies that I - G H and I - H G are nonsingular
M-matrices and records sign and monotonicity diagnostics; the solver never
silently ignores a structural violation.  Those two matrices are factored
and classified once per iterate: the LU factors computed for the
diagnostics of iterate k are carried in its DoublingState and reused by
the step that produces iterate k + 1, so a step costs two factorizations
and two classifications, both of the new iterate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg, mstruct
from .errors import (
    InsufficientTrace,
    InvalidParameters,
    IterationBreakdown,
    MaxIterations,
    NonpositiveDiagonal,
    SingularMatrix,
)
from .linalg import EPS, one_norm
from .mstruct import MatrixKind
from .problem import Certificate, MareProblem, ProblemClass, Regime, classify_problem, make_certificate

MODE_ADDA = "adda"
MODE_SDA = "sda"

_GUARANTEED = (Regime.NONSINGULAR_K, Regime.SINGULAR_NONCRITICAL)


def sign_tol(p: MareProblem) -> float:
    """Elementwise sign tolerance: exact sign claims must absorb round-off."""
    return 1e-12 * max(1.0, one_norm(p.K))


@dataclass(frozen=True)
class DoublingParams:
    alpha: float
    beta: float
    max_iter: int = 60
    stop_tol: float = 1e-14
    mode: str = MODE_ADDA

    def __post_init__(self):
        if self.mode not in (MODE_ADDA, MODE_SDA):
            raise InvalidParameters(f"unknown mode {self.mode!r}")
        if self.mode == MODE_SDA and self.alpha != self.beta:
            raise InvalidParameters("single-parameter mode requires alpha == beta")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidParameters("alpha and beta must be positive")
        if self.max_iter < 1:
            raise InvalidParameters("max_iter must be >= 1")


def select_parameters(
    p: MareProblem,
    requested: tuple[float, float] | None = None,
    mode: str = MODE_ADDA,
    max_iter: int = 60,
    stop_tol: float = 1e-14,
) -> DoublingParams:
    """Default to the rate-optimal pair alpha = max a_ii, beta = max d_ii.

    Requested values are honored when they satisfy alpha >= max a_ii and
    beta >= max d_ii (and alpha == beta in single-parameter mode); values
    below the optimal pair are rejected.  Raises NonpositiveDiagonal when
    either coefficient diagonal has no positive entry.
    """
    a_star = float(np.diag(p.A).max())
    d_star = float(np.diag(p.D).max())
    if a_star <= 0 or d_star <= 0:
        raise NonpositiveDiagonal(
            f"max diag(A) = {a_star}, max diag(D) = {d_star}; both must be positive"
        )
    if requested is None:
        if mode == MODE_SDA:
            gamma = max(a_star, d_star)
            return DoublingParams(gamma, gamma, max_iter, stop_tol, mode)
        return DoublingParams(a_star, d_star, max_iter, stop_tol, mode)
    alpha, beta = float(requested[0]), float(requested[1])
    if alpha < a_star or beta < d_star:
        raise InvalidParameters(
            f"requested (alpha, beta) = ({alpha}, {beta}) below the admissible "
            f"bounds ({a_star}, {d_star})"
        )
    return DoublingParams(alpha, beta, max_iter, stop_tol, mode)


# ---------------------------------------------------------------------------
# Iteration state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDiagnostics:
    """Structural health of one accepted iterate."""

    k: int
    dH: float
    dG: float
    minpivot_IGH: float
    minpivot_IHG: float
    kind_IGH: MatrixKind
    kind_IHG: MatrixKind
    sign_violations_E: int
    sign_violations_F: int
    monotonicity_violations: int


@dataclass(frozen=True)
class DoublingState:
    """Iterate (E, F, G, H) at step k, plus the diagnostics of this step.

    ``factors`` carries the row-pivoted LU factors of I - G H and I - H G
    at this iterate, as computed for the diagnostics, so that ``step``
    does not factor them again.  A state built without them (None) is
    still valid: ``step`` then factors the cross products itself.
    """

    k: int
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    diagnostics: StepDiagnostics
    tau_sign: float
    factors: tuple[linalg.Factorization, linalg.Factorization] | None = None


@dataclass(frozen=True)
class TraceRecord:
    diagnostics: StepDiagnostics
    H: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Solver output: phi is the final H, psi the final G."""

    phi: np.ndarray
    psi: np.ndarray
    iterations: int
    trace: tuple[TraceRecord, ...]
    certificate: Certificate
    theoretical_rate: float | None
    observed_rate: float | None
    params: DoublingParams
    problem_class: ProblemClass
    converged: bool
    flags: tuple[str, ...]


def _cross_products(G: np.ndarray, H: np.ndarray):
    """I - G H and I - H G."""
    return np.eye(G.shape[0]) - G @ H, np.eye(H.shape[0]) - H @ G


def _classified_cross_products(G: np.ndarray, H: np.ndarray):
    """LU factors and M-matrix kinds of I - G H and I - H G."""
    IGH, IHG = _cross_products(G, H)
    factors = (linalg.lu_factor(IGH), linalg.lu_factor(IHG))
    return factors, mstruct.classify_zm(IGH).kind, mstruct.classify_zm(IHG).kind


def initialize(p: MareProblem, params: DoublingParams) -> DoublingState:
    """Build the k = 0 iterate from the coefficient data.

    Under the admissibility bounds on (alpha, beta) the initial blocks
    satisfy E0 <= 0, F0 <= 0 and G0, H0 >= 0 up to round-off; violations
    are counted in the diagnostics rather than silently dropped.
    """
    select_parameters(p, (params.alpha, params.beta), params.mode, params.max_iter, params.stop_tol)
    alpha, beta = params.alpha, params.beta
    gamma = alpha + beta
    As = p.A + beta * np.eye(p.m)
    Ds = p.D + alpha * np.eye(p.n)
    try:
        Ds_fact = linalg.lu_factor(Ds)
        Ds_inv_C = linalg.lu_solve(Ds_fact, p.C)
        As_inv_B = linalg.solve_linear(As, p.B)
        W = As - p.B @ Ds_inv_C
        V = Ds - p.C @ As_inv_B
        W_fact = linalg.lu_factor(W)
        W_inv = linalg.lu_solve(W_fact, np.eye(p.m))
        E0 = np.eye(p.n) - gamma * linalg.solve_linear(V, np.eye(p.n))
        F0 = np.eye(p.m) - gamma * W_inv
        G0 = gamma * Ds_inv_C @ W_inv
        H0 = gamma * linalg.lu_solve(W_fact, p.B) @ linalg.lu_solve(Ds_fact, np.eye(p.n))
    except SingularMatrix as exc:
        raise SingularMatrix(f"doubling initialization failed: {exc}") from exc

    tau = sign_tol(p)
    factors, kind_igh, kind_ihg = _classified_cross_products(G0, H0)
    diag = StepDiagnostics(
        k=0,
        dH=math.nan,
        dG=math.nan,
        minpivot_IGH=factors[0].smallest_pivot,
        minpivot_IHG=factors[1].smallest_pivot,
        kind_IGH=kind_igh,
        kind_IHG=kind_ihg,
        sign_violations_E=int((E0 > tau).sum()),
        sign_violations_F=int((F0 > tau).sum()),
        monotonicity_violations=0,
    )
    return DoublingState(0, E0, F0, G0, H0, diag, tau, factors)


def step(s: DoublingState) -> DoublingState:
    """One doubling step:

        E+ = E (I - G H)^{-1} E          F+ = F (I - H G)^{-1} F
        G+ = G + E (I - G H)^{-1} G F    H+ = H + F (I - H G)^{-1} H E

    Raises IterationBreakdown when I - G H or I - H G is singular to
    tolerance, which signals that the problem sits outside the guaranteed
    regimes (e.g. a critical problem near convergence).
    """
    E, F, G, H = s.E, s.F, s.G, s.H
    if s.factors is None:
        f_igh, f_ihg = (linalg.lu_factor(X) for X in _cross_products(G, H))
    else:
        f_igh, f_ihg = s.factors
    if f_igh.singular or f_ihg.singular:
        raise IterationBreakdown(
            f"I - G H or I - H G singular to tolerance at step {s.k} "
            f"(pivots {f_igh.smallest_pivot:.3e}, {f_ihg.smallest_pivot:.3e})"
        )
    igh_inv_E = linalg.lu_solve(f_igh, E)   # (I-GH)^{-1} E
    igh_inv_G = linalg.lu_solve(f_igh, G)
    ihg_inv_F = linalg.lu_solve(f_ihg, F)
    ihg_inv_H = linalg.lu_solve(f_ihg, H)
    E_new = E @ igh_inv_E
    F_new = F @ ihg_inv_F
    G_new = G + E @ igh_inv_G @ F
    H_new = H + F @ ihg_inv_H @ E
    if not (np.isfinite(H_new).all() and np.isfinite(G_new).all()):
        raise IterationBreakdown(f"nonfinite iterate at step {s.k + 1}")
    # In singular regimes one of E, F legitimately diverges like rho^(2^k)
    # while the other shrinks at the same pace; their products (all that H
    # and G ever see) stay bounded.  Rebalancing by a scalar is exactly
    # invariant for every H/G/sign observable and keeps both in range.
    ne, nf = one_norm(E_new), one_norm(F_new)
    if max(ne, nf) > 1e100 and min(ne, nf) > 0.0:
        theta = math.sqrt(nf) / math.sqrt(ne)
        E_new = E_new * theta
        F_new = F_new / theta

    tau = s.tau_sign
    factors, kind_igh, kind_ihg = _classified_cross_products(G_new, H_new)
    mono = int((H_new < H - tau).sum()) + int((G_new < G - tau).sum())
    diag = StepDiagnostics(
        k=s.k + 1,
        dH=one_norm(H_new - H),
        dG=one_norm(G_new - G),
        minpivot_IGH=factors[0].smallest_pivot,
        minpivot_IHG=factors[1].smallest_pivot,
        kind_IGH=kind_igh,
        kind_IHG=kind_ihg,
        sign_violations_E=int((E_new < -tau).sum()),
        sign_violations_F=int((F_new < -tau).sum()),
        monotonicity_violations=mono,
    )
    return DoublingState(s.k + 1, E_new, F_new, G_new, H_new, diag, tau, factors)


def solve(p: MareProblem, params: DoublingParams | None = None) -> SolveReport:
    """Run the doubling iteration to convergence and certify the result.

    Stops when both successive differences satisfy
    ||H_k - H_{k-1}||_1 <= stop_tol * max(1, ||H_k||_1) (same for G),
    raising MaxIterations (with the best report attached) if the cap is
    reached first.  Regimes other than nonsingular-K and
    singular-noncritical are attempted best effort and flagged.
    """
    if params is None:
        params = select_parameters(p)
    pc = classify_problem(p)
    flags: list[str] = []
    if pc.regime not in _GUARANTEED:
        flags.append(f"regime-unsupported:{pc.regime.value}")
        warnings.warn(
            f"doubling guarantees do not cover regime {pc.regime.value}; running best-effort",
            stacklevel=2,
        )

    state = initialize(p, params)
    trace: list[TraceRecord] = [TraceRecord(state.diagnostics, state.H.copy(), state.G.copy())]
    converged = False
    for _ in range(params.max_iter):
        state = step(state)
        trace.append(TraceRecord(state.diagnostics, state.H.copy(), state.G.copy()))
        d = state.diagnostics
        if d.dH <= params.stop_tol * max(1.0, one_norm(state.H)) and d.dG <= params.stop_tol * max(
            1.0, one_norm(state.G)
        ):
            converged = True
            break

    phi = np.maximum(state.H, 0.0)
    psi = np.maximum(state.G, 0.0)
    cert = make_certificate(p, phi, psi, problem_class=pc)

    theo = None
    try:
        theo = theoretical_rate(p, cert, params)
    except (SingularMatrix, ValueError):
        flags.append("theoretical-rate-unavailable")
    obs = None
    try:
        obs = observed_rate(trace, phi)
    except InsufficientTrace:
        pass

    if (theo is not None and theo >= 1.0 - 1e-6) or (obs is not None and obs >= 0.95):
        flags.append("non-quadratic")
    if any(r.diagnostics.sign_violations_E or r.diagnostics.sign_violations_F for r in trace):
        flags.append("sign-violations")
    if any(r.diagnostics.monotonicity_violations for r in trace):
        flags.append("monotonicity-violations")
    if any(
        r.diagnostics.kind_IGH is not MatrixKind.NONSINGULAR_M
        or r.diagnostics.kind_IHG is not MatrixKind.NONSINGULAR_M
        for r in trace
    ):
        flags.append("cross-products-not-nonsingular-m")

    report = SolveReport(
        phi=phi,
        psi=psi,
        iterations=state.k,
        trace=tuple(trace),
        certificate=cert,
        theoretical_rate=theo,
        observed_rate=obs,
        params=params,
        problem_class=pc,
        converged=converged,
        flags=tuple(flags),
    )
    if not converged:
        raise MaxIterations(
            f"doubling did not meet stop_tol {params.stop_tol:.1e} within "
            f"{params.max_iter} iterations",
            report=report,
        )
    return report


def theoretical_rate(p: MareProblem, cert: Certificate, params: DoublingParams) -> float:
    """Convergence factor r(alpha, beta) from the closing matrices.

    The factors can have negative or complex spectra, so their spectral
    radii come from the general shifted-QR eigenvalue routine; the
    nonnegative power-iteration device is not valid here.
    """
    alpha, beta = params.alpha, params.beta
    R, S = cert.R, cert.S
    T1 = linalg.solve_linear(R + alpha * np.eye(R.shape[0]), R - beta * np.eye(R.shape[0]))
    T2 = linalg.solve_linear(S + beta * np.eye(S.shape[0]), S - alpha * np.eye(S.shape[0]))
    return linalg.spectral_radius(T1) * linalg.spectral_radius(T2)


def observed_rate(trace, phi) -> float:
    """Empirical rate ||H_k - phi||_1^(1 / 2^k), taken over the last usable steps.

    Steps whose error is below 100 * eps carry no rate information (they
    are pure round-off) and are skipped; fewer than two usable steps raise
    InsufficientTrace.  Of the last three usable steps the smallest value
    is returned: the per-step values decrease toward the asymptotic rate as
    the preasymptotic constant washes out (a constant C inflates step k by
    C^(1/2^k)), so the deepest iterates are the faithful estimate.
    """
    phi = np.asarray(phi, dtype=np.float64)
    usable = []
    for rec in trace:
        err = one_norm(rec.H - phi)
        if err > 100 * EPS:
            usable.append((rec.diagnostics.k, err))
    if len(usable) < 2:
        raise InsufficientTrace(f"only {len(usable)} informative iterates in trace")
    return min(err ** (1.0 / 2.0**k) for k, err in usable[-3:])


def trace_to_csv(trace) -> str:
    """Iteration trace as CSV (one row per step; dH/dG empty at k = 0)."""
    lines = [
        "k,dH,dG,minpivot_IGH,minpivot_IHG,sign_violations_E,sign_violations_F,monotonicity_violations"
    ]
    for rec in trace:
        d = rec.diagnostics
        dh = "" if math.isnan(d.dH) else format(d.dH, ".17g")
        dg = "" if math.isnan(d.dG) else format(d.dG, ".17g")
        lines.append(
            f"{d.k},{dh},{dg},{format(d.minpivot_IGH, '.17g')},{format(d.minpivot_IHG, '.17g')},"
            f"{d.sign_violations_E},{d.sign_violations_F},{d.monotonicity_violations}"
        )
    return "\n".join(lines) + "\n"

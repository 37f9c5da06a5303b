"""Two-parameter doubling solver for the minimal nonnegative solutions.

The iteration carries four blocks (E, F, G, H) and squares the
approximation exponent each step; H converges up to the primal solution
Phi and G up to the dual solution Psi.  With the parameter choice
alpha = max diag(A), beta = max diag(D) (the default), the convergence
factor

    r(alpha, beta) = rho((R + alpha I)^{-1} (R - beta I))
                   * rho((S + beta I)^{-1} (S - alpha I))

is minimized over all admissible parameters, where R = D - C.Phi and
S = A - B.Psi are the closing matrices; ``theoretical_rate`` reads it off
their certified gaps.

Initialization, with K = [[D, -C], [-B, A]] and gamma = alpha + beta:

    Z  = gamma (K + diag(alpha I_n, beta I_m))^{-1}
    E0 = I - Z_11    F0 = I - Z_22    G0 = Z_12    H0 = Z_21

(note the cross pairing read off K's blocks: D is shifted by alpha, A by
beta -- this is what makes E0, F0 <= 0 and H_k monotone increasing to
Phi, which the pairing with same-letter shifts provably violates).  The
classical one-parameter method (SDA) is this iteration at alpha = beta:
``select_parameters`` picks that pair for ``mode="sda"``, and no step
reads the mode.

Each accepted step verifies that I - G H and I - H G are nonsingular
M-matrices and records sign and monotonicity diagnostics; the solver never
silently ignores a structural violation.  Every matrix M the iteration
inverts is a nonsingular M-matrix in theory and is solved by
``linalg._m_solve(M, *blocks)``: it appends a column of ones, whose
solution x = M^{-1} 1 certifies that kind (``linalg._certifies``) and
gives 1 / ||M^{-1}||_inf, the ``dist`` of the diagnostics; a failed
certificate on the shifted K of the initialization raises SingularMatrix.

Each iterate's I - G H, of order n, is inverted once, when the iterate
is created, and W = (I - G H)^{-1} is carried to the next step.  The
push-through identity

    (I - H G)^{-1} = I + H W G,    so    (I - H G)^{-1} H = H W,

turns the step into products only:

    E+ = (E W) E                  G+ = G + (E W)(G F)
    F+ = F F + (F H W)(G F)       H+ = H + (F H W) E.

Both terms of F+ carry F on each side, so they are nonnegative at every
step (F <= 0 at k = 0, F >= 0 after) and their sum does not cancel.
I - H G is formed but not solved: x2 = 1 + H (W (G 1)) is its
(I - H G)^{-1} 1, which certifies it and gives its ``dist``.  Only an
uncertified cross product is classified, by ``mstruct.classify_zm``; the
next step breaks down when that kind is singular or LAPACK found I - G H
exactly singular.

``solve`` keeps one iterate at a time and a trace of diagnostics; the
pure ``initialize`` and ``step`` replay its iterates bit for bit.
"""

from __future__ import annotations

import math
import operator
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
from .problem import GUARANTEED_REGIMES, Certificate, MareProblem, ProblemClass
from .problem import classify_problem, make_certificate, sign_tol

MODE_ADDA = "adda"
MODE_SDA = "sda"


@dataclass(frozen=True)
class DoublingParams:
    alpha: float
    beta: float
    max_iter: int = 60
    stop_tol: float = 1e-14

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidParameters("alpha and beta must be positive")
        if not math.isfinite(self.alpha + self.beta):
            raise InvalidParameters(f"alpha + beta must be finite, got {self.alpha} + {self.beta}")
        try:
            operator.index(self.max_iter)
        except TypeError:
            raise InvalidParameters(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if self.max_iter < 1:
            raise InvalidParameters("max_iter must be >= 1")
        if not self.stop_tol >= 0:
            raise InvalidParameters(f"stop_tol must be nonnegative, got {self.stop_tol}")


def select_parameters(
    p: MareProblem,
    requested: tuple[float, float] | None = None,
    mode: str = MODE_ADDA,
) -> DoublingParams:
    """Default to the rate-optimal pair alpha = max a_ii, beta = max d_ii.

    Requested values are honored when they satisfy alpha >= max a_ii and
    beta >= max d_ii (and alpha == beta in single-parameter mode, whose
    default is alpha = beta = max of both); values below the optimal pair
    are rejected.  Raises NonpositiveDiagonal when either coefficient
    diagonal has no positive entry.  The iteration limits are those
    ``DoublingParams`` defaults to; ``dataclasses.replace`` sets others.
    """
    a_star = float(np.diag(p.A).max())
    d_star = float(np.diag(p.D).max())
    if a_star <= 0 or d_star <= 0:
        raise NonpositiveDiagonal(
            f"max diag(A) = {a_star}, max diag(D) = {d_star}; both must be positive"
        )
    if requested is None:
        gamma = max(a_star, d_star)
        alpha, beta = (gamma, gamma) if mode == MODE_SDA else (a_star, d_star)
    else:
        alpha, beta = float(requested[0]), float(requested[1])
        if alpha < a_star or beta < d_star:
            raise InvalidParameters(
                f"requested (alpha, beta) = ({alpha}, {beta}) below the admissible "
                f"bounds ({a_star}, {d_star})"
            )
    if mode not in (MODE_ADDA, MODE_SDA):
        raise InvalidParameters(f"unknown mode {mode!r}")
    if mode == MODE_SDA and alpha != beta:
        raise InvalidParameters("single-parameter mode requires alpha == beta")
    return DoublingParams(alpha, beta)


# ---------------------------------------------------------------------------
# Iteration state
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StepDiagnostics:
    """Structural health of one accepted iterate.

    ``dH_columns`` are the column sums of |H_k - H_{k-1}|, whose largest is
    ``dH``; at k = 0 they are None and ``dH`` is NaN.
    """

    k: int
    dH: float
    dG: float
    dist_IGH: float
    dist_IHG: float
    kind_IGH: MatrixKind
    kind_IHG: MatrixKind
    sign_violations_E: int
    sign_violations_F: int
    monotonicity_violations: int
    dH_columns: np.ndarray | None


@dataclass(frozen=True)
class DoublingState:
    """Iterate (E, F, G, H) at step k, plus the diagnostics of this step.

    ``solves`` carries W = (I - G H)^{-1} at this iterate, as computed with
    its diagnostics, so that ``step`` does not invert it again; it is None
    when LAPACK found I - G H exactly singular.  (I - H G)^{-1} is
    I + H W G and is never formed.  Every state is built by ``_iterate``.
    """

    k: int
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    diagnostics: StepDiagnostics
    tau_sign: float
    solves: np.ndarray | None


@dataclass(frozen=True)
class SolveReport:
    """Solver output: phi is the final H, psi the final G; ``trace`` has the diagnostics, no iterate."""

    phi: np.ndarray
    psi: np.ndarray
    iterations: int
    trace: tuple[StepDiagnostics, ...]
    certificate: Certificate
    theoretical_rate: float | None
    observed_rate: float | None
    params: DoublingParams
    problem_class: ProblemClass
    converged: bool
    flags: tuple[str, ...]


def _cross_solves(G: np.ndarray, H: np.ndarray):
    """W = (I - G H)^{-1}, and (dist, kind) of I - G H and of I - H G.

    One certified solve, ``linalg._m_solve(I - G H, I)``, gives W and
    certifies I - G H through x1 = W 1.  I - H G is formed, not solved:
    x2 = 1 + H (W (G 1)) is (I - H G)^{-1} 1 by the push-through identity,
    ``linalg._certifies`` judges it, and its dist is 1 / max|x2|.  Only a
    matrix whose certificate fails is classified by ``mstruct.classify_zm``;
    W is None and both dists are 0 when LAPACK finds I - G H exactly
    singular.
    """
    igh, ihg = G @ H, H @ G
    for M in (igh, ihg):
        # I - M in the product's own buffer: 0 - M, then 1 added on the diagonal
        np.subtract(0.0, M, out=M)
        M.reshape(-1)[:: len(M) + 1] += 1.0
    try:
        W, dist_igh, certified_igh, _ = linalg._m_solve(igh, np.eye(len(igh)))
    except SingularMatrix:
        W, dist_igh, certified_igh, dist_ihg, certified_ihg = None, 0.0, False, 0.0, False
    else:
        x2 = 1.0 + H @ (W @ G.sum(axis=1))
        dist_ihg, certified_ihg = 1.0 / float(np.abs(x2).max()), linalg._certifies(ihg, x2)
    kinds = [
        MatrixKind.NONSINGULAR_M if certified else mstruct.classify_zm(M).kind
        for M, certified in ((igh, certified_igh), (ihg, certified_ihg))
    ]
    return W, (dist_igh, kinds[0]), (dist_ihg, kinds[1])


def _iterate(
    E: np.ndarray, F: np.ndarray, G: np.ndarray, H: np.ndarray, tau: float, prev: DoublingState | None
) -> DoublingState:
    """The state of (E, F, G, H): the iterate after ``prev``, or the initial one for None.

    Its W = (I - G H)^{-1} is computed here, once, and carried in ``solves``.
    """
    W, (dist_igh, kind_igh), (dist_ihg, kind_ihg) = _cross_solves(G, H)
    if prev is None:
        k, dH_columns, dG, mono = 0, None, math.nan, 0
        sign_E, sign_F = np.count_nonzero(E > tau), np.count_nonzero(F > tau)
    else:
        k, dH_columns, dG = prev.k + 1, np.abs(H - prev.H).sum(axis=0), one_norm(G - prev.G)
        mono = np.count_nonzero(H < prev.H - tau) + np.count_nonzero(G < prev.G - tau)
        sign_E, sign_F = np.count_nonzero(E < -tau), np.count_nonzero(F < -tau)
    diag = StepDiagnostics(
        k=k,
        dH=math.nan if dH_columns is None else float(dH_columns.max()),
        dG=dG,
        dist_IGH=dist_igh,
        dist_IHG=dist_ihg,
        kind_IGH=kind_igh,
        kind_IHG=kind_ihg,
        sign_violations_E=int(sign_E),
        sign_violations_F=int(sign_F),
        monotonicity_violations=int(mono),
        dH_columns=dH_columns,
    )
    return DoublingState(k, E, F, G, H, diag, tau, W)


def initialize(p: MareProblem, params: DoublingParams) -> DoublingState:
    """Build the k = 0 iterate from the blocks of Z = gamma (K + diag(alpha I, beta I))^{-1}.

    The shifted K is a nonsingular M-matrix for admissible (alpha, beta)
    and is solved once, certified, by ``linalg._m_solve``; a failed
    certificate raises SingularMatrix.  Under the admissibility bounds the
    initial blocks satisfy E0 <= 0, F0 <= 0 and G0, H0 >= 0 up to
    round-off; violations are counted in the diagnostics rather than
    silently dropped.
    """
    select_parameters(p, (params.alpha, params.beta))
    n = p.n
    shifted = p.K + np.diag(np.repeat([params.alpha, params.beta], [n, p.m]))
    try:
        Z, _, certified, _ = linalg._m_solve(shifted, np.eye(p.size))
        if not certified:
            raise SingularMatrix("matrix fails its nonsingular M-matrix certificate")
    except SingularMatrix as exc:
        raise SingularMatrix(f"doubling initialization failed: {exc}") from exc
    Z *= params.alpha + params.beta
    E0 = np.eye(n) - Z[:n, :n]
    F0 = np.eye(p.m) - Z[n:, n:]
    return _iterate(E0, F0, Z[:n, n:], Z[n:, :n], sign_tol(p), None)


def step(s: DoublingState) -> DoublingState:
    """One doubling step, with W = (I - G H)^{-1} carried by ``s``:

        E+ = E (I - G H)^{-1} E  = (E W) E
        F+ = F (I - H G)^{-1} F  = F F + (F H W)(G F)
        G+ = G + E (I - G H)^{-1} G F  = G + (E W)(G F)
        H+ = H + F (I - H G)^{-1} H E  = H + (F H W) E

    by the push-through identity (I - H G)^{-1} = I + H W G, so the step
    runs products only.  Raises IterationBreakdown when I - G H is exactly
    singular to LAPACK or I - G H or I - H G, failing its certificate,
    classifies as a singular M-matrix, which signals that the problem sits
    outside the guaranteed regimes (e.g. a critical problem near
    convergence).
    """
    E, F, G, H, W = s.E, s.F, s.G, s.H, s.solves
    kind_igh, kind_ihg = s.diagnostics.kind_IGH, s.diagnostics.kind_IHG
    if W is None or MatrixKind.SINGULAR_M in (kind_igh, kind_ihg):
        raise IterationBreakdown(
            f"I - G H or I - H G singular at step {s.k} (kinds {kind_igh.value}, {kind_ihg.value})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the breakdown below
        EW, GF = E @ W, G @ F
        FHW = F @ H @ W
        E_new = EW @ E
        F_new = F @ F + FHW @ GF
        G_new = G + EW @ GF
        H_new = H + FHW @ E
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
    return _iterate(E_new, F_new, G_new, H_new, s.tau_sign, s)


def solve(p: MareProblem, params: DoublingParams | None = None) -> SolveReport:
    """Run the doubling iteration to convergence and certify the result.

    Stops when both successive differences satisfy
    ||H_k - H_{k-1}||_1 <= stop_tol * max(1, ||H_k||_1) (same for G),
    raising MaxIterations (with the best report attached) if the cap is
    reached first.  A regime outside ``GUARANTEED_REGIMES`` is attempted
    best effort and reported only by its ``regime-unsupported:<regime>``
    flag.
    """
    if params is None:
        params = select_parameters(p)
    pc = classify_problem(p)
    flags: list[str] = []
    if pc.regime not in GUARANTEED_REGIMES:
        flags.append(f"regime-unsupported:{pc.regime.value}")

    state = initialize(p, params)
    trace = [state.diagnostics]
    converged, tol = False, params.stop_tol
    for _ in range(params.max_iter):
        state = step(state)
        trace.append(d := state.diagnostics)
        if d.dH <= tol * max(1.0, one_norm(state.H)) and d.dG <= tol * max(1.0, one_norm(state.G)):
            converged = True
            break

    phi = np.maximum(state.H, 0.0)
    psi = np.maximum(state.G, 0.0)
    cert = make_certificate(p, phi, psi, problem_class=pc)

    theo = None
    try:
        theo = theoretical_rate(p, cert, params)
    except SingularMatrix:
        flags.append("theoretical-rate-unavailable")
    obs = None
    try:
        obs = observed_rate(trace)
    except InsufficientTrace:
        pass

    if (theo is not None and theo >= 1.0 - 1e-6) or (obs is not None and obs >= 0.95):
        flags.append("non-quadratic")
    if any(d.sign_violations_E or d.sign_violations_F for d in trace):
        flags.append("sign-violations")
    if any(d.monotonicity_violations for d in trace):
        flags.append("monotonicity-violations")
    if any(kind is not MatrixKind.NONSINGULAR_M for d in trace for kind in (d.kind_IGH, d.kind_IHG)):
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
    """Convergence factor r(alpha, beta) from the certified gaps of the closing matrices.

    With tau(R) and tau(S) the smallest real eigenvalues of R and S, the
    gaps ``cert.r_class.gap`` and ``cert.s_class.gap`` (Wang, Wang & Li,
    SIMAX 33 (2012) 170-194),

        r(alpha, beta) = (beta - tau(R)) / (alpha + tau(R))
                       * (alpha - tau(S)) / (beta + tau(S)).

    This is exact, with no solve: for admissible alpha >= max a_ii and
    beta >= max d_ii, beta I - R >= 0 and (R + alpha I)^{-1} >= 0, so
    (R + alpha I)^{-1} (beta I - R) is nonnegative and its Perron root is
    f(tau(R)) for the decreasing f(x) = (beta - x) / (alpha + x), the
    largest |f| over the spectrum of R; likewise for S.  Raises
    InvalidParameters for inadmissible (alpha, beta) and SingularMatrix
    when R + alpha I or S + beta I is not a nonsingular M-matrix (a gap
    plus shift <= 0).
    """
    select_parameters(p, (params.alpha, params.beta))
    alpha, beta = params.alpha, params.beta
    tau_r, tau_s = cert.r_class.gap, cert.s_class.gap
    if not (alpha + tau_r > 0.0 and beta + tau_s > 0.0):
        raise SingularMatrix(
            f"R + alpha I or S + beta I is not a nonsingular M-matrix (gaps {tau_r:.3e}, {tau_s:.3e})"
        )
    return abs((beta - tau_r) / (alpha + tau_r)) * abs((alpha - tau_s) / (beta + tau_s))


def observed_rate(trace) -> float:
    """Empirical rate ||H_k - H_N||_1^(1 / 2^k) of a trace, H_N its last iterate.

    The error is the largest entry of the ``dH_columns`` of the steps after
    k, summed from the last: the norm while the iterates increase, as the
    theory promises and ``monotonicity_violations`` checks, and an upper
    bound otherwise.  Steps whose error is below 100 * eps carry no rate
    information (they are pure round-off) and are skipped; fewer than two
    usable steps raise InsufficientTrace.  Of the last three usable steps the smallest value
    is returned: the per-step values decrease toward the asymptotic rate as
    the preasymptotic constant washes out (a constant C inflates step k by
    C^(1/2^k)), so the deepest iterates are the faithful estimate.
    """
    usable = []  # from the last step back
    later = 0.0  # the summed dH_columns of the steps after d
    for d in reversed(trace):
        err = float(np.max(later))
        if err > 100 * EPS:
            usable.append((d.k, err))
        if d.dH_columns is not None:
            later = later + d.dH_columns
    if len(usable) < 2:
        raise InsufficientTrace(f"only {len(usable)} informative iterates in trace")
    return min(err ** (1.0 / 2.0**k) for k, err in usable[:3])


def trace_to_csv(trace) -> str:
    """Iteration trace as CSV (one row per step; dH/dG empty at k = 0; dist_* as in ``linalg._m_solve``)."""
    lines = ["k,dH,dG,dist_IGH,dist_IHG,sign_violations_E,sign_violations_F,monotonicity_violations"]
    for d in trace:
        dh = "" if math.isnan(d.dH) else format(d.dH, ".17g")
        dg = "" if math.isnan(d.dG) else format(d.dG, ".17g")
        lines.append(
            f"{d.k},{dh},{dg},{format(d.dist_IGH, '.17g')},{format(d.dist_IHG, '.17g')},"
            f"{d.sign_violations_E},{d.sign_violations_F},{d.monotonicity_violations}"
        )
    return "\n".join(lines) + "\n"

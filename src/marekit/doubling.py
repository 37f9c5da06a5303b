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
silently ignores a structural violation.  Besides its one LAPACK solve,
its ten GEMMs (the nine of the products below and G H) and the
matrix-vector products of its certificates, a step makes one bookkeeping
pass over its new blocks: the changes H+ - H and G+ - G as rounded, their
minima and column sums, and the minimum and maximum of E+ and F+.  The
diagnostics, the one finiteness test and the rebalancing test are read
off these, and an exact count or norm runs only where they cannot decide
(``step``).  ``solve``'s stop test takes the 1-norms of H+ and G+ on
every step.  Every matrix M the iteration inverts is a nonsingular
M-matrix in theory and is solved by ``linalg._m_solve(M, *blocks)``: it
appends a column of ones, whose solution x = M^{-1} 1 certifies that
kind (``linalg._certifies``) and gives 1 / ||M^{-1}||_inf, the ``dist``
of the diagnostics; a failed certificate on the shifted K of the
initialization raises SingularMatrix.

Each iterate's I - G H, of order n, is inverted once, when the iterate
is created, and W = (I - G H)^{-1} is carried to the next step.  The
push-through identity

    (I - H G)^{-1} = I + H W G,    so    (I - H G)^{-1} H = H W,

turns the step into products only:

    E+ = (E W) E                  G+ = G + (E W)(G F)
    F+ = F F + (F H W)(G F)       H+ = H + (F H W) E.

Both terms of F+ carry F on each side, so they are nonnegative at every
step (F <= 0 at k = 0, F >= 0 after) and their sum does not cancel.
I - H G is not solved: x2 = 1 + H (W (G 1)) is its (I - H G)^{-1} 1 and
gives its ``dist``.  One certificate decides both kinds where G, H >= 0,
which the cross solve reads off the minima of G and H: both cross
products are then Z-matrices, and rho(H G) = rho(G H), so I - H G takes
the kind of I - G H (``_cross_solves``).  The eleventh GEMM, H G, runs
only where G or H has a negative entry.  Only an uncertified cross
product is classified, by ``mstruct.classify_zm``; the next step breaks
down when that kind is singular or LAPACK found I - G H exactly
singular.

``solve`` keeps one iterate at a time and a trace of diagnostics; the
pure ``initialize`` and ``step`` replay its iterates bit for bit.  Its
last iterate also starts the certificate's Perron runs on R and S.  The
error relations of ADDA (Wang, Wang & Li, SIMAX 33 (2012) 170-194),

    E_k = (I - G_k Phi) T_R^(2^k),    T_R = (R + alpha I)^{-1} (R - beta I),
    F_k = (I - H_k Psi) T_S^(2^k),    T_S = (S + beta I)^{-1} (S - alpha I),

make E_N 1 point along (I - Psi Phi) x_R and F_N 1 along (I - Phi Psi) x_S
as N grows, x_R and x_S the Perron vectors of the splits of R and S and
the dominant eigenvectors of T_R and T_S.  As W tends to
(I - Psi Phi)^{-1} and I + H W G to (I - Phi Psi)^{-1}, the vectors
W E 1 and F 1 + H W G F 1 point along x_R and x_S: three matrix-vector
products and no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, mstruct
from .errors import (
    InvalidParameters,
    IterationBreakdown,
    MaxIterations,
    NonpositiveDiagonal,
    SingularMatrix,
)
from .linalg import EPS, one_norm
from .mstruct import MatrixKind
from .problem import GUARANTEED_REGIMES, Certificate, MareProblem, ProblemClass
from .problem import CERT_TOL, _certificate, _check_max_iter, _check_real, _check_tol, classify_problem, sign_tol

MODE_ADDA = "adda"
MODE_SDA = "sda"


@dataclass(frozen=True)
class DoublingParams:
    alpha: float
    beta: float
    max_iter: int = 60
    stop_tol: float = 1e-14

    def __post_init__(self):
        _check_real(self.alpha, "alpha")
        _check_real(self.beta, "beta")
        if not (self.alpha > 0 and self.beta > 0):
            raise InvalidParameters("alpha and beta must be positive")
        if not math.isfinite(self.alpha + self.beta):
            raise InvalidParameters(f"alpha + beta must be finite, got {self.alpha} + {self.beta}")
        _check_max_iter(self.max_iter)
        _check_tol(self.stop_tol, "stop_tol")


def select_parameters(
    p: MareProblem,
    requested: tuple[float, float] | None = None,
    mode: str = MODE_ADDA,
) -> DoublingParams:
    """Default to the rate-optimal pair alpha = max a_ii, beta = max d_ii.

    Requested values are honored when they satisfy alpha >= max a_ii and
    beta >= max d_ii (and alpha == beta in single-parameter mode, whose
    default is alpha = beta = max of both); values below the optimal pair
    are rejected, as is a ``requested`` that is not a pair of real numbers
    (InvalidParameters).  Raises NonpositiveDiagonal when either coefficient
    diagonal has no positive entry.  The iteration limits are those
    ``DoublingParams`` defaults to; ``dataclasses.replace`` sets others.
    """
    a_star = float(p.A.diagonal().max())
    d_star = float(p.D.diagonal().max())
    if a_star <= 0 or d_star <= 0:
        raise NonpositiveDiagonal(
            f"max diag(A) = {a_star}, max diag(D) = {d_star}; both must be positive"
        )
    if requested is None:
        gamma = max(a_star, d_star)
        alpha, beta = (gamma, gamma) if mode == MODE_SDA else (a_star, d_star)
    else:
        try:
            alpha, beta = requested
        except (TypeError, ValueError):
            raise InvalidParameters(f"requested (alpha, beta) must be a pair, got {requested!r}") from None
        _check_real(alpha, "alpha")
        _check_real(beta, "beta")
        alpha, beta = float(alpha), float(beta)
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
    when LAPACK found I - G H exactly singular or G H is not finite.
    (I - H G)^{-1} is I + H W G and is never formed.  Every state is built
    by ``_state``.
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
    certifies I - G H through x1 = W 1; ``mstruct.classify_zm`` judges it
    where that certificate fails.  I - H G is not solved: x2 =
    1 + H (W (G 1)) is (I - H G)^{-1} 1 by the push-through identity, and
    its dist is 1 / max|x2|, as in ``_m_solve``.  Where max|x2| is not a
    finite positive number, as where x2 overflowed or H W G 1 cancelled 1
    to a zero x2, dist_IHG is 0 and the kinds are judged as below.  W is
    None and both dists are 0 when LAPACK finds I - G H exactly singular.
    Where G H is not finite (finite G and H whose product overflowed), no
    solve runs: W is None, both dists are 0 and both kinds are SingularM,
    as a tolerance that grows with ||M||_1 is infinite there and tells no
    gap from 0; the next step breaks down.  By the same rule a cross
    product that ``classify_zm`` refuses, one whose 1-norm overflows or,
    for I - H G, whose entries are not finite, is SingularM (``_kind``).
    The products run with overflow and invalid values ignored, as these
    rules read what they give.

    G, H >= 0 is read off the blocks by their minima.  Then fl(G H) >= 0,
    so I - G H is a Z-matrix and ``_m_solve`` skips its Z-test, and I - H G
    is one too.  As G H and H G have the same nonzero eigenvalues,
    rho(H G) = rho(G H): I - H G is a nonsingular, a singular or no
    M-matrix exactly where I - G H is, and takes its kind.  Only where G
    or H has a negative entry is I - H G formed, the eleventh GEMM, and
    classified by ``classify_zm``.
    """
    nonneg = np.minimum.reduce(G, None) >= 0.0 and np.minimum.reduce(H, None) >= 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # read by the rules above
        igh = G @ H
        # I - M in the product's own buffer, from the read-only identity of linalg._eye
        eye = linalg._eye(len(G))
        np.subtract(eye, igh, out=igh)
        try:
            # the solve against _eye's identity reads the [I 1] built with it
            W, dist_igh, certified_igh, _ = linalg._m_solve(igh, eye, known_z=nonneg)
        except SingularMatrix:
            W, dist_igh, dist_ihg, certified_igh = None, 0.0, 0.0, False
        except ValueError:  # G H is not finite
            return None, (0.0, MatrixKind.SINGULAR_M), (0.0, MatrixKind.SINGULAR_M)
        else:
            top = float(np.maximum.reduce(np.abs(1.0 + H @ (W @ np.add.reduce(G, 1))), None))
            dist_ihg = 1.0 / top if top > 0.0 else 0.0
        kind_igh = kind_ihg = MatrixKind.NONSINGULAR_M if certified_igh else _kind(igh)
        if not nonneg:
            kind_ihg = _kind(np.subtract(linalg._eye(len(H)), H @ G))
    return W, (dist_igh, kind_igh), (dist_ihg, kind_ihg)


def _kind(M: np.ndarray) -> MatrixKind:
    """The kind ``classify_zm`` gives the cross product M; SingularM where it refuses M (ValueError)."""
    try:
        return mstruct.classify_zm(M).kind
    except ValueError:  # M or its 1-norm is not finite: no gap can be told from 0
        return MatrixKind.SINGULAR_M


def _state(k: int, E, F, G, H, tau: float, **measures) -> DoublingState:
    """The state of the iterate (E, F, G, H) at step k; ``measures`` are its diagnostics' other fields.

    Its W = (I - G H)^{-1} is computed here, once, and carried in
    ``solves``.
    """
    W, (dist_igh, kind_igh), (dist_ihg, kind_ihg) = _cross_solves(G, H)
    diag = StepDiagnostics(
        k=k, dist_IGH=dist_igh, dist_IHG=dist_ihg, kind_IGH=kind_igh, kind_IHG=kind_ihg, **measures
    )
    return DoublingState(k, E, F, G, H, diag, tau, W)


def _iterate(E: np.ndarray, F: np.ndarray, G: np.ndarray, H: np.ndarray, tau: float) -> DoublingState:
    """The initial state of (E, F, G, H): its sign counts are the entries of E and F above tau."""
    return _state(
        0,
        E,
        F,
        G,
        H,
        tau,
        dH=math.nan,
        dG=math.nan,
        sign_violations_E=int(np.count_nonzero(E > tau)),
        sign_violations_F=int(np.count_nonzero(F > tau)),
        monotonicity_violations=0,
        dH_columns=None,
    )


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
        Z, _, certified, _ = linalg._m_solve(shifted, linalg._eye(p.size))
        if not certified:
            raise SingularMatrix("matrix fails its nonsingular M-matrix certificate")
    except SingularMatrix as exc:
        raise SingularMatrix(f"doubling initialization failed: {exc}") from exc
    Z *= params.alpha + params.beta
    E0 = np.subtract(linalg._eye(n), Z[:n, :n])
    F0 = np.subtract(linalg._eye(p.m), Z[n:, n:])
    return _iterate(E0, F0, Z[:n, n:], Z[n:, :n], sign_tol(p))


def step(s: DoublingState) -> DoublingState:
    """One doubling step, with W = (I - G H)^{-1} carried by ``s``:

        E+ = E (I - G H)^{-1} E  = (E W) E
        F+ = F (I - H G)^{-1} F  = F F + (F H W)(G F)
        G+ = G + E (I - G H)^{-1} G F  = G + (E W)(G F)
        H+ = H + F (I - H G)^{-1} H E  = H + (F H W) E

    by the push-through identity (I - H G)^{-1} = I + H W G, so the step
    runs products only.  Raises IterationBreakdown when s has no W (I - G H
    exactly singular to LAPACK, or G H not finite) or I - G H or I - H G,
    failing its certificate, classifies as a singular M-matrix, which
    signals that the problem sits outside the guaranteed regimes (e.g. a
    critical problem near convergence), and names this step when H+, G+ or
    the rebalanced E+ or F+ is not finite, or their changes or column sums
    overflow.

    The diagnostics come from one pass over the new blocks.  Each shortcut
    below is exact, and the exact count or norm is its fallback:

    - dH and dG are the largest column sums of |H+ - H| and |G+ - G|, the
      changes as rounded.  One test reads finiteness off six values: a
      nonfinite H+ makes dH nonfinite, as H is finite; likewise for G, and
      E+ and F+ are finite exactly when their extrema are.  A change whose
      column sums overflow breaks down too, at the step that made it.
    - The monotonicity count of H is 0 where min(H+ - H) >= 0, because
      fl(a - b) >= 0 exactly when a >= b, and b >= fl(b - tau) for
      tau >= 0.  Likewise for G.
    - The sign count of E+ is 0 where min E+ >= -tau; likewise for F+.
      Where the rebalancing scales E+ by theta > 0, its extrema scale with
      it, as rounding is monotone.
    - The rebalancing asks for a 1-norm above 1e100.  A computed column sum
      of r entries of modulus at most M is below 2 r M, so
      2 r max|E+| <= 1e100 (and the same for F+) rules it out.  Only above
      that bound are the two 1-norms taken.
    """
    E, F, G, H, W = s.E, s.F, s.G, s.H, s.solves
    kind_igh, kind_ihg = s.diagnostics.kind_IGH, s.diagnostics.kind_IHG
    if W is None or MatrixKind.SINGULAR_M in (kind_igh, kind_ihg):
        raise IterationBreakdown(
            f"I - G H or I - H G singular at step {s.k} (kinds {kind_igh.value}, {kind_ihg.value})"
        )
    k, tau = s.k + 1, s.tau_sign
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported by the breakdowns below
        EW, GF = E @ W, G @ F
        FHW = F @ H @ W
        E_new = EW @ E
        F_new = F @ F + FHW @ GF
        G_new = G + EW @ GF
        H_new = H + FHW @ E
        change_h, change_g = H_new - H, G_new - G
        low_h, low_g = np.minimum.reduce(change_h, None), np.minimum.reduce(change_g, None)
        dH_columns = np.add.reduce(np.abs(change_h, out=change_h), 0)
        dH = float(np.maximum.reduce(dH_columns, None))
        dG = float(np.maximum.reduce(np.add.reduce(np.abs(change_g, out=change_g), 0), None))
        e_lo, e_hi = np.minimum.reduce(E_new, None), np.maximum.reduce(E_new, None)
        f_lo, f_hi = np.minimum.reduce(F_new, None), np.maximum.reduce(F_new, None)
        # In singular regimes one of E, F legitimately diverges like rho^(2^k)
        # while the other shrinks at the same pace; their products (all that H
        # and G ever see) stay bounded.  Rebalancing by a scalar is exactly
        # invariant for every H/G/sign observable and keeps both in range.
        if not (2 * len(E) * max(-e_lo, e_hi) <= 1e100 and 2 * len(F) * max(-f_lo, f_hi) <= 1e100):
            ne, nf = one_norm(E_new), one_norm(F_new)
            if max(ne, nf) > 1e100 and min(ne, nf) > 0.0:
                theta = math.sqrt(nf) / math.sqrt(ne)
                E_new *= theta
                F_new /= theta
                # rounding is monotone, so the extrema scale with their blocks
                e_lo, e_hi, f_lo, f_hi = e_lo * theta, e_hi * theta, f_lo / theta, f_hi / theta
    if not all(map(math.isfinite, (dH, dG, e_lo, e_hi, f_lo, f_hi))):
        raise IterationBreakdown(f"nonfinite iterate at step {k}")
    sign_E = sign_F = mono = 0
    if e_lo < -tau:
        sign_E = np.count_nonzero(E_new < -tau)
    if f_lo < -tau:
        sign_F = np.count_nonzero(F_new < -tau)
    if low_h < 0.0:
        mono += np.count_nonzero(H_new < H - tau)
    if low_g < 0.0:
        mono += np.count_nonzero(G_new < G - tau)
    return _state(
        k,
        E_new,
        F_new,
        G_new,
        H_new,
        tau,
        dH=dH,
        dG=dG,
        sign_violations_E=int(sign_E),
        sign_violations_F=int(sign_F),
        monotonicity_violations=int(mono),
        dH_columns=dH_columns,
    )


def _closing_starts(s: DoublingState) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Perron starts for R and S read off the iterate s: W E 1 and F 1 + H (W (G (F 1))).

    These point along the Perron vectors of the splits of R and S near
    convergence (see the module docstring).  Each is normalized by
    ``linalg._perron_start``, and is None where W is None or the vector is
    not finite and positive, as where E or F has underflowed to 0; the
    certificate then starts from K's witness.
    """
    if s.solves is None:
        return None, None
    with np.errstate(over="ignore", invalid="ignore"):  # a nonfinite start is refused below
        f1 = s.F.sum(axis=1)
        r0 = s.solves @ s.E.sum(axis=1)
        s0 = f1 + s.H @ (s.solves @ (s.G @ f1))
    return linalg._perron_start(r0), linalg._perron_start(s0)


def solve(p: MareProblem, params: DoublingParams | None = None) -> SolveReport:
    """Run the doubling iteration to convergence and certify the result.

    Stops when both successive differences satisfy
    ||H_k - H_{k-1}||_1 <= stop_tol * max(1, ||H_k||_1) (same for G),
    raising MaxIterations (with the best report attached) if the cap is
    reached first.  A regime outside ``GUARANTEED_REGIMES`` is attempted
    best effort and reported only by its ``regime-unsupported:<regime>``
    flag.  The answer is certified as by ``make_certificate``, the Perron
    runs on R and S started from the last iterate (``_closing_starts``);
    the roots are certified from any start, so only the number of Noda
    solves depends on it.  The test runs as written on every step, on the
    diagnostics' dH and dG and on ``one_norm`` of H_k and, where the test
    on H passes, of G_k.
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
    cert = _certificate(p, phi, psi, CERT_TOL, pc, *_closing_starts(state))

    theo = None
    try:
        theo = theoretical_rate(p, cert, params)
    except SingularMatrix:
        flags.append("theoretical-rate-unavailable")
    obs = observed_rate(trace)

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
    largest |f| over the spectrum of R; likewise for S.

    So the defaults minimize r over larger parameters whenever a + b >= 0,
    with a = tau(R) and b = tau(S), which passing closing checks give up
    to their tolerance.  A Z-matrix's tau is at most each of its diagonal
    entries, and R_ii <= d_ii, S_ii <= a_ii, so beta >= a and alpha >= b
    for admissible parameters, and r = (beta - a)(alpha - b) / ((alpha +
    a)(beta + b)) with

        dr/dalpha = (beta - a)(a + b) / ((beta + b)(alpha + a)^2),
        dr/dbeta  = (alpha - b)(a + b) / ((alpha + a)(beta + b)^2),

    both >= 0: r(alpha', beta') >= r(alpha, beta) for alpha' >= alpha and
    beta' >= beta (the grid of ``marekit rate-study``).  Raises
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


def observed_rate(trace) -> float | None:
    """Empirical rate ||H_k - H_N||_1^(1 / 2^k) of a trace, H_N its last iterate.

    The error is the largest entry of the ``dH_columns`` of the steps after
    k, summed from the last: the norm while the iterates increase, as the
    theory promises and ``monotonicity_violations`` checks, and an upper
    bound otherwise.  Steps whose error is below 100 * eps carry no rate
    information (they are pure round-off) and are skipped; with fewer than
    two usable steps there is no rate to estimate and None is returned, as
    ``SolveReport.observed_rate`` stores it.  Of the last three usable steps
    the smallest value is returned: the per-step values decrease toward the
    asymptotic rate as the preasymptotic constant washes out (a constant C
    inflates step k by C^(1/2^k)), so the deepest iterates are the faithful
    estimate.
    """
    columns = [d.dH_columns for d in reversed(trace) if d.dH_columns is not None]
    # sums[j]: the largest entry of the sum of the last j columns, added from the last by one cumulative sum
    sums = [0.0, *np.cumsum(columns, axis=0).max(axis=1).tolist()] if columns else [0.0]
    usable = []  # from the last step back
    later = 0  # the number of steps after d that carry columns
    for d in reversed(trace):
        err = sums[later]
        if err > 100 * EPS:
            usable.append((d.k, err))
        later += d.dH_columns is not None
    if len(usable) < 2:
        return None
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

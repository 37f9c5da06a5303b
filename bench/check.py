"""Independent answer check, in numpy only.

An answer (phi, psi) to the problem (A, B, C, D) is accepted when

- both are finite, of the right shape and entrywise nonnegative up to a
  tolerance;
- the normalized primal residual of X C X - X D - A X + B at phi and the
  dual residual of Y B Y - Y A - D Y + C at psi are small;
- the closing matrices R = D - C phi and S = A - B psi have no eigenvalue
  with real part below -tol * scale.  This is the minimality
  characterization: for the minimal nonnegative solutions both closing
  matrices are M-matrices, while any other nonnegative solution leaves an
  eigenvalue in the open left half-plane.

An answer that misses these tolerances but still approximates the minimal
solutions is INACCURATE: the operation counts as failed.  One that does not
approximate them at all (garbage, or another solution of the equation) is
WRONG, and makes the whole run incorrect.

marekit's own certificate and its converged/all_passed verdicts are not
consulted, so a change that makes those verdicts stricter does not read
as a change in correctness here.  In the critical regime the solution is
only determined to about sqrt(eps), so the closing-matrix tolerance is
widened to that accuracy there.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)

OK, INACCURATE, WRONG = "ok", "inaccurate", "wrong"

# the accuracy asked of every answer
RESIDUAL_TOL = 1e-9
EIG_TOL = 1e-8
EIG_TOL_CRITICAL = 10 * math.sqrt(EPS)
# beyond these an answer does not approximate the minimal solution at all
# (another solution of the equation leaves an O(1) eigenvalue in the left
# half-plane)
WRONG_RESIDUAL = 1e-6
WRONG_EIG = 1e-3


def _n1(M) -> float:
    return float(np.abs(M).sum(axis=0).max()) if M.size else 0.0


def residual(X, A, B, C, D) -> float:
    """||X C X - X D - A X + B||_1 normalized by the size of its terms."""
    num = _n1(X @ C @ X - X @ D - A @ X + B)
    den = _n1(X) * (_n1(C) * _n1(X) + _n1(D) + _n1(A)) + _n1(B)
    return num / max(den, EPS)


def _min_real_eig(M, scale: float) -> float:
    return float(np.linalg.eigvals(M).real.min()) / max(scale, EPS)


def check_answer(p, phi, psi, critical: bool = False) -> tuple[str, str]:
    """(verdict, reason) for the answer (phi, psi) to problem ``p``.

    The verdict is OK, INACCURATE (an approximation of the minimal
    solutions that misses the accuracy asked for) or WRONG (not an
    approximation of them).  ``p`` needs the attributes n, m, A, B, C, D.
    """
    try:
        X = np.asarray(phi, dtype=np.float64)
        Y = np.asarray(psi, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        return WRONG, f"answer is not numeric: {exc}"
    if X.shape != (p.m, p.n) or Y.shape != (p.n, p.m):
        return WRONG, f"shapes {X.shape}, {Y.shape}; want {(p.m, p.n)}, {(p.n, p.m)}"
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        return WRONG, "answer has NaN or Inf entries"
    scale_k = max(1.0, _n1(p.A) + _n1(p.B) + _n1(p.C) + _n1(p.D))
    neg = -min(X.min(), Y.min(), 0.0) / scale_k
    res = max(residual(X, p.A, p.B, p.C, p.D), residual(Y, p.D, p.C, p.B, p.A), neg)
    eig = min(
        _min_real_eig(p.D - p.C @ X, _n1(p.D) + _n1(p.C) * _n1(X)),
        _min_real_eig(p.A - p.B @ Y, _n1(p.A) + _n1(p.B) * _n1(Y)),
    )
    tol = EIG_TOL_CRITICAL if critical else EIG_TOL
    why = f"residual or negative part {res:.3e} (asked {RESIDUAL_TOL:.0e}), closing eigenvalue real part {eig:.3e} (asked >= -{tol:.1e})"
    if res > WRONG_RESIDUAL or eig < -WRONG_EIG:
        return WRONG, why
    if res > RESIDUAL_TOL or eig < -tol:
        return INACCURATE, why
    return OK, "ok"

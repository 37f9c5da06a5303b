"""Seeded generators for problems in each of the handled regimes.

Construction for singular targets: draw a nonnegative matrix N on a
sparsity mask (block-triangular masks give reducible instances), pick a
positive vector v, and set the diagonal s_i = (N v)_i / v_i, so that
K = diag(s) - N kills v exactly and is therefore a singular M-matrix with
a built-in regularity witness.  Every row of N has an entry of at least
0.1, so s > 0 and each draw is a valid problem with a positive diagonal
in A and D.  The left null vector, the drift and the
zero-eigenvalue structure are then measured, and the draw is accepted or
rejected against the requested regime.  Nonsingular targets add a positive
diagonal shift; critical targets use a symmetric N and a norm-balanced v,
which forces left = right null vector and zero drift.

Randomness comes from numpy's Philox counter-based generator keyed by the
spec's seed, so identical specs produce byte-identical problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed, MareError
from .problem import MareProblem, Regime, _as_int, _check_real, classify_problem

# drift below this is too close to critical for the singular/nonsingular
# closing-matrix dichotomy to be numerically well separated in tests
DRIFT_MARGIN = 1e-2

# draws per generated problem before GenerationFailed
MAX_ATTEMPTS = 100

_MASKS = ("full", "upper", "lower")


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic recipe for one generated problem."""

    regime_target: Regime
    n: int
    m: int
    seed: int
    density: float = 0.7

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        object.__setattr__(self, "m", _as_int(self.m, "m"))
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", ValueError))
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        _check_real(self.density, "density", ValueError)
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.regime_target not in (
            Regime.NONSINGULAR_K,
            Regime.SINGULAR_NONCRITICAL,
            Regime.CRITICAL,
        ):
            raise ValueError(f"unsupported target regime {self.regime_target}")


def _mask(rng: np.random.Generator, n: int, m: int, kind: str, density: float) -> np.ndarray:
    """Boolean off-diagonal sparsity mask for N (True = entry allowed)."""
    size = n + m
    # a zeroed block starves its rows of off-diagonal entries unless the
    # remaining block has off-diagonal room of its own
    if kind == "upper" and m < 2:
        kind = "full"
    if kind == "lower" and n < 2:
        kind = "full"
    allowed = rng.random((size, size)) < density
    np.fill_diagonal(allowed, False)
    if kind == "upper":
        allowed[n:, :n] = False  # B = 0: block upper triangular K
    elif kind == "lower":
        allowed[:n, n:] = False  # C = 0: block lower triangular K
    # every row needs at least one allowed off-diagonal entry, or the
    # matched diagonal would vanish
    for i in range(size):
        if not allowed[i].any():
            choices = [j for j in range(size) if j != i]
            if kind == "upper" and i >= n:
                choices = [j for j in choices if j >= n]
            elif kind == "lower" and i < n:
                choices = [j for j in choices if j < n]
            allowed[i, rng.choice(choices)] = True
    return allowed


def _singular_z(rng: np.random.Generator, n: int, m: int, density: float, mask_kind: str, symmetric: bool):
    """K = diag(s) - N with K v = 0 for a drawn positive v."""
    size = n + m
    if symmetric:
        N = rng.uniform(0.1, 1.0, (size, size))
        N = np.triu(N, 1)
        N = N + N.T
        keep = rng.random((size, size)) < density
        keep = keep | keep.T
        np.fill_diagonal(keep, False)
        N = np.where(keep, N, 0.0)
        for i in range(size):
            if not N[i].any():
                j = (i + 1) % size
                w = rng.uniform(0.1, 1.0)
                N[i, j] = N[j, i] = w
        v1 = rng.uniform(0.5, 1.5, n)
        w2 = rng.uniform(0.5, 1.5, m)
        v2 = w2 * (np.linalg.norm(v1) / np.linalg.norm(w2))
        v = np.concatenate([v1, v2])
    else:
        allowed = _mask(rng, n, m, mask_kind, density)
        N = np.where(allowed, rng.uniform(0.1, 1.0, (size, size)), 0.0)
        v = rng.uniform(0.5, 1.5, size)
    s = (N @ v) / v
    return np.diag(s) - N, v


def _split(K: np.ndarray, n: int, m: int, name: str) -> MareProblem:
    return MareProblem(
        n=n,
        m=m,
        A=K[n:, n:],
        B=-K[n:, :n],
        C=-K[:n, n:],
        D=K[:n, :n],
        name=name,
    )


def generate(spec: FamilySpec) -> MareProblem:
    """Draw problems until one classifies as the requested regime.

    Acceptance re-runs the full classifier on every candidate, so the
    regime label on the returned problem is measured, never assumed.
    SingularNoncritical additionally requires |drift| >= 1e-2.  Raises
    GenerationFailed (with the last rejection reason) after ``MAX_ATTEMPTS``
    draws.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    target = spec.regime_target
    name = f"{target.value}-n{spec.n}-m{spec.m}-s{spec.seed}"
    last_reason = "no attempts made"
    for attempt in range(MAX_ATTEMPTS):
        mask_kind = _MASKS[int(rng.integers(0, len(_MASKS)))]
        if target == Regime.CRITICAL:
            K, _ = _singular_z(rng, spec.n, spec.m, spec.density, "full", symmetric=True)
        else:
            K, _ = _singular_z(rng, spec.n, spec.m, spec.density, mask_kind, symmetric=False)
            if target == Regime.NONSINGULAR_K:
                K = K + rng.uniform(0.1, 1.0) * np.eye(spec.n + spec.m)
        problem = _split(K, spec.n, spec.m, name)
        try:
            pc = classify_problem(problem)
        except MareError as exc:
            last_reason = f"attempt {attempt}: classification failed ({exc})"
            continue
        if pc.regime != target:
            last_reason = f"attempt {attempt}: got {pc.regime.value}, wanted {target.value}"
            continue
        if target == Regime.SINGULAR_NONCRITICAL and abs(pc.drift) < DRIFT_MARGIN:
            last_reason = f"attempt {attempt}: drift {pc.drift:.3e} below margin {DRIFT_MARGIN}"
            continue
        return problem
    raise GenerationFailed(
        f"no {target.value} problem within {MAX_ATTEMPTS} attempts; last: {last_reason}"
    )

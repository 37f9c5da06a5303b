"""Seeded, numpy-only problem generator for the benchmark workloads.

Nothing here imports marekit: which problems a workload runs depends only
on the workload name and the seed, never on the code under test.  A
problem is the coefficient quadruple (A, B, C, D) of

    X C X - X D - A X + B = 0,     K = [[D, -C], [-B, A]],

built from a nonnegative matrix N and a positive vector v as
K = diag(N v / v) - N, so that K v = 0 exactly (a singular M-matrix with a
built-in regularity witness).  Nonsingular problems add a positive diagonal
shift.  Critical problems use a symmetric N and a v whose two blocks have
equal 2-norms: then the left null vector is v itself and the drift is 0.
Singular-noncritical problems get their drift from a numpy SVD null vector
and are redrawn until |drift| clears a margin, so that none of them is
near-critical by accident.

The shape schedule (sizes, masks, regimes, order) of a workload is fixed;
the seed draws only the entries.  That keeps the work of a pass comparable
from seed to seed while every seed still runs new matrices.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

NONSINGULAR = "nonsingular"
NONCRITICAL = "singular-noncritical"
CRITICAL = "critical"

MASKS = ("full", "upper", "lower")

# Draws with size * |drift| below this are redrawn.  The drift of unit-1-norm
# null vectors shrinks like 1/size, so the margin is scaled by size; and the
# C block is thinned (see _draw_n) so that few full-mask draws fall short.
DRIFT_MARGIN = 0.2
MAX_DRAWS = 200
DENSITY = 0.7  # chance that an off-diagonal entry of N is nonzero


@dataclass(frozen=True)
class Problem:
    name: str
    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    regime: str
    mask: str
    irreducible: bool
    drift: float

    @property
    def size(self) -> int:
        return self.n + self.m

    def to_json(self) -> str:
        """The problem file format of the marekit command line."""
        return json.dumps(
            {
                "name": self.name,
                "n": self.n,
                "m": self.m,
                "A": self.A.tolist(),
                "B": self.B.tolist(),
                "C": self.C.tolist(),
                "D": self.D.tolist(),
            }
        )


@dataclass(frozen=True)
class Shape:
    n: int
    m: int
    regime: str
    mask: str = "full"
    # accepted range of size * |drift| for singular-noncritical draws
    drift_band: tuple[float, float] = (DRIFT_MARGIN, math.inf)


def _mask(rng, n: int, m: int, kind: str) -> np.ndarray:
    size = n + m
    allowed = rng.random((size, size)) < DENSITY
    np.fill_diagonal(allowed, False)
    if kind == "upper":
        allowed[n:, :n] = False  # B = 0
    elif kind == "lower":
        allowed[:n, n:] = False  # C = 0
    for i in range(size):
        if not allowed[i].any():
            if kind == "upper" and i >= n:
                lo, hi = n, size
            elif kind == "lower" and i < n:
                lo, hi = 0, n
            else:
                lo, hi = 0, size
            choices = [j for j in range(lo, hi) if j != i]
            allowed[i, choices[int(rng.integers(len(choices)))]] = True
    return allowed


def _draw_n(rng, n: int, m: int, kind: str) -> np.ndarray:
    size = n + m
    N = np.where(_mask(rng, n, m, kind), rng.uniform(0.1, 1.0, (size, size)), 0.0)
    # thinning the -C block tilts the drift away from zero (left and right
    # null vectors then weigh the two blocks differently)
    N[:n, n:] *= rng.uniform(0.2, 0.5)
    return N


def _symmetric_n(rng, size: int) -> np.ndarray:
    N = np.triu(rng.uniform(0.1, 1.0, (size, size)), 1)
    keep = np.triu(rng.random((size, size)) < DENSITY, 1)
    # a path through all indices keeps every symmetric draw irreducible
    keep[np.arange(size - 1), np.arange(1, size)] = True
    N = np.where(keep, N, 0.0)
    return N + N.T


def is_irreducible(K: np.ndarray) -> bool:
    """Strong connectivity of the off-diagonal digraph of K."""
    size = K.shape[0]
    adj = (K != 0.0) & ~np.eye(size, dtype=bool)

    def reach(g):
        seen = np.zeros(size, dtype=bool)
        seen[0] = True
        for _ in range(size):
            nxt = seen | g[seen].any(axis=0)
            if (nxt == seen).all():
                break
            seen = nxt
        return bool(seen.all())

    return size == 1 or (reach(adj) and reach(adj.T))


def drift_of(K: np.ndarray, n: int) -> float:
    """u1.v1 - u2.v2 for the unit-1-norm null vectors of a singular K."""
    U, _, Vt = np.linalg.svd(K)
    u, v = np.abs(U[:, -1]), np.abs(Vt[-1])
    u, v = u / u.sum(), v / v.sum()
    return float(u[:n] @ v[:n] - u[n:] @ v[n:])


def _split(K: np.ndarray, n: int):
    return K[n:, n:], -K[n:, :n], -K[:n, n:], K[:n, :n]


def draw(rng, shape: Shape, name: str) -> Problem:
    """One problem of the requested shape and regime."""
    n, m = shape.n, shape.m
    size = n + m
    for _ in range(MAX_DRAWS):
        if shape.regime == CRITICAL:
            N = _symmetric_n(rng, size)
            v1 = rng.uniform(0.5, 1.5, n)
            v2 = rng.uniform(0.5, 1.5, m)
            v = np.concatenate([v1, v2 * (np.linalg.norm(v1) / np.linalg.norm(v2))])
        else:
            N = _draw_n(rng, n, m, shape.mask)
            v = rng.uniform(0.5, 1.5, size)
        K = np.diag(N @ v / v) - N
        drift = 0.0
        if shape.regime == NONSINGULAR:
            K += rng.uniform(0.1, 1.0) * np.eye(size)
        elif shape.regime == NONCRITICAL:
            drift = drift_of(K, n)
            lo, hi = shape.drift_band
            if not lo <= size * abs(drift) <= hi:
                continue
        A, B, C, D = _split(K, n)
        irreducible = is_irreducible(K)
        if A.diagonal().max() <= 0 or D.diagonal().max() <= 0 or (shape.mask == "full" and not irreducible):
            continue
        return Problem(name, n, m, A, B, C, D, shape.regime, shape.mask, irreducible, drift)
    raise RuntimeError(f"no {shape.regime} draw for {name} within {MAX_DRAWS} tries")


# ---------------------------------------------------------------------------
# Workload shape schedules
# ---------------------------------------------------------------------------


def _sweep_small():
    # sizes 2..20, alternating regime, masks cycling through full/upper/lower
    out = []
    for i, size in enumerate(range(2, 21)):
        for j, regime in enumerate((NONSINGULAR, NONCRITICAL)):
            n = max(1, size // 2 - (i + j) % 2)
            m = size - n
            mask = MASKS[(i + j) % 3]
            # a zeroed block needs off-diagonal room in the other one
            if (mask == "upper" and m < 2) or (mask == "lower" and n < 2):
                mask = "full"
            out.append(Shape(n, m, regime, mask))
    return out


# solve-large, critical and crosscheck draw about 100 distinct problems, so a
# run of 100 operations needs one pass and the share of problems that behave
# one way or the other (in critical: run to the cap or not, a coin flip per
# problem) varies little from seed to seed.


def _solve_large():
    # n + m = 80..88 with n, m <= 50, so the theoretical rate still runs
    dims = [(40, 40), (38, 42), (42, 38), (36, 44), (44, 36), (41, 41), (40, 42), (42, 40), (39, 44)]
    dims += [(44, 39), (42, 42), (40, 44), (44, 40), (43, 43), (41, 45), (45, 41), (44, 44)]
    return [Shape(n, m, regime) for n, m in dims for regime in (NONSINGULAR, NONCRITICAL)] * 3


def _critical():
    return [Shape(s // 2, s - s // 2, CRITICAL) for s in [*range(2, 25), *range(3, 25, 2)]] * 3


def _crosscheck():
    # m * n within 110..169 keeps the Kronecker orders alike; oracle iterations
    # grow like 1 / (size * |drift|), and a narrow band keeps them near 40-55
    # per oracle call, so problems differ little in work
    dims = [(n, m) for n in range(7, 14) for m in range(n, 22) if 110 <= n * m <= 169]
    return [Shape(n, m, NONCRITICAL, drift_band=(0.33, 0.42)) for n, m in dims] * 3


SCHEDULES = {
    "sweep-small": _sweep_small,
    "solve-large": _solve_large,
    "critical": _critical,
    "crosscheck": _crosscheck,
}

WHY = {
    "sweep-small": "typical user load: many small certified solves through the JSON CLI; "
    "per-call overhead (Perron roots, classification, report formatting) dominates",
    "solve-large": "irreducible n+m >= 80 library solves with n, m <= 50; the hand-written "
    "LU, substitution and shifted-QR rate kernels dominate",
    "critical": "zero-drift problems; the stop rule and the 60-step cap dominate, so "
    "step-count and shift changes show here and nowhere else",
    "crosscheck": "fixed-point oracle pair plus certificate, no doubling at all: the only "
    "load on fixedpoint and SylvesterSolver, and the bypass for doubling changes",
}

_KEYS = {name: i for i, name in enumerate(SCHEDULES)}


def generate(workload: str, seed: int) -> list[Problem]:
    """The problem set of one workload at one seed (deterministic)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _KEYS[workload]])))
    return [draw(rng, shape, f"{workload}-{seed}-{i}") for i, shape in enumerate(SCHEDULES[workload]())]


def digest(problems) -> str:
    """SHA-256 over the exact bytes of every coefficient matrix."""
    h = hashlib.sha256()
    for p in problems:
        h.update(f"{p.n},{p.m};".encode())
        for M in (p.A, p.B, p.C, p.D):
            h.update(np.ascontiguousarray(M, dtype="<f8").tobytes())
    return h.hexdigest()


def summary(problems) -> dict:
    """Count, sizes, share irreducible and drift range of a problem set."""
    drifts = [p.drift for p in problems if p.regime == NONCRITICAL]
    return {
        "count": len(problems),
        "sizes": sorted({p.size for p in problems}),
        "max_n_m": max(max(p.n, p.m) for p in problems),
        "regimes": {r: sum(p.regime == r for p in problems) for r in (NONSINGULAR, NONCRITICAL, CRITICAL)},
        "irreducible_share": sum(p.irreducible for p in problems) / len(problems),
        "abs_drift_range": [min(map(abs, drifts)), max(map(abs, drifts))] if drifts else None,
        "digest": digest(problems),
    }

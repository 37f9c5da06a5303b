import dataclasses
import math

import numpy as np
import pytest

from marekit import probgen
from marekit.errors import GenerationFailed, ShapeMismatch, SingularMatrix
from marekit.linalg import inf_norm
from marekit.mstruct import null_tol
from marekit.probgen import DRIFT_MARGIN, FamilySpec, generate
from marekit.problem import Regime, classify_problem, problem_from_json, problem_to_json


def test_deterministic_bytes():
    spec = FamilySpec(Regime.SINGULAR_NONCRITICAL, 3, 4, seed=99)
    first = problem_to_json(generate(spec))
    second = problem_to_json(generate(spec))
    assert first == second


def test_scalar_critical_family_is_uniform():
    # 1x1 critical construction collapses to a = b = c = d = k > 0
    for seed in (1, 2, 12345):
        p = generate(FamilySpec(Regime.CRITICAL, 1, 1, seed=seed))
        k = p.A[0, 0]
        assert k > 0
        for M in (p.B, p.C, p.D):
            assert M[0, 0] == pytest.approx(k, abs=1e-15)
        assert classify_problem(p).regime is Regime.CRITICAL


def test_scalar_nonsingular_has_positive_determinant():
    p = generate(FamilySpec(Regime.NONSINGULAR_K, 1, 1, seed=1))
    K = p.K
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    assert det > 0
    assert classify_problem(p).regime is Regime.NONSINGULAR_K


@pytest.mark.parametrize("seed", range(8))
def test_singular_noncritical_contract(seed):
    spec = FamilySpec(Regime.SINGULAR_NONCRITICAL, 2 + seed % 3, 3 + seed % 4, seed=seed)
    p = generate(spec)
    pc = classify_problem(p)
    assert pc.regime is Regime.SINGULAR_NONCRITICAL
    assert abs(pc.drift) >= DRIFT_MARGIN
    assert len(pc.k_class.singular_blocks) == 1
    assert inf_norm(p.K @ pc.nulls.v) <= null_tol(p.K)
    assert np.diag(p.A).max() > 0
    assert np.diag(p.D).max() > 0


def test_critical_regime_and_zero_drift():
    for seed in (3, 7):
        p = generate(FamilySpec(Regime.CRITICAL, 3, 3, seed=seed))
        pc = classify_problem(p)
        assert pc.regime is Regime.CRITICAL
        assert abs(pc.drift) <= 1e-8


def test_emitted_json_round_trips():
    p = generate(FamilySpec(Regime.NONSINGULAR_K, 2, 2, seed=11))
    text = problem_to_json(p)
    assert problem_to_json(problem_from_json(text)) == text


def test_generation_failed_when_budget_exhausted(monkeypatch):
    monkeypatch.setattr(probgen, "MAX_ATTEMPTS", 0)
    spec = FamilySpec(Regime.SINGULAR_NONCRITICAL, 2, 2, seed=0)
    with pytest.raises(GenerationFailed, match="within 0 attempts"):
        generate(spec)


def test_generation_failed_names_the_last_rejection(monkeypatch):
    monkeypatch.setattr(probgen, "MAX_ATTEMPTS", 3)
    spec = FamilySpec(Regime.NONSINGULAR_K, 2, 2, seed=0)

    def refuse(p):
        raise SingularMatrix("drawn K is singular")

    monkeypatch.setattr(probgen, "classify_problem", refuse)
    with pytest.raises(GenerationFailed) as failed:
        generate(spec)
    assert str(failed.value) == (
        "no NonsingularK problem within 3 attempts; last: attempt 2: classification failed (drawn K is singular)"
    )

    monkeypatch.setattr(probgen, "classify_problem", lambda p: dataclasses.replace(classify_problem(p), regime=Regime.CRITICAL))
    with pytest.raises(GenerationFailed) as failed:
        generate(spec)
    assert str(failed.value) == "no NonsingularK problem within 3 attempts; last: attempt 2: got Critical, wanted NonsingularK"


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(Regime.CRITICAL, 0, 1, seed=1)
    with pytest.raises(ValueError):
        FamilySpec(Regime.CRITICAL, 1, 1, seed=1, density=0.0)
    with pytest.raises(ValueError):
        FamilySpec(Regime.NOT_REGULAR, 1, 1, seed=1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("seed", None, "seed must be an integer, got None"),
        ("seed", -1, "seed must be a nonnegative integer, got -1"),
        ("density", True, "density must be a real number, got True"),
        ("density", "0.5", "density must be a real number, got '0.5'"),
        ("density", None, "density must be a real number, got None"),
        ("density", math.nan, "density must be in (0, 1]"),
    ],
)
def test_spec_seed_and_density_checks(field, value, message):
    # refused when the spec is made, not taken as a number or left to numpy inside generate
    kwargs = {"seed": 1, field: value}
    with pytest.raises(ValueError) as info:
        FamilySpec(Regime.NONSINGULAR_K, 2, 2, **kwargs)
    assert str(info.value) == message


def test_spec_seed_is_a_python_int():
    spec = FamilySpec(Regime.NONSINGULAR_K, 2, 2, seed=np.int64(1))
    assert type(spec.seed) is int
    assert problem_to_json(generate(spec)) == problem_to_json(generate(FamilySpec(Regime.NONSINGULAR_K, 2, 2, 1)))


@pytest.mark.parametrize("size", [True, 2.0])
def test_spec_sizes_are_python_ints(size):
    # a bad size is refused when the spec is made, not after a budget of draws
    with pytest.raises(ShapeMismatch, match="must be an integer"):
        FamilySpec(Regime.NONSINGULAR_K, size, 2, seed=1)
    spec = FamilySpec(Regime.NONSINGULAR_K, np.int64(2), 2, seed=1)
    assert type(spec.n) is int
    assert problem_to_json(generate(spec)) == problem_to_json(generate(FamilySpec(Regime.NONSINGULAR_K, 2, 2, 1)))


@pytest.mark.parametrize("mask, symmetric", [("full", True), ("full", False), ("upper", False), ("lower", False)])
def test_every_draw_is_a_problem_with_a_positive_diagonal(mask, symmetric):
    # generate() keeps no guard for these: every row of N gets an entry of at least 0.1
    rng = np.random.Generator(np.random.Philox(3))
    for n in range(1, 5):
        for m in range(1, 5):
            for density in (0.02, 0.7):
                K, _ = probgen._singular_z(rng, n, m, density, mask, symmetric)
                assert K.diagonal().min() > 0.0
                probgen._split(K, n, m, "draw")  # passes MareProblem's checks


def test_mask_mix_present_across_seeds():
    # block-triangular draws (B = 0 or C = 0) and irreducible ones both occur
    kinds = set()
    for seed in range(30):
        p = generate(FamilySpec(Regime.SINGULAR_NONCRITICAL, 3, 3, seed=seed))
        if not p.B.any():
            kinds.add("upper")
        elif not p.C.any():
            kinds.add("lower")
        else:
            kinds.add("full")
    assert kinds == {"upper", "lower", "full"}

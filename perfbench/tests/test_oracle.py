"""The oracle agrees with fmetric on small inputs, up to its stated rounding."""
import numpy as np
import pytest

import fmetric
from fmetric import conditions, corpus
import oracle
import workloads


def _table(kind, seed, n):
    return workloads._KINDS[kind](np.random.default_rng(seed), n)


@pytest.mark.parametrize("kind", ["euclidean", "collinear", "non-metric"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_min_alpha_matches_fmetric(kind, seed):
    m = _table(kind, seed, 40)
    ref = oracle.D3Reference(m)
    space = fmetric.FiniteSpace(labels=tuple(range(40)), dist=m)
    got = fmetric.min_alpha(space, fmetric.lookup_function("ln", "generator"))
    assert abs(got - ref.min_alpha) <= ref.tol


@pytest.mark.parametrize("kind", ["euclidean", "collinear", "non-metric"])
def test_closure_matches_fmetric_within_gamma(kind):
    m = _table(kind, 5, 40)
    space = fmetric.FiniteSpace(labels=tuple(range(40)), dist=m)
    ours, theirs = oracle.closure_fw(m), fmetric.min_chain_sums(space)
    gamma = 40 * 2.0 ** -53 / (1 - 40 * 2.0 ** -53)
    assert np.all(np.abs(ours - theirs) <= 2 * gamma * theirs)
    assert np.array_equal(ours, ours.T)


def test_verdict_and_band_follow_the_threshold():
    ref = oracle.D3Reference(_table("non-metric", 3, 30))
    assert ref.verdict(ref.min_alpha + 1e-6) is True
    assert ref.verdict(ref.min_alpha - 1e-6) is False
    assert ref.verdict(ref.min_alpha) is None
    lo, hi = ref.violation_band(0.5)
    space = fmetric.FiniteSpace(labels=tuple(range(30)), dist=_table("non-metric", 3, 30))
    w = fmetric.Witness(fmetric.lookup_function("ln", "generator"), 0.5)
    assert lo <= len(fmetric.verify_D3(space, w).violations) <= hi


def test_examples_rederived_exactly():
    ex = corpus.oscillating_orbit_space(depth=9)
    vals, T = oracle.oscillating_orbit(9)
    assert tuple(vals) == ex.space.labels
    assert [vals[t] for t in T] == [ex.map(x) for x in ex.space.labels]
    assert np.array_equal(oracle.oscillating_orbit_matrix(9), ex.space.dist)
    seq = corpus.sequence_space(N=15).space
    m = oracle.sequence_space_matrix(15)
    assert all(m[i - 1, j - 1] == seq.d(i, j) for i in range(1, 16) for j in range(1, 16))


def _fields(rep):
    return {"passed": rep.passed, "checked": rep.checked, "margin_min": rep.margin_min,
            "violations": len(rep.violations)}


@pytest.mark.parametrize("cond", ["edelstein", "kannan"])
def test_all_pairs_conditions_match(cond):
    check = {"edelstein": conditions.edelstein_check, "kannan": conditions.kannan_check}[cond]
    ex = corpus.sequence_space(N=25)
    got = check(ex.space, ex.map, ex.phi, conditions.all_pairs(ex.space))
    assert _fields(got) == oracle.sequence_condition(cond, 25)
    ex = corpus.oscillating_orbit_space(depth=10)
    got = check(ex.space, ex.map, ex.phi, conditions.all_pairs(ex.space))
    assert _fields(got) == oracle.oscillating_condition(cond, 10)


@pytest.mark.parametrize("cond", ["edelstein", "kannan"])
def test_random_pairs_on_the_interval_match(cond):
    check = {"edelstein": conditions.edelstein_check, "kannan": conditions.kannan_check}[cond]
    ex = corpus.interval_halving()
    got = check(ex.space, ex.map, ex.phi, conditions.random_pairs(ex.space, 300, seed=4))
    assert _fields(got) == oracle.halving_condition(cond, 300, 4)


def test_orbit_conditions_match():
    ex = corpus.oscillating_orbit_space(depth=12)
    k = 2
    got = conditions.orbital_kannan_check(ex.space, ex.map, ex.phi, 2.0 + 1.0 / (3 * k), 20)
    assert _fields(got) == oracle.oscillating_orbital_kannan(12, 1 + k, 20)
    ex = corpus.interval_halving()
    got = conditions.shift_condition_check(
        ex.space, ex.map, ex.phi, 0.37, delta_rule=lambda e: 1.0 * e,
        eps_grid=[0.5, 0.1, 0.01], horizon=20)
    assert _fields(got) == oracle.halving_shift(0.37, (0.5, 0.1, 0.01), 20)


"""The paper's implications, checked across layers on seeded random instances.

Strict contraction implies one fixed point, reached by Picard. On a finite
carrier with d symmetric and d(x, y) = 0 iff x = y this needs no chain
axiom: take a non-fixed x that minimizes d(x, Tx); strict Edelstein on the
pair (x, Tx), or strict Kannan with a non-decreasing phi, gives
d(Tx, T^2 x) < d(x, Tx), so Tx is fixed. The same argument on a cycle's
points rules out every cycle of length >= 2, so each orbit reaches the
fixed point within n - 1 steps, and two fixed points u != v would give
phi(d(u, v)) < 0 (Kannan) or phi(d(u, v)) < phi(d(u, v)) (Edelstein).

Sequence-space is the infinite case: there the strict Kannan inequality
holds on every sampled pair and there is no fixed point, because the
theorem needs a constant lambda < 1/2, not the strict inequality alone.

D3 with f = ln at alpha bounds the Hausdorff separation: every pair's
least n from hausdorff_witness is at most ceil(e^alpha). Its balls have
radius r = d/(2n), d = d(x, y), so a point z in both would give
d(x, z) + d(z, y) < 2r = d/n, and D3 on the chain x, z, y gives
d <= e^alpha (d(x, z) + d(z, y)) < e^alpha d/n, impossible once
n >= e^alpha. At alpha = min_alpha(space, ln) D3 holds, so the bound does.

min_alpha is the least alpha verify_D3 passes: D3 holds at it and fails at
the next float below it, unless it is 0, for ln and neg_inv alike.

min_chain_sums is the closure of the table: the certificate of
test_kernels.certifies_closure (a lower bound and a parent for every
chain-lowered entry) accepts it on every table drawn here.

A counterexample here is a defect in one of the layers involved.
"""
import math
from itertools import combinations

import numpy as np

from fmetric import (
    STATUS_CONVERGED,
    FiniteSpace,
    Witness,
    all_pairs,
    edelstein_check,
    fixed_point_scan,
    hausdorff_witness,
    kannan_check,
    lookup_function,
    min_alpha,
    min_chain_sums,
    oscillating_orbit_space,
    picard,
    random_fspace,
    random_metric,
    rect_b_family,
    verify_D3,
)
from test_kernels import certifies_closure

ID = lookup_function("id", "altering")
LN = lookup_function("ln", "generator")
NEG_INV = lookup_function("neg_inv", "generator")


def _random_instances(seed, count):
    """Symmetric tables with zero diagonal and positive off-diagonal
    entries on the labels 0..n-1, n = 2..6, each with a random self-map."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        upper = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), 1)
        space = FiniteSpace(tuple(range(n)), upper + upper.T)
        yield space, dict(enumerate(rng.integers(0, n, size=n).tolist())).__getitem__


def test_strict_contraction_on_all_pairs_gives_one_fixed_point_reached_by_picard():
    qualified = 0
    for space, T in _random_instances(seed=0, count=600):
        sample = all_pairs(space)
        if not (kannan_check(space, T, ID, sample).passed or edelstein_check(space, T, ID, sample).passed):
            continue
        qualified += 1
        fixed = fixed_point_scan(space, T)
        assert len(fixed) == 1, (space.dist, [T(x) for x in space.labels])
        for x0 in space.labels:
            rep = picard(space, T, x0, tol=1e-12, max_iter=space.n)
            assert rep.status == STATUS_CONVERGED and rep.fixed_point == fixed[0], (x0, rep)
    assert qualified >= 50  # the implication was exercised, not vacuous


def _d3_spaces():
    """Random tables far from the triangle inequality, rect-b, the orbit
    and Euclidean metrics."""
    spaces = [random_fspace(seed, size, LN)[0] for seed in range(20) for size in (5, 12, 25)]
    spaces += [rect_b_family(n) for n in (2, 5, 10, 40)]
    spaces.append(oscillating_orbit_space(30).space)
    spaces += [random_metric(seed, 20) for seed in range(5)]
    return spaces


def test_d3_at_min_alpha_bounds_every_hausdorff_separation_by_ceil_exp_alpha():
    worst = 0.0
    for space in _d3_spaces():
        bound = math.ceil(math.exp(min_alpha(space, LN)))
        for x, y in combinations(space.labels, 2):
            n, _ = hausdorff_witness(space, x, y)
            assert n <= bound, (space.labels, x, y, n, bound)
            worst = max(worst, n / bound)
    assert worst == 1.0  # some pair needs the whole bound: it is exercised, not vacuous


def test_d3_passes_at_min_alpha_and_fails_one_float_below():
    alphas = []
    for space in _d3_spaces():
        for f in (LN, NEG_INV):
            alpha = min_alpha(space, f)
            alphas.append(alpha)
            assert verify_D3(space, Witness(f, alpha)).passed, (space.labels, f.name, alpha)
            if alpha > 0.0:
                below = Witness(f, float(np.nextafter(alpha, 0.0)))
                assert not verify_D3(space, below).passed, (space.labels, f.name, alpha)
    assert 0.0 in alphas and max(alphas) > 0.0  # both sides of the rule are exercised


def test_min_chain_sums_passes_the_closure_certificate_on_every_drawn_table():
    spaces = _d3_spaces() + [space for space, _ in _random_instances(seed=0, count=600)]
    lowered = 0
    for space in spaces:
        rho = min_chain_sums(space)
        assert certifies_closure(space.dist, rho), space.labels
        lowered += int((rho < space.dist).sum())
    assert len(spaces) == 670 and lowered > 0  # some chain beat its direct distance

"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Every test computes its result first,
prints the line, then asserts, so the printed summary is complete even on
failure. Oracles used here are written against the raw matrices and do not
call the code under test.
"""

import itertools
import math
import time

import numpy as np

from fmetric import (
    AlteringDistance,
    FGenerator,
    PairSample,
    Witness,
    accumulation_points,
    apply_map,
    build_example,
    cauchy_tail_check,
    check_F1,
    check_F2,
    check_altering,
    edelstein_check,
    fixed_point_scan,
    hausdorff_witness,
    kannan_check,
    lookup_function,
    min_alpha,
    min_chain_sums,
    open_ball,
    orbit,
    orbital_kannan_check,
    picard,
    random_pairs,
    rect_b_family,
    shift_condition_check,
    verify_D3,
)
from fmetric.corpus import random_fspace, random_metric
from fmetric.fspace import FiniteSpace

LN = lookup_function("ln", "generator")
NEG_INV = lookup_function("neg_inv", "generator")
ID_PHI = lookup_function("id", "altering")
SQUARE = lookup_function("square", "altering")


def _emit(k, name, problems):
    verdict = "PASS" if not problems else "FAIL"
    print(f"criterion {k} ({name}): {verdict}")
    assert not problems, "; ".join(problems)


def exhaustive_chain_mins(dist):
    """Oracle: minimum over every simple chain, summed left to right."""
    n = dist.shape[0]
    out = dist.copy()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = dist[i, j]
            middles = [m for m in range(n) if m != i and m != j]
            for k in range(1, len(middles) + 1):
                for mid in itertools.permutations(middles, k):
                    s = dist[i, mid[0]]
                    for a, b in zip(mid, mid[1:]):
                        s = s + dist[a, b]
                    s = s + dist[mid[-1], j]
                    if s < best:
                        best = s
            out[i, j] = best
    return out


def pruned_chain_min(d, i, j):
    """Oracle: branch-and-bound over simple chains for a single pair.

    Pruning on the running prefix sum is sound for the bitwise result
    because appending nonnegative rounded links never decreases a rounded
    running total, so a prefix at or above the incumbent cannot improve it.
    """
    n = d.shape[0]
    best = d[i, j]

    def extend(last, used, s):
        nonlocal best
        for m in range(n):
            if m == i or m == j or (used >> m) & 1:
                continue
            s2 = s + d[last, m]
            if s2 >= best:
                continue
            closed = s2 + d[m, j]
            if closed < best:
                best = closed
            extend(m, used | (1 << m), s2)

    extend(i, 0, 0.0)
    return best


def test_criterion_1():
    problems = []
    ex = build_example("interval-halving")
    t0 = time.perf_counter()
    rep = picard(ex.space, ex.map, 0.0, tol=1e-9, max_iter=200)
    if rep.status != "converged":
        problems.append(f"picard status {rep.status}")
    elif abs(rep.fixed_point - 2.0 / 3.0) >= 1e-8:
        problems.append(f"fixed point {rep.fixed_point!r} not within 1e-8 of 2/3")
    ed = edelstein_check(ex.space, ex.map, SQUARE, random_pairs(ex.space, 10000, seed=1))
    if not ed.passed or not (ed.margin_min > 0):
        problems.append(f"edelstein failed: margin {ed.margin_min}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s, bound is 1s")
    _emit(1, "interval contraction", problems)


def test_criterion_2():
    problems = []
    ex = build_example("oscillating-orbit")
    space, T = ex.space, ex.map
    x0 = 2.0 + 1.0 / 3.0
    t0 = time.perf_counter()
    ok = orbital_kannan_check(space, T, ID_PHI, x0, 200)
    if not ok.passed or not (ok.margin_min > 0):
        problems.append("orbital kannan failed on the inward orbit")
    reps = accumulation_points(orbit(space, T, x0, 399), space, eps=1e-2, min_hits=5)
    if len(reps) != 2:
        problems.append(f"{len(reps)} accumulation points, expected 2")
    elif not (abs(reps[0] - 2.0) <= 1e-2 and abs(reps[1] + 2.0) <= 1e-2):
        problems.append(f"accumulation points {reps} not near +2/-2")
    if space.d(2.0, apply_map(space, T, 2.0)) != 4.0:
        problems.append("d(2, T2) is not exactly 4")
    pic = picard(space, T, 2.0, tol=1e-6, max_iter=100)
    if pic.status != "cycle_detected" or set(pic.cycle) != {2.0, -2.0}:
        problems.append(f"picard from 2: {pic.status}, cycle {pic.cycle}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s, bound is 1s")
    _emit(2, "oscillating orbit", problems)


def test_criterion_3():
    problems = []
    ex = build_example("sequence-space")
    space, T = ex.space, ex.map
    t0 = time.perf_counter()
    pairs = tuple(
        (i, j) for i in range(1, 334) for j in range(i + 1, 334)
    )
    sample = PairSample(pairs=pairs, source="all pairs with tripled indices <= 1000")
    rep = kannan_check(space, T, ID_PHI, sample)
    if rep.checked != 55278:
        problems.append(f"checked {rep.checked}, expected 55278")
    if not rep.passed or not (rep.margin_min > 0):
        problems.append(f"kannan failed: margin {rep.margin_min}")
    if fixed_point_scan(space, T) != []:
        problems.append("fixed point scan found a fixed point")
    diams = cauchy_tail_check(orbit(space, T, 1, 10), space, windows=2)
    if not all(v >= 1.0 for v in diams):
        problems.append(f"tail diameters {diams} dip below 1")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.3f}s, bound is 10s")
    _emit(3, "sequence kannan", problems)


def test_criterion_4():
    problems = []
    t0 = time.perf_counter()
    alphas = [min_alpha(rect_b_family(n), LN) for n in range(2, 51)]
    elapsed = time.perf_counter() - t0
    for n, a in zip(range(2, 51), alphas):
        want = math.log(15.0 * n * n / 6.0)
        if abs(a - want) > 1e-9:
            problems.append(f"n={n}: alpha {a!r} vs closed form {want!r}")
            break
    if not all(b > a for a, b in zip(alphas, alphas[1:])):
        problems.append("alpha profile is not strictly increasing")
    if not (alphas[-1] - alphas[0] > 5.0):
        problems.append(f"span {alphas[-1] - alphas[0]:.3f} not > 5")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.3f}s, bound is 1s")
    for n in range(2, 6):
        space = rect_b_family(n)
        sp = min_chain_sums(space)
        for i in range(space.n):
            for j in range(i + 1, space.n):
                if pruned_chain_min(space.dist, i, j) != sp[i, j]:
                    problems.append(f"n={n}, pair ({i},{j}): chain min disagrees with oracle")
    _emit(4, "alpha divergence", problems)


def test_criterion_5():
    problems = []
    for seed in range(100):
        size = int(np.random.default_rng(seed).integers(2, 6))
        space, w = random_fspace(seed, size, LN)
        sp = min_chain_sums(space)
        exh = exhaustive_chain_mins(space.dist)
        if not np.array_equal(sp, exh):
            problems.append(f"seed {seed}: chain mins differ from exhaustive oracle")
            continue
        for alpha in (0.0, w.alpha, w.alpha + 1.0):
            rep = verify_D3(space, Witness(LN, alpha))
            want = [
                (space.labels[i], space.labels[j])
                for i in range(size)
                for j in range(i + 1, size)
                if math.log(space.dist[i, j]) - math.log(exh[i, j]) > alpha
            ]
            got = [v["pair"] for v in rep.violations]
            if got != want or rep.passed != (not want):
                problems.append(f"seed {seed}, alpha {alpha}: violation lists differ")
    _emit(5, "chain-min agreement", problems)


def test_criterion_6():
    problems = []
    for seed in range(100):
        size = int(np.random.default_rng(seed).integers(2, 21))
        space = random_metric(seed, size)
        for f in (LN, NEG_INV):
            a = min_alpha(space, f)
            if not (a <= 1e-12):
                problems.append(f"seed {seed}, f={f.name}: min alpha {a!r} above 1e-12")
            if not verify_D3(space, Witness(f, 0.0)).passed:
                problems.append(f"seed {seed}, f={f.name}: D3 fails at alpha 0")
    _emit(6, "metrics embed at alpha zero", problems)


def test_criterion_7():
    problems = []
    for seed in range(100):
        size = int(np.random.default_rng(seed).integers(3, 16))
        space, _ = random_fspace(seed, size, LN)
        for i in range(size):
            for j in range(i + 1, size):
                la, lb = space.labels[i], space.labels[j]
                n, r = hausdorff_witness(space, la, lb)
                if open_ball(space, la, r) & open_ball(space, lb, r):
                    problems.append(f"seed {seed}, pair ({la},{lb}): balls overlap at r={r}")
    three = FiniteSpace(
        labels=(0, 1, 2),
        dist=np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 0.4], [1.0, 0.4, 0.0]]),
    )
    n, r = hausdorff_witness(three, 0, 2)
    if (n, r) != (2, 0.25):
        problems.append(f"three-point witness {(n, r)}, expected (2, 0.25)")
    _emit(7, "hausdorff separation", problems)


def test_criterion_8():
    problems = []
    for gen in (LN, NEG_INV):
        if not check_F1(gen).passed:
            problems.append(f"F1 rejects {gen.name}")
        if not check_F2(gen).passed:
            problems.append(f"F2 rejects {gen.name}")
    # bounded near 0: the negative control, registered nowhere
    if check_F2(FGenerator("id", lambda t: +t)).passed:
        problems.append("F2 accepts the identity generator")
    for name in ("id", "square", "sqrt"):
        if not check_altering(lookup_function(name, "altering")).passed:
            problems.append(f"altering gate rejects {name}")
    offset = AlteringDistance("offset", lambda t: 1.0 + t)
    if check_altering(offset).passed:
        problems.append("altering gate accepts a map with phi(0) != 0")
    _emit(8, "function class gates", problems)


def test_criterion_9():
    problems = []
    interval = build_example("interval-halving")
    rep = shift_condition_check(
        interval.space, interval.map, ID_PHI, 0.0,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.1, 0.01], horizon=50,
    )
    if not rep.passed or rep.checked == 0:
        problems.append("contracting orbit does not satisfy the shift condition")
    seq = build_example("sequence-space")
    stated = shift_condition_check(
        seq.space, seq.map, ID_PHI, 1,
        delta_rule=lambda e: e, eps_grid=[0.5], horizon=20,
    )
    # at eps 0.5 the trigger threshold is 1.0, below every distance here,
    # so the check is vacuous: it passes with nothing checked
    if not stated.passed or stated.checked != 0:
        problems.append(
            f"eps 0.5 expected vacuous, got checked={stated.checked} passed={stated.passed}"
        )
    binding = shift_condition_check(
        seq.space, seq.map, ID_PHI, 1,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.75, 1.0], horizon=20,
    )
    if binding.passed or len(binding.violations) < 1:
        problems.append("no violation found at the binding eps levels")
    _emit(9, "shift persistence", problems)

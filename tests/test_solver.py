import math

import numpy as np
import pytest

from fmetric import (
    AnalyticSpace,
    STATUS_BUDGET,
    STATUS_CONVERGED,
    STATUS_CYCLE,
    DomainError,
    FiniteSpace,
    accumulation_points,
    apply_map,
    build_example,
    cauchy_tail_check,
    fixed_point_scan,
    interval_halving,
    lookup_function,
    monotone_step_check,
    orbit,
    oscillating_orbit_space,
    picard,
    sequence_space,
)


def test_orbit_length_and_points():
    ex = interval_halving()
    tr = orbit(ex.space, ex.map, 0.0, 3)
    assert tr.points == [0.0, 1.0, 0.5, 0.75]
    assert tr.step_dist == [1.0, 0.5, 0.25]
    assert len(tr) == 4


def test_orbit_rejects_bad_start_and_escape():
    ex = interval_halving()
    with pytest.raises(DomainError):
        orbit(ex.space, ex.map, 2.0, 1)
    with pytest.raises(DomainError) as e:
        orbit(ex.space, lambda x: x + 0.8, 0.1, 3)
    assert "step 1" in str(e.value)


def test_orbit_needs_a_nonnegative_count():
    ex = interval_halving()
    with pytest.raises(ValueError, match="need n >= 0"):
        orbit(ex.space, ex.map, 0.0, -1)


def test_cauchy_tail_check_needs_a_window():
    ex = interval_halving()
    with pytest.raises(ValueError, match="at least one window"):
        cauchy_tail_check(orbit(ex.space, ex.map, 0.0, 3), ex.space, windows=0)


def test_apply_map_wraps_exceptions():
    ex = oscillating_orbit_space(depth=3)
    with pytest.raises(DomainError):
        apply_map(ex.space, ex.map, 5.0)

    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(DomainError):
        apply_map(ex.space, broken, 2.0)


def test_picard_identity_map_converges_immediately():
    sp = FiniteSpace(labels=(0, 1), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = picard(sp, lambda x: x, 0, tol=1e-9, max_iter=10)
    assert rep.status == STATUS_CONVERGED
    assert rep.iterations == 1
    assert rep.fixed_point == 0
    assert rep.residual == 0.0


def test_picard_interval_halving():
    ex = interval_halving()
    rep = picard(ex.space, ex.map, 0.0, tol=1e-9, max_iter=200)
    assert rep.status == STATUS_CONVERGED
    assert rep.iterations == 31
    assert abs(rep.fixed_point - 2.0 / 3.0) < 1e-8
    assert rep.residual <= 2e-9


def test_picard_cycle_on_swap():
    ex = oscillating_orbit_space(depth=5)
    rep = picard(ex.space, ex.map, 2.0, tol=1e-6, max_iter=50)
    assert rep.status == STATUS_CYCLE
    assert rep.iterations == 2
    assert rep.cycle == [2.0, -2.0]


def test_picard_budget_exhausted():
    ex = sequence_space(N=100)
    rep = picard(ex.space, ex.map, 1, tol=1e-9, max_iter=5)
    assert rep.status == STATUS_BUDGET
    assert rep.iterations == 5
    assert rep.fixed_point is None


def test_picard_keeps_iterating_when_the_residual_disagrees():
    # the step 0 -> 1e-10 is within tol, but 1e-10 maps to 5, so the
    # residual re-check fails and the iteration goes on to the fixed point 5
    pts = (0.0, 1e-10, 5.0)
    sp = FiniteSpace(labels=pts, dist=np.abs(np.subtract.outer(pts, pts)))
    T = {0.0: 1e-10, 1e-10: 5.0, 5.0: 5.0}.__getitem__
    rep = picard(sp, T, 0.0, tol=1e-9, max_iter=10)
    assert rep.status == STATUS_CONVERGED
    assert rep.iterations == 3
    assert rep.fixed_point == 5.0


def _picard_with_step_list(space, T, x0, tol, max_iter):
    """Picard iteration that keeps every step and asks min(steps[k:n]) > tol
    of each cycle candidate k: the rule picard keeps in one index."""
    pts, steps = [x0], []
    for it in range(max_iter):
        nxt = T(pts[-1])
        steps.append(space.d(pts[-1], nxt))
        pts.append(nxt)
        if steps[-1] <= tol:
            residual = space.d(nxt, T(nxt))
            if residual <= 2.0 * tol:
                return {"status": STATUS_CONVERGED, "iterations": it + 1, "fixed_point": nxt,
                        "residual": residual, "cycle": None}
            continue
        n = len(pts) - 1
        for k in range(n - 2, max(-1, n - 65), -1):
            if space.d(pts[k], pts[n]) <= tol and min(steps[k:n]) > tol:
                return {"status": STATUS_CYCLE, "iterations": it + 1, "fixed_point": None,
                        "residual": None, "cycle": pts[k:n]}
    return {"status": STATUS_BUDGET, "iterations": max_iter, "fixed_point": None,
            "residual": None, "cycle": None}


def test_picard_matches_the_step_list_rule_on_random_spaces():
    rng = np.random.default_rng(17)
    seen = set()
    for trial in range(240):
        n = int(rng.integers(2, 120))
        # clustered points give steps within tol, some of whose residuals fail
        scale = rng.choice([1.0, 1e-8, 1e-12], n)
        pos = rng.uniform(0, 10, n) * (rng.random(n) < 0.5) + rng.uniform(0, 1, n) * scale
        if trial % 4 == 3:  # spread points: long permutation cycles exhaust the budget
            pos = np.arange(n, dtype=float)
        sp = FiniteSpace(labels=tuple(range(n)), dist=np.abs(np.subtract.outer(pos, pos)))
        img = rng.permutation(n) if trial % 2 else rng.integers(0, n, n)
        T = [int(i) for i in img].__getitem__
        tol = float(rng.choice([1e-9, 1e-3, 0.1, 0.5]))
        x0, max_iter = int(rng.integers(0, n)), int(rng.integers(1, 300))
        want = _picard_with_step_list(sp, T, x0, tol, max_iter)
        assert picard(sp, T, x0, tol, max_iter).to_dict() == want
        seen.add(want["status"])
        x = x0
        for _ in range(want["iterations"]):
            y = T(x)
            if sp.d(x, y) <= tol < sp.d(y, T(y)) / 2.0:
                seen.add("residual failed")
            x = y
    assert seen == {STATUS_CONVERGED, STATUS_CYCLE, STATUS_BUDGET, "residual failed"}


@pytest.mark.parametrize("length, status", [(64, STATUS_CYCLE), (65, STATUS_BUDGET)])
def test_picard_searches_64_iterates_back_for_a_revisit(length, status):
    pos = np.arange(length, dtype=float)
    sp = FiniteSpace(labels=tuple(range(length)), dist=np.abs(np.subtract.outer(pos, pos)))
    T = lambda i: (i + 1) % length
    rep = picard(sp, T, 0, tol=1e-9, max_iter=200)
    assert rep.status == status
    assert rep.to_dict() == _picard_with_step_list(sp, T, 0, 1e-9, 200)


def test_picard_nan_step_does_not_block_a_cycle():
    # the 3-cycle 1 -> 2 -> 0 -> 1 whose rule gives nan for d(1, 2); a nan
    # step is not <= tol, so it neither converges nor blocks the revisit of 1
    sp = AnalyticSpace(
        point_kind="real",
        dist_rule=lambda x, y: math.nan if {x, y} == {1.0, 2.0} else abs(x - y),
        membership=lambda x: x in (0.0, 1.0, 2.0),
        bounds=(0.0, 2.0),
    )
    rep = picard(sp, {1.0: 2.0, 2.0: 0.0, 0.0: 1.0}.__getitem__, 1.0, tol=1e-9, max_iter=50)
    assert rep.status == STATUS_CYCLE
    assert rep.iterations == 3
    assert rep.cycle == [1.0, 2.0, 0.0]


# status -> (iterations, calls of the map); on convergence, one more call
# is the residual re-check
_PICARD_CALLS = {STATUS_CONVERGED: (21, 22), STATUS_CYCLE: (2, 2), STATUS_BUDGET: (5, 5)}


@pytest.mark.parametrize("make, x0, max_iter, status", [
    (interval_halving, 0.0, 200, STATUS_CONVERGED),
    (lambda: oscillating_orbit_space(depth=5), 2.0, 50, STATUS_CYCLE),
    (lambda: sequence_space(N=100), 1, 5, STATUS_BUDGET),
])
def test_picard_iterations_count_map_applications(make, x0, max_iter, status):
    ex = make()
    seen = []

    def counted(x):
        seen.append(x)
        return ex.map(x)

    rep = picard(ex.space, counted, x0, tol=1e-6, max_iter=max_iter)
    assert rep.status == status
    assert (rep.iterations, len(seen)) == _PICARD_CALLS[status]


def test_picard_parameter_validation():
    ex = interval_halving()
    with pytest.raises(ValueError):
        picard(ex.space, ex.map, 0.0, tol=0.0, max_iter=10)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            picard(ex.space, ex.map, 0.0, tol=tol, max_iter=10)
    with pytest.raises(ValueError):
        picard(ex.space, ex.map, 0.0, tol=1e-9, max_iter=0)


def test_accumulation_points_two_limits():
    ex = oscillating_orbit_space(depth=250)
    x0 = 2.0 + 1.0 / 3.0
    tr = orbit(ex.space, ex.map, x0, 399)
    reps = accumulation_points(tr, ex.space, eps=1e-2, min_hits=5)
    assert len(reps) == 2
    assert abs(reps[0] - 2.0) < 1e-2
    assert abs(reps[1] + 2.0) < 1e-2


def test_accumulation_discards_transient():
    sp = FiniteSpace(labels=(0.0, 5.0), dist=np.array([[0.0, 5.0], [5.0, 0.0]]))
    pts = [0.0] * 6 + [5.0] * 6
    steps = [sp.d(a, b) for a, b in zip(pts, pts[1:])]
    tr = orbit(sp, lambda x: 5.0, 5.0, 0)
    tr.points[:] = pts
    tr.step_dist[:] = steps
    assert accumulation_points(tr, sp, eps=0.5, min_hits=5) == [5.0]


def test_accumulation_validation():
    ex = interval_halving()
    tr = orbit(ex.space, ex.map, 0.0, 10)
    with pytest.raises(ValueError):
        accumulation_points(tr, ex.space, eps=0.0, min_hits=2)
    with pytest.raises(ValueError):
        accumulation_points(tr, ex.space, eps=np.nan, min_hits=2)
    with pytest.raises(ValueError):
        accumulation_points(tr, ex.space, eps=0.1, min_hits=0)


def test_cauchy_tail_contracting_orbit():
    ex = interval_halving()
    tr = orbit(ex.space, ex.map, 0.0, 19)
    diams = cauchy_tail_check(tr, ex.space, windows=4)
    assert len(diams) == 4
    assert all(b < a for a, b in zip(diams, diams[1:]))
    assert diams[-1] < 1e-4


def test_cauchy_tail_needs_enough_points():
    ex = interval_halving()
    tr = orbit(ex.space, ex.map, 0.0, 3)
    with pytest.raises(ValueError):
        cauchy_tail_check(tr, ex.space, windows=3)


def test_cauchy_tail_drifting_orbit():
    ex = sequence_space(N=1000)
    tr = orbit(ex.space, ex.map, 1, 10)
    diams = cauchy_tail_check(tr, ex.space, windows=2)
    assert all(d >= 1.0 for d in diams)


def test_fixed_point_scan():
    ex = oscillating_orbit_space(depth=10)
    assert fixed_point_scan(ex.space, ex.map) == []
    sp = FiniteSpace(labels=("a", "b"), dist=np.array([[0.0, 1.0], [1.0, 0.0]]))
    swap_b = {"a": "b", "b": "b"}
    assert fixed_point_scan(sp, lambda x: swap_b[x]) == ["b"]
    seq = sequence_space(N=30).space
    assert fixed_point_scan(seq, lambda i: i if i % 7 == 0 else i + 1) == [7, 14, 21, 28]
    # the first point, in carrier order, where the map fails is the one named
    with pytest.raises(DomainError, match="'b'"):
        fixed_point_scan(sp, lambda x: {"a": "a"}[x])


def test_fixed_point_scan_needs_enumeration():
    ex = interval_halving()
    with pytest.raises(DomainError):
        fixed_point_scan(ex.space, ex.map)


def test_monotone_step_check():
    ex = interval_halving()
    sq = lookup_function("square", "altering")
    good = monotone_step_check(orbit(ex.space, ex.map, 0.0, 40), sq)
    assert good.passed and good.checked == 39

    # the 2-cycle produces constant steps, so strictness fails at once
    osc = build_example("oscillating-orbit", depth=20)
    bad = monotone_step_check(orbit(osc.space, osc.map, 2.0, 6), sq)
    assert not bad.passed

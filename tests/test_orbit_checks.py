"""Orbit checks and distance tables against loop references.

The references below are pair-by-pair loops over space.d and scalar phi,
written the way the checks were before they read whole arrays; the array
checks must give the same report bit for bit.
"""
import json
import math

import numpy as np
import pytest

from fmetric import (
    DomainError,
    FiniteSpace,
    IterationTrace,
    cauchy_tail_check,
    interval_halving,
    lookup_function,
    monotone_step_check,
    orbit,
    orbital_kannan_check,
    oscillating_orbit_space,
    rect_b_family,
    registered_altering,
    sequence_space,
    shift_condition_check,
)
from fmetric.fspace import distance_table
from fmetric.reports import _jsonable

ID = lookup_function("id", "altering")
PHIS = registered_altering()


def _loop_shift(space, T, phi, x0, delta_rule, eps_grid, horizon):
    """Reference: phi of each orbit pair on first use, a double loop per
    eps; the dict the report's to_dict() must equal."""
    tr = orbit(space, T, x0, horizon + 1)
    memo = {}

    def pd(i, j):
        if (i, j) not in memo:
            memo[i, j] = float(phi.eval(space.d(tr.points[i], tr.points[j])))
        return memo[i, j]

    violations = []
    margin = math.inf
    checked = 0
    counts = []
    for eps in eps_grid:
        delta = float(delta_rule(eps))
        fired = 0
        for i in range(horizon):
            for j in range(i + 1, horizon + 1):
                if pd(i, j) < eps + delta:
                    fired += 1
                    checked += 1
                    succ = pd(i + 1, j + 1)
                    margin = min(margin, eps - succ)
                    if succ > eps:
                        violations.append({"i": i, "j": j, "eps": eps, "lhs": succ, "rhs": eps})
        counts.append((eps, fired))
    return _jsonable({
        "condition": f"shift({phi.name})", "passed": not violations, "checked": checked,
        "violations": violations, "margin_min": margin,
        "source": f"orbit(x0={x0!r}, horizon={horizon}); triggers per eps: "
        + ", ".join(f"{e:g}:{c}" for e, c in counts),
    })


def _loop_monotone(trace, phi):
    """Reference: phi(s[k+1]) < phi(s[k]) step by step, up to the first
    zero step; the dict the report's to_dict() must equal."""
    steps = trace.step_dist
    violations = []
    margin = math.inf
    checked = 0
    for k in range(len(steps) - 1):
        if steps[k] == 0.0 or steps[k + 1] == 0.0:
            break
        lhs = float(phi.eval(steps[k + 1]))
        rhs = float(phi.eval(steps[k]))
        checked += 1
        margin = min(margin, rhs - lhs)
        if not (lhs < rhs):
            violations.append({"step": k, "lhs": lhs, "rhs": rhs})
    return _jsonable({
        "condition": f"monotone_step({phi.name})", "passed": not violations, "checked": checked,
        "violations": violations, "margin_min": margin, "source": f"trace of {len(trace)} points",
    })


def _loop_cauchy(trace, space, windows):
    """Reference: the largest d(p, q) over pairs of each block, by a double loop."""
    pts = trace.points
    bounds = [round(i * len(pts) / windows) for i in range(windows + 1)]
    diams = []
    for b, e in zip(bounds[:-1], bounds[1:]):
        block = pts[b:e]
        diam = 0.0
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                diam = max(diam, space.d(block[i], block[j]))
        diams.append(diam)
    return diams


def _random_table():
    """A non-metric table with a permutation as its map."""
    rng = np.random.default_rng(7)
    m = np.triu(rng.uniform(0.1, 10.0, (15, 15)), 1)
    perm = rng.permutation(15).tolist()
    return FiniteSpace(labels=tuple(range(15)), dist=m + m.T), perm.__getitem__


def _case(name):
    """(space, map, orbit starts, longest horizon) of each reference space."""
    if name == "interval-halving":
        ex = interval_halving()
        return ex.space, ex.map, [0.0, 0.3], 60
    if name == "oscillating-orbit":
        ex = oscillating_orbit_space(depth=30)
        return ex.space, ex.map, [2.0 + 1.0 / 3.0, -2.0], 70
    if name == "sequence-space":
        # the orbit of 1 passes 2**63 at step 40, so its table is built on
        # Python ints in an object array
        ex = sequence_space(N=40)
        return ex.space, ex.map, [1, 4], 45
    if name == "rect-b":
        space = rect_b_family(5)
        labels = space.labels
        return space, dict(zip(labels, labels[1:] + labels[:1])).__getitem__, [1, "g3"], 30
    space, T = _random_table()
    return space, T, [0, 6], 30


SPACES = ["interval-halving", "oscillating-orbit", "sequence-space", "rect-b", "random-table"]


def _same(got, want):
    assert json.dumps(got.to_dict()) == json.dumps(want)


@pytest.mark.parametrize("phi", PHIS, ids=[p.name for p in PHIS])
@pytest.mark.parametrize("name", SPACES)
def test_shift_matches_loop_reference(name, phi):
    space, T, starts, longest = _case(name)
    fired = 0
    for x0 in starts:
        for horizon in (1, 7, longest):
            for eps_grid, scale in (([0.5, 0.1, 0.01], 1.0), ([0.5, 0.75, 1.0], 0.5),
                                    ([2.0, 0.001, 5.0], 3.0)):
                args = (space, T, phi, x0, lambda e: scale * e, eps_grid, horizon)
                got = shift_condition_check(*args)
                _same(got, _loop_shift(*args))
                fired += got.checked
    assert fired > 0


@pytest.mark.parametrize("phi", PHIS, ids=[p.name for p in PHIS])
@pytest.mark.parametrize("name", SPACES)
def test_monotone_and_cauchy_match_loop_references(name, phi):
    space, T, starts, longest = _case(name)
    for x0 in starts:
        for n in (0, 1, 2, 9, longest):
            tr = orbit(space, T, x0, n)
            _same(monotone_step_check(tr, phi), _loop_monotone(tr, phi))
            for windows in range(1, len(tr) // 2 + 1)[:4]:
                got = cauchy_tail_check(tr, space, windows)
                assert json.dumps(got) == json.dumps(_loop_cauchy(tr, space, windows))
                assert all(type(d) is float for d in got)


def test_monotone_stops_at_the_first_zero_step():
    trace = IterationTrace(points=list(range(7)), step_dist=[4.0, 2.0, 2.0, 0.0, 5.0, 1.0])
    got = monotone_step_check(trace, ID)
    _same(got, _loop_monotone(trace, ID))
    assert got.checked == 2
    assert got.violations.records() == [{"step": 1, "lhs": 2.0, "rhs": 2.0}]


def _recording_phi():
    seen = []

    def fn(t):
        seen.extend(np.ravel(t).tolist())
        return +t

    return type(ID)("recorded", fn), seen


@pytest.mark.parametrize("steps", [[-0.5], [-0.5, 0.0], [-0.5, 0.0, -1.0, 2.0]])
def test_monotone_evaluates_no_phi_when_the_only_nonzero_step_is_negative(steps):
    phi, seen = _recording_phi()
    trace = IterationTrace(points=list(range(len(steps) + 1)), step_dist=steps)
    got = monotone_step_check(trace, phi)
    assert seen == []
    assert got.passed and got.checked == 0 and math.isinf(got.margin_min)


@pytest.mark.parametrize(
    "steps", [[1.0, -0.5, -2.0], [-1.0, 2.0], [-1.0, -2.0], [3.0, 2.0, -4.0, -1.0]]
)
def test_monotone_raises_for_the_negative_step_the_loop_meets_first(steps):
    # phi rejects the steps it is given; its error names one negative step
    trace = IterationTrace(points=list(range(len(steps) + 1)), step_dist=steps)
    with pytest.raises(DomainError) as got:
        monotone_step_check(trace, ID)
    assert str(got.value) in [f"id is defined on t >= 0, got {s}" for s in steps if s < 0]


def test_orbital_kannan_maps_only_to_walk_the_orbit():
    ex = oscillating_orbit_space(depth=30)
    calls = []

    def T(x):
        calls.append(x)
        return ex.map(x)

    count = 40
    rep = orbital_kannan_check(ex.space, T, ID, 2.0 + 1.0 / 3.0, count)
    assert rep.checked == count
    assert len(calls) == count + 1
    assert calls == orbit(ex.space, ex.map, 2.0 + 1.0 / 3.0, count + 1).points[:-1]


def test_orbital_kannan_needs_a_positive_count():
    ex = oscillating_orbit_space(depth=3)
    with pytest.raises(ValueError, match="count must be >= 1"):
        orbital_kannan_check(ex.space, ex.map, ID, 2.0, 0)


def _negative_path():
    """Points 0..5 at distance |i - j|, with d(0, 3) = -1 and d(1, 2) = -3;
    the map is x -> x + 1, so the orbit of 0 is 0, 1, 2, ..."""
    m = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    m[0, 3] = m[3, 0] = -1.0
    m[1, 2] = m[2, 1] = -3.0
    return FiniteSpace(labels=tuple(range(6)), dist=m), lambda x: x + 1


def test_shift_raises_for_the_first_negative_entry_in_row_major_order():
    # the orbit table holds -1 at (0, 3) and -3 at (1, 2); phi rejects it
    # and names one of them
    space, T = _negative_path()
    with pytest.raises(DomainError, match=r"got -[13]\.0$"):
        shift_condition_check(space, T, ID, 0, lambda e: e, [0.5], horizon=3)


def test_shift_raises_for_a_negative_entry_no_trigger_reaches():
    # with horizon 2 the orbit is 0, 1, 2, 3; nothing triggers at eps 0.01,
    # so the loop never read d(0, 3) = -1 in the last column, but the upper
    # triangle holds it first in row-major order
    space, T = _negative_path()
    space = FiniteSpace(space.labels, np.where(space.dist == -3.0, 1.0, space.dist))
    with pytest.raises(DomainError, match=r"got -1\.0$"):
        shift_condition_check(space, T, ID, 0, lambda e: e, [0.01], horizon=2)
    assert _loop_shift(space, T, ID, 0, lambda e: e, [0.01], 2)["checked"] == 0


def test_distance_table_matches_scalar_d():
    seq = sequence_space(N=40).space
    asymmetric = FiniteSpace(labels=("a", "b", "c"), dist=np.arange(9.0).reshape(3, 3))
    for space, points in (
        (rect_b_family(4), [1, "g2", 30, 1, "g8"]),
        (asymmetric, ["c", "a", "b", "a"]),
        (interval_halving().space, [0.0, 0.25, 1.0, 0.3]),
        (seq, [1, 3, 3 ** 41, 2 ** 64 + 1]),
    ):
        table = distance_table(space, points)
        want = [[space.d(x, y) for y in points] for x in points]
        assert table.dtype == float
        assert table.tolist() == want

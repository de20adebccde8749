import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fmetric import (
    AnalyticSpace,
    DomainError,
    FiniteSpace,
    PairSample,
    all_pairs,
    apply_map,
    edelstein_check,
    grid_pairs,
    interval_halving,
    kannan_check,
    lookup_function,
    orbit,
    orbital_kannan_check,
    oscillating_orbit_space,
    random_pairs,
    rect_b_family,
    sequence_space,
    shift_condition_check,
)
from fmetric.reports import _jsonable

ID = lookup_function("id", "altering")
SQ = lookup_function("square", "altering")


def test_random_pairs_deterministic_per_seed():
    ex = interval_halving()
    a = random_pairs(ex.space, 50, seed=3)
    b = random_pairs(ex.space, 50, seed=3)
    c = random_pairs(ex.space, 50, seed=4)
    assert a.pairs == b.pairs
    assert a.pairs != c.pairs
    assert a.source == "random(seed=3, count=50)"
    assert all(x != y and 0 <= x <= 1 and 0 <= y <= 1 for x, y in a.pairs)


def _loop_random_pairs(space, count, seed):
    """Reference: one draw of a row of two per pair, rows with equal entries
    rejected; carrier indices on an enumerated carrier, values on an interval."""
    rng = np.random.default_rng(seed)
    bounds = getattr(space, "bounds", None)
    pts = space.points() if bounds is None else None
    pairs = []
    while len(pairs) < count:
        if pts is None:
            x, y = rng.uniform(*bounds, size=2)
            if x != y:
                pairs.append((float(x), float(y)))
        else:
            i, j = rng.integers(0, len(pts), size=2)
            if i != j:
                pairs.append((pts[int(i)], pts[int(j)]))
    return tuple(pairs)


@pytest.mark.parametrize("seed", range(20))
def test_random_pairs_on_bounds_match_per_pair_draws(seed):
    eps = np.finfo(float).eps
    # an interval two ulps wide makes x == y common, so rows get topped up
    narrow = AnalyticSpace(point_kind="real", dist_rule=lambda x, y: abs(x - y),
                           bounds=(1.0, 1.0 + 2 * eps))
    first = np.random.default_rng(seed).uniform(*narrow.bounds, size=(300, 2))
    assert (first[:, 0] == first[:, 1]).any()
    # on two points half the index rows repeat a point and are dropped
    two = FiniteSpace(("a", 7), [[0.0, 1.0], [1.0, 0.0]])
    spaces = (interval_halving().space, narrow, two,
              oscillating_orbit_space(depth=5).space, sequence_space(N=1000).space)
    for space in spaces:
        for count in (1, 7, 1000):
            got = random_pairs(space, count, seed=seed).pairs
            want = _loop_random_pairs(space, count, seed)
            assert got == want
            assert [type(v) for pair in got for v in pair] == [type(v) for pair in want for v in pair]


def _pinned_samples():
    """Samples of every sampler and kind of carrier, by name; the narrow
    interval and the two-point carrier repeat points often."""
    eps = np.finfo(float).eps
    narrow = AnalyticSpace(point_kind="real", dist_rule=lambda x, y: abs(x - y),
                           bounds=(1.0, 1.0 + 2 * eps))
    two = FiniteSpace(("a", 7), [[0.0, 1.0], [1.0, 0.0]])
    orbit5 = oscillating_orbit_space(depth=5).space
    return {
        "all-sequence": all_pairs(sequence_space(N=12).space),
        "all-finite": all_pairs(orbit5),
        "grid-finite": grid_pairs(orbit5, 17),
        "grid-interval": grid_pairs(interval_halving().space, 40),
        "random-two-points": random_pairs(two, 50, seed=3),
        "random-finite": random_pairs(oscillating_orbit_space(depth=3).space, 200, seed=1),
        "random-narrow-interval": random_pairs(narrow, 300, seed=4),
        "hand": PairSample((("b", 1), (1, "b"), ("c", 1), (1, 1.5), ("b", "c")), "hand"),
        "empty": PairSample((), "empty"),
    }


@pytest.mark.parametrize("sample", [pytest.param(s, id=k) for k, s in _pinned_samples().items()])
def test_a_sample_ranks_its_distinct_points_in_pair_order(sample):
    flat = [p for pair in sample.pairs for p in pair]
    assert sample.points == tuple(dict.fromkeys(flat))
    for codes in (sample.first, sample.second):
        assert codes.dtype == np.intp and codes.shape == (len(sample),)
    points = np.empty(len(sample.points), dtype=object)
    points[:] = sample.points
    rebuilt = tuple(zip(points[sample.first], points[sample.second]))
    assert rebuilt == sample.pairs
    assert [type(p) for pair in rebuilt for p in pair] == [type(p) for p in flat]
    # the tuple constructor codes the pairs as the sampler did
    again = PairSample(sample.pairs, sample.source)
    assert again.points == sample.points
    assert np.array_equal(again.first, sample.first) and np.array_equal(again.second, sample.second)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_pairs_take_memory_in_the_count_not_the_triangle():
    # 1000 pairs of 5000 points: an n x n mask would take 25 MB, the whole
    # triangle 200 MB; beyond the carrier tuple the sample stays small
    space = sequence_space(N=5000).space
    carrier = _peak_bytes(space.points)
    assert _peak_bytes(lambda: grid_pairs(space, 1000)) - carrier < 1_000_000


def test_a_report_holds_its_violations_as_columns():
    # the identity map ties every pair of 300 points on a line, so all
    # 44,850 pairs are violations: two index entries, lhs and rhs take 32
    # bytes per violation, where a dict per violation took about 295
    line = np.arange(300.0)
    space = FiniteSpace(tuple(range(300)), np.abs(np.subtract.outer(line, line)))
    sample = all_pairs(space)
    tracemalloc.start()
    try:
        report = edelstein_check(space, lambda x: x, ID, sample)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.violations) == 44_850
    assert held / 44_850 < 40


def test_random_pairs_on_finite_space():
    ex = oscillating_orbit_space(depth=5)
    s = random_pairs(ex.space, 30, seed=0)
    assert len(s) == 30
    assert all(ex.space.contains(x) and ex.space.contains(y) and x != y for x, y in s.pairs)


def test_grid_pairs_start_with_first_labels():
    ex = oscillating_orbit_space(depth=5)
    s = grid_pairs(ex.space, 4)
    assert s.pairs[0] == (2.0, -2.0)
    labels = ex.space.labels
    assert s.pairs[1] == (labels[0], labels[2])


def test_grid_pairs_on_interval_are_deterministic():
    ex = interval_halving()
    s = grid_pairs(ex.space, 10)
    assert s.pairs == grid_pairs(ex.space, 10).pairs
    assert len(s) == 10
    assert s.pairs[0] == (0.0, 0.25)


def test_all_pairs_count():
    ex = sequence_space(N=10)
    s = all_pairs(ex.space)
    assert len(s) == 45
    assert s.pairs[0] == (1, 2)


def test_sampler_validation():
    ex = interval_halving()
    with pytest.raises(ValueError):
        random_pairs(ex.space, 0, seed=1)
    with pytest.raises(ValueError):
        grid_pairs(ex.space, 0)
    bare = sequence_space(N=10).space
    no_enum = type(bare)(
        point_kind="basis_index",
        dist_rule=bare.dist_rule,
        membership=bare.membership,
    )
    with pytest.raises(DomainError):
        random_pairs(no_enum, 5, seed=0)


def test_edelstein_interval_exact_pair():
    # T(x) = 1 - x/2 halves distances: phi=square gives lhs = d^2/4
    ex = interval_halving()
    rep = edelstein_check(ex.space, ex.map, SQ, PairSample(((0.0, 1.0),), "hand"))
    assert rep.passed
    v_lhs = 0.25
    v_rhs = 1.0
    assert rep.margin_min == v_rhs - v_lhs
    assert rep.checked == 1


def test_edelstein_flags_the_swap_tie():
    ex = oscillating_orbit_space(depth=30)
    rep = edelstein_check(ex.space, ex.map, ID, grid_pairs(ex.space, 100))
    assert not rep.passed
    assert len(rep.violations) == 1
    v = rep.violations.records()[0]
    assert v["pair"] == (2.0, -2.0)
    assert v["lhs"] == 4.0 and v["rhs"] == 4.0


def test_kannan_sequence_pair_matches_rational_oracle():
    # pair (1, 2): lhs = d(3, 6) = 7/6, rhs = (d(1,3) + d(2,6)) / 2 = 3/2
    ex = sequence_space(N=100)
    rep = kannan_check(ex.space, ex.map, ID, PairSample(((1, 2),), "hand"))
    lhs_exact = Fraction(7, 6)
    rhs_exact = Fraction(3, 2)
    assert rep.passed
    margin = rep.margin_min
    assert abs(margin - float(rhs_exact - lhs_exact)) < 1e-15
    # and the lhs itself is the rational value to the last bit
    assert ex.space.d(3, 6) == float(lhs_exact)


def test_kannan_strict_on_sequence_block():
    ex = sequence_space(N=60)
    rep = kannan_check(ex.space, ex.map, ID, all_pairs(ex.space))
    assert rep.passed
    assert rep.checked == 60 * 59 // 2
    assert rep.margin_min > 0


def test_kannan_fails_on_the_two_cycle():
    ex = oscillating_orbit_space(depth=5)
    rep = kannan_check(ex.space, ex.map, ID, PairSample(((2.0, -2.0),), "hand"))
    assert not rep.passed
    v = rep.violations.records()[0]
    assert v["lhs"] == 4.0 and v["rhs"] == 4.0


def test_orbital_kannan_oscillating_first_pair_oracle():
    # first orbit pair (7/3, -9/4): lhs = d(-9/4, 13/6) = 53/12,
    # rhs = (d(7/3, -9/4) + d(-9/4, 13/6)) / 2 = 9/2, margin 1/12
    ex = oscillating_orbit_space(depth=250)
    x0 = 2.0 + 1.0 / 3.0
    rep = orbital_kannan_check(ex.space, ex.map, ID, x0, 1)
    assert rep.passed
    assert abs(rep.margin_min - float(Fraction(1, 12))) < 1e-12


def test_orbital_kannan_long_run_passes():
    ex = oscillating_orbit_space(depth=250)
    rep = orbital_kannan_check(ex.space, ex.map, ID, 2.0 + 1.0 / 3.0, 200)
    assert rep.passed
    assert rep.checked == 200
    assert rep.margin_min > 0


def test_orbital_kannan_interval_first_pair_exact():
    # orbit 0, 1, 1/2: pair (0, 1): lhs = d(1, 1/2) = 1/2,
    # rhs = (d(0,1) + d(1, 1/2)) / 2 = 3/4; dyadics are exact in floats
    ex = interval_halving()
    rep = orbital_kannan_check(ex.space, ex.map, ID, 0.0, 1)
    assert rep.margin_min == 0.75 - 0.5


def test_orbital_kannan_skips_stalled_orbit():
    ex = interval_halving()
    rep = orbital_kannan_check(ex.space, lambda x: x, ID, 0.5, 5)
    assert rep.checked == 0
    assert rep.passed
    assert math.isinf(rep.margin_min)


def test_shift_interval_passes_stated_grid():
    ex = interval_halving()
    rep = shift_condition_check(
        ex.space, ex.map, ID, 0.0,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.1, 0.01], horizon=50,
    )
    assert rep.passed
    assert rep.checked > 0
    assert rep.margin_min >= 0


def test_shift_sequence_vacuous_at_half():
    # every distance exceeds 1, so the trigger phi(d) < 0.5 + 0.5 never
    # fires: the stated level certifies nothing rather than violating
    ex = sequence_space(N=1000)
    rep = shift_condition_check(
        ex.space, ex.map, ID, 1,
        delta_rule=lambda e: e, eps_grid=[0.5], horizon=20,
    )
    assert rep.passed
    assert rep.checked == 0
    assert "0.5:0" in rep.source
    assert math.isinf(rep.margin_min)


def test_shift_sequence_violated_at_binding_levels():
    # at eps = 0.75 the trigger threshold is 1.5; pairs with distance
    # below 1.5 exist while every successor distance stays above 1
    ex = sequence_space(N=1000)
    rep = shift_condition_check(
        ex.space, ex.map, ID, 1,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.75, 1.0], horizon=20,
    )
    assert not rep.passed
    assert rep.violations
    assert all(v["eps"] in (0.75, 1.0) for v in rep.violations.records())
    assert rep.checked > 0


@pytest.mark.parametrize("eps, scale", [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (-0.5, -1.0),
                                         (0.5, math.inf), (0.5, math.nan), (0.5, -1.0)])
def test_shift_levels_and_deltas_must_be_positive_and_finite(eps, scale):
    # an infinite level passed vacuously and an infinite delta triggered every pair
    ex = interval_halving()
    with pytest.raises(ValueError, match="must be positive and finite"):
        shift_condition_check(
            ex.space, ex.map, ID, 0.0, delta_rule=lambda e: scale * e, eps_grid=[0.5, eps], horizon=5
        )


def test_shift_validation():
    ex = interval_halving()
    with pytest.raises(ValueError):
        shift_condition_check(ex.space, ex.map, ID, 0.0, delta_rule=lambda e: 0.0, eps_grid=[0.5], horizon=5)
    with pytest.raises(ValueError):
        shift_condition_check(ex.space, ex.map, ID, 0.0, delta_rule=lambda e: e, eps_grid=[], horizon=5)
    with pytest.raises(ValueError):
        shift_condition_check(ex.space, ex.map, ID, 0.0, delta_rule=lambda e: e, eps_grid=[0.5], horizon=0)


def test_reports_carry_provenance():
    ex = interval_halving()
    rep = edelstein_check(ex.space, ex.map, SQ, random_pairs(ex.space, 10, seed=7))
    assert rep.source == "random(seed=7, count=10)"
    assert rep.condition == "edelstein(square)"
    d = rep.to_dict()
    assert d["condition"] == "edelstein(square)"
    assert d["passed"] is True


# --- array checkers against a pair-by-pair scalar reference -------------------

def _scalar_pairwise(condition, space, T, phi, pairs, source, kannan, index=None):
    """Reference: one pair at a time through apply_map, space.d and scalar
    phi; the dict the report's to_dict() must equal."""
    violations = []
    margin = math.inf
    checked = 0
    for k, (x, y) in enumerate(pairs):
        tx, ty = apply_map(space, T, x), apply_map(space, T, y)
        lhs = float(phi.eval(space.d(tx, ty)))
        if kannan:
            rhs = 0.5 * (float(phi.eval(space.d(x, tx))) + float(phi.eval(space.d(y, ty))))
        else:
            rhs = float(phi.eval(space.d(x, y)))
        checked += 1
        margin = min(margin, rhs - lhs)
        if not (lhs < rhs):
            tag = {"pair": (x, y)} if index is None else {"pair": (x, y), "index": index[k]}
            violations.append({**tag, "lhs": lhs, "rhs": rhs})
    return _jsonable({
        "condition": condition, "passed": not violations, "checked": checked,
        "violations": violations, "margin_min": margin, "source": source,
    })


def _rect_b_rotation():
    """rect-b carries no map; rotate its mixed int/str labels one step."""
    space = rect_b_family(5)
    labels = space.labels
    step = dict(zip(labels, labels[1:] + labels[:1]))
    return space, step.__getitem__, lookup_function("sqrt", "altering")


def _parity_case(example):
    if example == "rect-b":
        return _rect_b_rotation()
    ex = {
        "interval-halving": interval_halving,
        "oscillating-orbit": lambda: oscillating_orbit_space(depth=30),
        "sequence-space": lambda: sequence_space(N=40),
    }[example]()
    return ex.space, ex.map, ex.phi


SAMPLERS = {
    "all_pairs": all_pairs,
    "grid": lambda space: grid_pairs(space, 150),
    "random": lambda space: random_pairs(space, 400, seed=5),
}


@pytest.mark.parametrize("kannan", [False, True], ids=["edelstein", "kannan"])
@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize(
    "example", ["interval-halving", "oscillating-orbit", "sequence-space", "rect-b"]
)
def test_array_checkers_match_scalar_reference(example, sampler, kannan):
    space, T, phi = _parity_case(example)
    if example == "interval-halving" and sampler == "all_pairs":
        with pytest.raises(DomainError):  # a real interval has no finite enumeration
            all_pairs(space)
        return
    sample = SAMPLERS[sampler](space)
    check = kannan_check if kannan else edelstein_check
    got = check(space, T, phi, sample)
    name = f"{'kannan' if kannan else 'edelstein'}({phi.name})"
    want = _scalar_pairwise(name, space, T, phi, sample.pairs, sample.source, kannan)
    assert json.dumps(got.to_dict()) == json.dumps(want)
    if example == "oscillating-orbit" and sampler == "all_pairs":
        assert any(v["lhs"] == v["rhs"] for v in got.violations.records())  # ties are violations


@pytest.mark.parametrize("x0", [2.0 + 1.0 / 3.0, 2.0, -2.0])
def test_orbital_kannan_matches_scalar_reference(x0):
    ex = oscillating_orbit_space(depth=30)
    count = 80  # long enough to wrap onto the 2-cycle, where pairs tie
    got = orbital_kannan_check(ex.space, ex.map, ID, x0, count)
    tr = orbit(ex.space, ex.map, x0, count + 1)
    index = [k for k in range(count) if tr.step_dist[k] != 0.0]
    pairs = [(tr.points[k], tr.points[k + 1]) for k in index]
    want = _scalar_pairwise(
        "orbital_kannan(id)", ex.space, ex.map, ID, pairs,
        f"orbit(x0={x0!r}, pairs={count})", kannan=True, index=index,
    )
    assert json.dumps(got.to_dict()) == json.dumps(want)
    if x0 == 2.0:
        assert got.violations and got.violations.records()[0]["index"] == 0


def test_pairwise_checks_map_each_distinct_point_once_in_pair_order():
    ex = oscillating_orbit_space(depth=10)
    calls = []

    def T(x):
        calls.append(x)
        return ex.map(x)

    sample = random_pairs(ex.space, 300, seed=2)
    kannan_check(ex.space, T, ID, sample)
    seen = list(dict.fromkeys(p for pair in sample.pairs for p in pair))
    assert calls == seen


def test_orbital_kannan_on_indices_past_int64_matches_scalar_reference():
    # the orbit 1, 3, 9, ... of T(i) = 3i passes 2**63 at step 40; from
    # step 33 on both sides round to 1.0, so those pairs tie
    ex = sequence_space(N=40)
    count = 200
    got = orbital_kannan_check(ex.space, ex.map, ID, 1, count)
    tr = orbit(ex.space, ex.map, 1, count + 1)
    pairs = [(tr.points[k], tr.points[k + 1]) for k in range(count)]
    want = _scalar_pairwise(
        "orbital_kannan(id)", ex.space, ex.map, ID, pairs,
        f"orbit(x0=1, pairs={count})", kannan=True, index=list(range(count)),
    )
    assert got.checked == count and got.violations.records()[0]["index"] == 33
    assert json.dumps(got.to_dict()) == json.dumps(want)


def _negative_line():
    """Points 0..4 at distance |i - j|, except d(0, 1) = -0.5 and d(2, 3) = -3;
    the map x -> x + 1 is undefined at 4."""
    m = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    m[0, 1] = m[1, 0] = -0.5
    m[2, 3] = m[3, 2] = -3.0
    return FiniteSpace(labels=tuple(range(5)), dist=m), {0: 1, 1: 2, 2: 3, 3: 4}.__getitem__


@pytest.mark.parametrize(
    "kannan, pairs",
    [
        (False, [(1, 3), (0, 1), (1, 2)]),  # no point fails the map; d(0, 1) = -0.5
        (False, [(0, 1), (3, 4)]),  # the map fails at 4, after a pair at distance -0.5
        (False, [(3, 4), (0, 1)]),  # the map fails before a negative distance
        (False, [(1, 3), (2, 4), (0, 1)]),  # the map fails at y of the second pair
        (True, [(1, 3), (0, 2)]),  # no point fails the map; d(0, T0) = -0.5, d(2, T2) = -3
        (True, [(0, 2), (3, 4)]),  # the map fails at 4, after d(0, T0) = -0.5
    ],
)
def test_errors_match_the_pair_by_pair_order(kannan, pairs):
    # every point is mapped, in pair order, before any distance is taken:
    # a sample holding a point where the map fails raises that point's map
    # error, even after a pair with a negative distance; any other sample
    # raises phi's DomainError naming a negative distance
    space, T = _negative_line()
    check = kannan_check if kannan else edelstein_check
    with pytest.raises(DomainError) as got:
        check(space, T, ID, PairSample(tuple(pairs), "explicit"))
    for p in (p for pair in pairs for p in pair):
        try:
            apply_map(space, T, p)
        except DomainError as want:
            assert str(got.value) == str(want)
            return
    assert str(got.value) in ("id is defined on t >= 0, got -0.5", "id is defined on t >= 0, got -3.0")


def _loop_pairs(pts, count=None):
    """Reference: index pairs i < j by a double loop, the first `count` of them."""
    pairs = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if len(pairs) == count:
                return tuple(pairs)
            pairs.append((pts[i], pts[j]))
    return tuple(pairs)


@pytest.mark.parametrize("count", [1, 4, 45, 46, 100, 10000])
def test_grid_and_all_pairs_match_double_loop(count):
    finite = oscillating_orbit_space(depth=4).space
    assert grid_pairs(finite, count).pairs == _loop_pairs(finite.labels, count)
    assert all_pairs(finite).pairs == _loop_pairs(finite.labels)
    seq = sequence_space(N=10).space
    assert all_pairs(seq).pairs == _loop_pairs(tuple(range(1, 11)))
    interval = interval_halving().space
    got = grid_pairs(interval, count)
    m = int(got.source.split("(")[1].split()[0])
    assert got.pairs == _loop_pairs([float(v) for v in np.linspace(0.0, 1.0, m)], count)


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)])
def test_empty_sampling_interval_is_rejected(bounds):
    # equal bounds used to make random_pairs reject every draw forever
    with pytest.raises(ValueError, match="lo < hi"):
        AnalyticSpace(point_kind="real", dist_rule=lambda x, y: abs(x - y), bounds=bounds)

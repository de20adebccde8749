import math
from itertools import permutations

import numpy as np
import pytest

from fmetric import (
    AnalyticSpace,
    DomainError,
    FGenerator,
    FiniteSpace,
    SpaceAxiomError,
    Witness,
    alpha_divergence_profile,
    ball_base,
    check_identity_symmetry,
    hausdorff_witness,
    lookup_function,
    min_alpha,
    min_chain_sums,
    open_ball,
    oscillating_orbit_space,
    random_fspace,
    random_metric,
    rect_b_family,
    sequence_space,
    verify_D3,
)

LN = lookup_function("ln", "generator")


def exhaustive_chain_mins(dist: np.ndarray) -> np.ndarray:
    """Independent oracle: minimum over all simple chains, summed left to
    right, by brute-force enumeration. Only usable for tiny carriers."""
    n = dist.shape[0]
    out = dist.copy()
    idx = list(range(n))
    for i in idx:
        for j in idx:
            if i == j:
                continue
            best = dist[i, j]
            mids = [k for k in idx if k != i and k != j]
            for r in range(1, len(mids) + 1):
                for seq in permutations(mids, r):
                    s = 0.0
                    prev = i
                    for p in list(seq) + [j]:
                        s = s + dist[prev, p]
                        prev = p
                    if s < best:
                        best = s
            out[i, j] = best
    return out


def small_random_space(seed: int) -> FiniteSpace:
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 6))
    space, _ = random_fspace(seed, size, LN)
    return space


def test_finite_space_validation():
    with pytest.raises(SpaceAxiomError):
        FiniteSpace(labels=("a", "b"), dist=np.zeros((3, 3)))
    with pytest.raises(SpaceAxiomError):
        FiniteSpace(labels=("a", "a"), dist=np.zeros((2, 2)))
    with pytest.raises(SpaceAxiomError):
        FiniteSpace(labels=("a", "b"), dist=np.array([[0.0, np.nan], [np.nan, 0.0]]))
    sp = FiniteSpace(labels=("a", "b"), dist=np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert sp.d("a", "b") == 2.0
    assert sp.contains("a") and not sp.contains("c")
    with pytest.raises(DomainError):
        sp.d("a", "z")
    with pytest.raises(ValueError):
        sp.dist[0, 1] = 5.0  # stored matrix is read-only


def test_finite_space_rejects_a_non_square_matrix():
    with pytest.raises(SpaceAxiomError, match=r"must be square, got shape \(2, 3\)"):
        FiniteSpace(labels=("a", "b"), dist=np.zeros((2, 3)))


@pytest.mark.parametrize("make", [lambda m: m, np.array], ids=["list", "array"])
def test_finite_space_keeps_its_own_copy_of_the_matrix(make):
    given = make([[0.0, 2.0], [2.0, 0.0]])
    sp = FiniteSpace(labels=("a", "b"), dist=given)
    given[0][1] = 7.0
    assert sp.d("a", "b") == 2.0


def test_identity_symmetry_reports():
    m = np.array([
        [0.0, 1.0, 2.0],
        [1.5, 0.0, 1.0],
        [2.0, 1.0, 0.1],
    ])
    d1, d2 = check_identity_symmetry(FiniteSpace(labels=(0, 1, 2), dist=m))
    assert d1.axiom == "D1" and not d1.passed
    assert {"pair": (2, 2), "lhs": 0.1, "rhs": 0.0} in d1.violations
    assert d2.axiom == "D2" and not d2.passed
    assert d2.violations[0]["pair"] == (0, 1)
    # margin loosens both
    d1m, d2m = check_identity_symmetry(FiniteSpace(labels=(0, 1, 2), dist=m), margin=0.6)
    assert d1m.passed and d2m.passed


def test_identity_requires_positive_off_diagonal():
    m = np.array([[0.0, 0.0], [0.0, 0.0]])
    d1, _ = check_identity_symmetry(FiniteSpace(labels=("x", "y"), dist=m))
    assert not d1.passed


def test_min_chain_sums_matches_exhaustive_bitwise():
    for seed in range(60):
        space = small_random_space(seed)
        sp = min_chain_sums(space)
        oracle = exhaustive_chain_mins(space.dist)
        assert np.array_equal(sp, oracle), f"seed {seed}"


def test_min_chain_sums_rejects_broken_axioms():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(SpaceAxiomError):
        min_chain_sums(FiniteSpace(labels=(0, 1), dist=m))


def test_verify_D3_agrees_with_exhaustive_slack():
    for seed in range(40):
        space = small_random_space(seed)
        oracle = exhaustive_chain_mins(space.dist)
        a_min = min_alpha(space, LN)
        for alpha in (0.0, a_min, a_min + 1.0):
            rep = verify_D3(space, Witness(LN, alpha))
            expected = []
            for i in range(space.n):
                for j in range(i + 1, space.n):
                    slack = math.log(space.dist[i, j]) - math.log(oracle[i, j])
                    if slack > alpha:
                        expected.append((space.labels[i], space.labels[j]))
            assert [v["pair"] for v in rep.violations] == expected, f"seed {seed} alpha {alpha}"
            assert rep.passed == (not expected)


def test_min_alpha_is_tight():
    for seed in (5, 23, 77):
        space, w = random_fspace(seed, 6, LN)
        assert verify_D3(space, w).passed
        if w.alpha > 0:
            assert not verify_D3(space, Witness(LN, w.alpha * (1 - 1e-12))).passed


def test_min_alpha_zero_on_true_metrics():
    for seed in range(30):
        cloud = random_metric(seed, 4 + seed % 12)
        assert min_alpha(cloud, LN) == 0.0
        assert verify_D3(cloud, Witness(LN, 0.0)).passed


def test_verify_D3_margin_absorbs_near_ties():
    space = small_random_space(9)
    a = min_alpha(space, LN)
    if a > 0:
        shaved = a * (1 - 1e-12)
        assert not verify_D3(space, Witness(LN, shaved)).passed
        assert verify_D3(space, Witness(LN, shaved), margin=a * 1e-11).passed


@pytest.mark.parametrize("margin", [float("nan"), -1.0, -1e-300, float("inf")])
def test_margin_below_zero_or_nan_is_rejected(margin):
    # every comparison with a nan margin is false, so it would pass any table;
    # an infinite one would make every off-diagonal entry a D1 failure
    space = FiniteSpace(labels=("a", "b", "c"), dist=np.array([[0, 5, 1], [1, 0, 1], [2, 1, 7.0]]))
    w = Witness(LN, 0.0)
    for call in (lambda: check_identity_symmetry(space, margin), lambda: verify_D3(space, w, margin),
                 lambda: min_chain_sums(space, margin)):
        with pytest.raises(ValueError, match="margin must be >= 0"):
            call()


def test_nearest_label_skips_nan_labels():
    space = FiniteSpace(labels=(float("nan"), 1, 2.5), dist=np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0.0]]))
    assert space.nearest_label(1.0) == (1, True)
    assert space.nearest_label(2.0) == (2.5, False)
    only_nan = FiniteSpace(labels=(float("nan"), "x"), dist=np.array([[0, 1], [1, 0.0]]))
    assert only_nan.nearest_label(0.0) == (None, False)


def test_nearest_label_skips_labels_past_the_float_range():
    m = np.ones((4, 4)) - np.eye(4)
    space = FiniteSpace(labels=(10 ** 400, -math.inf, 1, 2.5), dist=m)
    assert space.nearest_label(1.0) == (1, True)
    assert space.nearest_label(-math.inf) == (1, False)
    only_huge = FiniteSpace(labels=(10 ** 400, math.inf), dist=m[:2, :2])
    assert only_huge.nearest_label(0.0) == (None, False)


@pytest.mark.parametrize("labels", [(math.inf, 0), (0, math.inf)])
def test_nearest_label_never_matches_an_infinite_value(labels):
    space = FiniteSpace(labels=labels, dist=np.array([[0, 1], [1, 0.0]]))
    assert space.nearest_label(math.inf) == (0, False)
    assert space.nearest_label(math.nan) == (0, False)


def _searched_label(labels, value):
    """nearest_label by a linear search alone: the nearest numeric label
    within the float range, the first one on a tie."""
    numeric = [lab for lab in labels if isinstance(lab, (int, float)) and abs(lab) <= 1.7976931348623157e308]
    best = min(numeric, key=lambda lab: abs(lab - value), default=None)
    return best, best is not None and abs(best - value) <= 1e-9


@pytest.mark.parametrize("labels, value", [
    ((0, 1, 2.5), 1.0),  # an int label found by a float value
    ((0, 1, 2.5), 2.5),
    ((0, True, 2), 1.0),  # a bool counts as an int, as in the search
    ((np.int64(1), 2.5), 1.0),  # equal and hashed alike, but not numeric
    ((np.int64(1), "x"), 1.0),
    ((np.float64(1.0), 3), 1.0),  # a float subclass is numeric
    ((math.inf, 0), 1e308),  # an infinite label never matches
    ((-math.inf, 5), -math.inf),
    ((math.nan, 1, 2.5), math.nan),  # a nan value never matches
    ((10 ** 400, 1), 1.0),
    ((2 ** 53 + 1, 2 ** 53), 2.0 ** 53),  # both at distance 0 as floats: the first wins
    ((0, 1), 1.0 + 1e-12),  # within 1e-9 but not equal
    (("a", 1.0, 2), 1),  # an int value finds a float label
])
def test_nearest_label_by_lookup_agrees_with_the_search(labels, value):
    n = len(labels)
    space = FiniteSpace(labels=labels, dist=np.ones((n, n)) - np.eye(n))
    got, want = space.nearest_label(value), _searched_label(labels, value)
    assert got == want and type(got[0]) is type(want[0])


def test_witness_rejects_negative_alpha():
    with pytest.raises(ValueError):
        Witness(LN, -0.1)


def test_witness_rejects_infinite_alpha():
    with pytest.raises(ValueError, match="finite"):
        Witness(LN, math.inf)


def test_rect_b_alpha_closed_form():
    for n in (2, 7, 25, 50):
        a = min_alpha(rect_b_family(n), LN)
        assert abs(a - math.log(15.0 * n * n / 6.0)) < 1e-9


def test_alpha_divergence_profile_inclusive():
    prof = alpha_divergence_profile(rect_b_family, LN, (2, 6))
    assert [n for n, _ in prof] == [2, 3, 4, 5, 6]
    assert all(b > a for (_, a), (_, b) in zip(prof, prof[1:]))
    with pytest.raises(ValueError):
        alpha_divergence_profile(rect_b_family, LN, (5, 2))


def three_point_space() -> FiniteSpace:
    m = np.array([
        [0.0, 0.4, 1.0],
        [0.4, 0.0, 0.4],
        [1.0, 0.4, 0.0],
    ])
    return FiniteSpace(labels=(0, 1, 2), dist=m)


def test_open_ball_strict():
    sp = three_point_space()
    assert open_ball(sp, 0, 0.4) == {0}
    assert open_ball(sp, 0, 0.41) == {0, 1}
    assert open_ball(sp, 0, 1.1) == {0, 1, 2}
    with pytest.raises(DomainError):
        open_ball(sp, 9, 1.0)


def test_hausdorff_witness_on_three_point_example():
    sp = three_point_space()
    n, r = hausdorff_witness(sp, 0, 2)
    assert n == 2
    assert r == 0.25
    assert not (open_ball(sp, 0, r) & open_ball(sp, 2, r))


def test_hausdorff_witness_random_spaces():
    for seed in range(20):
        space, _ = random_fspace(seed, 3 + seed % 8, LN)
        for i in range(space.n):
            for j in range(i + 1, space.n):
                x, y = space.labels[i], space.labels[j]
                n, r = hausdorff_witness(space, x, y)
                assert n >= 1
                assert not (open_ball(space, x, r) & open_ball(space, y, r))


def test_hausdorff_witness_needs_distinct_points():
    with pytest.raises(DomainError):
        hausdorff_witness(three_point_space(), 1, 1)


def test_hausdorff_witness_needs_a_positive_distance():
    # distinct labels at distance 0 break the identity axiom
    sp = FiniteSpace(labels=("a", "b"), dist=np.zeros((2, 2)))
    with pytest.raises(SpaceAxiomError, match=r"d\('a', 'b'\) = 0.0, identity axiom broken"):
        hausdorff_witness(sp, "a", "b")


def test_ball_base_ends_in_singleton():
    sp = three_point_space()
    base = ball_base(sp, 0)
    assert base[-1] == {0}
    assert base[0] == {0, 1, 2} or base[0] == {0, 1}
    for a, b in zip(base, base[1:]):
        assert b < a  # strictly shrinking sets


def test_ball_base_identity_guard():
    m = np.array([[0.0, 0.0], [0.0, 0.0]])
    sp = FiniteSpace(labels=("x", "y"), dist=m)
    with pytest.raises(SpaceAxiomError):
        ball_base(sp, "x")


def _scalar_open_ball(space, x, r):
    return {y for y in space.points() if space.d(x, y) < r}


def _scalar_ball_base(space, x):
    """Balls B(x, 1/n) by one scalar d call per point and radius."""
    base = []
    n = 1
    while True:
        ball = _scalar_open_ball(space, x, 1.0 / n)
        if not base or ball != base[-1]:
            base.append(ball)
        if ball == {x}:
            return base
        n += 1


def _line(points):
    return AnalyticSpace(point_kind="real", dist_rule=lambda a, b: abs(a - b),
                         enumerator=lambda: points)


BALL_SPACES = {
    "orbit": (oscillating_orbit_space(depth=60).space, [2.0, -2.0, 2.0 + 1.0 / 12]),
    "random": (random_fspace(3, 12, LN)[0], None),
    "three points": (three_point_space(), None),
    # ties (0.5 and -0.5 from 0) and near-ties (0.7 - 0.5 is 0.2 less an ulp)
    "line": (_line([0.0, 0.5, -0.5, 0.25, 1.0 / 3, 0.2, -0.2, 0.9, 0.01, 0.7]), None),
    "sequence": (sequence_space(N=40).space, [1, 7, 40]),
    # from 0, ceil(1/d) is one too low for the ulp below 1/5 (1/d rounds
    # to 5) and one too high for 1.0/49 (1/d rounds above 49), where a
    # point at 0.0201 drops out at n = 50 and not at 49
    "reciprocals": (_line([0.0, 0.7, float(np.nextafter(0.2, 0)), 1.0 / 49, 0.0201]), [0.0]),
    # d/(2m) rounds up past 7 and down to 22: the first guess ceil(d/(2m))
    # is one too high, then one too low
    "guess high": (FiniteSpace(("x", "y", "z"), [[0, 2.1, 0.15], [2.1, 0, 0.15], [0.15, 0.15, 0]]),
                   None),
    "guess low": (FiniteSpace(("x", "y", "z"), [[0, 9.0, 0.20454545454545453],
                                                [9.0, 0, 0.20454545454545453],
                                                [0.20454545454545453, 0.20454545454545453, 0]]),
                  None),
}


@pytest.mark.parametrize("space, centers", BALL_SPACES.values(), ids=BALL_SPACES.keys())
def test_balls_match_scalar_distance_loops(space, centers):
    pts = space.points()
    for x in centers or pts:
        assert ball_base(space, x) == _scalar_ball_base(space, x)
        radii = {space.d(x, y) for y in pts} | {0.0, 0.15, 0.3, 1.0, 2.5, math.inf, math.nan}
        for r in sorted(radii):
            assert open_ball(space, x, r) == _scalar_open_ball(space, x, r)


def _scalar_hausdorff_witness(space, x, y):
    dxy = space.d(x, y)
    n = 1
    while _scalar_open_ball(space, x, dxy / (2.0 * n)) & _scalar_open_ball(space, y, dxy / (2.0 * n)):
        n += 1
    return n, dxy / (2.0 * n)


@pytest.mark.parametrize("space, centers", BALL_SPACES.values(), ids=BALL_SPACES.keys())
def test_hausdorff_witness_matches_scalar_distance_loops(space, centers):
    pts = list(centers or space.points())
    for x in pts:
        for y in pts:
            if x != y:
                assert hausdorff_witness(space, x, y) == _scalar_hausdorff_witness(space, x, y)


def test_hausdorff_witness_closed_form_steps():
    assert hausdorff_witness(BALL_SPACES["guess high"][0], "x", "y") == (7, 2.1 / 14.0)
    assert hausdorff_witness(BALL_SPACES["guess low"][0], "x", "y") == (23, 9.0 / 46.0)


def test_hausdorff_witness_rejects_a_point_at_zero_from_both():
    # no radius separates x and y when z sits at distance 0 from both
    space = FiniteSpace(("x", "y", "z"), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(SpaceAxiomError, match="within distance 0.0 of both 'x' and 'y'"):
        hausdorff_witness(space, "x", "y")


def test_balls_code_the_carrier_without_label_lookups(monkeypatch):
    space = random_fspace(5, 10, LN)[0]
    x = space.labels[3]
    want = (_scalar_ball_base(space, x), [_scalar_open_ball(space, x, r) for r in (0.5, 1.0, 2.0)])
    assert np.array_equal(space.as_array(space.labels), np.arange(10))
    calls = []
    index = FiniteSpace.index
    monkeypatch.setattr(FiniteSpace, "index", lambda self, p: calls.append(p) or index(self, p))
    got = (ball_base(space, x), [open_ball(space, x, r) for r in (0.5, 1.0, 2.0)])
    assert got == want
    assert calls == [x] * 4  # the center only
    space.as_array(list(space.labels))
    assert calls[4:] == list(space.labels)


def test_ball_base_jumps_past_radii_that_change_nothing():
    # the parent stepped n by one, 10**12 times, to separate the 1e-12 link
    space = FiniteSpace(("a", "b", "c"), [[0, 1e-12, 0.5], [1e-12, 0, 0.5], [0.5, 0.5, 0]])
    assert ball_base(space, "a") == [{"a", "b", "c"}, {"a", "b"}, {"a"}]
    space = FiniteSpace(("a", "b"), [[0, 1e-300], [1e-300, 0]])
    with pytest.raises(RuntimeError, match="2\\*\\*53"):
        ball_base(space, "a")


def test_ball_base_rejects_a_center_outside_its_own_balls():
    space = FiniteSpace(("a", "b"), [[0.5, 0.25], [0.25, 0]])
    with pytest.raises(SpaceAxiomError, match="leaves 'a' out of its own balls"):
        ball_base(space, "a")


def test_ball_base_reads_one_distance_row(monkeypatch):
    space = oscillating_orbit_space(depth=40).space
    calls = []
    monkeypatch.setattr(FiniteSpace, "d", lambda self, x, y: calls.append((x, y)))
    base = ball_base(space, 2.0)
    assert calls == [] and base[-1] == {2.0} and len(base) > 10


def test_ball_errors_keep_their_order():
    space = sequence_space(N=5).space
    with pytest.raises(DomainError, match="center 0 is not in the carrier"):
        ball_base(space, 0)
    with pytest.raises(DomainError, match="no finite enumeration"):
        open_ball(AnalyticSpace(point_kind="real", dist_rule=lambda a, b: abs(a - b)), 9.0, 1.0)
    half_line = AnalyticSpace(point_kind="real", dist_rule=lambda a, b: abs(a - b),
                              membership=lambda p: p >= 0, enumerator=lambda: [0.0, 1.0])
    with pytest.raises(DomainError, match="center -1.0 is not in the carrier"):
        hausdorff_witness(half_line, 0.0, -1.0)
    with pytest.raises(SpaceAxiomError, match="distance -1.0 from 'a'"):
        ball_base(FiniteSpace(labels=("a", "b", "c"),
                              dist=[[0, 2, -1], [2, 0, 0.5], [-1, 0.5, 0]]), "a")


def test_ball_base_skips_a_point_at_a_nan_distance():
    space = _line([0.0, 0.5, math.nan, 0.25])
    assert ball_base(space, 0.0) == [{0.0, 0.25, 0.5}, {0.0, 0.25}, {0.0}] == _scalar_ball_base(space, 0.0)


def test_ball_base_names_the_identity_breach_before_the_2_53_limit():
    # d(x, x) > 0 and a link below 2**-53: x leaves its balls at n = 2, which
    # decides the answer before any ball needs n >= 2**53
    space = FiniteSpace(("x", "y"), [[0.5, 1e-300], [1e-300, 0]])
    with pytest.raises(SpaceAxiomError, match="leaves 'x' out of its own balls"):
        ball_base(space, "x")


def test_ball_base_on_a_carrier_that_enumerates_a_point_twice():
    # two prefixes of the sorted row give the same ball {0.0}
    space = _line([0.0, 0.0, 1.0, 0.5])
    assert ball_base(space, 0.0) == [{0.0, 0.5}, {0.0}] == _scalar_ball_base(space, 0.0)


def test_ball_base_identity_guard_skips_nan_distances():
    # the first other point sits at a nan distance, the next one at 0
    table = {(1, 2): math.nan, (1, 3): 0.0, (1, 4): 0.5}
    rule = np.vectorize(lambda a, b: 0.0 if a == b else table.get((min(a, b), max(a, b)), 1.0),
                        otypes=[float])
    space = AnalyticSpace(point_kind="basis_index", dist_rule=rule, enumerator=lambda: [1, 2, 3, 4])
    with pytest.raises(SpaceAxiomError, match="a point at distance 0.0 from 1 breaks the identity axiom"):
        ball_base(space, 1)


def test_analytic_space_membership_and_points():
    line = AnalyticSpace(
        point_kind="real",
        dist_rule=lambda x, y: abs(x - y),
        membership=lambda x: 0.0 <= x <= 1.0,
        bounds=(0.0, 1.0),
    )
    assert line.contains(0.5) and not line.contains(2.0)
    assert line.d(0.25, 0.75) == 0.5
    with pytest.raises(DomainError):
        line.points()


def _loop_identity_symmetry(space, margin):
    """Entry-by-entry reference for check_identity_symmetry's records."""
    m, n, lab = space.dist, space.n, space.labels
    id_viol = [{"pair": (lab[i], lab[i]), "lhs": float(m[i, i]), "rhs": 0.0}
               for i in range(n) if abs(m[i, i]) > margin]
    id_viol += [
        {"pair": (lab[i], lab[j]), "lhs": float(m[i, j]), "rhs": 0.0}
        for i in range(n) for j in range(n) if i != j and m[i, j] <= margin
    ]
    sym_viol = [
        {"pair": (lab[i], lab[j]), "lhs": float(m[i, j]), "rhs": float(m[j, i])}
        for i in range(n) for j in range(i + 1, n) if abs(m[i, j] - m[j, i]) > margin
    ]
    return id_viol, sym_viol


@pytest.mark.parametrize("margin", [0.0, 0.05])
def test_identity_symmetry_matches_loop_reference_in_order(margin):
    rng = np.random.default_rng(11)
    n = 9
    m = rng.uniform(-0.1, 1.0, (n, n))  # noisy diagonal, small and negative entries, asymmetry
    labels = tuple(f"p{k}" for k in range(n))
    space = FiniteSpace(labels=labels, dist=m)
    d1, d2 = check_identity_symmetry(space, margin=margin)
    id_viol, sym_viol = _loop_identity_symmetry(space, margin)
    assert len(id_viol) > n and sym_viol
    assert d1.violations == id_viol and d2.violations == sym_viol
    assert not d1.passed and not d2.passed


def _loop_verify_D3(space, w, margin):
    """Pair-by-pair reference for verify_D3's violation records: f evaluated
    on one distance and one minimal chain sum at a time, each pair i < j
    decided on the direction of its larger slack, i to j on a tie."""
    sp = min_chain_sums(space, margin)
    violations = []
    for i in range(space.n):
        for j in range(i + 1, space.n):
            sides = []
            for a, b in ((i, j), (j, i)):
                lhs, fs = float(w.f.eval(space.dist[a, b])), float(w.f.eval(sp[a, b]))
                sides.append((lhs - fs, lhs, fs + w.alpha))
            sides = [side for side in sides if not math.isnan(side[0])]
            if not sides:
                continue
            slack, lhs, rhs = max(sides, key=lambda side: side[0])
            if slack > w.alpha + margin:
                violations.append({"pair": (space.labels[i], space.labels[j]), "lhs": lhs, "rhs": rhs})
    return violations


def _half_min_alpha(space):
    """The space with alpha at half its minimum, so that some pairs fail."""
    return space, Witness(LN, min_alpha(space, LN) / 2)


def _string_labelled(seed, n):
    dist = random_fspace(seed, n, LN)[0].dist
    return FiniteSpace(labels=tuple(f"p{k}" for k in range(n)), dist=dist)


# ln, but +inf from d(2 + 1/3, -2 - 1/7) of the depth-3 orbit up; that
# pair's chain sum is that distance one way and an ulp below it the other,
# so its slack is nan (inf - inf) one way and inf the other
_CUT = oscillating_orbit_space(depth=3).space.d(2.0 + 1.0 / 3, -2.0 - 1.0 / 7)
CUT_LN = FGenerator("cut-ln", lambda t: np.where(t >= _CUT, np.inf, np.log(t)))


D3_TABLES = {
    "non-metric": lambda: _half_min_alpha(random_fspace(20, 45, LN)[0]),
    "orbit": lambda: (oscillating_orbit_space(depth=30).space, Witness(LN, 0.0)),
    "string-labels": lambda: _half_min_alpha(_string_labelled(21, 40)),
    "violation-free": lambda: (random_metric(22, 50), Witness(LN, 0.0)),
    "nan-slack": lambda: (oscillating_orbit_space(depth=3).space, Witness(CUT_LN, 0.0)),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("margin_share", [0.0, 0.5])
@pytest.mark.parametrize("name", D3_TABLES)
def test_verify_D3_matches_pair_loop_reference(name, margin_share):
    space, w = D3_TABLES[name]()
    # a share of the worst excess over alpha, kept below every distance so
    # that D1 still holds, drops some violations and keeps others
    excess = min_alpha(space, w.f) - w.alpha
    closest = space.dist[~np.eye(space.n, dtype=bool)].min()
    margin = margin_share * min(excess if excess > 0 else 1e-3, closest)
    rep = verify_D3(space, w, margin=margin)
    want = _loop_verify_D3(space, w, margin)
    assert rep.violations == want
    assert rep.passed == (not want)
    for got, ref in zip(rep.violations, want):
        (lhs, rhs), (lhs_w, rhs_w) = (got["lhs"], got["rhs"]), (ref["lhs"], ref["rhs"])
        assert type(lhs) is float and type(rhs) is float
        assert (lhs, rhs) == (lhs_w, rhs_w)
        assert np.float64(lhs).tobytes() == np.float64(lhs_w).tobytes()
        assert np.float64(rhs).tobytes() == np.float64(rhs_w).tobytes()
    if name == "violation-free":
        assert not want
    elif margin_share > 0.0:
        assert 0 < len(want) < len(_loop_verify_D3(space, w, 0.0))


def test_verify_D3_and_chain_sums_reject_broken_axioms_at_every_margin():
    m = np.array([[0.0, 1.0, 1.0], [1.0 + 1e-3, 0.0, 1.0], [1.0, 1.0, 0.0]])
    space = FiniteSpace(labels=("a", "b", "c"), dist=m)
    w = Witness(LN, 0.0)
    for _ in range(2):
        with pytest.raises(SpaceAxiomError):
            verify_D3(space, w)
        with pytest.raises(SpaceAxiomError):
            min_chain_sums(space)
    # a pass at a looser margin does not carry over to a stricter one
    assert all(r.passed for r in check_identity_symmetry(space, margin=1e-2))
    assert verify_D3(space, w, margin=1e-2).passed
    with pytest.raises(SpaceAxiomError):
        verify_D3(space, w)
    with pytest.raises(SpaceAxiomError):
        min_chain_sums(space, margin=1e-4)


def test_negative_diagonal_within_margin_gives_the_zero_diagonal_sums():
    # a margin admits d(0, 0) = -1e-12; looping at point 0 would lower every
    # chain sum without bound, so the closure must run on a zero diagonal
    x = np.cumsum(np.random.default_rng(3).uniform(0.5, 1.5, 40))
    zero = np.abs(x[:, None] - x[None, :])
    neg = zero.copy()
    neg[0, 0] = -1e-12
    margin = 1e-9
    got = min_chain_sums(FiniteSpace(tuple(range(40)), neg), margin)
    want = min_chain_sums(FiniteSpace(tuple(range(40)), zero), margin)
    off = ~np.eye(40, dtype=bool)
    assert np.array_equal(got[off], want[off])
    assert verify_D3(FiniteSpace(tuple(range(40)), neg), Witness(LN, 0.0), margin).violations == \
        verify_D3(FiniteSpace(tuple(range(40)), zero), Witness(LN, 0.0), margin).violations


def test_nonnegative_diagonal_reaches_the_closure_uncopied(monkeypatch):
    from fmetric import fspace

    seen = []
    monkeypatch.setattr(fspace, "minplus_closure", lambda d: seen.append(d) or d.copy())
    space = random_metric(4, 12)
    min_chain_sums(space)
    assert seen[0] is space.dist


def test_positive_diagonal_within_margin_stays_on_the_closure_diagonal():
    space = FiniteSpace(labels=(0, 1), dist=[[1e-12, 1.0], [1.0, 0.0]])
    assert min_chain_sums(space, 1e-9).diagonal().tolist() == [1e-12, 0.0]


D3_THRESHOLD_SPACES = {
    "orbit-200": lambda: oscillating_orbit_space(depth=200).space,
    "rect-b-10": lambda: rect_b_family(10),
    "non-metric": lambda: random_fspace(23, 60, LN)[0],
}


@pytest.mark.parametrize("name", D3_THRESHOLD_SPACES)
def test_verify_D3_passes_at_min_alpha_and_fails_just_below(name):
    # the closure is not symmetric on the orbit: at depth 200 the larger
    # slack of many pairs lies in the direction j -> i
    space = D3_THRESHOLD_SPACES[name]()
    a = min_alpha(space, LN)
    assert a > 0
    assert verify_D3(space, Witness(LN, a)).passed
    assert not verify_D3(space, Witness(LN, float(np.nextafter(a, 0.0)))).passed

import math

import numpy as np
import pytest

from fmetric import (
    DomainError,
    Witness,
    build_example,
    example_ids,
    interval_halving,
    lookup_function,
    orbit,
    oscillating_orbit_space,
    random_fspace,
    random_metric,
    rect_b_family,
    reproduce,
    sequence_space,
    verify_D3,
)

LN = lookup_function("ln", "generator")


def test_example_ids_stable():
    assert example_ids() == ["interval-halving", "oscillating-orbit", "sequence-space", "rect-b"]


def test_build_example_unknown():
    with pytest.raises(DomainError):
        build_example("moebius-strip")


def test_build_example_forwards_params():
    assert build_example("rect-b", n=3).space.d(1, "g1") == 3.0 / 9.0
    assert build_example("sequence-space", N=50).space.points() == tuple(range(1, 51))
    assert len(build_example("oscillating-orbit", depth=4).space.labels) == 10


@pytest.mark.parametrize("example_id, params", [
    ("interval-halving", {"depth": 3}),
    ("oscillating-orbit", {"n": 3}),
    ("sequence-space", {"depth": 3}),
    ("rect-b", {"n": 3, "N": 50}),
])
def test_build_example_rejects_a_parameter_its_builder_does_not_take(example_id, params):
    with pytest.raises(DomainError, match=f"example '{example_id}' takes no parameter"):
        build_example(example_id, **params)


def test_rect_b_family_shape():
    sp = rect_b_family(10)
    assert sp.labels[:4] == (1, 20, 25, 30)
    assert sp.n == 12
    assert sp.d(1, 20) == 15.0
    assert sp.d(1, 25) == 1.0 and sp.d(20, 25) == 1.0
    assert sp.d(25, 30) == 2.0
    assert sp.d(1, "g1") == 0.03
    assert sp.d("g3", "g7") == 0.03
    with pytest.raises(ValueError):
        rect_b_family(1)


# the six distances among the special points; every other off-diagonal
# entry is 3/n^2
_RECT_B_SPECIAL = {(1, 20): 15.0, (1, 25): 1.0, (20, 25): 1.0, (1, 30): 2.0, (20, 30): 2.0, (25, 30): 2.0}


@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_rect_b_family_matches_its_named_distances(n):
    labels = (1, 20, 25, 30) + tuple(f"g{k}" for k in range(1, 9))
    want = np.array([
        [0.0 if a == b else _RECT_B_SPECIAL.get((a, b), _RECT_B_SPECIAL.get((b, a), 3.0 / (n * n)))
         for b in labels]
        for a in labels
    ])
    sp = rect_b_family(n)
    assert sp.labels == labels
    assert sp.dist.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 250])
def test_oscillating_orbit_map_follows_the_closed_form(depth):
    # 2 <-> -2, 2 + 1/(3n) -> -2 - 1/(3n+1) -> 2 + 1/(3n+3), the deepest
    # negative tail point wrapping to 2
    ex = oscillating_orbit_space(depth=depth)
    want = {2.0: -2.0, -2.0: 2.0}
    for n in range(1, depth + 1):
        want[2.0 + 1.0 / (3 * n)] = -2.0 - 1.0 / (3 * n + 1)
        want[-2.0 - 1.0 / (3 * n + 1)] = 2.0 + 1.0 / (3 * n + 3) if n < depth else 2.0
    assert sorted(ex.space.labels) == sorted(want)
    assert {x: ex.map(x) for x in ex.space.labels} == want


def test_interval_halving_bundle():
    ex = interval_halving()
    assert ex.map(2.0 / 3.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ex.phi.name == "square"
    assert ex.witness.f.name == "ln" and ex.witness.alpha == 0.0
    assert ex.space.contains(1.0) and not ex.space.contains(1.5)


def test_oscillating_orbit_wraps_at_depth():
    ex = oscillating_orbit_space(depth=2)
    labels = ex.space.labels
    assert labels[0] == 2.0 and labels[1] == -2.0
    # orbit from the first positive tail point: p1, n1, p2, n2, wrap to 2
    tr = orbit(ex.space, ex.map, labels[2], 4)
    assert tr.points[-1] == 2.0
    with pytest.raises(ValueError):
        oscillating_orbit_space(depth=0)


def test_oscillating_orbit_prefix_values():
    ex = oscillating_orbit_space(depth=3)
    p = orbit(ex.space, ex.map, ex.space.labels[2], 2).points
    assert p[0] == 2.0 + 1.0 / 3.0
    assert p[1] == -2.0 - 1.0 / 4.0
    assert p[2] == 2.0 + 1.0 / 6.0


def test_sequence_space_distances():
    ex = sequence_space(N=30)
    sp = ex.space
    assert sp.d(4, 4) == 0.0
    assert sp.d(1, 2) == 1.5
    assert sp.d(2, 1) == sp.d(1, 2)
    assert sp.contains(1) and sp.contains(10 ** 9)
    assert not sp.contains(0)
    assert not sp.contains(2.5)
    assert ex.map(7) == 21
    with pytest.raises(ValueError):
        sequence_space(N=2)


def test_random_metric_is_a_metric():
    for seed in (0, 1, 2):
        sp = random_metric(seed, 8)
        m = sp.dist
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-12
    with pytest.raises(ValueError):
        random_metric(0, 1)


def test_random_metric_seed_reproducible():
    a = random_metric(42, 6)
    b = random_metric(42, 6)
    assert np.array_equal(a.dist, b.dist)
    c = random_metric(43, 6)
    assert not np.array_equal(a.dist, c.dist)


def test_random_fspace_witness_certifies():
    for seed in (0, 9, 31):
        space, w = random_fspace(seed, 7, LN)
        assert w.alpha >= 0.0
        assert verify_D3(space, w).passed
        if w.alpha > 0:
            assert not verify_D3(space, Witness(LN, w.alpha - 1e-6)).passed


def test_random_fspace_needs_two_points():
    with pytest.raises(ValueError, match="size must be >= 2"):
        random_fspace(0, 1, LN)


def test_rect_b_expected_alpha_documents_closed_form():
    # ln(15 n^2 / 6) at n = 10
    ex = build_example("rect-b", n=10)
    assert abs(ex.witness.alpha - math.log(250.0)) < 1e-9


@pytest.mark.parametrize("example_id", ["interval-halving", "oscillating-orbit", "sequence-space", "rect-b"])
def test_reproduce_all_expectations_hold(example_id):
    rows = reproduce(example_id)
    assert rows
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failed, failed


def test_reproduce_unknown():
    with pytest.raises(DomainError):
        reproduce("torus")

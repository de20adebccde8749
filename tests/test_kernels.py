import numpy as np
import pytest

from fmetric import _kernels
from fmetric.corpus import oscillating_orbit_space, random_metric


def random_symmetric(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 10.0, (n, n))
    m = np.triu(raw, 1)
    return m + m.T


def test_closure_bounds_and_idempotence():
    for seed in (3, 17, 42):
        dist = random_symmetric(seed, 8)
        sp = _kernels.minplus_closure(dist)
        assert np.all(sp <= dist)
        assert np.array_equal(np.diag(sp), np.zeros(8))
        # rounding is order sensitive, so the two directions of a pair can
        # land one ulp apart; symmetry holds only up to that
        assert np.allclose(sp, sp.T, rtol=0.0, atol=1e-12)
        # a second pass sums already-rounded minima, which can shave one
        # more ulp; idempotence likewise holds only up to rounding
        again = _kernels.minplus_closure(sp)
        assert np.all(again <= sp)
        assert np.allclose(sp, again, rtol=1e-12, atol=0.0)


def test_closure_trivial_sizes():
    one = np.zeros((1, 1))
    assert np.array_equal(_kernels.minplus_closure(one), one)
    two = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert np.array_equal(_kernels.minplus_closure(two), two)


def test_closure_picks_two_link_shortcut():
    d = np.array([
        [0.0, 10.0, 1.0],
        [10.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    sp = _kernels.minplus_closure(d)
    assert sp[0, 1] == 2.0
    assert sp[0, 2] == 1.0


def test_sweep_candidates_left_associated():
    # a three-edge chain whose value depends on association order:
    # the kernels must produce the left-to-right rounding
    vals = [0.1, 0.2, 0.3, 0.7]
    left = ((vals[0] + vals[1]) + vals[2])
    d = np.array([
        [0.0, vals[0], 9.0, 9.0],
        [vals[0], 0.0, vals[1], 9.0],
        [9.0, vals[1], 0.0, vals[2]],
        [9.0, 9.0, vals[2], 0.0],
    ])
    sp = _kernels.minplus_closure(d)
    assert sp[0, 3] == left


def jacobi_closure(dist: np.ndarray) -> np.ndarray:
    """Reference closure: whole-matrix sweeps that read only the previous
    sweep's values, in ascending pivot order, until nothing changes or
    n-2 sweeps have run."""
    sp = dist.copy()
    n = dist.shape[0]
    for _ in range(max(0, n - 2)):
        new = sp.copy()
        for k in range(n):
            np.minimum(new, sp[:, k : k + 1] + dist[k : k + 1, :], out=new)
        if np.array_equal(new, sp):
            break
        sp = new
    return sp


def collinear(seed: int, n: int) -> np.ndarray:
    """Points on a line with gaps in [0.5, 1.5], in increasing order."""
    x = np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, n))
    return np.abs(x[:, None] - x[None, :])


def permuted(m: np.ndarray, seed: int) -> np.ndarray:
    p = np.random.default_rng(seed).permutation(m.shape[0])
    return m[np.ix_(p, p)]


CLOSURE_TABLES = {
    "permuted-collinear": lambda: permuted(collinear(5, 100), 6),
    "oscillating-orbit": lambda: oscillating_orbit_space(depth=40).space.dist,
    "non-metric": lambda: random_symmetric(8, 90),
    "euclidean": lambda: random_metric(9, 120).dist,
    "n0": lambda: np.zeros((0, 0)),
    "n1": lambda: np.zeros((1, 1)),
    "n2": lambda: np.array([[0.0, 0.3], [0.3, 0.0]]),
}


@pytest.mark.parametrize("name", CLOSURE_TABLES)
def test_closure_bitwise_equal_to_jacobi_reference(name):
    dist = CLOSURE_TABLES[name]()
    got = _kernels.minplus_closure(dist)
    want = jacobi_closure(dist)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if name == "permuted-collinear":
        assert not np.array_equal(want, dist)  # rounding shortcuts were found


def count_sweeps(monkeypatch, dist: np.ndarray) -> int:
    calls = []
    sweep = _kernels.relax_sweep

    def counted(sp, d, order):
        calls.append(len(order))
        return sweep(sp, d, order)

    monkeypatch.setattr(_kernels, "relax_sweep", counted)
    _kernels.minplus_closure(dist)
    assert all(c == dist.shape[0] for c in calls)  # every sweep visits every pivot
    return len(calls)


def test_euclidean_table_takes_one_sweep(monkeypatch):
    assert count_sweeps(monkeypatch, random_metric(3, 150).dist) == 1


def test_collinear_table_takes_few_sweeps(monkeypatch):
    # jacobi_closure takes 26 sweeps on this table
    assert 1 < count_sweeps(monkeypatch, collinear(4, 200)) <= 4

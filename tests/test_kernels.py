import numpy as np
import pytest

from fmetric import _kernels
from fmetric.corpus import oscillating_orbit_space, random_metric, rect_b_family, sequence_space
from fmetric.fspace import distance_table


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


def sequence_table(N: int) -> np.ndarray:
    space = sequence_space(N=N).space
    return distance_table(space, space.points())


def positive_diagonal(seed: int, n: int) -> np.ndarray:
    """A permuted collinear table with diagonal entries a margin admits."""
    m = permuted(collinear(seed, n), seed + 1)
    picks = np.random.default_rng(seed + 2).choice(n, n // 3, replace=False)
    m[picks, picks] = 1e-12
    return m


def asymmetric(seed: int, n: int) -> np.ndarray:
    """A random symmetric table with off-diagonal entries moved by up to 1e-3."""
    shift = np.random.default_rng(seed + 1).uniform(0.0, 1e-3, (n, n))
    np.fill_diagonal(shift, 0.0)
    return random_symmetric(seed, n) + shift


def integer_table(seed: int, n: int) -> np.ndarray:
    """Symmetric integer entries in 1..5, where many chains tie exactly."""
    m = np.triu(np.random.default_rng(seed).integers(1, 6, (n, n)), 1).astype(float)
    return m + m.T


CLOSURE_TABLES = {
    "permuted-collinear": lambda: permuted(collinear(5, 100), 6),
    "oscillating-orbit": lambda: oscillating_orbit_space(depth=40).space.dist,
    "non-metric": lambda: random_symmetric(8, 90),
    # the row pre-filter keeps 4 of the 12 rows
    "rect-b": lambda: rect_b_family(10).dist,
    # the column bound leaves fewer than a quarter of the columns to
    # almost every pivot from the second sweep on
    "non-metric-120": lambda: random_symmetric(8, 120),
    "positive-diagonal": lambda: positive_diagonal(7, 80),
    "euclidean": lambda: random_metric(9, 120).dist,
    # symmetric only within a margin, so the step takes the full product
    "asymmetric": lambda: asymmetric(10, 70),
    "integer-ties": lambda: integer_table(11, 60),
    # row and column counts that leave partial blocks in the step
    **{f"non-metric-{n}": (lambda n=n: random_symmetric(n, n)) for n in (3, 17, 33, 47, 65)},
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


FUZZ_KINDS = (
    random_symmetric,
    lambda seed, n: random_metric(seed, n).dist,
    lambda seed, n: permuted(collinear(seed, n), seed + 1),
    asymmetric,
    positive_diagonal,
    lambda seed, n: rect_b_family(max(2, n - 2)).dist,
    integer_table,
)


def test_closure_bitwise_equal_to_jacobi_reference_on_fuzzed_tables():
    rng = np.random.default_rng(2024)
    for t in range(210):
        n = int(rng.integers(3, 61))
        dist = FUZZ_KINDS[t % len(FUZZ_KINDS)](int(rng.integers(1 << 30)), n)
        assert _kernels.minplus_closure(dist).tobytes() == jacobi_closure(dist).tobytes(), (t, n)


def relaxed_rows(monkeypatch, dist: np.ndarray) -> list:
    """The number of rows each sweep of the closure relaxes."""
    calls = []
    sweep = _kernels.relax_sweep

    def counted(sp, d, applied, order):
        # the step comes first and alone takes no applied values; every
        # later sweep visits every pivot
        assert (applied is None) == (not calls)
        assert applied is None or len(order) == dist.shape[0]
        calls.append(sp.shape[0])
        return sweep(sp, d, applied, order)

    monkeypatch.setattr(_kernels, "relax_sweep", counted)
    _kernels.minplus_closure(dist)
    return calls


def count_sweeps(monkeypatch, dist: np.ndarray) -> int:
    return len(relaxed_rows(monkeypatch, dist))


def test_euclidean_table_takes_one_sweep(monkeypatch):
    # the step lowers nothing, so no pair is left pending
    assert count_sweeps(monkeypatch, random_metric(3, 150).dist) == 1


def test_collinear_table_takes_few_sweeps(monkeypatch):
    # jacobi_closure takes 26 sweeps on this table
    assert 1 < count_sweeps(monkeypatch, collinear(4, 200)) <= 4


def test_permuted_collinear_table_takes_few_sweeps(monkeypatch):
    # relaxed in index order, this numbering takes 12 sweeps; chain order
    # walks the line
    assert 1 < count_sweeps(monkeypatch, permuted(collinear(5, 200), 6)) <= 4


def test_sequence_space_takes_no_sweep(monkeypatch):
    # every distance is 1 + |1/i - 1/j| < 2, below any two-link chain
    dist = sequence_table(300)
    assert count_sweeps(monkeypatch, dist) == 0
    assert _kernels.minplus_closure(dist).tobytes() == dist.tobytes()


def test_pre_filter_needs_a_strictly_shorter_bound(monkeypatch):
    # d(0, 2) = 2 only ties the two-link chain 0 -> 1 -> 2
    line = np.abs(np.subtract.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
    assert count_sweeps(monkeypatch, line) == 0


def test_pre_filter_keeps_the_rows_a_chain_lowers(monkeypatch):
    dist = rect_b_family(10).dist
    lowered = np.flatnonzero((_kernels.minplus_closure(dist) != dist).any(axis=1))
    assert relaxed_rows(monkeypatch, dist)[0] == lowered.size == 4


def test_column_bound_skips_columns_at_or_above_the_column_max():
    # a negative entry is outside the closure's domain, but it makes every
    # candidate through pivot 0 fall below the entry it meets, so each
    # column the pivot updates shows
    row = [-10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    dist = np.full((8, 8), 2.0)
    dist[0, :3] = [0.0, 0.5, 1.0]  # columns 0 and 2 sit at or above colmax
    sp, applied = np.array([row]), np.array([[0.0, *row[1:]]])  # pending on pivot 0
    _kernels.relax_sweep(sp, dist, applied, [0])
    assert sp.tolist() == [[-10.0, -9.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    assert applied[0, 0] == -10.0
    # with a quarter of the columns below colmax, the pivot updates whole rows
    sp, applied = np.array([row]), np.array([[0.0, *row[1:]]])
    dist[0, 3] = 0.5
    _kernels.relax_sweep(sp, dist, applied, [0])
    assert sp.tolist() == [[-10.0, -9.5, -9.0, -9.5, -8.0, -8.0, -8.0, -8.0]]


def test_pivot_relaxes_only_the_rows_pending_on_it():
    # negative entries again make every relaxation through pivot 0 show.
    # Row 0 is pending on pivot 0 and row 1 only on pivot 2, so pivot 0
    # relaxes row 0 alone
    dist = np.full((4, 4), 2.0)
    dist[0] = 0.0
    sp = np.tile([-10.0, 1.0, 1.0, 1.0], (4, 1))
    applied = sp.copy()
    applied[0, 0], applied[1, 2] = 0.0, 5.0
    _kernels.relax_sweep(sp, dist, applied, [0])
    assert sp.tolist() == [[-10.0] * 4] + [[-10.0, 1.0, 1.0, 1.0]] * 3
    assert applied[:, 0].tolist() == [-10.0] * 4 and applied[1, 2] == 5.0
    # with half of the rows pending, the pivot relaxes every row, which
    # shows on the rows that are not pending, and records each as applied
    sp = np.tile([-10.0, 1.0, 1.0, 1.0], (4, 1))
    applied = sp.copy()
    applied[:2, 0] = 0.0
    _kernels.relax_sweep(sp, dist, applied, [0])
    assert sp.tolist() == [[-10.0] * 4] * 4
    assert applied[:, 0].tolist() == [-10.0] * 4

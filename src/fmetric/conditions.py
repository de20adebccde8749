"""Contraction-style condition checkers over explicit pair samples and orbits.

All comparisons are strict and use exact float comparison: a tie is a
violation. Each report records the sample provenance and the smallest
rhs - lhs margin so near-ties are visible.

Every check runs on whole arrays. A pair sample is two index columns
into its distinct points, 16 bytes per pair, so an --all-pairs sample too
large for memory is refused when its columns are allocated (the CLI exits
2). The pairwise checks map each distinct sample point once, gather by
the columns, take distances in one call of space.dists, and evaluate phi
once per array; the orbit checks read the orbit that solver.orbit walked
and map nothing again. Every check hands its arrays to _report, which
keeps the failing rows as columns (reports.Violations, 32 bytes per
failing pair) and builds no violation until one is read. Each
float operation is the one a pair-by-pair evaluation would make, so
reports are identical to it bit for bit. A check maps every distinct
sample point (or walks the orbit) before it measures anything: a failing
map raises for the first failing point in pair order, and only then is a
negative distance rejected, by the DomainError that phi raises for it.
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .fclass import AlteringDistance
from .fspace import AnalyticSpace, FiniteSpace, distance_table
from .reports import ConditionReport, Violations
from .solver import IterationTrace, apply_map, orbit


def _rank(flat: list):
    """The distinct values of flat in order of first appearance, and each
    value's index among them."""
    rank = dict(zip(dict.fromkeys(flat), itertools.count()))
    return tuple(rank), np.fromiter(map(rank.__getitem__, flat), np.intp, len(flat))


class PairSample:
    """Point pairs to check, with a provenance string for reproduction.

    A sample is two index columns: points holds the distinct points in
    order of first appearance over x0, y0, x1, y1, ..., and pair k is
    (points[first[k]], points[second[k]]), 16 bytes per pair. The
    samplers emit these codes; PairSample(pairs, source) codes hand-made
    pairs the same way, and .pairs builds the tuples only when read.
    """

    def __init__(self, pairs, source: str):
        points, codes = _rank(list(itertools.chain.from_iterable(pairs)))
        self._hold(points, codes[0::2], codes[1::2], source)

    @classmethod
    def _coded(cls, points: tuple, first: np.ndarray, second: np.ndarray, source: str) -> PairSample:
        sample = cls.__new__(cls)
        sample._hold(points, first, second, source)
        return sample

    def _hold(self, points, first, second, source):
        first.flags.writeable = second.flags.writeable = False  # .pairs is cached from them
        self.points, self.first, self.second, self.source = points, first, second, source

    def __len__(self) -> int:
        return len(self.first)

    @cached_property
    def pairs(self) -> tuple:
        at = self.points.__getitem__
        return tuple(zip(map(at, self.first.tolist()), map(at, self.second.tolist())))


def _carrier(space):
    """The points of an enumerated carrier, or None for a bounded real interval."""
    if isinstance(space, FiniteSpace) or getattr(space, "enumerator", None) is not None:
        pts = space.points()
        if len(pts) < 2:
            raise DomainError("need at least two carrier points to form pairs")
        return pts
    if not (isinstance(space, AnalyticSpace) and space.bounds is not None):
        raise DomainError("cannot sample this space: no enumeration and no bounds")
    return None


def random_pairs(space, count: int, seed: int) -> PairSample:
    """Seeded uniform sample of distinct-point pairs.

    Rows of two (carrier indices, or values on a bounded interval) are
    drawn in bulk, rows with equal entries dropped and the rest topped up;
    a bulk draw takes the stream's values in the order a draw per pair would.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = _carrier(space)
    rng = np.random.default_rng(seed)
    draw = partial(rng.uniform, *space.bounds) if pts is None else partial(rng.integers, 0, len(pts))
    rows, kept = [], 0
    while kept < count:
        drawn = draw(size=(count - kept, 2))
        rows.append(drawn[drawn[:, 0] != drawn[:, 1]])
        kept += len(rows[-1])
    keys, codes = _rank(np.concatenate(rows).ravel().tolist())
    points = keys if pts is None else tuple(map(pts.__getitem__, keys))
    return PairSample._coded(points, codes[0::2], codes[1::2], f"random(seed={seed}, count={count})")


def _upper_triangle(pts, count: int, source: str) -> PairSample:
    """The first `count` index pairs i < j of pts in row-major order (the
    order of itertools.combinations), in O(len(pts) + count) memory."""
    sizes = np.arange(len(pts) - 1, 0, -1)  # row i pairs i with i+1, ..., n-1
    sizes = sizes[: np.searchsorted(np.cumsum(sizes), count) + 1]  # the rows the count reaches
    first = np.repeat(np.arange(sizes.size), sizes)[:count]
    starts = np.cumsum(sizes) - sizes  # each row's position in the row-major order
    second = np.arange(first.size) - starts[first] + first + 1
    # row 0 introduces the points in carrier order, so they are a prefix of it
    return PairSample._coded(tuple(pts[: second.max() + 1]), first, second, source)


def grid_pairs(space, count: int) -> PairSample:
    """Deterministic unseeded sample: the first `count` pairs in order.

    Finite carriers pair up in label-index order, so early labels are
    always exercised; real intervals use an evenly spaced grid just
    large enough to supply `count` pairs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = _carrier(space)
    if pts is not None:
        src = f"grid(first {count} index pairs)"
    else:
        lo, hi = space.bounds
        m = max(2, math.ceil((1 + math.sqrt(1 + 8 * count)) / 2))
        pts = np.linspace(lo, hi, m).tolist()
        src = f"grid({m} points on [{lo:g}, {hi:g}])"
    return _upper_triangle(pts, count, src)


def all_pairs(space) -> PairSample:
    """Every unordered pair of the enumerated carrier."""
    pts = _carrier(space) or space.points()
    return _upper_triangle(pts, len(pts) * (len(pts) - 1) // 2, f"all_pairs({len(pts)} points)")


def _pairwise_report(name, space, T, phi, sample: PairSample, kannan: bool) -> ConditionReport:
    """Report of the Edelstein or Kannan inequality, one entry per sample pair.

    The sample's distinct points are mapped in their order, so the first
    failing point in pair order raises, before any distance is taken; a
    negative distance then raises phi's DomainError.
    """
    tu = space.as_array(apply_map(space, T, p) for p in sample.points)
    u = space.as_array(sample.points)
    wx, wy = sample.first, sample.second
    lhs = phi.eval(space.dists(tu[wx], tu[wy]))
    if kannan:
        phi_disp = phi.eval(space.dists(u, tu))  # phi(d(u, Tu)) once per distinct u
        rhs = 0.5 * (phi_disp[wx] + phi_disp[wy])
    else:
        rhs = phi.eval(space.dists(u[wx], u[wy]))
    return _report(f"{name}({phi.name})", sample.source, lhs, rhs, ~(lhs < rhs), sample.points,
                   pair=np.column_stack((wx, wy)))


def _report(condition, source, lhs, rhs, bad, labels=(), **columns) -> ConditionReport:
    """Report of lhs against rhs over whole arrays, failing where bad.

    columns name each item (a pair column indexes labels); their rows
    where bad, then lhs and rhs there as floats, are the violations.
    """
    keep = np.flatnonzero(bad)
    found = Violations(labels, **{name: c[keep] for name, c in columns.items()},
                       lhs=lhs[keep].astype(float), rhs=rhs[keep].astype(float))
    # fmin skips a NaN (inf - inf) margin and the initial inf covers an empty sample
    margin = float(np.fmin.reduce(rhs - lhs, initial=math.inf))
    return ConditionReport(condition, keep.size == 0, lhs.size, found, margin, source)


def edelstein_check(space, T: Callable, phi: AlteringDistance, sample: PairSample) -> ConditionReport:
    """Strict shrinking of phi(d) under the map, pair by pair:
    phi(d(Tx, Ty)) < phi(d(x, y)).
    """
    return _pairwise_report("edelstein", space, T, phi, sample, kannan=False)


def kannan_check(space, T: Callable, phi: AlteringDistance, sample: PairSample) -> ConditionReport:
    """Displacement-averaged contraction, pair by pair:
    phi(d(Tx, Ty)) < (phi(d(x, Tx)) + phi(d(y, Ty))) / 2.
    """
    return _pairwise_report("kannan", space, T, phi, sample, kannan=True)


def orbital_kannan_check(space, T: Callable, phi: AlteringDistance, x0, count: int) -> ConditionReport:
    """Kannan inequality restricted to consecutive orbit pairs.

    Evaluates pairs (x_k, x_{k+1}) for k < count along the orbit of x0,
    skipping pairs at distance zero (the orbit has stalled on a fixed
    point; nothing left to contract). With s the orbit's step distances,
    pair k has lhs phi(s[k+1]) and rhs (phi(s[k]) + phi(s[k+1])) / 2.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    tr = orbit(space, T, x0, count + 1)
    s = np.array(tr.step_dist, dtype=float)
    index = np.flatnonzero(s[:count] != 0.0)
    step, succ = s[index], s[index + 1]
    lhs = phi.eval(succ)
    rhs = 0.5 * (phi.eval(step) + lhs)
    return _report(f"orbital_kannan({phi.name})", f"orbit(x0={x0!r}, pairs={count})", lhs, rhs,
                   ~(lhs < rhs), tr.points, pair=np.column_stack((index, index + 1)), index=index)


def monotone_step_check(trace: IterationTrace, phi: AlteringDistance) -> ConditionReport:
    """Strict decrease of phi(step distance) along the trace.

    Checks phi(s[k+1]) < phi(s[k]) for consecutive steps, stopping at
    the first zero step (the orbit has landed on a fixed point and
    every later step is 0). Ties count as violations.
    """
    s = np.array(trace.step_dist, dtype=float)
    zero = np.flatnonzero(s == 0.0)
    if zero.size:
        s = s[: zero[0]]
    lhs, rhs = phi.eval(s[1:]), phi.eval(s[:-1])
    return _report(f"monotone_step({phi.name})", f"trace of {len(trace)} points", lhs, rhs,
                   ~(lhs < rhs), step=np.arange(lhs.size))


def shift_condition_check(
    space,
    T: Callable,
    phi: AlteringDistance,
    x0,
    delta_rule: Callable[[float], float],
    eps_grid: Sequence[float],
    horizon: int,
) -> ConditionReport:
    """One-step persistence of orbit proximity under phi.

    For each eps in the grid with delta = delta_rule(eps), and every
    orbit index pair 0 <= i < j <= horizon: whenever
    phi(d(x_i, x_j)) < eps + delta, require phi(d(x_{i+1}, x_{j+1})) <= eps.
    Violations record the (i, j, eps) triple. checked counts triggered
    pairs; an eps whose trigger never fires certifies nothing, which the
    caller can see from the per-eps trigger counts in the report note.
    Every eps and its delta must be positive and finite.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not eps_grid:
        raise ValueError("eps_grid must be non-empty")
    levels = [(eps, float(delta_rule(eps))) for eps in eps_grid]
    for eps, delta in levels:
        if not 0 < eps < math.inf:
            raise ValueError(f"eps levels must be positive and finite, got {eps}")
        if not 0 < delta < math.inf:
            raise ValueError(f"delta_rule({eps}) = {delta}, must be positive and finite")
    tr = orbit(space, T, x0, horizon + 1)
    upper = np.triu(distance_table(space, tr.points), 1)  # pairs i < j, zeros elsewhere
    pd = phi.eval(upper)
    near, succ = pd[:-1, :-1], pd[1:, 1:]
    triggered = [np.nonzero(np.triu(near < eps + delta, 1)) for eps, delta in levels]
    i, j = (np.concatenate(c) for c in zip(*triggered))
    counts = [t[0].size for t in triggered]
    eps = np.repeat(np.array([e for e, _ in levels], dtype=float), counts)
    lhs = succ[i, j]
    source = f"orbit(x0={x0!r}, horizon={horizon}); triggers per eps: " + ", ".join(
        f"{e:g}:{c}" for (e, _), c in zip(levels, counts))
    return _report(f"shift({phi.name})", source, lhs, eps, lhs > eps, i=i, j=j, eps=eps)

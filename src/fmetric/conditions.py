"""Contraction-style condition checkers over explicit pair samples and orbits.

All comparisons are strict and use exact float comparison: a tie is a
violation. Each report records the sample provenance and the smallest
rhs - lhs margin so near-ties are visible.

Every check runs on whole arrays. The pairwise checks map each distinct
sample point once, take distances in one call of space.dists, and
evaluate phi once per array; the orbit checks read the orbit that
solver.orbit walked and map nothing again. Each float operation is the
one a pair-by-pair evaluation would make, so reports are identical to it
bit for bit. A check maps every distinct sample point (or walks the
orbit) before it measures anything: a failing map raises for the first
failing point in pair order, and only then is a negative distance
rejected, by the DomainError that phi raises for it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .fclass import AlteringDistance
from .fspace import AnalyticSpace, FiniteSpace, distance_table
from .reports import ConditionReport
from .solver import IterationTrace, apply_map, orbit


@dataclass(frozen=True)
class PairSample:
    """Point pairs to check, with a provenance string for reproduction."""

    pairs: tuple
    source: str

    def __len__(self) -> int:
        return len(self.pairs)


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
    if pts is None:
        draw, take = partial(rng.uniform, *space.bounds), tuple
    else:
        draw, take = partial(rng.integers, 0, len(pts)), lambda ij: (pts[ij[0]], pts[ij[1]])
    pairs = []
    while len(pairs) < count:
        rows = draw(size=(count - len(pairs), 2))
        pairs += map(take, rows[rows[:, 0] != rows[:, 1]].tolist())
    return PairSample(tuple(pairs), f"random(seed={seed}, count={count})")


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
        pts = [float(v) for v in np.linspace(lo, hi, m)]
        src = f"grid({m} points on [{lo:g}, {hi:g}])"
    return PairSample(tuple(itertools.islice(itertools.combinations(pts, 2), count)), src)


def all_pairs(space) -> PairSample:
    """Every unordered pair of the enumerated carrier."""
    pts = _carrier(space) or space.points()
    return PairSample(tuple(itertools.combinations(pts, 2)), f"all_pairs({len(pts)} points)")


def _map_distinct(space, T, pairs):
    """Apply T once per distinct sample point, in pair order (x0, y0, x1, y1, ...),
    so the first failing point in that order raises its DomainError.

    Returns (where, u, tu): where[k] is the rank among the distinct points
    u of the point at flat position k, and tu holds their images, both
    coded by space.as_array for space.dists. The dict of distinct points
    dies on return, before the per-pair arrays are built, which keeps peak
    memory near that of the sample itself.
    """
    distinct = {}  # point -> rank of its first appearance
    where = np.fromiter(
        (distinct.setdefault(p, len(distinct)) for pair in pairs for p in pair),
        dtype=np.intp,
        count=2 * len(pairs),
    )
    tu = space.as_array(apply_map(space, T, p) for p in distinct)
    return where, space.as_array(distinct), tu


def _pairwise_report(name, space, T, phi, sample: PairSample, kannan: bool) -> ConditionReport:
    """Report of the Edelstein or Kannan inequality, one entry per sample pair.

    Every distinct point is mapped before any distance is taken; a
    negative distance then raises phi's DomainError.
    """
    where, u, tu = _map_distinct(space, T, sample.pairs)
    wx, wy = where[0::2], where[1::2]
    lhs = phi.eval(space.dists(tu[wx], tu[wy]))
    if kannan:
        phi_disp = phi.eval(space.dists(u, tu))  # phi(d(u, Tu)) once per distinct u
        rhs = 0.5 * (phi_disp[wx] + phi_disp[wy])
    else:
        rhs = phi.eval(space.dists(u[wx], u[wy]))
    return _strict_report(
        f"{name}({phi.name})", lhs, rhs, sample.source, lambda k: {"pair": sample.pairs[k]}
    )


def _strict_report(condition, lhs, rhs, source, tag) -> ConditionReport:
    """Report of lhs < rhs over whole arrays; tag(k) names pair k in a violation."""
    bad = np.flatnonzero(~(lhs < rhs))
    return ConditionReport(
        condition=condition,
        passed=bad.size == 0,
        checked=lhs.size,
        violations=[{**tag(k), "lhs": float(lhs[k]), "rhs": float(rhs[k])} for k in bad],
        # fmin skips a NaN (inf - inf) margin and the initial inf covers an empty sample
        margin_min=float(np.fmin.reduce(rhs - lhs, initial=math.inf)),
        source=source,
    )


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
    index = index.tolist()
    return _strict_report(
        f"orbital_kannan({phi.name})", lhs, rhs, f"orbit(x0={x0!r}, pairs={count})",
        lambda k: {"pair": (tr.points[index[k]], tr.points[index[k] + 1]), "index": index[k]},
    )


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
    return _strict_report(
        f"monotone_step({phi.name})", phi.eval(s[1:]), phi.eval(s[:-1]),
        f"trace of {len(trace)} points", lambda k: {"step": int(k)},
    )


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
    violations = []
    margin = math.inf
    trigger_counts = []
    for eps, delta in levels:
        i, j = np.nonzero(np.triu(near < eps + delta, 1))
        lhs = succ[i, j]
        margin = float(np.fmin.reduce(eps - lhs, initial=margin))
        violations += [
            {"i": int(i[k]), "j": int(j[k]), "eps": eps, "lhs": float(lhs[k]), "rhs": eps}
            for k in np.flatnonzero(lhs > eps)
        ]
        trigger_counts.append((eps, i.size))
    return ConditionReport(
        condition=f"shift({phi.name})",
        passed=not violations,
        checked=sum(c for _, c in trigger_counts),
        violations=violations,
        margin_min=margin,
        source=f"orbit(x0={x0!r}, horizon={horizon}); triggers per eps: "
        + ", ".join(f"{e:g}:{c}" for e, c in trigger_counts),
    )

"""Finite and analytic point spaces, distance-axiom checks, topology probes.

The distance axioms checked here, for a symmetric d with d(x,y) = 0 iff
x = y, witnessed by a generator f and a constant alpha >= 0:

    f(d(x, y)) <= f(sum of link distances along any finite chain) + alpha

Because admissible generators are non-decreasing, it is enough to test
the minimal chain sum for each pair, which min_chain_sums computes by
one-edge relaxation. The slack f(d) - f(minimal sum) therefore decides
the axiom, and its maximum over pairs is the smallest admissible alpha.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ._kernels import minplus_closure
from .errors import DomainError, SpaceAxiomError
from .fclass import FGenerator
from .reports import VerificationReport, Violations


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Finite carrier with an explicit distance matrix.

    labels name the points in matrix order; they can be numbers or
    strings (anything hashable). The matrix is stored read-only.
    """

    labels: tuple
    dist: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        m = np.array(self.dist, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SpaceAxiomError(f"distance matrix must be square, got shape {m.shape}")
        if m.shape[0] != len(labels):
            raise SpaceAxiomError(
                f"{len(labels)} labels but matrix is {m.shape[0]}x{m.shape[1]}"
            )
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise SpaceAxiomError("duplicate point labels")
        if not np.all(np.isfinite(m)):
            raise SpaceAxiomError("distance matrix has non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "dist", m)
        object.__setattr__(self, "_index", index)
        # margins at which check_identity_symmetry passed; the matrix is
        # read-only, so a pass holds for the life of the space
        object.__setattr__(self, "_axioms_hold", set())

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"point {label!r} is not in the carrier") from None

    def d(self, x, y) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    def as_array(self, points) -> np.ndarray:
        """Points as carrier indices, the codes dists takes; the carrier's
        own labels are 0..n-1 without a lookup."""
        if points is self.labels:
            return np.arange(self.n)
        return np.fromiter(map(self.index, points), dtype=np.intp)

    def dists(self, a, b) -> np.ndarray:
        """d elementwise between points coded by as_array: one gather."""
        return self.dist[a, b]

    def points(self) -> tuple:
        return self.labels

    def contains(self, x) -> bool:
        return x in self._index

    def nearest_label(self, value: float) -> tuple:
        """The numeric label nearest value, and whether it lies within 1e-9
        of it, since decimal input cannot always spell a stored float
        exactly; (None, False) when no label is numeric. A label counts as
        numeric only within the float range, so nan, infinite and huge
        integer labels never match.

        A dict lookup finds an equal label at once: below 2**53 in size, a
        value equals at most one label as a float. nan, larger values and a
        non-numeric label the lookup finds (an np.int64, say) take the search.
        """
        at = self._index.get(value) if abs(value) < 2.0 ** 53 else None
        if at is not None and isinstance(self.labels[at], (int, float)):
            return self.labels[at], True
        best = min((lab for lab in self.labels
                    if isinstance(lab, (int, float)) and -sys.float_info.max <= lab <= sys.float_info.max),
                   key=lambda lab: abs(lab - value), default=None)
        return best, best is not None and abs(best - value) <= 1e-9


@dataclass(frozen=True, eq=False)
class AnalyticSpace:
    """Carrier given by a membership rule and a closed-form distance.

    point_kind is 'real' (points are floats, bounds give the sampling
    interval lo < hi) or 'basis_index' (points are positive integers).
    dist_rule must also work elementwise on numpy arrays of points,
    broadcasting like a ufunc: d passes arrays from as_array straight
    to it, and distance tables and the condition checkers call d once
    on whole arrays.
    enumerator, when present, returns a finite truncation as a Sequence,
    which the samplers count and index; points() returns it uncopied.
    """

    point_kind: str
    dist_rule: Callable[[Any, Any], float] = field(repr=False)
    membership: Optional[Callable[[Any], bool]] = field(default=None, repr=False)
    enumerator: Optional[Callable[[], Sequence]] = field(default=None, repr=False)
    bounds: Optional[tuple] = None

    def __post_init__(self):
        if self.bounds is not None and not (self.bounds[0] < self.bounds[1]):
            raise ValueError(f"bounds must satisfy lo < hi, got {self.bounds}")

    def d(self, x, y):
        """d(x, y) as a float, or elementwise as a float array when the
        rule returns an array; a DomainError past the float range."""
        try:
            r = self.dist_rule(x, y)
            return np.asarray(r, dtype=float) if isinstance(r, np.ndarray) else float(r)
        except OverflowError as e:
            raise DomainError(f"distance beyond the float range: {e}") from None

    def as_array(self, points) -> np.ndarray:
        """Points as an array for d: floats, or basis indices as int64
        when every index fits and as Python ints (object array) when
        one does not, so indices of any size keep exact arithmetic."""
        if self.point_kind == "real":
            return np.fromiter(points, dtype=float)
        points = list(points)
        try:
            return np.array(points, dtype=np.int64)
        except OverflowError:
            return np.array(points, dtype=object)

    # as_array leaves points as points, so d itself is the array method
    dists = d

    def points(self) -> Sequence:
        if self.enumerator is None:
            raise DomainError("this space has no finite enumeration")
        try:
            len(pts := self.enumerator())
        except OverflowError:  # more points than a Sequence can count, as range(1, 2**63 + 1)
            raise DomainError("carrier too large to enumerate") from None
        return pts

    def contains(self, x) -> bool:
        if self.membership is None:
            return True
        return bool(self.membership(x))


@dataclass(frozen=True)
class Witness:
    """Generator plus constant certifying the chain axiom for a space."""

    f: FGenerator
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")


def distance_table(space, rows, cols=None) -> np.ndarray:
    """d from each point of rows (one row each) to each point of cols,
    by default rows again, in one array call on either kind of space."""
    r = space.as_array(rows)
    c = r if cols is None else space.as_array(cols)
    return space.dists(r[:, None], c[None, :])


def check_identity_symmetry(space: FiniteSpace, margin: float = 0.0):
    """Identity and symmetry axioms on the matrix.

    Returns two reports: one for the identity axiom (zero diagonal and
    strictly positive off-diagonal), one for symmetry. A finite margin
    >= 0 loosens every comparison for noisy inputs. Violations are listed
    diagonal first, then in row-major order.
    """
    if not 0 <= margin < math.inf:
        raise ValueError(f"margin must be >= 0 and finite, got {margin}")
    m = space.dist
    diag = np.flatnonzero(np.abs(np.diagonal(m)) > margin)
    off_i, off_j = np.nonzero((m <= margin) & ~np.eye(space.n, dtype=bool))
    id_i, id_j = np.concatenate([diag, off_i]), np.concatenate([diag, off_j])
    sym_i, sym_j = np.nonzero(np.triu(np.abs(m - m.T) > margin, 1))
    if not id_i.size and not sym_i.size:
        space._axioms_hold.add(margin)
    return [_axiom_report("D1", space, id_i, id_j, m[id_i, id_j], np.zeros(id_i.size)),
            _axiom_report("D2", space, sym_i, sym_j, m[sym_i, sym_j], m[sym_j, sym_i])]


def _axiom_report(axiom: str, space: FiniteSpace, i, j, lhs, rhs) -> VerificationReport:
    """The report on an axiom failing at the pairs (labels[i[k]], labels[j[k]])
    with sides lhs[k] and rhs[k], kept in their dtype: an integer-valued
    generator writes integers."""
    pair = np.column_stack((i, j))
    return VerificationReport(axiom, not len(pair), Violations(space.labels, pair=pair, lhs=lhs, rhs=rhs))


def _require_identity_symmetry(space: FiniteSpace, margin: float):
    """Raise unless D1 and D2 hold within margin; a space that already
    passed check_identity_symmetry at this margin is not checked again."""
    if margin in space._axioms_hold:
        return
    for r in check_identity_symmetry(space, margin):
        if not r.passed:
            first = tuple(r.violations.records(1)[0].values())
            raise SpaceAxiomError(f"axiom {r.axiom} fails, first violation {first}")


def min_chain_sums(space: FiniteSpace, margin: float = 0.0) -> np.ndarray:
    """Minimal chain-link sums between all pairs.

    sp[i][j] <= dist[i][j] always, and each entry is the smallest
    left-to-right rounded sum over chains from i to j, bitwise (see
    _kernels.minplus_closure: one blocked min-plus step over the rows a
    chain can lower, then sweeps that relax a row through a pivot only
    where its entry fell; a row no chain lowers is its row of dist).
    The identity and symmetry axioms must hold first, within margin. The
    diagonal is 0 on a zero-diagonal table, but a margin also admits
    small nonzero diagonal entries: a positive one
    stays on the diagonal of sp (D3 reads only off-diagonal entries), and
    a negative one would let a chain loop at its point and lower every
    sum without bound, so the closure then runs on a zero diagonal.
    """
    _require_identity_symmetry(space, margin)
    dist = space.dist
    if (np.diagonal(dist) < 0).any():
        dist = dist.copy()
        np.fill_diagonal(dist, 0.0)
    return minplus_closure(dist)


def _d3_sides(space: FiniteSpace, f: FGenerator, margin: float = 0.0):
    """f(dist) and f(min chain sum), with f(1) on both diagonals, so that
    the slack f(dist) - f(min chain sum) is 0 there."""
    sp = min_chain_sums(space, margin)
    dist = space.dist.copy()
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(sp, 1.0)
    return f.eval(dist), f.eval(sp)


def verify_D3(space: FiniteSpace, w: Witness, margin: float = 0.0) -> VerificationReport:
    """Chain axiom for witness (f, alpha), decided in slack form.

    The pair (x, y) passes iff f(d(x,y)) - f(minimal chain sum) <= alpha
    (+ margin) in both directions, whose chain sums can round apart; the
    float subtraction min_alpha uses keeps the two exactly consistent. A
    nan slack (f overflowing to the same infinity on both sides) decides
    nothing, as in min_alpha, so a pair goes by the larger slack that is
    not nan. A failing pair i < j is listed once, in row-major order, with
    lhs and rhs of that slack's direction (i to j on a tie).
    """
    fd, fs = _d3_sides(space, w.f, margin)
    slack = fd - fs
    worst = np.fmax(slack, slack.T)
    ii, jj = np.nonzero(np.triu(worst > w.alpha + margin, 1))
    back = worst[ii, jj] != slack[ii, jj]
    ri, rj = np.where(back, jj, ii), np.where(back, ii, jj)
    return _axiom_report("D3", space, ii, jj, fd[ri, rj], fs[ri, rj] + w.alpha)


def min_alpha(space: FiniteSpace, f: FGenerator) -> float:
    """Smallest alpha >= 0 for which verify_D3 passes with generator f;
    a nan slack is skipped, as verify_D3 skips it."""
    fd, fs = _d3_sides(space, f)
    return float(np.fmax.reduce(fd - fs, axis=None, initial=0.0))


def alpha_divergence_profile(
    family: Callable[[int], FiniteSpace], f: FGenerator, n_range: tuple
) -> list:
    """Series of (n, min_alpha(family(n), f)) over an inclusive range."""
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty range ({lo}, {hi})")
    return [(n, min_alpha(family(n), f)) for n in range(lo, hi + 1)]


def _center_rows(space, centers):
    """The carrier's points and each center's row of distances to them,
    read once every center is checked to be in the carrier."""
    pts = space.points()
    for c in centers:
        if not space.contains(c):
            raise DomainError(f"center {c!r} is not in the carrier")
    return pts, distance_table(space, centers, pts)


def open_ball(space, x, r: float) -> set:
    """Strict ball {y in carrier : d(x, y) < r}; x itself included for r > 0."""
    pts, (row,) = _center_rows(space, [x])
    return set(compress(pts, (row < r).tolist()))


def _least_n(a: float, b: float, t: float, too_far: Callable[[], str]) -> int:
    """Least n >= 1 with a / (b * n) <= t in floats: the ceiling of the
    estimate a / (b * t), moved by whole steps until rounding agrees.
    RuntimeError(too_far()) if the estimate is 2**53 or more."""
    q = a / (b * t)
    if not q < 2.0 ** 53:
        raise RuntimeError(too_far())
    n = max(1, math.ceil(q))
    while not a / (b * n) <= t:
        n += 1
    while n > 1 and a / (b * (n - 1)) <= t:
        n -= 1
    return n


def hausdorff_witness(space, x, y) -> tuple:
    """Smallest n >= 1 such that balls of radius d(x,y)/(2n) around x and
    y are disjoint. Returns (n, radius).

    The balls of radius r share a point z exactly when max(d(x, z),
    d(y, z)) < r, so they are disjoint once r <= m, the least such max
    over the carrier, read from one row of distances per center. n is
    the least one whose float radius d/(2.0*n) is <= m.
    """
    if x == y:
        raise DomainError("need two distinct points")
    dxy = space.d(x, y)
    if dxy <= 0:
        raise SpaceAxiomError(f"d({x!r}, {y!r}) = {dxy}, identity axiom broken")
    _, rows = _center_rows(space, [x, y])
    # a nan distance puts no point in a ball, so fmin skips it
    m = float(np.fmin.reduce(np.maximum(*rows)))
    if not m > 0:
        raise SpaceAxiomError(
            f"a point within distance {m} of both {x!r} and {y!r}, identity axiom broken"
        )
    n = _least_n(dxy, 2.0, m, lambda: f"separating d({x!r}, {y!r})/(2n) needs n >= 2**53")
    return n, dxy / (2.0 * n)


def ball_base(space, x) -> list:
    """Distinct balls B(x, 1/n), n = 1, 2, ..., down to the singleton {x}.

    Every ball comes from one row of distances from x, sorted with nan
    last: B(x, 1/n) is the prefix of points nearer than 1.0/n, which
    holds no point at a nan distance. One walk down the row takes the
    balls widest first; the next one is B(x, 1/n) at the least n whose
    1.0/n is at most the farthest distance in the current one.
    """
    pts, (row,) = _center_rows(space, [x])
    # a point at a nan distance (d != d) is in no ball, so it breaks nothing
    others = [d for y, d in zip(pts, row.tolist()) if y != x and d == d]
    if others and min(others) <= 0.0:
        raise SpaceAxiomError(f"a point at distance {min(others)} from {x!r} breaks the identity axiom")
    order = np.argsort(row).tolist()
    near = row[order].tolist()
    ranked = [pts[i] for i in order]
    base = []
    count = bisect_left(near, 1.0)
    while True:
        base.append(set(ranked[:count]))
        if x not in base[-1]:
            raise SpaceAxiomError(f"d({x!r}, {x!r}) > 0 leaves {x!r} out of its own balls")
        if base[-1] == {x}:
            return base
        n = _least_n(1.0, 1.0, near[count - 1],
                     lambda: f"a ball around {x!r} shrinks again only at n >= 2**53")
        count = bisect_left(near, 1.0 / n)

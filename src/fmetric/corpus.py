"""Named example spaces, maps, and seeded random generators.

Each example packages a space with its canonical map, a suggested
altering distance and witness; reproduce() re-derives the example's
claims from scratch. Random generators take an explicit seed and are
deterministic given it.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from . import conditions, solver
from .errors import DomainError
from .fclass import AlteringDistance, FGenerator, lookup_function
from .fspace import AnalyticSpace, FiniteSpace, Witness, alpha_divergence_profile, min_alpha, verify_D3


@dataclass(frozen=True)
class NamedExample:
    """A space bundled with its map, altering distance and witness."""

    id: str
    space: Any
    map: Optional[Callable] = field(default=None, repr=False)
    phi: Optional[AlteringDistance] = None
    witness: Optional[Witness] = None


def rect_b_family(n: int) -> FiniteSpace:
    """Rectangle-with-cheap-shortcuts family, parametrized by n >= 2.

    Four special points 1, 20, 25, 30 keep fixed distances (the long
    side d(1,20) = 15 dominates), while eight generic points sit at
    distance 3/n^2 from everything else. Shrinking the generic block
    makes two-link chains through it arbitrarily cheap, so the smallest
    admissible alpha for the ln generator grows like ln(15 n^2 / 6).
    """
    if n < 2:
        raise ValueError("family parameter must be >= 2")
    labels = (1, 20, 25, 30) + tuple(f"g{k}" for k in range(1, 9))
    m = np.full((12, 12), 3.0 / (n * n))
    np.fill_diagonal(m, 0.0)
    m[:4, :4] = [[0, 15, 1, 2], [15, 0, 1, 2], [1, 1, 0, 2], [2, 2, 2, 0]]
    return FiniteSpace(labels=labels, dist=m)


def interval_halving() -> NamedExample:
    """Unit interval under x -> 1 - x/2, contracting onto 2/3."""
    space = AnalyticSpace(
        point_kind="real",
        dist_rule=lambda x, y: abs(x - y),
        membership=lambda x: 0.0 <= x <= 1.0,
        bounds=(0.0, 1.0),
    )
    return NamedExample(
        id="interval-halving",
        space=space,
        map=lambda x: 1.0 - x / 2.0,
        phi=lookup_function("square", "altering"),
        witness=Witness(lookup_function("ln", "generator"), 0.0),
    )


def oscillating_orbit_space(depth: int = 250) -> NamedExample:
    """Two limit points with orbits hopping between their approach tails.

    Carrier: 2, -2, the points 2 + 1/(3n) and -2 - 1/(3n+1) for
    n = 1..depth. The map swaps 2 and -2 and advances the tails:
    2 + 1/(3n) -> -2 - 1/(3n+1) -> 2 + 1/(3n+3). The deepest tail point
    wraps to 2, so the map is total on the truncation; orbit horizons
    should stay below 2*depth to avoid the wrap. The orbit from 7/3
    accumulates at 2 and -2 but contains no fixed point, and (2, -2) is
    a genuine 2-cycle at distance 4.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pos = [2.0 + 1.0 / (3 * n) for n in range(1, depth + 1)]
    neg = [-2.0 - 1.0 / (3 * n + 1) for n in range(1, depth + 1)]
    labels = [2.0, -2.0] + pos + neg
    vals = np.array(labels)
    m = np.abs(vals[:, None] - vals[None, :])
    space = FiniteSpace(labels=tuple(labels), dist=m)
    step = dict(zip(labels, [-2.0, 2.0] + neg + pos[1:] + [2.0]))

    def T(x):
        try:
            return step[x]
        except KeyError:
            raise DomainError(f"map is undefined at {x!r}") from None

    return NamedExample(
        id="oscillating-orbit",
        space=space,
        map=T,
        phi=lookup_function("id", "altering"),
        witness=Witness(lookup_function("ln", "generator"), 0.0),
    )


def sequence_space(N: int = 1000) -> NamedExample:
    """Basis indices i >= 1 with d = 1 + |1/i - 1/j| and T(i) = 3i.

    Every pair sits at distance > 1, so no orbit is Cauchy and T has no
    fixed point, yet the averaged (Kannan) inequality holds strictly on
    every pair: 1 + |1/(3i) - 1/(3j)| < 1 + 1/(3i) + 1/(3j). N bounds
    the enumerated truncation used by scans; the map itself is total.
    """
    if N < 3:
        raise ValueError("need N >= 3")

    def dist(i, j):
        # multiplying by the bool keeps one expression for scalars and
        # arrays; it is exact, so both give the same bits
        return (1.0 + abs(1.0 / i - 1.0 / j)) * (i != j)

    space = AnalyticSpace(
        point_kind="basis_index",
        dist_rule=dist,
        membership=lambda i: isinstance(i, (int, np.integer)) and i >= 1,
        enumerator=lambda: range(1, N + 1),
    )
    return NamedExample(
        id="sequence-space",
        space=space,
        map=lambda i: 3 * i,
        phi=lookup_function("id", "altering"),
        witness=Witness(lookup_function("ln", "generator"), 0.0),
    )


def rect_b_example(n: int = 10) -> NamedExample:
    space = rect_b_family(n)
    ln = lookup_function("ln", "generator")
    # The witness carries the computed minimum rather than the closed form
    # ln(15 n^2 / 6); the two can differ by an ulp and the computed value
    # is the one the chain axiom is tight against.
    return NamedExample(
        id="rect-b",
        space=space,
        phi=None,
        witness=Witness(ln, min_alpha(space, ln)),
    )


def random_metric(seed: int, size: int) -> FiniteSpace:
    """Euclidean distances of a seeded uniform point cloud in the unit square."""
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    pts = rng.random((size, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    m = np.sqrt((diff * diff).sum(axis=2))
    return FiniteSpace(labels=tuple(range(size)), dist=m)


def random_fspace(seed: int, size: int, f: FGenerator) -> tuple:
    """Seeded symmetric matrix with entries in [0.1, 10] plus its witness.

    Entries are far from the triangle inequality in general, so the
    returned witness (f, min_alpha) usually carries a positive alpha.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 10.0, (size, size))
    m = np.triu(raw, 1)
    m = m + m.T
    space = FiniteSpace(labels=tuple(range(size)), dist=m)
    return space, Witness(f, min_alpha(space, f))


def _reproduce_interval() -> list:
    ex = interval_halving()
    sq = lookup_function("square", "altering")
    checks = []
    rep = solver.picard(ex.space, ex.map, 0.0, tol=1e-9, max_iter=200)
    fp = rep.fixed_point if rep.status == solver.STATUS_CONVERGED else math.nan
    checks.append((
        "picard from 0 converges",
        rep.status == solver.STATUS_CONVERGED and rep.iterations <= 200,
        f"status={rep.status}, iterations={rep.iterations}",
    ))
    checks.append((
        "fixed point is 2/3",
        abs(fp - 2.0 / 3.0) < 1e-8,
        f"|fp - 2/3| = {abs(fp - 2.0 / 3.0):.3e}",
    ))
    cond = conditions.edelstein_check(ex.space, ex.map, sq, conditions.random_pairs(ex.space, 10000, seed=1))
    checks.append((
        "strict shrinking on 10^4 seeded pairs",
        cond.passed and cond.margin_min > 0,
        f"margin_min = {cond.margin_min:.3e}",
    ))
    # Step sizes halve from 1 down to ~2^-39; longer orbits would hit the
    # one-ulp plateau around the fixed point where strictness breaks down.
    mono = conditions.monotone_step_check(solver.orbit(ex.space, ex.map, 0.0, 40), sq)
    checks.append(("orbit steps strictly decrease", mono.passed, f"checked {mono.checked} steps"))
    tfix = abs(ex.map(2.0 / 3.0) - 2.0 / 3.0)
    checks.append(("map fixes 2/3", tfix < 1e-15, f"moved by {tfix:.3e}"))
    shift = conditions.shift_condition_check(
        ex.space, ex.map, lookup_function("id", "altering"), 0.0,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.1, 0.01], horizon=50,
    )
    checks.append(("proximity persists one step", shift.passed, f"checked {shift.checked} triggers"))
    return checks


def _reproduce_oscillating() -> list:
    ex = oscillating_orbit_space()
    prefix = [2 + 1 / 3, -2 - 1 / 4, 2 + 1 / 6, -2 - 1 / 7, 2 + 1 / 9]
    x0 = prefix[0]
    checks = []
    tr400 = solver.orbit(ex.space, ex.map, x0, 399)
    checks.append((
        "orbit prefix walks both tails",
        tr400.points[:5] == prefix,
        ", ".join(f"{p:.6g}" for p in tr400.points[:5]),
    ))
    d_swap = ex.space.d(2.0, ex.map(2.0))
    checks.append(("swap pair sits at distance 4", d_swap == 4.0, f"d = {d_swap!r}"))
    ok = conditions.orbital_kannan_check(ex.space, ex.map, ex.phi, x0, 200)
    checks.append((
        "averaged contraction holds along 200 orbit pairs",
        ok.passed and ok.margin_min > 0,
        f"margin_min = {ok.margin_min:.3e}",
    ))
    reps = solver.accumulation_points(tr400, ex.space, eps=1e-2, min_hits=5)
    two = (
        len(reps) == 2
        and abs(reps[0] - 2.0) < 1e-2
        and abs(reps[1] + 2.0) < 1e-2
    )
    checks.append((
        "orbit accumulates exactly at +2 and -2",
        two,
        ", ".join(f"{r:.6g}" for r in reps),
    ))
    rep = solver.picard(ex.space, ex.map, 2.0, tol=1e-6, max_iter=100)
    checks.append((
        "iteration from 2 reports the 2-cycle",
        rep.status == solver.STATUS_CYCLE and set(rep.cycle or ()) == {2.0, -2.0},
        f"status={rep.status}, cycle={rep.cycle}",
    ))
    ed = conditions.edelstein_check(ex.space, ex.map, ex.phi, conditions.grid_pairs(ex.space, 100))
    checks.append((
        "global strict shrinking fails (swap pair ties)",
        not ed.passed,
        f"{len(ed.violations)} violation(s) in {ed.checked} pairs",
    ))
    return checks


def _reproduce_sequence() -> list:
    N = 1000
    ex = sequence_space(N)
    checks = []
    # the pairs whose images stay inside the truncation
    sample = conditions.all_pairs(sequence_space(N=N // 3).space)
    kan = conditions.kannan_check(ex.space, ex.map, ex.phi, sample)
    checks.append((
        "averaged contraction strict on every pair",
        kan.passed and kan.margin_min > 0,
        f"{kan.checked} pairs, margin_min = {kan.margin_min:.3e}",
    ))
    fixed = solver.fixed_point_scan(ex.space, ex.map)
    checks.append(("no fixed point in the truncation", fixed == [], f"found {fixed!r}"))
    tr = solver.orbit(ex.space, ex.map, 1, 10)
    diams = solver.cauchy_tail_check(tr, ex.space, windows=2)
    checks.append((
        "no Cauchy tail: window diameters stay >= 1",
        all(d >= 1.0 for d in diams),
        ", ".join(f"{d:.6g}" for d in diams),
    ))
    spot = (
        abs(ex.space.d(1, 3) - 5.0 / 3.0) < 1e-15
        and abs(ex.space.d(3, 6) - 7.0 / 6.0) < 1e-15
        and ex.space.d(7, 7) == 0.0
    )
    checks.append(("distance spot values", spot, "d(1,3) ~ 5/3, d(3,6) ~ 7/6, d(i,i) = 0"))
    shift = conditions.shift_condition_check(
        ex.space, ex.map, ex.phi, 1,
        delta_rule=lambda e: e, eps_grid=[0.5, 0.75, 1.0], horizon=20,
    )
    checks.append((
        "proximity persistence fails at the binding level",
        not shift.passed,
        f"{len(shift.violations)} violation(s); {shift.source.split('; ')[1]}",
    ))
    return checks


def _reproduce_rect_b() -> list:
    ln = lookup_function("ln", "generator")
    checks = []
    profile = alpha_divergence_profile(rect_b_family, ln, (2, 50))
    worst = max(abs(a - math.log(15.0 * n * n / 6.0)) for n, a in profile)
    checks.append((
        "smallest alpha matches ln(15 n^2 / 6) for n = 2..50",
        worst < 1e-9,
        f"max deviation = {worst:.3e}",
    ))
    increasing = all(b[1] > a[1] for a, b in zip(profile, profile[1:]))
    checks.append(("alpha strictly increases with n", increasing, ""))
    span = profile[-1][1] - profile[0][1]
    checks.append(("alpha spans more than 5 across the family", span > 5.0, f"span = {span:.6g}"))
    sp10 = rect_b_family(10)
    d_cheap = sp10.d(1, "g1")
    checks.append((
        "generic links cost 3/n^2",
        d_cheap == 0.03 and sp10.d(1, 20) == 15.0,
        f"d(1, g1) = {d_cheap!r}",
    ))
    a10 = dict(profile)[10]
    ok_at = verify_D3(sp10, Witness(ln, a10)).passed
    fail_below = not verify_D3(sp10, Witness(ln, a10 - 0.01)).passed
    checks.append((
        "witness is tight at the computed alpha",
        ok_at and fail_below,
        f"alpha = {a10:.9g}",
    ))
    return checks


# example id -> (builder, reproducer); a builder's keyword parameters,
# with their defaults, are the sizes build_example accepts
_EXAMPLES = {
    "interval-halving": (interval_halving, _reproduce_interval),
    "oscillating-orbit": (oscillating_orbit_space, _reproduce_oscillating),
    "sequence-space": (sequence_space, _reproduce_sequence),
    "rect-b": (rect_b_example, _reproduce_rect_b),
}


def example_ids() -> list:
    return list(_EXAMPLES)


def _registered(example_id: str) -> tuple:
    try:
        return _EXAMPLES[example_id]
    except KeyError:
        raise DomainError(
            f"unknown example {example_id!r}; known: {', '.join(_EXAMPLES)}"
        ) from None


def build_example(example_id: str, **params) -> NamedExample:
    """The example built with the given sizes, each one its builder takes."""
    builder = _registered(example_id)[0]
    takes = inspect.signature(builder).parameters
    for name in params:
        if name not in takes:
            raise DomainError(
                f"example {example_id!r} takes no parameter {name}; "
                f"it takes {', '.join(takes) or 'none'}"
            )
    return builder(**params)


def reproduce(example_id: str) -> list:
    """Re-derive an example's documented behavior from scratch.

    Returns (check name, passed, detail) tuples in a fixed order.
    """
    return _registered(example_id)[1]()

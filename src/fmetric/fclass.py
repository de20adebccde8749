"""Generator and altering-distance functions with sampled property gates.

A generator f is admissible when it is non-decreasing on (0, inf) and
f(t) -> -inf exactly as t -> 0+. An altering distance phi is continuous,
non-decreasing, and vanishes only at 0. The checks here are sampled
surrogates of those statements: geometric grids toward 0 for the
generator side, a uniform grid with a small continuity step for the
altering side. A pass certifies the sampled grid only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, UnknownFunctionError
from .reports import PropertyReport

_SMALLEST = 2.0 ** -200  # deepest grid point probed toward 0
_F1_LO, _F1_HI, _F1_N = 1e-8, 1e8, 400  # geometric grid of the monotonicity gate
_F2_DEPTH = 30  # levels f <= -M, M = 1..30, the divergence gate must reach
_ALT_HI, _ALT_N, _ALT_TOL = 10.0, 1000, 0.1  # altering gate: grid, points, largest step
_ALT_H = _ALT_HI / (_ALT_N * _ALT_N)  # continuity probe offset


def _eval_from(fn, name, t, positive: bool):
    """fn on t > 0 (positive) or t >= 0; a float for a scalar t."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0 if positive else arr < 0):
        bound = "t > 0" if positive else "t >= 0"
        raise DomainError(f"{name} is defined on {bound}, got {arr.min() if arr.size else t}")
    out = fn(arr)
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class FGenerator:
    """Named scalar map on (0, inf), vectorized over numpy arrays."""

    name: str
    fn: Callable = field(repr=False)

    def eval(self, t):
        return _eval_from(self.fn, self.name, t, positive=True)

    __call__ = eval


@dataclass(frozen=True)
class AlteringDistance:
    """Named scalar map on [0, inf), vectorized over numpy arrays."""

    name: str
    fn: Callable = field(repr=False)

    def eval(self, t):
        return _eval_from(self.fn, self.name, t, positive=False)

    __call__ = eval


_GENERATORS = {
    "ln": FGenerator("ln", np.log),
    "neg_inv": FGenerator("neg_inv", lambda t: -1.0 / t),
}

_ALTERING = {
    "id": AlteringDistance("id", lambda t: +t),
    "square": AlteringDistance("square", lambda t: t * t),
    "sqrt": AlteringDistance("sqrt", np.sqrt),
}


def lookup_function(name: str, kind: str):
    """Fetch a registered function. kind is 'generator' or 'altering'."""
    table = {"generator": _GENERATORS, "altering": _ALTERING}.get(kind)
    if table is None:
        raise ValueError(f"unknown kind {kind!r}, expected 'generator' or 'altering'")
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, say a list
        raise UnknownFunctionError(
            f"no {kind} named {name!r}; registered: {sorted(table)}"
        ) from None


def registered_generators() -> list[FGenerator]:
    return list(_GENERATORS.values())


def registered_altering() -> list[AlteringDistance]:
    return list(_ALTERING.values())


def check_F1(f: FGenerator) -> PropertyReport:
    """Sampled monotonicity gate: f non-decreasing on a geometric grid."""
    grid = np.geomspace(_F1_LO, _F1_HI, _F1_N)
    vals = f.eval(grid)
    first = np.flatnonzero(vals[1:] < vals[:-1])[:1]
    failures = [{"t": (grid[i], grid[i + 1]), "f": (vals[i], vals[i + 1])} for i in first]
    return PropertyReport(
        name=f"F1({f.name})",
        passed=not failures,
        checked=_F1_N,
        failures=failures,
        note=f"geometric grid [{_F1_LO:g}, {_F1_HI:g}]",
    )


def check_F2(f: FGenerator) -> PropertyReport:
    """Sampled divergence gate: f(t) -> -inf as t -> 0+.

    For each level M = 1..30, t_M is the first t in 1, 1/2, 1/4, ...
    down to 2^-200 with f(t) <= -M; the gate passes when every level is
    reached. (F2) also asks the converse, that f(t_n) -> -inf forces
    t_n -> 0; for a non-decreasing f (F1) it follows, since f >= f(c) on
    [c, inf) for every c > 0. So for such an f, reaching every level is
    all of (F2).
    """
    grid = 2.0 ** -np.arange(0, 201)
    vals = f.eval(grid)
    levels = np.arange(1, _F2_DEPTH + 1)
    hits = vals <= -levels[:, None]
    reached = hits.any(axis=1)  # a prefix of the levels: f <= -M implies f <= -(M - 1)
    thresholds = grid[hits.argmax(axis=1)[reached]]
    failures = [
        {"level": int(M), "reason": f"no t >= {_SMALLEST:g} with f(t) <= {-M}"}
        for M in levels[~reached][:1]
    ]
    return PropertyReport(
        name=f"F2({f.name})",
        passed=not failures,
        checked=_F2_DEPTH,
        failures=failures,
        note="thresholds " + ", ".join(f"{t:.3g}" for t in thresholds[:4]) + ("..." if len(thresholds) > 4 else ""),
    )


def check_altering(phi: AlteringDistance) -> PropertyReport:
    """Sampled altering-distance gate on [0, 10], a uniform grid of 1000 points.

    Checks phi(0) = 0, phi > 0 on the positive grid, monotonicity along
    the grid, and |phi(t + h) - phi(t)| <= 0.1 with h = 10 / 1000^2 at
    every grid point. The continuity probe only looks a distance h past
    each grid point, so a jump strictly between probes goes unseen; that
    is the usual trade of a sampled gate.
    """
    grid = np.linspace(0.0, _ALT_HI, _ALT_N)
    vals = phi.eval(grid)
    if vals[0] != 0.0:
        failures = [{"t": 0.0, "reason": f"phi(0) = {float(vals[0])!r}, expected 0"}]
    elif (pos_bad := np.flatnonzero(vals[1:] <= 0.0)).size:
        i = pos_bad[0] + 1
        failures = [{"t": grid[i], "reason": f"phi(t) = {float(vals[i])!r} not positive"}]
    elif (dec := np.flatnonzero(np.diff(vals) < 0)).size:
        i = dec[0]
        failures = [{"t": (grid[i], grid[i + 1]), "reason": "decreasing"}]
    else:
        jump = np.abs(phi.eval(grid + _ALT_H) - vals)
        rough = np.flatnonzero(jump > _ALT_TOL)
        failures = []
        if rough.size:
            i = rough[0]
            failures = [{"t": grid[i], "reason": f"step {jump[i]:.3g} > {_ALT_TOL}"}]
    return PropertyReport(
        name=f"altering({phi.name})",
        passed=not failures,
        checked=_ALT_N,
        failures=failures,
        note=f"uniform grid [0, {_ALT_HI:g}], step probe h = {_ALT_H:g}",
    )

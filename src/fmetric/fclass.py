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
    """Named scalar map on (0, inf), vectorized over numpy arrays.

    class_f marks the functions expected to pass both sampled gates;
    it is advisory, the checks are the source of truth.
    """

    name: str
    fn: Callable = field(repr=False)
    class_f: bool = True

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
    # stays bounded near 0, so it must fail the F2 gate; kept as the
    # negative control for tests and demos
    "id": FGenerator("id", lambda t: +t, class_f=False),
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
    except KeyError:
        raise UnknownFunctionError(
            f"no {kind} named {name!r}; registered: {sorted(table)}"
        ) from None


def registered_generators() -> list[FGenerator]:
    return list(_GENERATORS.values())


def registered_altering() -> list[AlteringDistance]:
    return list(_ALTERING.values())


def check_F1(f: FGenerator, lo: float = 1e-8, hi: float = 1e8, n: int = 400) -> PropertyReport:
    """Sampled monotonicity gate: f non-decreasing on a geometric grid."""
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if n < 2:
        raise ValueError("need at least two grid points")
    grid = np.geomspace(lo, hi, n)
    vals = f.eval(grid)
    first = np.flatnonzero(vals[1:] < vals[:-1])[:1]
    failures = [{"t": (grid[i], grid[i + 1]), "f": (vals[i], vals[i + 1])} for i in first]
    return PropertyReport(
        name=f"F1({f.name})",
        passed=not failures,
        checked=n,
        failures=failures,
        note=f"geometric grid [{lo:g}, {hi:g}]",
    )


def check_F2(f: FGenerator, depth: int = 30) -> PropertyReport:
    """Sampled divergence gate: f(t) -> -inf as t -> 0+, and only then.

    For each level M = 1..depth, searches t in 1, 1/2, 1/4, ... down to
    2^-200 for f(t) <= -M. Passes when every level is reached, the
    thresholds t_M are non-increasing, and no grid point at or above
    2 * t_M already sits at or below -M (the converse direction).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    grid = 2.0 ** -np.arange(0, 201)
    vals = f.eval(grid)
    failures = []
    thresholds = []
    for M in range(1, depth + 1):
        hit = np.nonzero(vals <= -M)[0]
        if hit.size == 0:
            failures.append({"level": M, "reason": f"no t >= {_SMALLEST:g} with f(t) <= {-M}"})
            break
        k = int(hit[0])
        thresholds.append(grid[k])
        if len(thresholds) >= 2 and thresholds[-1] > thresholds[-2]:
            failures.append({"level": M, "reason": "threshold increased"})
            break
        above = vals[grid >= 2.0 * grid[k]]
        if above.size and above.min() <= -M:
            failures.append({"level": M, "reason": "f <= -M persists away from 0"})
            break
    return PropertyReport(
        name=f"F2({f.name})",
        passed=not failures,
        checked=depth,
        failures=failures,
        note="thresholds " + ", ".join(f"{t:.3g}" for t in thresholds[:4]) + ("..." if len(thresholds) > 4 else ""),
    )


def check_altering(
    phi: AlteringDistance, hi: float = 10.0, n: int = 1000, cont_tol: float = 0.1
) -> PropertyReport:
    """Sampled altering-distance gate on [0, hi].

    Checks phi(0) = 0, phi > 0 on the positive grid, monotonicity along
    the grid, and |phi(t + h) - phi(t)| <= cont_tol with h = hi / n^2 at
    every grid point. The continuity probe only looks a distance h past
    each grid point, so a jump strictly between probes goes unseen; that
    is the usual trade of a sampled gate.
    """
    if hi <= 0:
        raise ValueError("hi must be positive")
    if n < 3:
        raise ValueError("need n >= 3 grid points")
    grid = np.linspace(0.0, hi, n)
    vals = phi.eval(grid)
    failures = []
    if vals[0] != 0.0:
        failures.append({"t": 0.0, "reason": f"phi(0) = {vals[0]!r}, expected 0"})
    if not failures:
        pos_bad = np.nonzero(vals[1:] <= 0.0)[0]
        if pos_bad.size:
            i = int(pos_bad[0]) + 1
            failures.append({"t": grid[i], "reason": f"phi(t) = {vals[i]!r} not positive"})
    if not failures:
        dec = np.nonzero(np.diff(vals) < 0)[0]
        if dec.size:
            i = int(dec[0])
            failures.append({"t": (grid[i], grid[i + 1]), "reason": "decreasing"})
    if not failures:
        h = hi / (n * n)
        jump = np.abs(phi.eval(grid + h) - vals)
        rough = np.nonzero(jump > cont_tol)[0]
        if rough.size:
            i = int(rough[0])
            failures.append({"t": grid[i], "reason": f"step {jump[i]:.3g} > {cont_tol}"})
    return PropertyReport(
        name=f"altering({phi.name})",
        passed=not failures,
        checked=n,
        failures=failures,
        note=f"uniform grid [0, {hi:g}], step probe h = {hi / (n * n):g}",
    )

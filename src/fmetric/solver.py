"""Orbit computation, Picard iteration, and orbit diagnostics.

Everything here works on a trace: the list of iterates x0, T(x0), ...
together with the consecutive step distances. Convergence is declared
on step size and then certified by an independent residual evaluation;
cycles are detected by revisits at tolerance with genuinely large steps
in between, so a slowly converging orbit is not misread as a cycle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from .errors import DomainError
from .fspace import distance_table
from .reports import SolveReport

_CYCLE_WINDOW = 64  # how far back revisits are searched

STATUS_CONVERGED = "converged"
STATUS_CYCLE = "cycle_detected"
STATUS_BUDGET = "budget_exhausted"


def apply_map(space, T: Callable, x):
    """Evaluate T(x), turning any failure into a DomainError naming x."""
    try:
        y = T(x)
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"map is undefined at {x!r}: {exc}") from exc
    if not space.contains(y):
        raise DomainError(f"map sends {x!r} to {y!r}, outside the carrier")
    return y


@dataclass
class IterationTrace:
    """Iterates plus consecutive step distances (one fewer than points)."""

    points: list
    step_dist: list

    def __len__(self) -> int:
        return len(self.points)


def orbit(space, T: Callable, x0, n: int) -> IterationTrace:
    """Trace of n map applications starting at x0 (n+1 points)."""
    if n < 0:
        raise ValueError("need n >= 0 applications")
    if not space.contains(x0):
        raise DomainError(f"starting point {x0!r} is not in the carrier")
    pts = [x0]
    steps = []
    for k in range(n):
        try:
            nxt = apply_map(space, T, pts[-1])
        except DomainError as exc:
            raise DomainError(f"orbit leaves the carrier at step {k}: {exc}") from exc
        steps.append(space.d(pts[-1], nxt))
        pts.append(nxt)
    return IterationTrace(points=pts, step_dist=steps)


def picard(space, T: Callable, x0, tol: float, max_iter: int) -> SolveReport:
    """Fixed-point iteration with residual certification and cycle watch.

    Stops with status converged at the first step distance <= tol whose
    successor also satisfies d(x, Tx) <= 2 tol (the residual re-check);
    with cycle_detected when the newest iterate returns within tol of a
    recent one across steps none of which is <= tol (so a nan step, which
    only a closed-form rule can give, neither converges nor blocks a
    cycle); with budget_exhausted after max_iter applications. iterations counts the applications of T made by the
    iteration on every status (the residual re-check is not one of them).
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    pts = orbit(space, T, x0, 0).points  # checks x0 lies in the carrier
    calm = 0  # the iterate just after the latest step <= tol
    for it in range(max_iter):
        nxt = apply_map(space, T, pts[-1])
        if space.d(pts[-1], nxt) <= tol:
            calm = it + 1
            residual = space.d(nxt, apply_map(space, T, nxt))
            if residual <= 2.0 * tol:
                return SolveReport(
                    status=STATUS_CONVERGED,
                    iterations=it + 1,
                    fixed_point=nxt,
                    residual=residual,
                )
        for k in range(it - 1, max(calm, it + 1 - _CYCLE_WINDOW) - 1, -1):
            if space.d(pts[k], nxt) <= tol:
                return SolveReport(status=STATUS_CYCLE, iterations=it + 1, cycle=pts[k:])
        pts.append(nxt)
    return SolveReport(status=STATUS_BUDGET, iterations=max_iter)


def accumulation_points(trace: IterationTrace, space, eps: float, min_hits: int) -> list:
    """Representatives of where the trace tail accumulates.

    The transient first half of the trace is discarded; the remaining
    points are greedily clustered in order (each point joins the first
    representative within eps, else founds a new cluster), and clusters
    with at least min_hits members report their earliest point. Output
    order follows first appearance, so the result is deterministic in
    the trace order.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_hits < 1:
        raise ValueError("min_hits must be >= 1")
    tail = trace.points[len(trace.points) // 2 :]
    reps = []   # cluster representatives, in creation order
    counts = []
    for p in tail:
        for i, z in enumerate(reps):
            if space.d(z, p) < eps:
                counts[i] += 1
                break
        else:
            reps.append(p)
            counts.append(1)
    return [z for z, c in zip(reps, counts) if c >= min_hits]


def cauchy_tail_check(trace: IterationTrace, space, windows: int) -> list:
    """Diameters of the trace split into consecutive windows.

    The trace is cut into `windows` contiguous blocks of near-equal
    length (every point lands in exactly one block, in order) and each
    block's diameter max d(p, q) is returned. A Cauchy-looking orbit
    shows diameters collapsing toward 0; a drifting one does not.
    """
    if windows < 1:
        raise ValueError("need at least one window")
    pts = trace.points
    if len(pts) < 2 * windows:
        raise ValueError(f"trace of {len(pts)} points is too short for {windows} windows")
    bounds = [round(i * len(pts) / windows) for i in range(windows + 1)]
    # a table per block: one table of the whole trace would grow with len(pts)**2
    return [
        float(np.triu(distance_table(space, pts[b:e]), 1).max())
        for b, e in zip(bounds[:-1], bounds[1:])
    ]


def fixed_point_scan(space, T: Callable) -> list:
    """All carrier points z with d(z, T z) exactly 0, in carrier order.

    Exhaustive over the enumerated carrier, so the result is complete
    for the scanned truncation (no claim beyond it).
    """
    pts = space.points()
    images = [apply_map(space, T, z) for z in pts]
    fixed = space.dists(space.as_array(pts), space.as_array(images)) == 0.0
    return list(compress(pts, fixed))

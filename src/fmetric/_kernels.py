"""The min-plus closure: minimal left-to-right chain sums by in-place relaxation.

Every candidate is one rounded add, sp[i, k] + dist[k, j], that extends a
chain by a single edge on the right, and the elementwise min is exact, so
each value held is a left-to-right rounded chain sum. Rounded addition is
monotone, so on a table with nonnegative entries the relaxation has a
single fixpoint, the smallest such sum over all chains; any order of
relaxation that reaches it gives the same bits.
"""
from __future__ import annotations

import numpy as np


def relax_sweep(sp: np.ndarray, dist: np.ndarray, order) -> None:
    """One in-place sweep: for each pivot k in order, sp[i, j] becomes
    min(sp[i, j], sp[i, k] + dist[k, j]).

    Pivots later in the order already see the rows lowered by earlier
    ones, so a chain whose points come in pivot order is followed to its
    end in a single sweep.
    """
    for k in order:
        np.minimum(sp, sp[:, k : k + 1] + dist[k : k + 1, :], out=sp)


def minplus_closure(dist: np.ndarray) -> np.ndarray:
    """All-pairs minimal chain sums of a table with nonnegative entries.

    Row i only ever reads row i and dist, so every row is a separate
    single-source relaxation: a sweep that leaves a row unchanged leaves
    it at its fixpoint, and later sweeps relax only the rows that the
    previous sweep changed. The pivot order alternates between ascending
    and descending, so chains through points in either index order
    advance to their end within a sweep. A table that no chain shortens,
    such as a metric free of rounding shortcuts, takes one sweep; a
    collinear metric, where rounding makes long chains beat direct
    distances by an ulp, takes a few.

    Simple chains through n points use at most n-1 edges and longer walks
    never round below them (appending a nonnegative edge never decreases
    a rounded sum), so n-2 sweeps always reach the fixpoint.
    """
    sp = dist.copy()
    n = dist.shape[0]
    rows = np.arange(n)
    order = range(n)
    for _ in range(max(0, n - 2)):
        block = sp[rows]
        relax_sweep(block, dist, order)
        changed = (block != sp[rows]).any(axis=1)
        sp[rows] = block
        rows = rows[changed]
        if rows.size == 0:
            break
        order = order[::-1]
    return sp

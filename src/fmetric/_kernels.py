"""The min-plus closure: minimal left-to-right chain sums by in-place relaxation.

Every candidate is one rounded add, sp[i, k] + dist[k, j], that extends a
chain by a single edge on the right, and the elementwise min is exact, so
each value held is a left-to-right rounded chain sum. Rounded addition is
monotone, so on a table with nonnegative entries the relaxation has a
single fixpoint, the smallest such sum over all chains; any order of
relaxation that reaches it gives the same bits.

The same two facts, nonnegative entries and monotone rounding, bound
which relaxations can lower anything, and the closure skips the rest:

- Row pre-filter. A chain from i to j that beats the direct entry has at
  least two off-diagonal links (a diagonal link only ever adds a
  nonnegative term, so dropping it never raises a sum). Its first link is
  at least r_i, the smallest off-diagonal entry of row i, its last at
  least c_j, the smallest off-diagonal entry of column j, and the partial
  sum before the last link is at least the first link, so the chain sum
  is at least fl(r_i + c_j). Entry (i, j) can therefore drop only if
  d[i, j] > fl(r_i + c_j); a row with no such entry is at its fixpoint.
- Chain order. Which order reaches the fixpoint does not change its bits,
  so the table is relaxed in the order of distance from the point
  farthest from point 0, where the points of a near-collinear table come
  in chain order, and the result is permuted back.
- Column bound. Values only fall, so no value of column j held during a
  sweep exceeds colmax[j], the largest entry of column j over the rows
  being relaxed at the start of the sweep. A candidate through pivot k is
  at least dist[k, j], so where dist[k, j] >= colmax[j] it lowers
  nothing, and pivot k updates only the columns where dist[k] < colmax.
"""
from __future__ import annotations

import numpy as np


def relax_sweep(sp: np.ndarray, dist: np.ndarray, order) -> None:
    """One in-place sweep: for each pivot k in order, sp[i, j] becomes
    min(sp[i, j], sp[i, k] + dist[k, j]).

    Pivots later in the order already see the rows lowered by earlier
    ones, so a chain whose points come in pivot order is followed to its
    end in a single sweep. Pivot k skips the columns where dist[k, j] is
    at least the largest entry of column j at the start of the sweep
    (the column bound); while a quarter or more of the columns remain,
    it updates whole rows, which is faster than gathering them.
    """
    colmax = sp.max(axis=0)
    wide = dist.shape[1] / 4
    for k in order:
        cols = np.flatnonzero(dist[k] < colmax)
        if cols.size >= wide:
            np.minimum(sp, sp[:, k : k + 1] + dist[k : k + 1, :], out=sp)
        elif cols.size:
            sp[:, cols] = np.minimum(sp[:, cols], sp[:, k : k + 1] + dist[k, cols])


def _rows_a_chain_can_lower(dist: np.ndarray) -> np.ndarray:
    """Rows holding an entry d[i, j] > fl(r_i + c_j), with r_i and c_j the
    smallest off-diagonal entries of row i and column j (the row
    pre-filter); no other row changes in the closure. The diagonal of
    dist is set to inf while the minima are taken, then restored."""
    diag = np.diagonal(dist).copy()
    np.fill_diagonal(dist, np.inf)
    r = dist.min(axis=1)
    c = dist.min(axis=0)
    np.fill_diagonal(dist, diag)
    return np.flatnonzero((dist > r[:, None] + c[None, :]).any(axis=1))


def minplus_closure(dist: np.ndarray) -> np.ndarray:
    """All-pairs minimal chain sums of a table with nonnegative entries.

    Row i only ever reads row i and dist, so every row is a separate
    single-source relaxation: a row no chain can lower (see the row
    pre-filter) is never relaxed, a sweep that leaves a row unchanged
    leaves it at its fixpoint, and later sweeps relax only the rows that
    the previous sweep changed. The table is relaxed in chain order, a
    permuted copy sorted by distance from the point farthest from point
    0, and the result is permuted back. The pivot order alternates
    between ascending and descending, so chains through points in either
    order advance to their end within a sweep, and each pivot updates
    only the columns it can lower (the column bound). A table where no
    entry passes the pre-filter, such as sequence space, takes no sweep;
    a metric free of rounding shortcuts takes one; a collinear metric,
    where rounding makes long chains beat direct distances by an ulp,
    takes a few.

    Each bound skips only relaxations that lower nothing, so the result
    is bitwise the fixpoint of relaxing every row with every pivot.
    Simple chains through n points use at most n-1 edges and longer walks
    never round below them (appending a nonnegative edge never decreases
    a rounded sum), so n-2 sweeps always reach the fixpoint.
    """
    n = dist.shape[0]
    if n < 3:
        return dist.copy()
    perm = np.argsort(dist[int(np.argmax(dist[0]))], kind="stable")
    dist = dist[np.ix_(perm, perm)]
    sp = dist.copy()
    rows = _rows_a_chain_can_lower(sp)
    order = range(n)
    for _ in range(n - 2):
        if rows.size == 0:
            break
        block = sp[rows]
        relax_sweep(block, dist, order)
        changed = (block != sp[rows]).any(axis=1)
        sp[rows] = block
        rows = rows[changed]
        order = order[::-1]
    # the permuted copy is read no more; it takes the result back in input order
    dist[np.ix_(perm, perm)] = sp
    return dist

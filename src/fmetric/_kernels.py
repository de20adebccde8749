"""The min-plus closure: minimal left-to-right chain sums by in-place relaxation.

Every candidate is one rounded add, sp[i, k] + dist[k, j], that extends a
chain by a single edge on the right, and the elementwise min is exact, so
each value held is a left-to-right rounded chain sum. Rounded addition is
monotone, so on a table with nonnegative entries the relaxation has a
single fixpoint, the smallest such sum over all chains; any order of
relaxation that reaches it gives the same bits.

Relaxing row i through pivot k at the value a = sp[i, k] leaves
sp[i, j] <= fl(a + dist[k, j]) for every j, and values only fall, so the
bound still holds later. Row i needs pivot k again only once sp[i, k] has
fallen below the value it was last relaxed at; a table where no such
(row, pivot) pair is left is at the fixpoint, since every row then meets
every candidate at its final values. The closure runs in sweeps:

- The step. The first sweep relaxes every row the pre-filter keeps
  through every pivot at the table's own values, so no relaxation depends
  on another and it is one blocked min-plus product, pivots innermost,
  where both operands of each add are contiguous. On a table that is
  exactly symmetric, with every row kept, entry (j, i) is the same set of
  rounded sums as entry (i, j), since fl(a + b) = fl(b + a), so only the
  blocks on or above the diagonal are computed and the rest mirrored. A
  table that D2's margin admits asymmetric takes the full product.
- Pending sweeps. An array `applied` holds sp[i, k] as it was when pivot k
  last relaxed row i; after the step it is the table. Later sweeps go
  through the pivots in order, each relaxing in place (Gauss-Seidel) only
  the rows where sp[i, k] < applied[i, k]; when half or more of the rows
  are pending it relaxes every row, since a row that is not pending
  lowers nothing. The closure stops when no pair is pending.

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
  pending sweep exceeds colmax[j], the largest entry of column j over the
  rows still live at the start of the sweep. A candidate through pivot k
  is at least dist[k, j], so where dist[k, j] >= colmax[j] it lowers
  nothing, and pivot k updates only the columns where dist[k] < colmax.
"""
from __future__ import annotations

import numpy as np

# rows and columns of one block of the step: its 16 x 32 x n sums take
# 1.8 MB at n = 450, within a 2 MB L2 cache; blocks of 8 to 32 rows and 16
# to 32 columns timed within noise of each other at n = 222 to 450
_BLOCK_ROWS, _BLOCK_COLS = 16, 32


def relax_sweep(sp: np.ndarray, dist: np.ndarray, applied: np.ndarray | None, order) -> None:
    """One in-place sweep over sp, a block of rows of the table dist.

    With applied None this is the step: every row of sp is relaxed
    through every pivot at its values on entry, sp[i, j] becoming
    min(sp[i, j], min over k of sp[i, k] + dist[k, j]), and order is not
    read. Otherwise applied holds, for each row and pivot, the value of
    sp[i, k] at which pivot k last relaxed row i, and for each pivot k in
    order the rows where sp[i, k] < applied[i, k] (the pending rows) are
    relaxed, sp[i, j] becoming min(sp[i, j], sp[i, k] + dist[k, j]), and
    their applied[i, k] set to sp[i, k]; with half or more of the rows
    pending, all rows are relaxed. Pivots later in the order see the rows
    lowered by earlier ones, so a chain whose points come in pivot order
    is followed to its end in a single sweep. Pivot k skips the columns
    where dist[k, j] is at least the largest entry of column j in sp at
    the start of the sweep (the column bound); while a quarter or more of
    the columns remain, it updates whole rows, which is faster than
    gathering them.
    """
    if applied is None:
        _step(sp, dist)
        return
    colmax = sp.max(axis=0)
    wide = dist.shape[1] / 4
    half = sp.shape[0] / 2
    for k in order:
        pending = sp[:, k] < applied[:, k]
        count = np.count_nonzero(pending)
        if not count:
            continue
        cols = np.flatnonzero(dist[k] < colmax)
        if count >= half:
            if cols.size >= wide:
                np.minimum(sp, sp[:, k : k + 1] + dist[k : k + 1, :], out=sp)
            elif cols.size:
                sp[:, cols] = np.minimum(sp[:, cols], sp[:, k : k + 1] + dist[k, cols])
            applied[:, k] = sp[:, k]
            continue
        rows = np.flatnonzero(pending)
        if cols.size >= wide:
            sp[rows] = np.minimum(sp[rows], sp[rows, k : k + 1] + dist[k : k + 1, :])
        elif cols.size:
            block = np.ix_(rows, cols)
            sp[block] = np.minimum(sp[block], sp[rows, k : k + 1] + dist[k, cols])
        applied[rows, k] = sp[rows, k]


def _step(sp: np.ndarray, dist: np.ndarray) -> None:
    """The step of relax_sweep, as one min-plus product computed in blocks
    of rows and columns: each block sums a[i, k] + dist[k, j] over every
    pivot k, pivots innermost, with a the entry values of sp, and takes
    the min over k. When sp is dist and dist is symmetric, only the blocks
    on or above the diagonal are computed, and the lower triangle is
    mirrored from the upper one."""
    m, n = sp.shape
    a = sp.copy()
    mirror = np.array_equal(sp, dist) and np.array_equal(dist, dist.T)
    by_column = dist if mirror else np.ascontiguousarray(dist.T)  # [j, k] is dist[k, j]
    sums = np.empty((_BLOCK_ROWS, _BLOCK_COLS, n))
    for i in range(0, m, _BLOCK_ROWS):
        i1 = min(i + _BLOCK_ROWS, m)
        for j in range(i - i % _BLOCK_COLS if mirror else 0, n, _BLOCK_COLS):
            j1 = min(j + _BLOCK_COLS, n)
            block = sums[: i1 - i, : j1 - j]
            np.add(a[i:i1, None, :], by_column[None, j:j1, :], out=block)
            np.minimum(sp[i:i1, j:j1], block.min(axis=2), out=sp[i:i1, j:j1])
    if mirror:
        lower = np.tril_indices(n, -1)
        sp[lower] = sp.T[lower]


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
    single-source relaxation, and a row no chain can lower (see the row
    pre-filter) is never relaxed. The table is relaxed in chain order, a
    permuted copy sorted by distance from the point farthest from point
    0, and the result is permuted back. The first sweep is the step over
    the rows the pre-filter keeps; each later sweep relaxes only the
    pending (row, pivot) pairs, in the columns the column bound leaves,
    with the pivot order alternating between ascending and descending, so
    chains through points in either order advance to their end within a
    sweep. After each sweep the rows with no pending pivot drop out, and
    the closure stops when none is left. A table where no entry passes
    the pre-filter, such as sequence space, takes no sweep; a metric free
    of rounding shortcuts takes one, the step; a collinear metric, where
    rounding makes long chains beat direct distances by an ulp, takes a
    few.

    Each rule skips only relaxations that lower nothing, and a row drops
    out only once every pivot has relaxed it at its final entry for that
    pivot, so at the end sp[i, j] <= fl(sp[i, k] + dist[k, j]) for every
    i, k and j: the result is bitwise the fixpoint of relaxing every row
    with every pivot. Simple chains through n points use at most n-1
    edges and longer walks never round below them (appending a
    nonnegative edge never decreases a rounded sum); the step covers
    every chain of up to two edges and each later sweep at least one edge
    more, so n-2 sweeps always reach the fixpoint, and no more are run.
    """
    n = dist.shape[0]
    if n < 3:
        return dist.copy()
    perm = np.argsort(dist[int(np.argmax(dist[0]))], kind="stable")
    dist = dist[np.ix_(perm, perm)]
    sp = dist.copy()
    rows = _rows_a_chain_can_lower(sp)
    block, applied = sp[rows], dist[rows]
    for sweep in range(n - 2):
        if rows.size == 0:
            break
        order = range(n) if sweep % 2 else range(n - 1, -1, -1)
        relax_sweep(block, dist, applied if sweep else None, order)
        sp[rows] = block
        live = (block < applied).any(axis=1)
        rows, block, applied = rows[live], block[live], applied[live]
    # the permuted copy is read no more; it takes the result back in input order
    dist[np.ix_(perm, perm)] = sp
    return dist

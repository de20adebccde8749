"""Reference results that the benchmark checks fmetric's outputs against.

Nothing here imports fmetric. The min-plus closure runs in Floyd-Warshall
order (pivot by pivot, each candidate sp[i,k] + sp[k,j]), which associates
chain sums differently from fmetric's left-to-right relaxation, so the two
agree only up to rounding:

    Both closures return, for every pair, a rounded sum of some chain that
    is no larger than a rounded sum of the exactly minimal chain S*. A
    rounded sum over a summation tree of depth h lies within gamma_h * S of
    its exact value S (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4), and h <= n for both orders. Hence both closures lie
    in [(1 - gamma_n) S*, (1 + gamma_n) S*], and their logarithms differ by
    at most about 2 gamma_n.

rounding_tol() adds a margin over that for the logarithms themselves. A
verdict or minimum alpha within that tolerance of the threshold is
"ambiguous": either answer is accepted.

The bundled examples (sequence-space, oscillating-orbit, interval-halving)
are re-derived from their documented definitions, and the condition sides
are evaluated as whole arrays.
"""
from __future__ import annotations

import numpy as np

_U = 2.0 ** -53  # unit roundoff of float64
_EPS = 2.0 ** -52


def closure_fw(dist: np.ndarray) -> np.ndarray:
    """All-pairs minimal chain sums, Floyd-Warshall order."""
    sp = np.array(dist, dtype=float)
    for k in range(sp.shape[0]):
        np.minimum(sp, sp[:, k : k + 1] + sp[k : k + 1, :], out=sp)
    return sp


def ln_slack(dist: np.ndarray) -> np.ndarray:
    """ln d - ln (minimal chain sum) off the diagonal, 0 on it."""
    sp = closure_fw(dist)
    off = ~np.eye(dist.shape[0], dtype=bool)
    slack = np.zeros_like(sp)
    slack[off] = np.log(dist[off]) - np.log(sp[off])
    return slack


def rounding_tol(dist: np.ndarray) -> float:
    """Largest difference between ln-slacks under the two association orders."""
    n = dist.shape[0]
    gamma = n * _U / (1 - n * _U)
    off = ~np.eye(n, dtype=bool)
    scale = max(1.0, float(np.abs(np.log(dist[off])).max())) if n > 1 else 1.0
    return 2.5 * gamma + 16 * _EPS * scale


class D3Reference:
    """Oracle view of one table under the ln generator."""

    def __init__(self, dist: np.ndarray):
        self.n = dist.shape[0]
        slack = ln_slack(dist)
        self.upper = slack[np.triu_indices(self.n, 1)]  # the closure is symmetric
        self.min_alpha = max(0.0, float(slack.max())) if self.n > 1 else 0.0
        self.tol = rounding_tol(dist)

    def verdict(self, alpha: float):
        """True (passes), False (fails) or None (within rounding of alpha)."""
        if abs(self.min_alpha - alpha) <= self.tol:
            return None
        return self.min_alpha < alpha

    def violation_band(self, alpha: float) -> tuple[int, int]:
        """Fewest and most i < j pairs a correct verify can report at alpha."""
        lo = int(np.count_nonzero(self.upper > alpha + self.tol))
        hi = int(np.count_nonzero(self.upper > alpha - self.tol))
        return lo, hi


# --- bundled examples, from their documented definitions -------------------

def sequence_space_matrix(N: int) -> np.ndarray:
    """d(i, j) = 1 + |1/i - 1/j| on basis indices 1..N, 0 on the diagonal."""
    idx = np.arange(1, N + 1)
    return sequence_dist(idx[:, None], idx[None, :])


def sequence_dist(i, j) -> np.ndarray:
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    return np.where(i == j, 0.0, 1.0 + np.abs(1.0 / i - 1.0 / j))


def oscillating_orbit(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Carrier values in label order and the map as an index vector.

    Labels: 2, -2, then 2 + 1/(3k) and -2 - 1/(3k+1) for k = 1..depth.
    The map swaps 2 and -2, sends 2 + 1/(3k) to -2 - 1/(3k+1), and that
    to 2 + 1/(3k+3), the deepest one wrapping to 2.
    """
    k = np.arange(1, depth + 1)
    vals = np.concatenate([[2.0, -2.0], 2.0 + 1.0 / (3 * k), -2.0 - 1.0 / (3 * k + 1)])
    pos = 2 + np.arange(depth)
    neg = 2 + depth + np.arange(depth)
    T = np.empty(vals.size, dtype=int)
    T[0], T[1] = 1, 0
    T[pos] = neg
    T[neg[:-1]] = pos[1:]
    T[neg[-1]] = 0
    return vals, T


def oscillating_orbit_matrix(depth: int) -> np.ndarray:
    vals, _ = oscillating_orbit(depth)
    return np.abs(vals[:, None] - vals[None, :])


def halving_map(x):
    """interval-halving: T(x) = 1 - x/2 on [0, 1]."""
    return 1.0 - x / 2.0


PHI = {"id": lambda t: +t, "square": lambda t: t * t}  # the examples' altering distances


# --- condition sides --------------------------------------------------------

def edelstein_sides(d, phi, x, y, tx, ty):
    return phi(d(tx, ty)), phi(d(x, y))


def kannan_sides(d, phi, x, y, tx, ty):
    return phi(d(tx, ty)), 0.5 * (phi(d(x, tx)) + phi(d(y, ty)))


SIDES = {"edelstein": edelstein_sides, "kannan": kannan_sides}


def summarize(lhs: np.ndarray, rhs: np.ndarray) -> dict:
    """Report fields of a strict lhs < rhs condition over the given pairs."""
    ok = lhs < rhs
    return {
        "passed": bool(ok.all()),
        "checked": int(lhs.size),
        "margin_min": float((rhs - lhs).min()) if lhs.size else float("inf"),
        "violations": int(lhs.size - np.count_nonzero(ok)),
    }


def abs_dist(x, y):
    return np.abs(x - y)


def sequence_condition(condition: str, N: int) -> dict:
    """A condition over all pairs of sequence-space 1..N, T(i) = 3i, phi = id."""
    i, j = np.triu_indices(N, 1)
    i, j = i + 1, j + 1
    lhs, rhs = SIDES[condition](sequence_dist, PHI["id"], i, j, 3 * i, 3 * j)
    return summarize(lhs, rhs)


def oscillating_condition(condition: str, depth: int) -> dict:
    """A condition over all pairs of oscillating-orbit, phi = id."""
    vals, T = oscillating_orbit(depth)
    i, j = np.triu_indices(vals.size, 1)
    lhs, rhs = SIDES[condition](abs_dist, PHI["id"], vals[i], vals[j], vals[T[i]], vals[T[j]])
    return summarize(lhs, rhs)


def halving_random_pairs(count: int, seed: int) -> np.ndarray:
    """The pairs a seeded sample on [0, 1] holds: consecutive uniform draws
    from numpy's default generator, two per pair, dropping exact ties."""
    rng = np.random.default_rng(seed)
    out = np.empty((0, 2))
    while len(out) < count:
        draw = rng.uniform(0.0, 1.0, size=(count - len(out), 2))
        out = np.concatenate([out, draw[draw[:, 0] != draw[:, 1]]])
    return out


def halving_condition(condition: str, count: int, seed: int) -> dict:
    """A condition over seeded random pairs of interval-halving, phi = square."""
    pts = halving_random_pairs(count, seed)
    x, y = pts[:, 0], pts[:, 1]
    lhs, rhs = SIDES[condition](abs_dist, PHI["square"], x, y, halving_map(x), halving_map(y))
    return summarize(lhs, rhs)


def oscillating_orbital_kannan(depth: int, x0_index: int, count: int) -> dict:
    """Kannan sides on consecutive orbit pairs, skipping pairs at distance 0."""
    vals, T = oscillating_orbit(depth)
    orbit = [x0_index]
    for _ in range(count + 1):
        orbit.append(T[orbit[-1]])
    orbit = np.array(orbit)
    x, y = vals[orbit[:count]], vals[orbit[1 : count + 1]]
    moved = x != y
    x, y = x[moved], y[moved]
    tx, ty = vals[orbit[1 : count + 1]][moved], vals[orbit[2 : count + 2]][moved]
    lhs, rhs = kannan_sides(abs_dist, PHI["id"], x, y, tx, ty)
    return summarize(lhs, rhs)


def halving_shift(x0: float, eps_grid, horizon: int) -> dict:
    """Shift condition on the interval-halving orbit with delta = eps, phi = square.

    For each eps and 0 <= i < j <= horizon with phi(d(x_i, x_j)) < 2 eps,
    require phi(d(x_{i+1}, x_{j+1})) <= eps.
    """
    xs = [x0]
    for _ in range(horizon + 1):
        xs.append(halving_map(xs[-1]))
    xs = np.array(xs)
    pd = PHI["square"](np.abs(xs[:, None] - xs[None, :]))
    i, j = np.triu_indices(horizon + 1, 1)
    checked, violations, margin = 0, 0, float("inf")
    for eps in eps_grid:
        fired = pd[i, j] < eps + eps
        succ = pd[i[fired] + 1, j[fired] + 1]
        checked += int(fired.sum())
        violations += int(np.count_nonzero(succ > eps))
        if succ.size:
            margin = min(margin, float((eps - succ).min()))
    return {"passed": violations == 0, "checked": checked, "margin_min": margin,
            "violations": violations}

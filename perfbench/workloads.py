"""The benchmark's workloads: seeded inputs, CLI commands and output checks.

make(name, seed, workdir) writes every table a workload needs into workdir
(JSON or CSV, drawn from the seed) and returns its commands. Each command
carries the fmetric CLI arguments, a check of (exit code, stdout) against
oracle.py, and the work it decides:

    entries  distance entries the verdict reads: n^2 for a table command,
             2 per pair for edelstein, 3 per pair for kannan, and the
             orbit distance table for shift
    pairs    point pairs decided: n(n-1)/2 for a table command, the
             checked pairs for a condition

A check compares verdicts and counts exactly, a condition's margin_min to
1e-12 relative, and a minimum alpha to the oracle's rounding tolerance
(plus half a unit in the last printed digit for text output).

Sizes are fixed per workload so that every seed costs about the same; the
seed changes the table contents, the random pair samples and start points.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracle

SIZES = {
    "tables": {"euclidean_json": 400, "euclidean_csv": 450, "sequence_N": 400,
               "depth": 110, "collinear_csv": 200, "non_metric_json": 300},
    "pair-checks": {"sequence_N": 300, "depth": 100, "pairs": 10000, "count": 150, "horizon": 50},
}
NAMES = tuple(SIZES)

# Seconds of one round over a workload's commands (with its two `--help`
# runs) at the commit that defined the benchmark, in the slower spells of a
# 2-core Xeon VM (Python 3.11, numpy 2.4) whose speed drifts by 20-30 % over
# minutes. A run makes round(seconds / ROUND_S) rounds (4 of tables and 9 of
# pair-checks at 55 s), so the commits that are compared collect the same
# number of samples and the tail percentile means the same. Each workload
# has an even number of commands, so cmd_p50_s averages two commands' medians.
ROUND_S = {"tables": 13.0, "pair-checks": 6.0}

_EPS_GRID = (0.5, 0.1, 0.01)  # the CLI's default --eps-grid for shift
_TEXT_DIGITS = 10  # significant digits of the CLI's text mode


@dataclass
class Command:
    argv: list
    check: Callable[[int, str], Optional[str]]  # None when the output is right
    entries: int
    pairs: int
    ambiguous: bool = False  # the verdict lies within rounding of the threshold


# --- seeded tables ----------------------------------------------------------

def euclidean(rng, n):
    """Distances of a uniform point cloud in the unit square."""
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def collinear(rng, n):
    """Points on a line with gaps uniform in [0.5, 1.5]; rounding keeps
    finding ulp-level shortcuts along such a line, so minimal chains are long."""
    x = np.cumsum(rng.uniform(0.5, 1.5, n))
    return np.abs(x[:, None] - x[None, :])


def non_metric(rng, n):
    """Symmetric entries uniform in [0.1, 10], far from the triangle inequality."""
    m = np.triu(rng.uniform(0.1, 10.0, (n, n)), 1)
    return m + m.T


_KINDS = {"euclidean": euclidean, "collinear": collinear, "non-metric": non_metric}


def write_table(path: Path, m: np.ndarray) -> None:
    """Write labels 0..n-1 and the matrix; repr keeps every float exact."""
    n = m.shape[0]
    if path.suffix == ".json":
        path.write_text(json.dumps({"points": list(range(n)), "matrix": m.tolist()}))
    else:
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(range(n))
            w.writerows([repr(v) for v in row] for row in m.tolist())


def _table_key(key: str):
    """('non-metric', 'json') for the SIZES key 'non_metric_json'; None for others."""
    kind, _, fmt = key.rpartition("_")
    return (kind.replace("_", "-"), fmt) if fmt in ("json", "csv") else None


def describe(name: str) -> str:
    """The workload's inputs with their kind and size, as BENCHMARK.json states them."""
    parts = []
    for key, v in SIZES[name].items():
        if _table_key(key):
            kind, fmt = _table_key(key)
            parts.append(f"{kind} n={v} {fmt.upper()}")
        elif key == "sequence_N":
            parts.append(f"sequence-space n={v}")
        elif key == "depth":
            parts.append(f"oscillating-orbit n={2 * v + 2}")
        elif key == "pairs":
            parts.append(f"interval-halving {v} seeded pairs")
    return ", ".join(parts)


# --- output checks ----------------------------------------------------------

def _text_tol(value: float) -> float:
    return 0.5 * 10.0 ** (1 - _TEXT_DIGITS) * abs(value)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _reported_d3_violations(out: str, structured: bool) -> int:
    if structured:
        return len(json.loads(out)["axioms"][2]["violations"])
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("D3 "))
    shown = [line for line in lines[start + 1 :] if line.startswith("  ")]
    if shown and shown[-1].startswith("  ... and "):
        return len(shown) - 1 + int(shown[-1].split()[2])
    return len(shown)


def verify_check(ref: oracle.D3Reference, alpha: float, structured: bool):
    verdict = ref.verdict(alpha)
    lo, hi = ref.violation_band(alpha)

    def check(code, out):
        if verdict is not None and code != (0 if verdict else 1):
            return f"exit {code}, oracle min alpha {ref.min_alpha!r} vs alpha {alpha!r}"
        if code not in (0, 1):
            return f"exit {code}"
        if structured:
            doc = json.loads(out)
            if [a["passed"] for a in doc["axioms"][:2]] != [True, True]:
                return "D1/D2 reported failing on a valid table"
            if doc["passed"] != (code == 0):
                return "passed field disagrees with the exit code"
        elif not out.startswith("D1 identity: pass\nD2 symmetry: pass\n"):
            return "D1/D2 reported failing on a valid table"
        k = _reported_d3_violations(out, structured)
        if not lo <= k <= hi:
            return f"{k} D3 violations reported, oracle allows {lo}..{hi}"
        if (k == 0) != (code == 0):
            return "violation count disagrees with the exit code"
        return None

    return check, verdict is None


def min_alpha_check(ref: oracle.D3Reference, structured: bool):
    def check(code, out):
        if code != 0:
            return f"exit {code}"
        value = json.loads(out)["min_alpha"] if structured else float(out)
        tol = ref.tol + (0.0 if structured else _text_tol(ref.min_alpha))
        if abs(value - ref.min_alpha) > tol:
            return f"min alpha {value!r}, oracle {ref.min_alpha!r} (tolerance {tol:.3g})"
        return None

    return check


def condition_check(want: dict):
    """Compare a structured check report with the oracle's summary."""

    def check(code, out):
        doc = json.loads(out)
        got_margin = doc["margin_min"]
        got_margin = float(got_margin) if isinstance(got_margin, str) else got_margin
        if doc["passed"] != want["passed"] or doc["checked"] != want["checked"]:
            return (f"passed={doc['passed']} checked={doc['checked']}, oracle "
                    f"passed={want['passed']} checked={want['checked']}")
        if not (got_margin == want["margin_min"] or _close(got_margin, want["margin_min"])):
            return f"margin_min {got_margin!r}, oracle {want['margin_min']!r}"
        if len(doc["violations"]) != want["violations"]:
            return f"{len(doc['violations'])} violations, oracle {want['violations']}"
        if code != (0 if want["passed"] else 1):
            return f"exit {code}"
        return None

    return check


def halving_solve_check(code, out):
    """interval-halving converges to 2/3 at the CLI's default tolerance 1e-9."""
    doc = json.loads(out)
    if (doc["status"] != "converged" or abs(doc["fixed_point"] - 2.0 / 3.0) > 1e-8
            or doc["residual"] > 2e-9):
        return f"solve reported {doc}"
    return None if code == 0 else f"exit {code}"


# --- workloads --------------------------------------------------------------

class _Commands:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.sizes = SIZES[name]
        self.commands: list = []

    def table(self, key: str):
        """Generate, write and return (path, matrix) for SIZES key e.g. 'euclidean_csv'."""
        kind, fmt = _table_key(key)
        n = self.sizes[key]
        rng = np.random.default_rng([self.seed, list(_KINDS).index(kind), n])
        m = _KINDS[kind](rng, n)
        path = self.workdir / f"{kind}-{n}.{fmt}"
        write_table(path, m)
        return os.path.relpath(path), m

    def add(self, argv, check, entries=0, pairs=0, ambiguous=False):
        self.commands.append(Command(list(argv), check, entries, pairs, ambiguous))

    def verify(self, source, ref, alpha, structured=False):
        check, ambiguous = verify_check(ref, alpha, structured)
        argv = ["verify", *source, "--f", "ln", "--alpha", repr(alpha)]
        if structured:
            argv += ["--output", "structured"]
        self.add(argv, check, ref.n * ref.n, ref.n * (ref.n - 1) // 2, ambiguous)

    def min_alpha(self, source, ref, structured=False):
        argv = ["min-alpha", *source, "--f", "ln"]
        if structured:
            argv += ["--output", "structured"]
        self.add(argv, min_alpha_check(ref, structured), ref.n * ref.n, ref.n * (ref.n - 1) // 2)

    def condition(self, argv, want, entries):
        self.add([*argv, "--output", "structured"], condition_check(want), entries,
                 want["checked"])


def _above(ref: oracle.D3Reference) -> float:
    """An alpha clearly above the oracle's minimum."""
    return ref.min_alpha + max(1e-6, 1e-3 * ref.min_alpha)


def _below(ref: oracle.D3Reference) -> float:
    """An alpha clearly below the oracle's minimum."""
    return 1.0 if ref.min_alpha > 1.0 + 1e-3 else ref.min_alpha / 2


def _tables(b: _Commands):
    """Every table command in one workload rather than three, so that within
    the benchmark's total time each run lasts long enough (55 s) to average
    over the speed swings of a shared machine; the per-layer metrics and the
    per-command medians in .perfbench_out/ still separate the three kinds."""
    # genuine metrics: the closure stops after one sweep, so loading, D1/D2,
    # materialization and the slack pass carry the time
    for key in ("euclidean_json", "euclidean_csv"):
        path, m = b.table(key)
        ref = oracle.D3Reference(m)
        b.verify(["--input", path], ref, 0.0)
        b.min_alpha(["--input", path], ref)
    N = b.sizes["sequence_N"]
    src = ["--example", "sequence-space", "--N", str(N)]
    ref = oracle.D3Reference(oracle.sequence_space_matrix(N))
    b.verify(src, ref, 0.0)
    b.min_alpha(src, ref, structured=True)
    # long minimal chains: the closure runs many sweeps
    depth = b.sizes["depth"]
    orbit = ["--example", "oscillating-orbit", "--depth", str(depth)]
    orbit_ref = oracle.D3Reference(oracle.oscillating_orbit_matrix(depth))
    collinear, m = b.table("collinear_csv")
    collinear_ref = oracle.D3Reference(m)
    non_metric, m = b.table("non_metric_json")
    non_metric_ref = oracle.D3Reference(m)
    for src, ref in ((orbit, orbit_ref), (["--input", collinear], collinear_ref),
                     (["--input", non_metric], non_metric_ref)):
        b.min_alpha(src, ref, structured=True)
        b.verify(src, ref, _above(ref))
    # violation reports: the D3 verdict loop and the text/JSON report; the
    # orbit is a genuine metric whose rounding leaves ulp-level violations
    for structured in (False, True):
        b.verify(["--input", non_metric], non_metric_ref, _below(non_metric_ref), structured)
        b.verify(orbit, orbit_ref, 0.0, structured)


def _pair_checks(b: _Commands):
    s = b.sizes
    N, depth, count = s["sequence_N"], s["depth"], s["count"]
    seq = ["--example", "sequence-space", "--N", str(N)]
    osc = ["--example", "oscillating-orbit", "--depth", str(depth)]
    half = ["--example", "interval-halving"]
    b.condition(["check", "kannan", *seq, "--all-pairs"],
                oracle.sequence_condition("kannan", N), 3 * N * (N - 1) // 2)
    n_osc = 2 * depth + 2
    for cond, per_pair in (("edelstein", 2), ("kannan", 3)):
        b.condition(["check", cond, *osc, "--all-pairs"],
                    oracle.oscillating_condition(cond, depth),
                    per_pair * n_osc * (n_osc - 1) // 2)
    for k, (cond, per_pair) in enumerate((("edelstein", 2), ("kannan", 3))):
        seed = 2 * b.seed + k
        b.condition(["check", cond, *half, "--pairs", str(s["pairs"]), "--seed", str(seed)],
                    oracle.halving_condition(cond, s["pairs"], seed), per_pair * s["pairs"])
    rng = np.random.default_rng([b.seed, 99])
    x0 = int(rng.integers(0, 100))
    b.condition(["check", "shift", *half, "--x0", f"{x0}/100", "--horizon", str(s["horizon"])],
                oracle.halving_shift(x0 / 100, _EPS_GRID, s["horizon"]),
                (s["horizon"] + 2) ** 2)
    # the orbit starts at the seeded tail point 2 + 1/(3k), label index 1 + k
    k = int(rng.integers(1, depth // 4))
    want = oracle.oscillating_orbital_kannan(depth, 1 + k, count)
    b.condition(["check", "orbital-kannan", *osc, "--x0", f"{6 * k + 1}/{3 * k}",
                 "--count", str(count)],
                want, 3 * want["checked"])
    b.add(["solve", *half, "--x0", f"{x0}/100", "--output", "structured"], halving_solve_check)


_WORKLOADS = {"tables": _tables, "pair-checks": _pair_checks}


def make(name: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs for this seed and return its commands."""
    b = _Commands(name, seed % 2 ** 32, workdir)
    _WORKLOADS[name](b)
    return b.commands


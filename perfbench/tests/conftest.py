"""Make the benchmark's modules and the fmetric sources importable.

Run from the repository root:  python -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import workloads  # noqa: E402

SMALL = {
    "tables": {"euclidean_json": 30, "euclidean_csv": 25, "sequence_N": 20,
               "depth": 12, "collinear_csv": 30, "non_metric_json": 25},
    "pair-checks": {"sequence_N": 20, "depth": 12, "pairs": 200, "count": 20, "horizon": 20},
}


@pytest.fixture
def small_sizes(monkeypatch):
    """Shrink every workload so a whole workload runs in well under a second."""
    for name, sizes in SMALL.items():
        monkeypatch.setitem(workloads.SIZES, name, sizes)


@pytest.fixture
def in_root(monkeypatch):
    """Commands name their inputs relative to the checkout root."""
    monkeypatch.chdir(ROOT)

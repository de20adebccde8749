"""Workload inputs, output checks, BENCHMARK.json and the run entry point."""
import json

import numpy as np
import pytest

import oracle
import run
import workloads
from conftest import BENCH, ROOT


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for w in spec["workloads"]:
        assert workloads.describe(w["name"]) in w["why"], w["name"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert spec["paths"] == [BENCH.name]


def test_same_seed_writes_the_same_inputs(tmp_path, small_sizes, in_root):
    for name in workloads.NAMES:
        a, b, c = (tmp_path / name / k for k in "abc")
        for d in (a, b, c):
            d.mkdir(parents=True)
        cmds_a = workloads.make(name, 11, a)
        workloads.make(name, 11, b)
        workloads.make(name, 12, c)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes()
            assert (a / f).read_bytes() != (c / f).read_bytes()
        assert all(cmd.entries >= 0 and cmd.pairs >= 0 for cmd in cmds_a)


def test_tables_round_trip_exactly(tmp_path):
    m = workloads.non_metric(np.random.default_rng(0), 7)
    from fmetric.spaceio import load_space_file
    for suffix in (".json", ".csv"):
        workloads.write_table(tmp_path / f"t{suffix}", m)
        space, _, _ = load_space_file(tmp_path / f"t{suffix}")
        assert np.array_equal(space.dist, m)


def _ref():
    return oracle.D3Reference(workloads.non_metric(np.random.default_rng(2), 20))


def test_min_alpha_check_rejects_a_wrong_value():
    ref = _ref()
    check = workloads.min_alpha_check(ref, structured=True)
    assert check(0, json.dumps({"min_alpha": ref.min_alpha})) is None
    assert check(0, json.dumps({"min_alpha": ref.min_alpha + 1e-6})) is not None
    text = workloads.min_alpha_check(ref, structured=False)
    assert text(0, f"{ref.min_alpha:.10g}\n") is None
    assert text(0, f"{ref.min_alpha * 1.001:.10g}\n") is not None


def test_verify_check_rejects_a_wrong_verdict_or_count():
    ref = _ref()
    alpha = ref.min_alpha / 2
    lo, hi = ref.violation_band(alpha)
    check, ambiguous = workloads.verify_check(ref, alpha, structured=False)
    assert not ambiguous
    head = "D1 identity: pass\nD2 symmetry: pass\nD3 chain inequality: FAIL\n"
    shown = "".join("  (0, 1): lhs=1 rhs=0\n" for _ in range(5))
    assert check(1, head + shown + f"  ... and {lo - 5} more\n") is None
    assert check(1, head + shown + f"  ... and {hi - 4} more\n") is not None
    assert check(0, head + shown + f"  ... and {lo - 5} more\n") is not None
    passing, _ = workloads.verify_check(ref, ref.min_alpha + 1.0, structured=False)
    assert passing(0, "D1 identity: pass\nD2 symmetry: pass\nD3 chain inequality: pass\n") is None


def test_condition_check_rejects_any_field_off():
    want = {"passed": True, "checked": 10, "margin_min": 0.25, "violations": 0}
    check = workloads.condition_check(want)
    doc = {"passed": True, "checked": 10, "margin_min": 0.25, "violations": []}
    assert check(0, json.dumps(doc)) is None
    for key, bad in (("checked", 11), ("margin_min", 0.2500001), ("passed", False)):
        assert check(0, json.dumps({**doc, key: bad})) is not None
    assert check(1, json.dumps(doc)) is not None


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "tables", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n,pct", [(30, 66), (54, 81), (11, 9), (8, 50)])
def test_tail_percentile_keeps_ten_samples_above(n, pct):
    assert run.tail_percentile(n) == pct
    if n > 10:
        samples = list(range(n))
        value = run.nearest_rank(samples, pct)
        assert sum(1 for s in samples if s > value) >= 10

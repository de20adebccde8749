"""The wrappers see every layer call and change nothing fmetric prints."""
from pathlib import Path

import pytest

import fmetric
from fmetric import _kernels, cli, conditions, corpus, fclass, fspace, solver, spaceio
import run
import spans
import workloads

# bindings callers resolve, including the names imported with `from x import y`
BINDINGS = [
    (fspace, "minplus_closure"), (_kernels, "minplus_closure"), (_kernels, "relax_sweep"),
    (cli, "load_space_file"), (spaceio, "load_space_file"),
    (cli, "check_identity_symmetry"), (fspace, "check_identity_symmetry"),
    (cli, "_verify_D3"), (fspace, "verify_D3"), (corpus, "verify_D3"),
    (cli, "min_alpha"), (fspace, "min_alpha"), (corpus, "min_alpha"), (fmetric, "min_alpha"),
    (cli, "_materialize"), (cli, "_emit_json"), (corpus, "build_example"),
    (conditions, "kannan_check"), (conditions, "apply_map"), (solver, "apply_map"),
    (solver, "picard"), (fspace.AnalyticSpace, "d"),
    (fclass.FGenerator, "eval"), (fclass.FGenerator, "__call__"),
    (fclass.AlteringDistance, "eval"), (fclass.AlteringDistance, "__call__"),
]


def _values():
    return [holder.__dict__[attr] for holder, attr in BINDINGS]


def _outputs(commands):
    return [run._call(cli.main, c.argv)[:2] for c in commands]


def test_self_time_subtracts_only_covered_time():
    s = [spans.Span(0, "a", 0, None, 0.0, 10.0),
         spans.Span(1, "b", 0, 0, 1.0, 4.0),
         spans.Span(2, "c", 0, 1, 2.0, 3.0),
         spans.Span(3, "d", 0, 0, 6.0, 7.5)]
    assert spans.self_times(s) == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5}


def test_install_and_remove_keep_output_byte_identical(tmp_path, small_sizes, in_root):
    commands = []
    for name in workloads.NAMES:
        commands += workloads.make(name, 3, tmp_path)
    before_values = _values()
    plain = _outputs(commands)
    tracer = spans.Tracer()
    with tracer.installed():
        patched = _values()
        assert all(p is not b for p, b in zip(patched, before_values))
        traced = _outputs(commands)
    assert _values() == before_values
    assert all(v is b for v, b in zip(_values(), before_values))
    assert traced == plain
    assert _outputs(commands) == plain


# the layers each workload was chosen to load, as the traced run must show them
EXPECTED = {
    "tables": ["spaceio.load_s", "fspace.d1d2_calls", "cli.materialize_s",
               "kernels.closure_s", "kernels.sweeps", "fspace.dist_calls",
               "fspace.verdict_s", "fspace.violations", "fclass.f_evals",
               "reports.emit_s", "reports.stdout_bytes"],
    "pair-checks": ["conditions.check_s", "conditions.pairs", "solver.map_evals",
                    "solver.picard_s", "fclass.phi_evals", "fspace.dist_calls",
                    "corpus.build_calls"],
}


def _traced(commands):
    result = run.run_traced(commands, 0.0, Path.cwd())
    assert result["outputs"].failures == []
    assert result["notes"]["traced_stdout_mismatches"] == []
    return result["metrics"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_named_spans_fire_on_their_workload(name, tmp_path, small_sizes, in_root):
    m = _traced(workloads.make(name, 1, tmp_path))
    for metric in EXPECTED[name]:
        assert m[metric] > 0, metric
    if name == "pair-checks":
        assert m["kernels.closure_calls"] == 0


def test_table_commands_load_the_closure_as_chosen(tmp_path, small_sizes, in_root):
    commands = workloads.make("tables", 1, tmp_path)
    euclidean = _traced([c for c in commands if any("euclidean" in a for a in c.argv)])
    assert euclidean["kernels.closure_calls"] > 0
    assert euclidean["kernels.sweeps"] == euclidean["kernels.closure_calls"]
    collinear = _traced([c for c in commands if any("collinear" in a for a in c.argv)])
    assert collinear["kernels.sweeps"] > 2 * collinear["kernels.closure_calls"]


def test_every_span_name_fires_somewhere(tmp_path, small_sizes, in_root):
    commands = []
    for name in workloads.NAMES:
        commands += workloads.make(name, 2, tmp_path)
    tracer = spans.Tracer()
    for cid, c in enumerate(commands):
        with tracer.installed(), tracer.command_span(cid):
            run._call(cli.main, c.argv)
    fired = {s.name for s in tracer.spans}
    assert fired == set(spans.SPANNED) | {spans.ROOT}
    counted = set().union(*tracer.counts.values())
    assert set(spans.COUNTED) <= counted

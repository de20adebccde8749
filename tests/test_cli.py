import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fmetric
from fmetric.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_min_alpha_rect_b_text(capsys):
    code, out, _ = run(capsys, "min-alpha", "--example", "rect-b", "--n", "10")
    assert code == 0
    assert out == "5.521460918\n"


def test_min_alpha_metric_file_prints_zero(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,c\n0,1,1\n1,0,1\n1,1,0\n")
    code, out, _ = run(capsys, "min-alpha", "--input", str(p), "--f", "ln")
    assert code == 0
    assert out == "0\n"


def test_verify_metric_csv_passes(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,c\n0,1,1\n1,0,1\n1,1,0\n")
    code, out, _ = run(capsys, "verify", "--input", str(p), "--f", "ln", "--alpha", "0")
    assert code == 0
    assert "D1 identity: pass" in out
    assert "D2 symmetry: pass" in out
    assert "D3 chain inequality (f=ln, alpha=0): pass" in out


def test_verify_triangle_breaker_fails_with_pair(capsys, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n0,1,5\n1,0,1\n5,1,0\n")
    code, out, _ = run(capsys, "verify", "--input", str(p), "--f", "ln", "--alpha", "0")
    assert code == 1
    assert "D3 chain inequality (f=ln, alpha=0): FAIL" in out
    assert "(a, c)" in out


def test_verify_asymmetric_fails_d2_and_skips_d3(capsys, tmp_path):
    p = tmp_path / "asym.csv"
    p.write_text("a,b\n0,1\n2,0\n")
    code, out, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    assert code == 1
    assert "D2 symmetry: FAIL" in out
    assert "skipped" in out


def test_verify_needs_alpha(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n0,1\n1,0\n")
    code, _, err = run(capsys, "verify", "--input", str(p))
    assert code == 2
    assert "alpha" in err


def test_verify_file_witness_supplies_alpha(capsys, tmp_path):
    doc = {
        "points": ["a", "b"],
        "matrix": [[0, 1], [1, 0]],
        "witness": {"f": "ln", "alpha": 0.0},
    }
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--input", str(p))
    assert code == 0
    assert "f=ln" in out


def test_verify_malformed_file_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n0,x\n1,0\n")
    code, _, err = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    assert code == 2
    assert "error:" in err and "row 1" in err


def test_verify_unknown_generator_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--example", "rect-b", "--f", "exp", "--alpha", "0")
    assert code == 2
    assert "ln" in err  # the message lists what is registered


def test_verify_analytic_space_without_enumeration_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--example", "interval-halving", "--alpha", "0")
    assert code == 2
    assert "enumeration" in err


def test_solve_interval_converges(capsys):
    code, out, _ = run(capsys, "solve", "--example", "interval-halving", "--x0", "0")
    assert code == 0
    assert "status: converged" in out
    assert "fixed_point: 0.666666667" in out


def test_solve_oscillating_cycle_exit_1(capsys):
    code, out, _ = run(capsys, "solve", "--example", "oscillating-orbit", "--x0", "2")
    assert code == 1
    assert "status: cycle_detected" in out
    assert "cycle: (2, -2)" in out


def test_solve_budget_exhausted(capsys):
    code, out, _ = run(capsys, "solve", "--example", "sequence-space", "--x0", "1", "--max-iter", "5")
    assert code == 1
    assert "status: budget_exhausted" in out
    assert "iterations: 5" in out


def test_solve_fraction_start_snaps_to_carrier(capsys):
    code, out, _ = run(
        capsys, "solve", "--example", "oscillating-orbit", "--x0", "7/3", "--max-iter", "600",
    )
    assert code == 1
    assert "status: cycle_detected" in out


def test_solve_unparseable_x0(capsys):
    code, _, err = run(capsys, "solve", "--example", "interval-halving", "--x0", "two")
    assert code == 2
    assert "cannot parse" in err


def test_solve_x0_outside_carrier(capsys):
    code, _, err = run(capsys, "solve", "--example", "oscillating-orbit", "--x0", "9")
    assert code == 2
    assert "not in the carrier" in err


def test_x0_snaps_to_a_label_within_1e_9(capsys):
    solve = ("solve", "--example", "oscillating-orbit", "--max-iter", "5")
    code, out, _ = run(capsys, *solve, "--x0", "2.0000000009")
    assert code == 1 and "cycle: (2, -2)" in out
    code, _, err = run(capsys, *solve, "--x0", "2.0000000011")
    assert code == 2
    assert err == "error: '2.0000000011' is not in the carrier (nearest point 2.0)\n"


def test_check_edelstein_interval_seeded(capsys):
    code, out, _ = run(
        capsys, "check", "edelstein", "--example", "interval-halving",
        "--phi", "square", "--pairs", "10000", "--seed", "1",
    )
    assert code == 0
    assert "passed: yes" in out
    assert "checked: 10000" in out


def test_check_edelstein_oscillating_flags_swap(capsys):
    code, out, _ = run(
        capsys, "check", "edelstein", "--example", "oscillating-orbit", "--phi", "id", "--pairs", "100",
    )
    assert code == 1
    assert "passed: no" in out
    assert "pair=(2, -2)" in out


def test_check_kannan_sequence_all_pairs(capsys):
    code, out, _ = run(
        capsys, "check", "kannan", "--example", "sequence-space", "--N", "60", "--all-pairs",
    )
    assert code == 0
    assert "checked: 1770" in out


def test_check_orbital_kannan(capsys):
    code, out, _ = run(
        capsys, "check", "orbital-kannan", "--example", "oscillating-orbit", "--x0", "7/3", "--count", "50",
    )
    assert code == 0
    assert "checked: 50" in out


def test_check_shift_vacuous_level_reported(capsys):
    code, out, _ = run(
        capsys, "check", "shift", "--example", "sequence-space",
        "--x0", "1", "--eps-grid", "0.5", "--horizon", "20",
    )
    assert code == 0
    assert "0.5:0" in out
    assert "checked: 0" in out


def test_check_needs_a_map(capsys):
    code, _, err = run(capsys, "check", "edelstein", "--example", "rect-b", "--pairs", "5")
    assert code == 2
    assert "no map" in err


def test_reproduce_text(capsys):
    code, out, _ = run(capsys, "reproduce", "interval-halving")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "expectations hold" in out


def test_reproduce_structured(capsys):
    code, out, _ = run(capsys, "reproduce", "rect-b", "--output", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "reproduce"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_profile_alpha_rows(capsys):
    code, out, _ = run(capsys, "profile-alpha", "--f", "ln", "--from", "2", "--to", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "2 2.302585093"


def test_profile_alpha_single_row(capsys):
    code, out, _ = run(capsys, "profile-alpha", "--from", "2", "--to", "2")
    assert code == 0
    assert out == "2 2.302585093\n"


def test_profile_alpha_bad_range(capsys):
    code, _, err = run(capsys, "profile-alpha", "--from", "5", "--to", "2")
    assert code == 2
    assert err == "error: bad range 5..2 (need 2 <= from <= to)\n"


def test_structured_verify_is_json_and_stable(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b,c\n0,1,1\n1,0,1\n1,1,0\n")
    code, out1, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0", "--output", "structured")
    assert code == 0
    doc = json.loads(out1)
    assert doc["command"] == "verify"
    assert doc["passed"] is True
    assert [a["axiom"] for a in doc["axioms"]] == ["D1", "D2", "D3"]
    _, out2, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0", "--output", "structured")
    assert out1 == out2


def test_structured_check_stable_with_seed(capsys):
    args = (
        "check", "edelstein", "--example", "interval-halving",
        "--phi", "square", "--pairs", "200", "--seed", "9", "--output", "structured",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["checked"] == 200


def test_structured_solve_payload(capsys):
    code, out, _ = run(
        capsys, "solve", "--example", "interval-halving", "--x0", "0", "--output", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert abs(doc["fixed_point"] - 2.0 / 3.0) < 1e-8


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["verify"]) == 2  # neither --input nor --example
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_verify_margin_reaches_the_closure(capsys, tmp_path):
    # asymmetric by 1e-10: --margin 1e-6 accepts D2, and the closure behind
    # D3 must apply the same margin instead of rejecting the table again
    p = tmp_path / "asym.json"
    p.write_text(json.dumps({
        "points": ["a", "b", "c"],
        "matrix": [[0, 1, 1], [1 + 1e-10, 0, 1], [1, 1, 0]],
    }))
    code, out, err = run(
        capsys, "verify", "--input", str(p), "--f", "ln", "--alpha", "0", "--margin", "1e-6",
    )
    assert err == ""
    assert code == 0
    assert "D2 symmetry: pass" in out
    assert "D3 chain inequality (f=ln, alpha=0): pass" in out


def test_check_map_error_names_first_failing_point_in_pair_order(capsys, tmp_path):
    # x -> 2x leaves {0, 1, 2, 3} at 2 and at 3; the grid reaches 2 first
    p = tmp_path / "line.json"
    p.write_text(json.dumps({
        "points": [0, 1, 2, 3],
        "matrix": [[abs(i - j) for j in range(4)] for i in range(4)],
        "map": {"affine": [2, 0]},
    }))
    code, _, err = run(capsys, "check", "edelstein", "--input", str(p), "--pairs", "6")
    assert code == 2
    assert "affine image 4.0 of 2" in err


def test_check_builds_the_example_once_and_uses_its_phi(capsys, monkeypatch):
    from fmetric import corpus

    built = []
    original = corpus.build_example

    def counting(example_id, **params):
        built.append(example_id)
        return original(example_id, **params)

    monkeypatch.setattr(corpus, "build_example", counting)
    code, out, _ = run(
        capsys, "check", "edelstein", "--example", "interval-halving", "--pairs", "10",
        "--output", "structured",
    )
    assert code == 0
    assert json.loads(out)["condition"] == "edelstein(square)"
    assert built == ["interval-halving"]


def test_materialize_matches_scalar_distances_bitwise():
    import numpy as np

    from fmetric import sequence_space
    from fmetric.cli import _materialize

    space = sequence_space(N=40).space
    pts = space.points()
    want = np.array([[space.d(x, y) for y in pts] for x in pts])
    got = _materialize(space)
    assert got.labels == pts
    assert got.dist.tobytes() == want.tobytes()


def test_check_orbital_kannan_on_sequence_space_past_int64(capsys):
    # the orbit of T(i) = 3i from 1 leaves the int64 range at step 40; the
    # report still covers all 200 pairs (167 of them float ties)
    code, out, err = run(capsys, "check", "orbital-kannan", "--example", "sequence-space", "--x0", "1")
    assert (code, err) == (1, "")
    assert "checked: 200" in out
    assert "... and 162 more" in out


@pytest.mark.parametrize("margin", ["0", "1e-9"])
def test_verify_checks_identity_symmetry_once(capsys, monkeypatch, margin):
    from fmetric import cli, fspace

    calls = []
    original = fspace.check_identity_symmetry

    def counting(space, margin=0.0):
        calls.append(margin)
        return original(space, margin)

    monkeypatch.setattr(fspace, "check_identity_symmetry", counting)
    monkeypatch.setattr(cli, "check_identity_symmetry", counting)
    # the orbit's D3 violations are ulp-sized, so the margin clears them
    code, out, _ = run(
        capsys, "verify", "--example", "oscillating-orbit", "--depth", "30",
        "--alpha", "0", "--margin", margin,
    )
    assert code == (1 if margin == "0" else 0)
    assert "D3 chain inequality" in out
    assert calls == [float(margin)]


def test_verify_integer_too_large_for_a_float_exit_2(capsys, tmp_path):
    p = tmp_path / "big.json"
    p.write_text('{"points": [0, 1], "matrix": [[0, %d], [1, 0]]}' % 10 ** 400)
    code, out, err = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    assert code == 2 and out == ""
    assert err == f"error: {p}: matrix entry (0, 1) is an integer too large for a float\n"


def _expected_listing(reports, f_name, alpha) -> str:
    from fmetric.cli import _fmt

    names = {"D1": "identity", "D2": "symmetry", "D3": "chain inequality"}
    lines = []
    for r in reports:
        extra = f" (f={f_name}, alpha={_fmt(alpha)})" if r.axiom == "D3" else ""
        lines.append(f"{r.axiom} {names[r.axiom]}{extra}: FAIL")
        viol = r.violations.records()
        assert len(viol) > 5
        lines += [f"  {_fmt(v['pair'])}: lhs={_fmt(v['lhs'])} rhs={_fmt(v['rhs'])}" for v in viol[:5]]
        lines.append(f"  ... and {len(viol) - 5} more")
    return "\n".join(lines) + "\n"


def test_verify_text_lists_the_first_five_violations_and_counts_the_rest(capsys, tmp_path):
    import numpy as np

    from fmetric import FiniteSpace, Witness, check_identity_symmetry, lookup_function, random_fspace, verify_D3

    labels = [f"p{k}" for k in range(8)]
    broken = np.random.default_rng(4).uniform(-0.5, 1.0, (8, 8))  # fails D1 and D2 everywhere
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"points": labels, "matrix": broken.tolist()}))
    code, out, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    want = _expected_listing(check_identity_symmetry(FiniteSpace(tuple(labels), broken)), "ln", 0.0)
    assert code == 1
    assert out == want + "D3 chain inequality: skipped (identity or symmetry failed)\n"

    ln = lookup_function("ln", "generator")
    table = random_fspace(7, 30, ln)[0].dist
    p = tmp_path / "non_metric.json"
    p.write_text(json.dumps({"points": list(range(30)), "matrix": table.tolist()}))
    code, out, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    d3 = verify_D3(FiniteSpace(tuple(range(30)), table), Witness(ln, 0.0))
    assert code == 1
    assert out == "D1 identity: pass\nD2 symmetry: pass\n" + _expected_listing([d3], "ln", 0.0)


@pytest.mark.parametrize("argv", [
    ["solve", "--example", "sequence-space", "--x0", "1"],
    ["check", "orbital-kannan", "--example", "sequence-space", "--x0", "1", "--count", "700"],
    ["check", "shift", "--example", "sequence-space", "--x0", "1", "--horizon", "700"],
], ids=["solve", "orbital-kannan", "shift"])
def test_distance_beyond_the_float_range_exit_2(capsys, argv):
    # the orbit 3**k of T(i) = 3i passes the float range near step 646, where
    # the distance rule's 1.0 / i overflows
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: distance beyond the float range: int too large to convert to float\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "rect-b", "--N", "50", "--alpha", "0"],
    ["min-alpha", "--example", "rect-b", "--n", "10", "--depth", "3"],
    ["min-alpha", "--example", "sequence-space", "--depth", "3"],
    ["check", "kannan", "--example", "oscillating-orbit", "--N", "5", "--all-pairs"],
    ["solve", "--example", "interval-halving", "--x0", "0", "--n", "3"],
], ids=["rect-b", "rect-b-two-sizes", "sequence-space", "oscillating-orbit", "interval-halving"])
def test_a_size_flag_of_another_example_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: example '{argv[argv.index('--example') + 1]}' takes no parameter")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--n", "--depth", "--N"])
def test_a_size_flag_with_input_exit_2(capsys, tmp_path, flag):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n0,1\n1,0\n")
    code, out, err = run(capsys, "min-alpha", "--input", str(p), flag, "5")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} sizes a bundled example, not an --input file\n"


@pytest.mark.filterwarnings("error")  # numpy's overflow and nan warnings would raise here
def test_min_alpha_and_verify_agree_on_a_nan_slack(capsys, tmp_path):
    # neg_inv(5e-324) overflows to -inf on both sides of (a, c), a nan
    # slack; (a, b) has slack inf through the chain a-c-b, so no finite
    # alpha passes, and an infinite one is not a witness constant
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({"points": ["a", "b", "c"],
                             "matrix": [[0, 1, 5e-324], [1, 0, 5e-324], [5e-324, 5e-324, 0]]}))
    assert run(capsys, "min-alpha", "--input", str(p), "--f", "neg_inv") == (0, "inf\n", "")
    verify = ("verify", "--input", str(p), "--f", "neg_inv", "--alpha")
    assert run(capsys, *verify, "inf")[:2] == (2, "")
    code, out, err = run(capsys, *verify, "1e308")
    assert (code, err) == (1, "")
    assert "(a, b): lhs=-1 rhs=-inf" in out


def test_min_alpha_takes_its_generator_as_verify_does(capsys, tmp_path):
    # --f, else the input's witness generator, else ln
    p = tmp_path / "w.json"
    p.write_text('{"points": ["a", "b", "c"], "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],'
                 ' "witness": {"f": "neg_inv", "alpha": 0.6}}')
    assert run(capsys, "min-alpha", "--input", str(p))[:2] == (0, "0.3\n")
    assert run(capsys, "verify", "--input", str(p))[:2] == (
        0, "D1 identity: pass\nD2 symmetry: pass\nD3 chain inequality (f=neg_inv, alpha=0.6): pass\n")
    assert run(capsys, "min-alpha", "--input", str(p), "--f", "ln")[:2] == (0, "0.9162907319\n")
    no_witness = tmp_path / "m.csv"
    # the same table with quoted cells, which are read one by one, not in bulk
    for text in ("a,b,c\n0,1,5\n1,0,1\n5,1,0\n", '"a","b","c"\n0,"1",5\n1,0,"1"\n5,1,0\n'):
        no_witness.write_text(text)
        assert run(capsys, "min-alpha", "--input", str(no_witness))[:2] == (0, "0.9162907319\n")


def _readme_examples():
    """One param per `$ fmetric` line in README's fenced blocks: the
    command and the lines shown under it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", text, flags=re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.strip().split("\n")
            examples.append(pytest.param(command, shown, id=command))
    return examples


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_readme_examples_print_what_readme_shows(capsys, monkeypatch, command, shown):
    # lines before a "..." line open the output, lines after it close it;
    # input paths are relative to the repository root, as README shows them
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code, out, _ = run(capsys, *command.split()[1:])
    assert code in (0, 1)
    lines = out.splitlines()
    if "..." in shown:
        k = shown.index("...")
        head, tail = shown[:k], shown[k + 1:]
        assert len(lines) > len(head) + len(tail)
        assert lines[:k] == head and lines[len(lines) - len(tail):] == tail
    elif shown:
        assert lines == shown


def test_readme_python_api_block_prints_what_its_comment_shows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    *body, last = block.rstrip("\n").split("\n")
    expr, shown = last.split("  # ")
    scope = {}
    exec("\n".join(body), scope)
    assert repr(eval(expr, scope)) == shown


def test_star_import_binds_every_public_name_and_no_module():
    scope = {}
    exec("from fmetric import *", scope)
    del scope["__builtins__"]
    assert not [name for name, value in scope.items() if isinstance(value, ModuleType)]
    assert {"random_pairs", "shift_condition_check"} <= scope.keys()
    public = {n for n, v in vars(fmetric).items() if not (n.startswith("_") or isinstance(v, ModuleType))}
    assert scope.keys() == public
    assert fmetric.__all__ == sorted(set(fmetric.__all__))
    # every function and class that README's Python API section names
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    named = {word for word in re.findall(r"\w+", section) if callable(getattr(fmetric, word, None))}
    assert {"verify_D3", "shift_condition_check", "hausdorff_witness", "VerificationReport"} <= named
    assert named <= scope.keys()


@pytest.mark.parametrize("matrix, message", [
    ([[0, 1, 2], [2, 0, 1], [2, 1, 0]], "axiom D2 fails, first violation ((0, 1), 1.0, 2.0)"),
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "axiom D1 fails, first violation ((0, 1), 0.0, 0.0)"),
])
def test_min_alpha_refuses_a_table_that_breaks_D1_or_D2(capsys, tmp_path, matrix, message):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"points": [0, 1, 2], "matrix": matrix}))
    assert run(capsys, "min-alpha", "--input", str(p)) == (2, "", f"error: {message}\n")


def test_solve_never_lands_on_a_nan_label(capsys, tmp_path):
    # a nan label compares false with everything, so it must not win the snap of x0
    p = tmp_path / "nan.json"
    p.write_text('{"points": [NaN, 1, 2], "matrix": [[0,1,2],[1,0,1],[2,1,0]], "map": {"affine": [1, 0]}}')
    code, out, _ = run(capsys, "solve", "--x0", "1", "--input", str(p))
    assert code == 0
    assert out == "status: converged\niterations: 1\nfixed_point: 1\nresidual: 0\n"


@pytest.mark.parametrize("margin", ["nan", "-1", "inf"])
def test_verify_margin_below_zero_or_nan_exit_2(capsys, tmp_path, margin):
    # D2 fails on this table without a margin; a nan margin used to pass every
    # axiom, and an infinite one failed every off-diagonal pair of D1
    p = tmp_path / "t.csv"
    p.write_text("0,1,2\n0,5,1\n1,0,1\n2,1,7\n")
    assert run(capsys, "verify", "--input", str(p), "--alpha", "0")[0] == 1
    code, out, err = run(capsys, "verify", "--input", str(p), "--alpha", "0", "--margin", margin)
    assert (code, out) == (2, "")
    assert err.startswith("error: margin must be >= 0") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "file"])
def test_verify_infinite_alpha_exit_2(capsys, tmp_path, source):
    # alpha = inf passed every D3 comparison; --alpha 1 fails rect-b
    if source == "flag":
        argv = ["--example", "rect-b", "--alpha", "inf"]
    else:
        p = tmp_path / "w.json"
        p.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], "witness": {"f": "ln", "alpha": 1e400}}')
        argv = ["--input", str(p)]
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    where = f"{p}: witness " if source == "file" else ""
    assert err == f"error: {where}alpha must be finite and >= 0, got inf\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_solve_tol_must_be_positive_and_finite(capsys, tol):
    # nan ran the whole budget and inf "converged" at 1.0 with residual 0.5
    code, out, err = run(capsys, "solve", "--example", "interval-halving", "--x0", "0", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: tol must be positive and finite, got {float(tol)}\n"


def test_solve_coarse_tol(capsys):
    code, out, _ = run(capsys, "solve", "--example", "interval-halving", "--x0", "0", "--tol", "1e-3")
    assert code == 0
    assert out.startswith("status: converged\niterations: 11\nfixed_point: 0.6669921875\n")


def test_check_all_pairs_needs_two_points(capsys, tmp_path):
    p = tmp_path / "one.json"
    p.write_text('{"points": [1], "matrix": [[0]], "map": {"affine": [1, 0]}}')
    for extra in ([], ["--all-pairs"]):
        code, out, err = run(capsys, "check", "kannan", "--input", str(p), *extra)
        assert (code, out) == (2, "")
        assert err == "error: need at least two carrier points to form pairs\n"
    code, _, err = run(capsys, "check", "kannan", "--example", "interval-halving", "--all-pairs")
    assert (code, err) == (2, "error: this space has no finite enumeration\n")


@pytest.mark.parametrize("scale, triggers, checked", [(None, 1129, 3627), ("0.5", 1127, 3625)])
def test_check_shift_delta_scale(capsys, scale, triggers, checked):
    argv = ["check", "shift", "--example", "interval-halving"]
    code, out, _ = run(capsys, *argv, *(["--delta-scale", scale] if scale else []))
    assert code == 0
    assert f"0.01:{triggers}\n" in out and f"checked: {checked}\n" in out


def test_check_shift_zero_delta_scale_exit_2(capsys):
    code, out, err = run(capsys, "check", "shift", "--example", "interval-halving", "--delta-scale", "0")
    assert (code, out) == (2, "")
    assert err == "error: delta_rule(0.5) = 0.0, must be positive and finite\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--eps-grid", "inf", "eps levels must be positive and finite, got inf"),
    ("--delta-scale", "inf", "delta_rule(0.5) = inf, must be positive and finite"),
], ids=["eps", "delta"])
def test_check_shift_infinite_level_or_delta_exit_2(capsys, flag, value, message):
    # an infinite level passed with margin_min inf; an infinite delta triggered every pair
    code, out, err = run(capsys, "check", "shift", "--example", "interval-halving", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _negative_line_file(tmp_path, affine):
    """Points 0..4 at distance |i - j|, except d(0, 1) = -0.5 and d(2, 3) = -3."""
    m = [[abs(i - j) for j in range(5)] for i in range(5)]
    m[0][1] = m[1][0] = -0.5
    m[2][3] = m[3][2] = -3
    p = tmp_path / "negative.json"
    p.write_text(json.dumps({"points": list(range(5)), "matrix": m, "map": {"affine": affine}}))
    return str(p)


def test_check_map_error_comes_before_a_negative_distance(capsys, tmp_path):
    # x -> x + 1 leaves the carrier at 4; the first pair, (0, 1), is at distance -0.5
    p = _negative_line_file(tmp_path, [1, 1])
    code, out, err = run(capsys, "check", "edelstein", "--input", p, "--all-pairs")
    assert (code, out) == (2, "")
    assert err == "error: affine image 5.0 of 4 is not in the carrier (nearest label 4 is 1 away)\n"
    code, out, err = run(capsys, "check", "edelstein", "--input", _negative_line_file(tmp_path, [-1, 4]),
                         "--all-pairs")
    assert (code, out) == (2, "")
    assert err in ("error: id is defined on t >= 0, got -0.5\n", "error: id is defined on t >= 0, got -3.0\n")


@pytest.mark.parametrize("extra", [[], ["--alpha", "1"]])
def test_verify_witness_alpha_too_large_for_a_float_exit_2(capsys, tmp_path, extra):
    # a 401-digit alpha ended in an OverflowError traceback, also under --alpha 1
    p = tmp_path / "w.json"
    p.write_text('{"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], '
                 '"witness": {"f": "ln", "alpha": 1' + "0" * 400 + "}}")
    code, out, err = run(capsys, "verify", "--input", str(p), *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {p}: witness alpha is an integer too large for a float\n"


def test_unknown_function_name_prints_without_quotes(capsys, tmp_path):
    # id fails (F2), so it is no generator either; a file's list is no name at all
    for name in ("foo", "id", ["ln"]):
        message = f"no generator named {name!r}; registered: ['ln', 'neg_inv']"
        if isinstance(name, str):
            assert run(capsys, "min-alpha", "--example", "rect-b", "--f", name) == (2, "", f"error: {message}\n")
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"points": ["a", "b"], "matrix": [[0, 1], [1, 0]],
                                 "witness": {"f": name, "alpha": 1}}))
        assert run(capsys, "verify", "--input", str(p)) == (2, "", f"error: {p}: {message}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "rect-b", "--f", "id", "--alpha", "20"],
    ["profile-alpha", "--f", "id", "--from", "2", "--to", "3"],
], ids=["verify", "profile-alpha"])
def test_id_is_no_generator(capsys, argv):
    # id fails (F2), yet verify printed "D3 ... pass" with it
    message = "error: no generator named 'id'; registered: ['ln', 'neg_inv']\n"
    assert run(capsys, *argv) == (2, "", message)


_CHECK_FLAGS = {
    "edelstein": ("--pairs", "--seed", "--all-pairs"),
    "kannan": ("--pairs", "--seed", "--all-pairs"),
    "orbital-kannan": ("--x0", "--count"),
    "shift": ("--x0", "--eps-grid", "--delta-scale", "--horizon"),
}
_FLAG_ARGV = {"--pairs": ["--pairs", "5"], "--seed": ["--seed", "3"], "--all-pairs": ["--all-pairs"],
              "--x0": ["--x0", "1"], "--count": ["--count", "5"], "--eps-grid": ["--eps-grid", "0.5"],
              "--delta-scale": ["--delta-scale", "1"], "--horizon": ["--horizon", "9"]}
_REJECTED = [
    # the 20 (condition, flag) settings no condition reads
    *((c, _FLAG_ARGV[f]) for c in _CHECK_FLAGS for f in _FLAG_ARGV if f not in _CHECK_FLAGS[c]),
    # --all-pairs samples every pair, so it takes no sample size or seed
    *((c, ["--all-pairs", *_FLAG_ARGV[f]]) for c in ("edelstein", "kannan") for f in ("--pairs", "--seed")),
]


@pytest.mark.parametrize("condition, extra", _REJECTED,
                         ids=[c + "".join(a for a in e if a.startswith("--")) for c, e in _REJECTED])
def test_check_rejects_a_flag_its_condition_does_not_read(capsys, condition, extra):
    # on sequence-space every condition runs from x0 = 1, so the flag alone makes the error
    start = ["--x0", "1"] if "--x0" in _CHECK_FLAGS[condition] else []
    code, out, err = run(capsys, "check", condition, "--example", "sequence-space", "--N", "30", *start, *extra)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "error: " in err


def test_seed_with_all_pairs_is_a_usage_error_before_the_input_loads(capsys, tmp_path):
    # it was reported only after the input loaded, so a missing file printed "cannot read ..."
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "check", "kannan", "--input", missing, "--all-pairs", "--seed", "3")
    assert (code, out) == (2, "")
    assert err.startswith("usage: fmetric check kannan ")
    assert err.endswith("fmetric check kannan: error: argument --seed: not allowed with argument --all-pairs\n")


@pytest.mark.parametrize("condition", list(_CHECK_FLAGS))
def test_check_help_lists_only_its_conditions_flags(capsys, condition):
    assert main(["check", condition, "--help"]) == 0
    listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert set(listed) & set(_FLAG_ARGV) == set(_CHECK_FLAGS[condition])


def test_check_options_follow_the_condition_name(capsys):
    code, out, err = run(capsys, "check", "--example", "interval-halving", "kannan", "--pairs", "5")
    assert (code, out) == (2, "")
    assert "invalid choice: 'interval-halving'" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--example", "interval-halving", "--x0", "1e400"],
    ["check", "orbital-kannan", "--example", "interval-halving", "--x0", "1e400"],
], ids=["solve", "orbital-kannan"])
def test_x0_beyond_the_float_range_exit_2(capsys, argv):
    # float(Fraction("1e400")) ended in an OverflowError traceback with exit 1
    assert run(capsys, *argv) == (2, "", "error: point '1e400' is beyond the float range\n")


def test_check_shift_bad_eps_grid_names_the_flag(capsys):
    code, out, err = run(capsys, "check", "shift", "--example", "interval-halving", "--eps-grid", "0.5,a")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --eps-grid: could not convert string to float: 'a'\n")
    code, out, err = run(capsys, "check", "shift", "--example", "interval-halving", "--eps-grid", "")
    assert (code, out, err) == (2, "", "error: eps_grid must be non-empty\n")


@pytest.mark.parametrize("argv, leaf, unread", [
    (["check", "kannan", "--example", "interval-halving", "--count", "5"], "check kannan", "--count 5"),
    (["verify", "--example", "rect-b", "--bogus"], "verify", "--bogus"),
], ids=["check-kannan", "verify"])
def test_an_unread_flag_is_reported_with_the_invoked_commands_usage(capsys, argv, leaf, unread):
    # the top-level parser reported it with its own usage line
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: fmetric {leaf} [-h]")
    assert err.endswith(f"fmetric {leaf}: error: unrecognized arguments: {unread}\n")


@pytest.mark.parametrize("coeffs, name", [("[1%s, 0]", "a"), ("[1, -1%s]", "b")], ids=["a", "b"])
def test_affine_coefficient_too_large_for_a_float_exit_2(capsys, tmp_path, coeffs, name):
    # float() of a 401-digit coefficient ended in an OverflowError traceback with exit 1
    p = tmp_path / "a.json"
    p.write_text('{"points": [0, 1], "matrix": [[0, 1], [1, 0]], "map": {"affine": %s}}' % coeffs % ("0" * 400))
    assert run(capsys, "check", "kannan", "--input", str(p)) == (
        2, "", f'error: {p}: map "affine" coefficient {name} is an integer too large for a float\n')


def _discrete_space_file(tmp_path, points, map_entry):
    p = tmp_path / "s.json"
    n = len(points)
    p.write_text(json.dumps({"points": points, "matrix": [[int(i != j) for j in range(n)] for i in range(n)],
                             "map": map_entry}))
    return str(p)


def test_x0_names_a_string_label(capsys, tmp_path):
    # "a" is a carrier label, so it is the start point; the affine map is undefined there
    p = _discrete_space_file(tmp_path, ["a", 0, 1], {"affine": [0, 1]})
    assert run(capsys, "solve", "--input", p, "--x0", "a") == (
        2, "", "error: affine map is undefined at non-numeric point 'a'\n")
    code, out, _ = run(capsys, "solve", "--input", p, "--x0", "0")
    assert code == 0 and "fixed_point: 1" in out


def test_numeric_x0_on_a_carrier_without_numeric_labels(capsys, tmp_path):
    p = _discrete_space_file(tmp_path, ["a", "b"], "oscillating-orbit")
    assert run(capsys, "solve", "--input", p, "--x0", "7") == (
        2, "", "error: carrier has no numeric points to match '7'\n")


def test_fractional_x0_on_sequence_space(capsys):
    assert run(capsys, "solve", "--example", "sequence-space", "--x0", "1.5") == (
        2, "", "error: points of this space are integers, got '1.5'\n")


def test_solve_needs_a_map(capsys):
    assert run(capsys, "solve", "--example", "rect-b", "--x0", "0") == (
        2, "", "error: rect-b carries no map; solve needs one\n")


def _huge_label_file(tmp_path, map_entry) -> str:
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({
        "points": [10 ** 400, 1, 3],
        "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "map": map_entry,
    }))
    return str(p)


def test_solve_on_a_label_past_the_float_range_is_an_input_error(capsys, tmp_path):
    # 1 -> 3 -> 9 leaves the carrier; the 401-digit label matches no number
    code, _, err = run(capsys, "solve", "--input", _huge_label_file(tmp_path, "sequence-space"), "--x0", "1")
    assert code == 2
    assert err == "error: map sends 3 to 9, outside the carrier\n"


def test_affine_map_loads_beside_a_label_past_the_float_range(capsys, tmp_path):
    p = _huge_label_file(tmp_path, {"affine": [1, 0]})
    code, out, _ = run(capsys, "verify", "--input", p, "--alpha", "0")
    assert code == 0
    assert "D3 chain inequality (f=ln, alpha=0): pass" in out


def test_affine_nan_image_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "nan-image.json"
    p.write_text('{"points": [0, Infinity, 5], "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], '
                 '"map": {"affine": [0, 5]}}')
    code, out, err = run(capsys, "check", "kannan", "--input", str(p), "--all-pairs")
    assert code == 2
    assert out == ""
    assert err.startswith("error: affine image nan of inf is not in the carrier")
    assert err.count("\n") == 1


def test_verify_reads_a_json_file_behind_a_byte_order_mark(capsys, tmp_path):
    p = tmp_path / "bom.json"
    p.write_bytes(b'\xef\xbb\xbf{"points": [0, 1], "matrix": [[0, 1], [1, 0]]}')
    code, out, _ = run(capsys, "verify", "--input", str(p), "--alpha", "0")
    assert code == 0
    assert "D3 chain inequality (f=ln, alpha=0): pass" in out


def test_a_csv_cell_past_the_csv_field_limit_exit_2(capsys, tmp_path):
    p = tmp_path / "huge-field.csv"
    p.write_text('a,b\n0,"' + "0" * 200_000 + '"\n1,0\n')
    assert run(capsys, "verify", "--input", str(p)) == (
        2, "", f"error: {p}: row 1: field larger than field limit (131072)\n")


def _closed_after_one_byte(*argv):
    """The first byte the module entry point writes, then its exit code and
    stderr once the reader has closed stdout after reading that byte."""
    src = str(Path(fmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-m", "fmetric.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
        return first, proc.wait(timeout=60), err


def test_a_closed_stdout_exits_141_with_nothing_on_stderr():
    # 173 KB of output outgrows the 64 KiB pipe buffer, so the write after
    # the reader has gone raises BrokenPipeError
    assert _closed_after_one_byte(
        "verify", "--example", "oscillating-orbit", "--depth", "30", "--alpha", "0", "--output", "structured",
    ) == (b"{", 141, b"")


def test_a_closed_stdout_in_text_mode_exits_141_with_nothing_on_stderr():
    # 75 KB of text lines, which main writes after the command has returned
    assert _closed_after_one_byte("profile-alpha", "--from", "2", "--to", "4500") == (b"2", 141, b"")


def _python(*args):
    """A fresh interpreter run with args, fmetric imported from where this
    process imports it."""
    src = str(Path(fmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["verify", "--example", "oscillating-orbit", "--depth", "30", "--alpha", "0",
      "--output", "structured"], 1),
    (["verify", "--example", "rect-b", "--margin", "inf"], 2),
])
def test_the_module_entry_point_prints_what_main_prints(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal, and a pipe has none
    proc = _python("-m", "fmetric.cli", *argv)
    assert run(capsys, *argv) == (code, proc.stdout.decode(), proc.stderr.decode())
    assert proc.returncode == code
    if code == 2:
        assert proc.stderr.count(b"\n") == 1


def test_run_freezes_the_collector_before_it_returns():
    proc = _python("-c", "import gc; from fmetric import cli; cli.run(['--help']); "
                         "print(gc.get_freeze_count() > 0)")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[-1] == "True"


def test_a_structured_verify_with_violations_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, which nothing else in a command needs
    proc = _python("-c", "import contextlib, io, sys; from fmetric import cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    code = cli.main(['verify', '--example', 'oscillating-orbit', '--depth', '30',"
                         " '--alpha', '0', '--output', 'structured'])\n"
                         "print(code, 'numpy.ma' in sys.modules)")
    assert proc.stdout.decode() == "1 False\n"


@pytest.mark.parametrize(
    "refusal, reason",
    [
        pytest.param(
            MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)"),
            "Unable to allocate 298. GiB for an array with shape (200000, 200000)",
            id="numpy",
        ),
        # Python's own refusal, as for a carrier tuple, has no message
        pytest.param(MemoryError(), "out of memory", id="bare"),
    ],
)
def test_a_table_too_large_for_memory_is_an_input_error(capsys, monkeypatch, refusal, reason):
    # the table's allocation fails as numpy's would, without asking for the memory
    from fmetric import cli

    def refuse(space, rows, cols=None):
        raise refusal

    monkeypatch.setattr(cli, "distance_table", refuse)
    code, out, err = run(capsys, "verify", "--example", "sequence-space", "--N", "200000", "--alpha", "0")
    assert (code, out) == (2, "")
    assert err == f"error: {reason}\n"

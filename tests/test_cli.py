import json

import pytest

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
    assert err == "error: matrix entry (0, 1) is an integer too large for a float\n"


def _expected_listing(reports, f_name, alpha) -> str:
    from fmetric.cli import _fmt

    names = {"D1": "identity", "D2": "symmetry", "D3": "chain inequality"}
    lines = []
    for r in reports:
        extra = f" (f={f_name}, alpha={_fmt(alpha)})" if r.axiom == "D3" else ""
        lines.append(f"{r.axiom} {names[r.axiom]}{extra}: FAIL")
        viol = r.violations
        assert len(viol) > 5
        lines += [f"  {_fmt(pair)}: lhs={_fmt(lhs)} rhs={_fmt(rhs)}" for pair, lhs, rhs in viol[:5]]
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_min_alpha_and_verify_agree_on_a_nan_slack(capsys, tmp_path):
    # neg_inv(5e-324) overflows to -inf on both sides of (a, c), a nan
    # slack; (a, b) has slack inf through the chain a-c-b
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({"points": ["a", "b", "c"],
                             "matrix": [[0, 1, 5e-324], [1, 0, 5e-324], [5e-324, 5e-324, 0]]}))
    assert run(capsys, "min-alpha", "--input", str(p), "--f", "neg_inv")[:2] == (0, "inf\n")
    verify = ("verify", "--input", str(p), "--f", "neg_inv", "--alpha")
    assert run(capsys, *verify, "inf")[0] == 0
    code, out, _ = run(capsys, *verify, "1e308")
    assert code == 1
    assert "(a, b): lhs=-1 rhs=-inf" in out

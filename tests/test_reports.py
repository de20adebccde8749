import json

import numpy as np
import pytest

from fmetric import cli
from fmetric.reports import ConditionReport, PropertyReport, SolveReport, Violations, _jsonable, dumps


def reference(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2)


def _object_holding(value):
    a = np.empty((), dtype=object)
    a[()] = value
    return a


def _violations(pairs, values):
    return [{"pair": list(p), "lhs": a, "rhs": b} for p, (a, b) in zip(pairs, values)]


ADVERSARIAL = {
    "labels": _violations(
        [('a"b', "c\\d"), ("%s%%", "é∑ "), ("tab\there", "new\nline"), ("", "\x00")],
        [(1.0, 2.0)] * 4,
    ),
    "special floats": _violations(
        [(0, 1)] * 6,
        [(-0.0, 5e-324), (1e16, 1e-7), (1e22, -1e300), (0.1, 2.0 ** 60), (123456789.0, 1.5e-310),
         (float("inf"), float("nan"))],
    ),
    "finite floats only": _violations([(i, i + 1) for i in range(5)],
                                      [(-0.0, 5e-324), (1e16, 1.0), (0.5, 3.0), (7.0, 8.0), (9.0, 1e-5)]),
    "non-finite columns": [{"v": float("-inf")}, {"v": 1.0}, {"v": float("nan")}, {"v": float("inf")}],
    "numpy scalars": _violations(
        [(np.int64(1), np.int32(2)), (np.str_("x"), 3)],
        [(np.float64(1.5), np.float32(0.1)), (np.float64("nan"), np.float32("inf"))],
    ) + [{"pair": [np.bool_(True), np.uint8(7)], "lhs": np.array(2.5), "rhs": np.float16(1)}],
    "bools and ints": [{"a": 1, "b": True}, {"a": True, "b": 0}, {"a": 0, "b": False}, {"a": None, "b": 2}],
    "big ints": [{"a": 10 ** 30, "b": -5}, {"a": -(2 ** 64), "b": 0}],
    "differing key order": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "differing list lengths": [{"p": [1, 2], "x": 0}, {"p": [1], "x": 0}],
    "list and scalar in one key": [{"p": [1], "x": 0}, {"p": 1, "x": 0}],
    "tuple slots": [{"p": (1, 2)}, {"p": [3, 4]}, {"p": (5, 6)}],
    "empty list slots": [{"p": [], "x": 1}, {"p": [], "x": 2}],
    "empty records": [{}, {}],
    "only empty slots": [{"p": []}, {"p": []}],
    "nested slot values": [{"a": {"x": 1, "y": [1, 2]}, "b": [[1], {}]},
                           {"a": {}, "b": [[2, 3], {"z": None}]}],
    "list of lists": [[1, 2], [3, 4], []],
    "one record": [{"pair": [1, 2], "lhs": 0.5, "rhs": 0.25}],
    "percent keys": [{"k%s": 1, 'q"%%': "%d", "é": 2}, {"k%s": 3, 'q"%%': "%", "é": 4}],
    "non-str keys": {1: "a", None: 2, 1.5: 3, True: 4, (1, 2): 5, np.int64(6): 6, np.float32(0.1): 7},
    "keys equal after str": {1: "a", "1": "b", "2": "c"},
    "non-str record keys": [{1: "a"}, {1: "b"}],
    "mixed key types equal": [{1: "a"}, {True: "b"}],
    "empties": {"a": [], "b": {}, "c": [[], {}, ()], "d": [[[]]]},
    "item returns a container": {"x": _object_holding({"k": [1, 2.5, float("inf")], 2: (3,)}),
                                 "y": [_object_holding([[]]), _object_holding(float("nan"))]},
    "top-level scalar": 1.5,
    "top-level string": "a\"%",
    "top-level nan": float("nan"),
    "numpy array of one": {"a": np.array([4.0])},
}


@pytest.mark.parametrize("doc", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_dumps_matches_json_dumps_of_jsonable(doc):
    assert dumps(doc) == reference(doc)
    assert dumps({"nested": [doc, {"deeper": [doc]}]}) == reference({"nested": [doc, {"deeper": [doc]}]})


UNSERIALIZABLE = {
    "object": {"x": object()},
    "object in a column": [{"a": 1}, {"a": object()}],
    "bytes": [{"a": b"x"}, {"a": b"y"}],
    "set": {"s": {1, 2}},
    "array": [{"a": np.arange(3)}, {"a": np.arange(3)}],
}


@pytest.mark.parametrize("doc", UNSERIALIZABLE.values(), ids=UNSERIALIZABLE.keys())
def test_dumps_raises_what_json_dumps_raises(doc):
    with pytest.raises(Exception) as want:
        reference(doc)
    with pytest.raises(want.type) as got:
        dumps(doc)
    assert str(got.value) == str(want.value)


# each subcommand's structured run and its exit code
SUBCOMMANDS = [
    (["verify", "--example", "rect-b", "--n", "8", "--alpha", "1"], 1),
    (["verify", "--example", "oscillating-orbit", "--depth", "20", "--alpha", "0"], 1),
    (["min-alpha", "--example", "rect-b", "--n", "12"], 0),
    (["solve", "--example", "oscillating-orbit", "--x0", "2"], 1),
    (["solve", "--example", "interval-halving", "--x0", "0"], 0),
    (["check", "kannan", "--example", "oscillating-orbit", "--depth", "20", "--all-pairs"], 1),
    (["check", "shift", "--example", "interval-halving", "--x0", "1/3"], 0),
    (["check", "shift", "--example", "sequence-space", "--x0", "1", "--eps-grid", "0.5,0.75,1.0",
      "--horizon", "20"], 1),
    (["check", "edelstein", "--example", "interval-halving", "--pairs", "300", "--seed", "4"], 0),
    (["check", "orbital-kannan", "--example", "sequence-space", "--x0", "1"], 1),
    (["reproduce", "oscillating-orbit"], 0),
    (["profile-alpha", "--from", "2", "--to", "9"], 0),
]


@pytest.mark.parametrize("argv, code", SUBCOMMANDS, ids=[" ".join(a[:4]) for a, _ in SUBCOMMANDS])
def test_structured_documents_of_every_subcommand(argv, code, capsys, monkeypatch):
    docs = []

    def checked_dumps(doc):
        docs.append(doc)
        return reference(doc)

    monkeypatch.setattr(cli, "dumps", checked_dumps)
    assert cli.main([*argv, "--output", "structured"]) == code
    assert len(docs) == 1
    assert list(docs[0])[:2] == ["command", "passed"]
    assert (docs[0]["command"], docs[0]["passed"]) == (argv[0], code == 0)
    out = capsys.readouterr().out
    assert dumps(docs[0]) == out.rstrip("\n")
    if argv[:2] == ["check", "shift"] and code:  # its i, j and eps columns
        violations = json.loads(out)["violations"]
        assert len(violations) == 400 and list(violations[0]) == ["i", "j", "eps", "lhs", "rhs"]


@pytest.mark.parametrize("argv, code", SUBCOMMANDS, ids=[" ".join(a[:4]) for a, _ in SUBCOMMANDS])
def test_main_writes_the_text_lines_or_the_document_its_command_returns(argv, code, capsys):
    args = cli.build_parser().parse_args(argv)
    with np.errstate(all="ignore"):
        passed, doc, lines = args.fn(args)
    assert capsys.readouterr().out == ""  # a command prints nothing itself
    assert passed == (code == 0)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
    assert cli.main([*argv, "--output", "structured"]) == code
    assert capsys.readouterr().out == dumps({"command": argv[0], "passed": passed, **doc}) + "\n"


def test_structured_verify_with_broken_axioms_and_string_labels(capsys, tmp_path, monkeypatch):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"points": ['a"%', "b\\", "é"],
                             "matrix": [[0, 1, -2], [1, 0, 3], [2, 3, 1e-9]]}))
    docs = []
    monkeypatch.setattr(cli, "dumps", lambda doc: docs.append(doc) or reference(doc))
    assert cli.main(["verify", "--input", str(p), "--alpha", "0", "--output", "structured"]) == 1
    assert dumps(docs[0]) == capsys.readouterr().out.rstrip("\n")


def _parent_to_dict(report) -> dict:
    """The dict built violation by violation from the records."""
    return {
        "axiom": report.axiom,
        "passed": report.passed,
        "violations": [
            {"pair": _jsonable(list(v["pair"])), "lhs": _jsonable(v["lhs"]), "rhs": _jsonable(v["rhs"])}
            for v in report.violations.records()
        ],
    }


# ints, floats (one of them inf, as a CSV header cell "inf" parses), strings
# and numpy scalars
MIXED_LABELS = (0, 2.5, float("inf"), "a\"b", np.int64(7), np.float64(-1.25), np.str_("z"), 3)


def _verification_reports():
    from fmetric import FiniteSpace, Witness, check_identity_symmetry, lookup_function, verify_D3

    n = len(MIXED_LABELS)
    broken = np.random.default_rng(2).uniform(-0.5, 1.0, (n, n))
    reports = check_identity_symmetry(FiniteSpace(MIXED_LABELS, broken))
    table = np.random.default_rng(3).uniform(0.1, 10.0, (n, n))
    table = np.triu(table, 1) + np.triu(table, 1).T
    space = FiniteSpace(MIXED_LABELS, table)
    reports.append(verify_D3(space, Witness(lookup_function("ln", "generator"), 0.0)))
    reports += check_identity_symmetry(space)  # violation-free D1 and D2
    # neg_inv of a chain sum of 1e-323 overflows to -inf, so rhs is -inf
    tiny = np.array([[0.0, 1.0, 5e-324], [1.0, 0.0, 5e-324], [5e-324, 5e-324, 0.0]])
    tiny_space = FiniteSpace((float("inf"), "b", np.int64(2)), tiny)
    reports.append(verify_D3(tiny_space, Witness(lookup_function("neg_inv", "generator"), 0.0)))
    return reports


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_verification_to_dict_equals_the_per_violation_construction():
    reports = _verification_reports()
    assert [r.axiom for r in reports] == ["D1", "D2", "D3", "D1", "D2", "D3"]
    assert [r.passed for r in reports] == [False, False, False, True, True, False]
    assert reports[-1].violations.records() == [{"pair": (float("inf"), "b"), "lhs": -1.0, "rhs": float("-inf")}]
    for r in reports:
        got, want = r.to_dict(), _parent_to_dict(r)
        assert got == want
        assert json.dumps(got) == json.dumps(want)
        assert dumps(got) == reference(want)


# labels that need escaping or a %, a numpy scalar, an inf and a tuple,
# which is written as a nested list
ESCAPED_LABELS = ('a"%s', "b\\", "%%", "é", np.int64(7), float("inf"), (1, "x"))


def _written_reports():
    from fmetric import FGenerator, FiniteSpace, Witness, lookup_function, verify_D3

    n = len(ESCAPED_LABELS)
    table = np.random.default_rng(4).uniform(0.1, 10.0, (n, n))
    space = FiniteSpace(ESCAPED_LABELS, np.triu(table, 1) + np.triu(table, 1).T)
    ln = lookup_function("ln", "generator")
    # an integer-valued generator leaves lhs an integer column
    floor = FGenerator("floor", lambda t: np.floor(10 * t).astype(int))
    return [verify_D3(space, Witness(ln, 0.0)), verify_D3(space, Witness(floor, 0.0)),
            verify_D3(space, Witness(ln, 100.0)), *_verification_reports()]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_verification_report_writes_the_bytes_of_its_to_dict():
    reports = _written_reports()
    ln_fails, floor_fails, ln_passes = reports[:3]
    # every label is named by some violation
    assert set(ln_fails.violations.columns["pair"].ravel().tolist()) == set(range(len(ESCAPED_LABELS)))
    assert floor_fails.violations.columns["lhs"].dtype.kind == "i" and len(floor_fails.violations) \
        and ln_passes.passed
    assert float("-inf") in reports[-1].violations.columns["rhs"]
    for r in reports:
        assert dumps(r) == reference(r.to_dict()) == reference(r)
        assert dumps({"axioms": [r]}) == reference({"axioms": [r.to_dict()]})
    assert dumps({"axioms": reports}) == reference({"axioms": reports})


# labels that need escaping or a %, and numpy scalars
PAIR_LABELS = ('a"%s', "%%", "é", np.int64(7), np.float64(2.5))


def _condition_reports():
    from fmetric import (AlteringDistance, FiniteSpace, PairSample, edelstein_check,
                         interval_halving, kannan_check, lookup_function, monotone_step_check,
                         orbit, orbital_kannan_check, random_pairs, sequence_space,
                         shift_condition_check)

    n = len(PAIR_LABELS)
    table = np.random.default_rng(5).uniform(0.1, 10.0, (n, n))
    space = FiniteSpace(PAIR_LABELS, np.triu(table, 1) + np.triu(table, 1).T)
    reverse = dict(zip(PAIR_LABELS, PAIR_LABELS[::-1])).__getitem__
    sample = PairSample([(PAIR_LABELS[i], PAIR_LABELS[j]) for i in range(n) for j in range(n) if i != j],
                        "hand-made")
    ident = lookup_function("id", "altering")
    # inf beyond distance 5 and nan beyond 8
    wild = AlteringDistance("wild", lambda t: np.where(t > 8, np.nan, np.where(t > 5, np.inf, t)))
    seq, halving = sequence_space(N=40), interval_halving()
    return [
        edelstein_check(space, reverse, ident, sample),
        kannan_check(space, reverse, ident, sample),
        edelstein_check(space, reverse, wild, sample),
        # the orbit 1, 3, 9, ... passes 2**63 at step 40
        orbital_kannan_check(seq.space, seq.map, ident, 1, 200),
        monotone_step_check(orbit(seq.space, seq.map, 1, 60), ident),
        shift_condition_check(seq.space, seq.map, seq.phi, 1, lambda e: e, [0.5, 0.75, 1.0], 20),
        edelstein_check(halving.space, halving.map, lookup_function("square", "altering"),
                        random_pairs(halving.space, 10, seed=7)),
    ]


def test_a_condition_report_writes_the_bytes_of_its_to_dict():
    reports = _condition_reports()
    kinds = [r.condition.split("(")[0] for r in reports]
    assert kinds == ["edelstein", "kannan", "edelstein", "orbital_kannan", "monotone_step", "shift",
                     "edelstein"]
    assert [r.passed for r in reports] == [False] * 6 + [True]
    # every label is named by some violation
    assert set(reports[0].violations.columns["pair"].ravel().tolist()) == set(range(len(PAIR_LABELS)))
    wild = reports[2].violations.columns
    assert np.isinf(wild["lhs"]).any() and np.isnan(wild["lhs"]).any() and np.isinf(wild["rhs"]).any()
    assert max(max(v["pair"]) for v in reports[3].violations.records()) > 2 ** 63
    for r in reports:
        assert dumps(r) == reference(r.to_dict()) == reference(r)
        assert dumps({"input": "x", **r.doc()}) == reference({"input": "x", **r.to_dict()})
        assert dumps({"checks": [r]}) == reference({"checks": [r.to_dict()]})
    assert dumps({"checks": reports}) == reference({"checks": reports})


def test_a_report_counts_and_writes_its_violations_without_building_records(monkeypatch):
    from fmetric import (Witness, all_pairs, kannan_check, lookup_function, min_alpha,
                         oscillating_orbit_space, rect_b_family, verify_D3)

    rect, orbit = rect_b_family(10), oscillating_orbit_space(depth=20)
    ln = lookup_function("ln", "generator")
    reports = [verify_D3(rect, Witness(ln, min_alpha(rect, ln) / 2)),
               kannan_check(orbit.space, orbit.map, orbit.phi, all_pairs(orbit.space))]

    def refuse(self, count=None):
        raise AssertionError("records() built the violations as dicts")

    monkeypatch.setattr(Violations, "records", refuse)
    for rep in reports:
        assert not rep.passed
        assert isinstance(rep.violations, Violations)
        assert len(rep.violations) == rep.violations.columns["lhs"].size > 0
        assert dumps(rep).count('"lhs": ') == len(rep.violations)


def test_structured_verify_with_many_violations_reads_back_as_written(capsys):
    code = cli.main(["verify", "--example", "oscillating-orbit", "--depth", "30", "--alpha", "0",
                     "--output", "structured"])
    out = capsys.readouterr().out
    assert code == 1
    assert len(json.loads(out)["axioms"][2]["violations"]) == 928
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _hand_written_dict(report) -> dict:
    """The dicts ConditionReport, SolveReport and PropertyReport built by hand
    before they shared one field-wise to_dict."""
    if isinstance(report, PropertyReport):
        return {
            "name": report.name,
            "passed": report.passed,
            "checked": report.checked,
            "failures": _jsonable(report.failures),
            "note": report.note,
        }
    if isinstance(report, ConditionReport):
        return {
            "condition": report.condition,
            "passed": report.passed,
            "checked": report.checked,
            "violations": _jsonable(report.violations.records()),
            "margin_min": _jsonable(report.margin_min),
            "source": report.source,
        }
    return {
        "status": report.status,
        "iterations": report.iterations,
        "fixed_point": _jsonable(report.fixed_point),
        "residual": _jsonable(report.residual),
        "cycle": _jsonable(report.cycle),
    }


def test_field_wise_to_dict_equals_the_hand_written_dicts():
    inf, nan = float("inf"), float("nan")
    reports = [
        PropertyReport("F2(bumpy)", False, 30,
                       [{"level": 1, "t": (np.float64(0.5), inf), "f": (nan, -inf)}], "thresholds "),
        PropertyReport("F1(ln)", True, 400),
        ConditionReport("kannan(id)", False, 5,
                        Violations((np.int64(2), 2.5, 7), pair=[[0, 1], [2, 0]],
                                   lhs=[inf, nan], rhs=[np.float64(1.5), 0.1]),
                        -inf, "random(seed=1, count=5)"),
        ConditionReport("shift(id)", False, 2,
                        Violations(i=[0], j=[np.int64(3)], eps=[0.1], lhs=[nan], rhs=[0.1]), 0.0),
        ConditionReport("edelstein(square)", True, 0),
        SolveReport("cycle_detected", 7, np.float64(0.25), nan, [(1, np.float64(2.0)), inf]),
        SolveReport("budget_exhausted", 3),
    ]
    for r in reports:
        got, want = r.to_dict(), _hand_written_dict(r)
        assert list(got) == list(want)
        assert json.dumps(got) == json.dumps(want)
        assert dumps(got) == reference(want)

import json
import random
import warnings

import numpy as np
import pytest

from fmetric import (
    DomainError,
    FmetricError,
    SpaceAxiomError,
    SpaceFormatError,
    UnknownFunctionError,
    load_space_file,
    orbit,
    spaceio,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_json_space_with_witness_and_affine_map(tmp_path):
    doc = {
        "points": [0, 1, 0.5],
        "matrix": [[0, 1, 0.5], [1, 0, 0.5], [0.5, 0.5, 0]],
        "witness": {"f": "ln", "alpha": 0.25},
        "map": {"affine": [-0.5, 1.0]},
    }
    p = write(tmp_path, "s.json", json.dumps(doc))
    space, witness, T = load_space_file(p)
    assert space.labels == (0, 1, 0.5)
    assert witness.f.name == "ln" and witness.alpha == 0.25
    assert T(0) == 1 and T(1) == 0.5
    with pytest.raises(DomainError):
        T(0.5)  # image 0.75 is not a carrier point


def test_affine_images_snap_to_a_label_within_1e_9(tmp_path):
    pts = [0, 1, 0.5000000008, 0.2500000015]
    doc = {"points": pts, "matrix": [[abs(a - b) for b in pts] for a in pts],
           "map": {"affine": [0.5, 0]}}
    _, _, T = load_space_file(write(tmp_path, "s.json", json.dumps(doc)))
    assert T(1) == 0.5000000008
    with pytest.raises(DomainError, match="nearest label 0.2500000015 is 1.1e-09 away"):
        T(0.5000000008)


def test_json_space_minimal(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 2], [2, 0]]}
    space, witness, T = load_space_file(write(tmp_path, "m.json", json.dumps(doc)))
    assert witness is None and T is None
    assert space.d("a", "b") == 2.0


def test_json_map_borrowed_from_example(tmp_path):
    doc = {
        "points": [0, 1, 0.5],
        "matrix": [[0, 1, 0.5], [1, 0, 0.5], [0.5, 0.5, 0]],
        "map": "interval-halving",
    }
    space, _, T = load_space_file(write(tmp_path, "b.json", json.dumps(doc)))
    tr = orbit(space, T, 0, 2)
    assert tr.points == [0, 1.0, 0.5]
    with pytest.raises(DomainError):
        orbit(space, T, 0, 3)  # next image 0.75 leaves this carrier


def test_csv_space(tmp_path):
    text = "a,b,c\n0,1,1\n1,0,1\n1,1,0\n"
    space, witness, T = load_space_file(write(tmp_path, "m.csv", text))
    assert space.labels == ("a", "b", "c")
    assert witness is None and T is None
    assert space.d("a", "c") == 1.0


def test_csv_numeric_labels_parse(tmp_path):
    text = "1,2.5,30\n0,1,1\n1,0,1\n1,1,0\n"
    space, _, _ = load_space_file(write(tmp_path, "n.csv", text))
    assert space.labels == (1, 2.5, 30)


def test_empty_file(tmp_path):
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "e.csv", "  \n"))
    assert str(e.value) == f"{tmp_path / 'e.csv'} is empty"


def test_missing_file():
    with pytest.raises(SpaceFormatError) as e:
        load_space_file("/nonexistent/path.json")
    assert str(e.value).startswith("cannot read /nonexistent/path.json: ")


def test_a_byte_order_mark_is_skipped(tmp_path):
    bom = b"\xef\xbb\xbf"
    j = tmp_path / "bom.json"
    j.write_bytes(bom + b'{"points": [0, 1], "matrix": [[0, 1], [1, 0]]}')
    assert load_space_file(j)[0].labels == (0, 1)
    c = tmp_path / "bom.csv"
    c.write_bytes(bom + b"0,1\n0,1\n1,0\n")
    assert load_space_file(c)[0].labels == (0, 1)


def test_files_are_read_as_utf_8(tmp_path):
    p = tmp_path / "u.json"
    p.write_bytes('{"points": ["\u00e9", "\u00df"], "matrix": [[0, 1], [1, 0]]}'.encode())
    assert load_space_file(p)[0].labels == ("\u00e9", "\u00df")


def test_a_file_that_is_not_utf_8_is_an_input_error_naming_it(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes("\u00e9,b\n0,1\n1,0\n".encode("latin-1"))
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(p)
    assert str(e.value).startswith(f"cannot read {p}: 'utf-8' codec can't decode byte 0xe9")


def test_csv_bad_cell_names_position(tmp_path):
    text = "a,b\n0,x\n1,0\n"
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "bad.csv", text))
    assert "row 1" in str(e.value) and "'x'" in str(e.value)


def test_row_count_mismatch(tmp_path):
    text = "a,b,c\n0,1,1\n1,0,1\n"
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "short.csv", text))
    assert "3 labels" in str(e.value)


def test_ragged_row(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 1], [1]]}
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "rag.json", json.dumps(doc)))
    assert "row 1" in str(e.value)


def test_non_finite_entries_rejected(tmp_path):
    doc = '{"points": ["a", "b"], "matrix": [[0, NaN], [NaN, 0]]}'
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "nan.json", doc))
    assert "finite" in str(e.value)


def test_invalid_json_diagnostic(tmp_path):
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "broken.json", "{not json"))
    assert "invalid JSON" in str(e.value)


def test_unknown_keys_rejected(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], "metric": True}
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(write(tmp_path, "k.json", json.dumps(doc)))
    assert "metric" in str(e.value)


def test_bad_witness_shape(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], "witness": {"f": "ln"}}
    with pytest.raises(SpaceFormatError):
        load_space_file(write(tmp_path, "w.json", json.dumps(doc)))


def test_unknown_witness_function(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], "witness": {"f": "exp", "alpha": 0}}
    with pytest.raises(UnknownFunctionError):
        load_space_file(write(tmp_path, "uf.json", json.dumps(doc)))


def test_unknown_map_example(tmp_path):
    doc = {"points": [0, 1], "matrix": [[0, 1], [1, 0]], "map": "klein-bottle"}
    with pytest.raises(FmetricError):
        load_space_file(write(tmp_path, "um.json", json.dumps(doc)))


def test_affine_map_skips_labels_past_the_float_range(tmp_path):
    doc = {"points": [10 ** 400, 0, 5], "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
           "map": {"affine": [1, 5]}}
    _, _, T = load_space_file(write(tmp_path, "s.json", json.dumps(doc)))
    assert T(0) == 5


def test_affine_nan_image_is_not_in_the_carrier(tmp_path):
    # 0 * inf + 5 is nan, which lies within 1e-9 of no label
    p = write(tmp_path, "s.json",
              '{"points": [0, Infinity, 5], "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "map": {"affine": [0, 5]}}')
    _, _, T = load_space_file(p)
    assert T(0) == 5
    with pytest.raises(DomainError, match="affine image nan of inf is not in the carrier"):
        T(float("inf"))


def test_map_without_numeric_labels(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], "map": {"affine": [1, 0]}}
    with pytest.raises(SpaceFormatError):
        load_space_file(write(tmp_path, "nl.json", json.dumps(doc)))


def test_affine_map_bad_coefficients(tmp_path):
    doc = {"points": [0, 1], "matrix": [[0, 1], [1, 0]], "map": {"affine": [1]}}
    with pytest.raises(SpaceFormatError):
        load_space_file(write(tmp_path, "ac.json", json.dumps(doc)))


def test_duplicate_labels_rejected(tmp_path):
    doc = {"points": ["a", "a"], "matrix": [[0, 1], [1, 0]]}
    with pytest.raises(SpaceAxiomError):
        load_space_file(write(tmp_path, "dup.json", json.dumps(doc)))


def test_negative_entries_survive_loading(tmp_path):
    # axiom problems are verification findings, not parse failures
    doc = {"points": ["a", "b"], "matrix": [[0, -1], [-1, 0]]}
    space, _, _ = load_space_file(write(tmp_path, "neg.json", json.dumps(doc)))
    assert space.d("a", "b") == -1.0


def test_matrix_rejects_non_numbers(tmp_path):
    doc = {"points": ["a", "b"], "matrix": [[0, "1"], ["1", 0]]}
    with pytest.raises(SpaceFormatError):
        load_space_file(write(tmp_path, "str.json", json.dumps(doc)))


def _json_matrix_error(tmp_path, matrix: str) -> tuple:
    p = write(tmp_path, "m.json", '{"points": ["a", "b"], "matrix": %s}' % matrix)
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(p)
    return str(e.value), str(p)


@pytest.mark.parametrize("matrix, message", [
    # the first offending entry in row-major order, whichever kind of fault it is
    ('[[0, "x"], [NaN, 0]]', "matrix entry (0, 1) is 'x', not a number"),
    ('[[0, Infinity], ["x", 0]]', "matrix entry (0, 1) is inf; entries must be finite"),
    ('[[0, 1], [true, 0]]', "matrix entry (1, 0) is True, not a number"),
    ('[[0, "1"], [1, 0]]', "matrix entry (0, 1) is '1', not a number"),
    ('[[0, null], [1, 0]]', "matrix entry (0, 1) is None, not a number"),
    ('[[0, [1]], [1, 0]]', "matrix entry (0, 1) is [1], not a number"),
    ('[[0, NaN], [1, 0]]', "matrix entry (0, 1) is nan; entries must be finite"),
    ('[[0, 1], [-Infinity, 0]]', "matrix entry (1, 0) is -inf; entries must be finite"),
    # a ragged row after a bad entry: the entry comes first
    ('[[0, "x"], [1]]', "matrix entry (0, 1) is 'x', not a number"),
    ('[[0, NaN], [1, 0, 2]]', "matrix entry (0, 1) is nan; entries must be finite"),
    ('[[0], ["x", 0]]', "matrix row 0 has 1 entries, expected 2"),
    ('[[0, 1], [1]]', "matrix row 1 has 1 entries, expected 2"),
    ('[[0, 1]]', "2 labels but 1 matrix rows"),
    ('[[0, 1], 5]', "matrix row 1 is 5, not a list"),
])
def test_json_matrix_error_names_first_offending_entry(tmp_path, matrix, message):
    got, path = _json_matrix_error(tmp_path, matrix)
    assert got == f"{path}: {message}"


def _csv_error(tmp_path, text: str) -> tuple:
    p = write(tmp_path, "m.csv", text)
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(p)
    return str(e.value), str(p)


@pytest.mark.parametrize("text, message", [
    ("a,b\n0,nan\n1,0\n", "matrix entry (0, 1) is nan; entries must be finite"),
    ("a,b\n0,1\n-inf,0\n", "matrix entry (1, 0) is -inf; entries must be finite"),
    ("a,b\n0,1\n1\n", "matrix row 1 has 1 entries, expected 2"),
    # a quoted cell runs to its closing quote, here past every line
    ('a,"b\n0,1\n1,0\n', "need a header row and at least one matrix row"),
])
def test_csv_matrix_errors(tmp_path, text, message):
    got, path = _csv_error(tmp_path, text)
    assert got == f"{path}: {message}"


@pytest.mark.parametrize("text, row", [
    ('a,b\n0,"' + "1" * 200_000 + '"\n1,0\n', 1),
    ("a,b\n\n0,1\n1," + "1" * 200_000 + "\n", 2),
], ids=["quoted", "unquoted"])
def test_csv_field_over_the_csv_size_limit_names_its_row(tmp_path, text, row):
    got, path = _csv_error(tmp_path, text)
    assert got == f"{path}: row {row}: field larger than field limit (131072)"


@pytest.mark.parametrize("text, where", [
    ("a,b\n0,x\n1,0\n", "row 1, column 1: 'x'"),
    ("a,b,c\n0,1,2\n1,0,3\n2, 3 ,\n", "row 3, column 2: ''"),
    # every cell is parsed before the shape is checked
    ("a,b\n0\n1,x\n", "row 2, column 1: 'x'"),
    ("a,b\n0,1e\n1,0\n", "row 1, column 1: '1e'"),
])
def test_csv_bad_cell_location(tmp_path, text, where):
    message, path = _csv_error(tmp_path, text)
    assert message == f"{path}: {where} is not a number"


def _reference_matrix(rows) -> np.ndarray:
    """The entry-by-entry conversion the loaders have always produced."""
    return np.array([[v for v in row] for row in rows], dtype=float)


def test_json_matrix_bits_match_entrywise_conversion(tmp_path):
    rng = np.random.default_rng(7)
    n = 40
    rows = rng.uniform(0.0, 10.0, (n, n)).tolist()
    specials = [0, -0.0, 5e-324, 2 ** 53 + 1, 2 ** 70, -(2 ** 63) - 1, 3, 1e300, 0.1]
    for k, v in enumerate(specials):
        rows[k][n - 1 - k] = v
    for i in range(n):
        rows[i][i] = 0
    p = write(tmp_path, "mixed.json", json.dumps({"points": list(range(n)), "matrix": rows}))
    space, _, _ = load_space_file(p)
    want = _reference_matrix(json.loads(p.read_text())["matrix"])
    assert space.dist.tobytes() == want.tobytes()


def test_csv_matrix_bits_match_entrywise_conversion(tmp_path):
    rng = np.random.default_rng(8)
    n = 30
    cells = [[repr(v) for v in row] for row in rng.uniform(0.0, 1e3, (n, n)).tolist()]
    for k, text in enumerate(["0", "-0.0", "5e-324", " 7 ", "1E300", "9007199254740993",
                              "0.1", "1_000", "+2.5"]):
        cells[k][n - 1 - k] = text
    text = ",".join(map(str, range(n))) + "\n" + "\n".join(",".join(r) for r in cells) + "\n"
    space, _, _ = load_space_file(write(tmp_path, "m.csv", text))
    want = _reference_matrix([[float(c) for c in row] for row in cells])
    assert space.dist.tobytes() == want.tobytes()


_CSV_CELLS = ["0", "1", "-0", "-0.0", " 7 ", "\t3", "2.5e-1", "+2", "5e-324", "1_0", "1e400",
              "nan", "infinity", "-inf", "", " ", "x", "1e", '"1"', '"a,b"', '"2']
_CSV_LINES = ["", "  ", ",,,", "\t"]


def _csv_text(rng: random.Random) -> str:
    """A small CSV text: mostly well-formed, with the cells, lines, line
    ends and shapes that either path could read differently."""
    n = rng.randint(1, 5)
    labels = [rng.choice(["a", "2.5", " c", '"q', '"h,i"', ""]) if rng.random() < 0.2 else str(k)
              for k in range(n)]
    lines = [",".join(labels)]
    for _ in range(n + rng.choice([0, 0, 0, -1, 1])):
        width = n + rng.choice([0, 0, 0, 0, -1, 1])
        lines.append(",".join(rng.choice(_CSV_CELLS) if rng.random() < 0.1 else repr(rng.uniform(0, 9))
                              for _ in range(width)))
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_CSV_LINES))
    end = rng.choice(["\n", "\n", "\r\n", "\r", "\x0c"])
    return end.join(lines) + rng.choice([end, ""])


def _csv_outcome(text: str):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            space, _, _ = spaceio._load_csv(text)
        except Exception as e:
            return type(e), str(e)
    return space.labels, space.dist.tobytes()


def test_bulk_csv_path_reads_what_the_walk_reads(monkeypatch):
    rng = random.Random(21)
    texts = [_csv_text(rng) for _ in range(1500)]
    accepted = []
    bulk_matrix = spaceio._bulk_matrix
    with monkeypatch.context() as m:
        m.setattr(spaceio, "_bulk_matrix",
                  lambda body, n: accepted.append(bulk_matrix(body, n)) or accepted[-1])
        bulk = [_csv_outcome(t) for t in texts]
    with monkeypatch.context() as m:
        m.setattr(spaceio, "_bulk_matrix", lambda body, n: None)
        walked = [_csv_outcome(t) for t in texts]
    for text, got, want in zip(texts, bulk, walked):
        assert got == want, text
    # both paths and both outcomes are well represented
    taken = sum(m is not None for m in accepted)
    assert taken > 100 and len(accepted) - taken > 100
    assert sum(type(w[0]) is type for w in walked) > 300


@pytest.mark.parametrize("doc, error, message", [
    ({"witness": {"f": ["ln"], "alpha": 1}}, UnknownFunctionError,
     "no generator named ['ln']; registered: ['ln', 'neg_inv']"),
    ({"map": "nope"}, DomainError,
     "unknown example 'nope'; known: interval-halving, oscillating-orbit, sequence-space, rect-b"),
    ({"points": ["a", "a"]}, SpaceAxiomError, "duplicate point labels"),
], ids=["unhashable-f", "unknown-map", "duplicate-labels"])
def test_every_parse_error_begins_with_the_path_and_keeps_its_class(tmp_path, doc, error, message):
    p = write(tmp_path, "w.json", json.dumps({"points": ["a", "b"], "matrix": [[0, 1], [1, 0]], **doc}))
    with pytest.raises(error) as e:
        load_space_file(p)
    assert type(e.value) is error and str(e.value) == f"{p}: {message}"



_AB = {"points": ["a", "b"], "matrix": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("doc, message", [
    ({"points": ["a"]}, 'needs "points" and "matrix" keys'),
    ({"matrix": [[0]]}, 'needs "points" and "matrix" keys'),
    ({"points": [], "matrix": []}, '"points" must be a non-empty list'),
    ({"points": [None, "b"], "matrix": [[0, 1], [1, 0]]}, "label None must be a number or string"),
    ({"points": [True, "b"], "matrix": [[0, 1], [1, 0]]}, "label True must be a number or string"),
    ({"points": ["a"], "matrix": {"a": [0]}}, '"matrix" must be a list of rows'),
    ({**_AB, "witness": {"f": "ln", "alpha": "1"}}, "witness alpha must be a number"),
    ({**_AB, "map": "rect-b"}, "example 'rect-b' has no map to borrow"),
    ({**_AB, "map": 5}, 'map must be an example id or {"affine": [a, b]}, got 5'),
], ids=["no-matrix", "no-points", "empty-points", "null-label", "bool-label", "matrix-object",
        "string-alpha", "borrowed-without-map", "map-number"])
def test_json_structure_errors_name_the_file(tmp_path, doc, message):
    p = write(tmp_path, "s.json", json.dumps(doc))
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(p)
    assert str(e.value) == f"{p}: {message}"


def test_csv_without_a_matrix_row(tmp_path):
    p = write(tmp_path, "h.csv", "a,b\n\n")
    with pytest.raises(SpaceFormatError) as e:
        load_space_file(p)
    assert str(e.value) == f"{p}: need a header row and at least one matrix row"

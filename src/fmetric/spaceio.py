"""Load finite spaces from JSON or CSV files.

JSON documents look like

    {
      "points": [1, 20, "g1"],
      "matrix": [[0, 15, 0.03], [15, 0, 0.03], [0.03, 0.03, 0]],
      "witness": {"f": "ln", "alpha": 0.7},
      "map": "oscillating-orbit"
    }

witness and map are optional. A map is either the id of a bundled
example (its map is reused as-is) or {"affine": [a, b]} meaning
x -> a*x + b on numeric labels, with the image snapped to the nearest
label; snapping beyond the tolerance fails at application time, since
that means the map leaves the carrier.

CSV files carry a header row of labels followed by the square matrix,
one row per line, with no witness or map. Rows holding only blank cells
are skipped. A text with no quote character has one row per line, and
its body below the header is parsed in C (numpy's loadtxt); the result
is taken when it is square, the header's size and finite, and any other
text, or a body loadtxt refuses, is walked cell by cell, which names the
first bad row or cell. A quoted cell can span lines or hold commas, so a
text with a quote is always walked.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import corpus
from .errors import DomainError, FmetricError, SpaceFormatError
from .fclass import lookup_function
from .fspace import FiniteSpace, Witness

_NUMBER_TYPES = frozenset((int, float))


def _parse_cell(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SpaceFormatError(f"{where}: {text!r} is not a number") from None


def _to_float(v, what: str) -> float:
    """float(v) of an int or float; an int beyond the float range is an
    input error whose message begins with what."""
    try:
        return float(v)
    except OverflowError:
        raise SpaceFormatError(f"{what} is an integer too large for a float") from None


def _parse_label(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _check_matrix(rows, n_labels: int) -> np.ndarray:
    """The matrix as a float array, after checking its shape and entries.

    A well-formed table is checked in bulk: one type set per row and one
    finiteness test on the array. Only a table that fails is walked entry
    by entry, to name its first offending row or entry in row-major order.
    """
    if len(rows) != n_labels:
        raise SpaceFormatError(f"{n_labels} labels but {len(rows)} matrix rows")
    if all(
        type(row) is list and len(row) == n_labels and _NUMBER_TYPES.issuperset(map(type, row))
        for row in rows
    ):
        try:
            m = np.array(rows, dtype=float)
        except OverflowError:  # an int beyond the float range; the walk names it
            pass
        else:
            if np.isfinite(m).all():
                return m
    _raise_first_bad_entry(rows, n_labels)


def _raise_first_bad_entry(rows, n_labels: int) -> None:
    """Raise for the first row or entry, in row-major order, that fails
    one of the tests _check_matrix makes in bulk."""
    for i, row in enumerate(rows):
        if type(row) is not list:
            raise SpaceFormatError(f"matrix row {i} is {row!r}, not a list")
        if len(row) != n_labels:
            raise SpaceFormatError(f"matrix row {i} has {len(row)} entries, expected {n_labels}")
        for j, v in enumerate(row):
            if type(v) not in _NUMBER_TYPES:
                raise SpaceFormatError(f"matrix entry ({i}, {j}) is {v!r}, not a number")
            if not math.isfinite(_to_float(v, f"matrix entry ({i}, {j})")):
                raise SpaceFormatError(f"matrix entry ({i}, {j}) is {v}; entries must be finite")


def _affine_map(a: float, b: float, space: FiniteSpace) -> Callable:
    if space.nearest_label(b)[0] is None:
        raise SpaceFormatError("affine map needs numeric labels, found none")

    def T(x):
        if not isinstance(x, (int, float)):
            raise DomainError(f"affine map is undefined at non-numeric point {x!r}")
        y = a * x + b
        best, within = space.nearest_label(y)
        if not within:
            raise DomainError(
                f"affine image {y!r} of {x!r} is not in the carrier "
                f"(nearest label {best!r} is {abs(best - y):.3g} away)"
            )
        return best

    return T


def _build_map(entry, space: FiniteSpace) -> Callable:
    if isinstance(entry, str):
        ex = corpus.build_example(entry)
        if ex.map is None:
            raise SpaceFormatError(f"example {entry!r} has no map to borrow")
        return ex.map
    if isinstance(entry, dict) and set(entry) == {"affine"}:
        coeffs = entry["affine"]
        if (
            not isinstance(coeffs, (list, tuple))
            or len(coeffs) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)
        ):
            raise SpaceFormatError('map "affine" takes two numeric coefficients [a, b]')
        a, b = (_to_float(c, f'map "affine" coefficient {name}') for name, c in zip("ab", coeffs))
        return _affine_map(a, b, space)
    raise SpaceFormatError(
        f'map must be an example id or {{"affine": [a, b]}}, got {entry!r}'
    )


def _load_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpaceFormatError(f"invalid JSON ({e})") from None
    # text parsed as JSON starts with "{", so doc is an object
    unknown = set(doc) - {"points", "matrix", "witness", "map"}
    if unknown:
        raise SpaceFormatError(f"unknown keys {sorted(unknown)}")
    if "points" not in doc or "matrix" not in doc:
        raise SpaceFormatError('needs "points" and "matrix" keys')
    labels = doc["points"]
    if not isinstance(labels, list) or not labels:
        raise SpaceFormatError('"points" must be a non-empty list')
    for lab in labels:
        if not isinstance(lab, (int, float, str)) or isinstance(lab, bool):
            raise SpaceFormatError(f"label {lab!r} must be a number or string")
    if not isinstance(doc["matrix"], list):
        raise SpaceFormatError('"matrix" must be a list of rows')
    m = _check_matrix(doc["matrix"], len(labels))
    space = FiniteSpace(labels=tuple(labels), dist=m)

    witness = None
    if "witness" in doc:
        w = doc["witness"]
        if not isinstance(w, dict) or set(w) != {"f", "alpha"}:
            raise SpaceFormatError('witness must be {"f": name, "alpha": number}')
        if not isinstance(w["alpha"], (int, float)) or isinstance(w["alpha"], bool):
            raise SpaceFormatError("witness alpha must be a number")
        f = lookup_function(w["f"], "generator")
        alpha = _to_float(w["alpha"], "witness alpha")
        try:
            witness = Witness(f, alpha)
        except ValueError as e:
            raise SpaceFormatError(f"witness {e}") from None

    T = _build_map(doc["map"], space) if "map" in doc else None
    return space, witness, T


def _nonblank_rows(reader):
    """The rows of a csv reader that hold a non-blank cell; a row the csv
    module refuses (a field over its size limit) is an input error naming
    the row, counted as the other messages count rows, the header row 0."""
    i = 0
    try:
        for row in reader:
            if any(c.strip() for c in row):
                yield row
                i += 1
    except csv.Error as e:
        raise SpaceFormatError(f"row {i}: {e}") from None


def _bulk_matrix(body: list, n: int) -> Optional[np.ndarray]:
    """The n x n matrix of body, lines of comma-separated numbers, parsed in
    one loadtxt call; None when loadtxt refuses a line or the result is not
    n x n and finite, since only the walk names what is wrong."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a body with no data
        try:
            m = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            return None
    return m if m.shape == (n, n) and np.isfinite(m).all() else None


def _load_csv(text: str):
    lines = text.splitlines()
    reader = csv.reader(lines)
    rows = _nonblank_rows(reader)
    header = next(rows, None)
    m = None
    if header is not None and '"' not in text:
        # with no quote, the header is the reader's last line read, and
        # each line below it is one row
        m = _bulk_matrix(lines[reader.line_num :], len(header))
    if m is None:
        body = list(rows)
        if header is None or not body:
            raise SpaceFormatError("need a header row and at least one matrix row")
        matrix = []
        for i, row in enumerate(body, 1):
            try:
                matrix.append(list(map(float, row)))
            except ValueError:
                for j, c in enumerate(row):
                    _parse_cell(c, f"row {i}, column {j}")
        m = _check_matrix(matrix, len(header))
    return FiniteSpace(labels=tuple(map(_parse_label, header)), dist=m), None, None


def load_space_file(path) -> tuple[FiniteSpace, Optional[Witness], Optional[Callable]]:
    """Read a space file, returning (space, witness or None, map or None).

    The file is read as UTF-8, a leading byte-order mark skipped. The
    format is sniffed: content starting with '{' is JSON, anything
    else is CSV. Structural problems raise SpaceFormatError naming the
    offending row or key; every error raised while parsing keeps its
    class and leads its message with the path. Metric axiom violations
    (negative entries, broken symmetry) survive loading so that
    verification can report them as findings rather than parse failures.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise SpaceFormatError(f"cannot read {path}: {e}") from None
    if not text.strip():
        raise SpaceFormatError(f"{path} is empty")
    try:
        return _load_json(text) if text.lstrip().startswith("{") else _load_csv(text)
    except FmetricError as e:
        raise type(e)(f"{path}: {e}") from None

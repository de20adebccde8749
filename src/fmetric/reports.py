"""Report dataclasses shared across the checking modules.

Conventions: `passed` is the overall verdict. Verification and condition
reports keep their violations in check order as columns in one
Violations, which counts them with len, builds them as dicts only when
records() is called and writes its own JSON for dumps.
Every report's to_dict is _jsonable of its doc(), plain JSON data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np


def _jsonable(value):
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, Violations):
        return _jsonable(value.records())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except Exception:
            pass
    return value


def dumps(doc) -> str:
    """json.dumps(_jsonable(doc), indent=2), written in one walk.

    With indent set, json.dumps runs its pure-Python encoder, one call per
    value. Here a Violations writes its records from its columns, one
    %-template for every record, since violation lists are the only long
    lists the CLI prints: 38,108 D3 records on the benchmark's non-metric
    table at n = 300, and 124,750 condition records for an --all-pairs
    check of 500 points on a line under the identity map. A report is
    written as its doc(); every other value is walked and written as
    json.dumps would write it.
    """
    return _encode(doc, "\n")


def _encode(value, nl: str) -> str:
    """value as JSON, its nested lines starting with nl (newline + indent)."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is float and math.isfinite(value):
        return float.__repr__(value)
    if t is int:
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = nl + "  "
        return "".join(("[", inner, ("," + inner).join(_encode(v, inner) for v in value), nl, "]"))
    if isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
        if not value:
            return "{}"
        inner = nl + "  "
        items = ("," + inner).join(_encode_str(k) + ": " + _encode(v, inner) for k, v in value.items())
        return "".join(("{", inner, items, nl, "}"))
    if isinstance(value, Violations):
        return value._json(nl)
    if isinstance(value, _Report):
        return _encode(value.doc(), nl)
    # None, bools, non-finite floats, numpy scalars and anything else: a
    # scalar needs no indent, and what .item() returns is indented by json
    return json.dumps(_jsonable(value), indent=2).replace("\n", nl)


class Violations:
    """The failing items of a check, as columns in check order.

    Each column is an array with one row per item. The `pair` column has
    two entries per row, indices into labels: item k names the points
    (labels[pair[k, 0]], labels[pair[k, 1]]). records() builds one dict
    per item, keyed by the column names in order, only when called.
    """

    def __init__(self, labels: tuple = (), **columns):
        self.labels = labels
        self.columns = {name: np.asarray(c) for name, c in columns.items()}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def records(self, count=None) -> list:
        """The first count items (all when None) as dicts; a pair is a
        tuple of labels and every other value a Python scalar."""
        at = self.labels.__getitem__
        cols = [[(at(a), at(b)) for a, b in c[:count].tolist()] if name == "pair" else c[:count].tolist()
                for name, c in self.columns.items()]
        return [dict(zip(self.columns, row)) for row in zip(*cols)]

    def _json(self, nl: str) -> str:
        """_jsonable(records()) as dumps writes it, its nested lines
        starting with nl. The records come straight from the columns: one
        record template, each label that a pair names encoded once and
        gathered by index, each value column formatted in one pass."""
        if not len(self):
            return "[]"
        item, key = nl + "  ", nl + "    "
        slot = key + "  "
        slots, cols = [], []
        for name, c in self.columns.items():
            if name == "pair":
                lab = [None] * len(self.labels)
                named = np.zeros(len(self.labels), dtype=bool)  # np.unique would import numpy.ma
                named[c] = True
                for k in np.flatnonzero(named).tolist():
                    lab[k] = _encode(_jsonable(self.labels[k]), slot)
                slots.append('"pair": [' + slot + "%s," + slot + "%s" + key + "]")
                cols += (map(lab.__getitem__, c[:, 0].tolist()), map(lab.__getitem__, c[:, 1].tolist()))
            else:
                slots.append(_encode_str(name) + ": %s")
                cols.append(_values(c, key))
        record = "{" + key + ("," + key).join(slots) + item + "}"
        # one join: each + would copy the long list again
        return "".join(("[", item, ("," + item).join(map(record.__mod__, zip(*cols))), nl, "]"))


def _values(column: np.ndarray, nl: str) -> list:
    """Each value of a column as dumps writes it after _jsonable, nested
    lines starting with nl: a float by its repr, and inf, -inf and nan
    quoted, since _jsonable spells them as their reprs."""
    values = column.tolist()
    if column.dtype.kind != "f":  # an index column, or a generator's integers
        return [_encode(v, nl) for v in values]
    out = list(map(float.__repr__, values))
    for k in np.flatnonzero(~np.isfinite(column)).tolist():
        out[k] = '"' + out[k] + '"'
    return out


class _Report:
    """Base of the reports: doc() holds each dataclass field in declaration
    order, as dumps writes it, and to_dict() is _jsonable of doc()."""

    def doc(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict:
        return _jsonable(self.doc())


@dataclass
class PropertyReport(_Report):
    """Outcome of a pointwise function-property check (F1, F2, altering)."""

    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    note: str = ""


@dataclass(frozen=True, eq=False)
class VerificationReport(_Report):
    """Outcome of one distance-axiom check on a finite space.

    violations holds the failures in check order as columns: the pair, the
    observed value lhs and the bound rhs it had to satisfy.
    """

    axiom: str
    passed: bool
    violations: Violations = field(default_factory=Violations)


@dataclass
class ConditionReport(_Report):
    """Outcome of a contraction-style condition check over a sample.

    violations holds the failures as columns: a pair, index, step or i, j
    and eps column naming each failing item, then lhs and rhs as floats.
    margin_min is the smallest rhs - lhs seen (inf when nothing was
    evaluated, e.g. a vacuous trigger); source records where the sample
    came from so a run can be reproduced.
    """

    condition: str
    passed: bool
    checked: int
    violations: Violations = field(default_factory=Violations)
    margin_min: float = math.inf
    source: str = ""


@dataclass
class SolveReport(_Report):
    """Outcome of a fixed-point iteration run."""

    status: str                      # converged | cycle_detected | budget_exhausted
    iterations: int
    fixed_point: Any = None
    residual: float | None = None
    cycle: list | None = None

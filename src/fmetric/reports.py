"""Report dataclasses shared across the checking modules.

Conventions: `passed` is the overall verdict and `violations` lists the
offending items in evaluation order. VerificationReport stores them as
index and value arrays and writes its own to_dict, and its own JSON for
dumps; the others share _FieldReport's to_dict. Every to_dict returns
plain JSON data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np


def _jsonable(value):
    if isinstance(value, VerificationReport):
        return value.to_dict()
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
    value. Here a VerificationReport writes its violation list from its
    arrays, one %-template for every record, since D3 lists are the only
    long lists the benchmark's commands print: 38,108 records on a
    non-metric table at n = 300, against 93 in the longest condition
    violation list. Every other value is walked and written as json.dumps
    would write it.
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
    if isinstance(value, VerificationReport):
        return value._json(nl)
    # None, bools, non-finite floats, numpy scalars and anything else: a
    # scalar needs no indent, and what .item() returns is indented by json
    return json.dumps(_jsonable(value), indent=2).replace("\n", nl)


class _FieldReport:
    """Base of the reports whose to_dict writes each dataclass field, in
    declaration order, through _jsonable."""

    def to_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


@dataclass
class PropertyReport(_FieldReport):
    """Outcome of a pointwise function-property check (F1, F2, altering)."""

    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    note: str = ""


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one distance-axiom check on a finite space.

    Violation k is the pair (labels[ii[k]], labels[jj[k]]), the observed
    value lhs[k] and the bound rhs[k] it had to satisfy, in check order.
    """

    axiom: str
    labels: tuple
    ii: np.ndarray
    jj: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def passed(self) -> bool:
        return self.ii.size == 0

    def head(self, count=None) -> list:
        """The first count violations (all when None) as
        ((x_i, x_j), lhs, rhs) tuples of labels and floats."""
        cols = (c[:count].tolist() for c in (self.ii, self.jj, self.lhs, self.rhs))
        return [((self.labels[i], self.labels[j]), a, b) for i, j, a, b in zip(*cols)]

    violations = property(head, doc="Every violation, as head() lists them, built when read.")

    def to_dict(self) -> dict:
        lab = [_jsonable(x) for x in self.labels] if self.ii.size else []
        # of a float, _jsonable changes only inf and nan
        lhs, rhs = (c.tolist() if np.isfinite(c).all() else _jsonable(c.tolist())
                    for c in (self.lhs, self.rhs))
        rows = zip(self.ii.tolist(), self.jj.tolist(), lhs, rhs)
        return {
            "axiom": self.axiom,
            "passed": self.passed,
            "violations": [{"pair": [lab[i], lab[j]], "lhs": a, "rhs": b} for i, j, a, b in rows],
        }

    def _json(self, nl: str) -> str:
        """to_dict() as dumps writes it, its nested lines starting with nl.
        The violations come straight from the arrays: one record template,
        each label that a pair names encoded once and gathered by index,
        each value column formatted in one pass."""
        inner = nl + "  "
        head = ("{" + inner + '"axiom": ' + _encode(self.axiom, inner)
                + "," + inner + '"passed": ' + _encode(self.passed, inner)
                + "," + inner + '"violations": ')
        if self.passed:
            return head + "[]" + nl + "}"
        item, key = inner + "  ", inner + "    "
        slot = key + "  "
        lab = [None] * len(self.labels)
        for k in np.unique(np.concatenate((self.ii, self.jj))).tolist():
            lab[k] = _encode(_jsonable(self.labels[k]), slot)
        record = ("{" + key + '"pair": [' + slot + "%s," + slot + "%s" + key + "],"
                  + key + '"lhs": %s,' + key + '"rhs": %s' + item + "}")
        rows = zip(map(lab.__getitem__, self.ii.tolist()), map(lab.__getitem__, self.jj.tolist()),
                   _values(self.lhs), _values(self.rhs))
        # one join: each + would copy the long list again
        return "".join((head, "[", item, ("," + item).join(map(record.__mod__, rows)), inner, "]", nl, "}"))


def _values(column: np.ndarray) -> list:
    """Each value of a numeric column as dumps writes it after _jsonable:
    a float by its repr, and inf, -inf and nan quoted, since _jsonable
    spells them as their reprs."""
    values = column.tolist()
    if column.dtype.kind != "f":  # a generator's integers, say
        return [_encode(v, "") for v in values]
    out = list(map(float.__repr__, values))
    for k in np.flatnonzero(~np.isfinite(column)).tolist():
        out[k] = '"' + out[k] + '"'
    return out


@dataclass
class ConditionReport(_FieldReport):
    """Outcome of a contraction-style condition check over a sample.

    margin_min is the smallest rhs - lhs seen (inf when nothing was
    evaluated, e.g. a vacuous trigger); source records where the sample
    came from so a run can be reproduced.
    """

    condition: str
    passed: bool
    checked: int
    violations: list = field(default_factory=list)
    margin_min: float = math.inf
    source: str = ""


@dataclass
class SolveReport(_FieldReport):
    """Outcome of a fixed-point iteration run."""

    status: str                      # converged | cycle_detected | budget_exhausted
    iterations: int
    fixed_point: Any = None
    residual: float | None = None
    cycle: list | None = None

"""Report dataclasses shared across the checking modules.

Conventions: `passed` is the overall verdict and `violations` lists the
offending items in evaluation order. VerificationReport stores them as
index and value arrays; every to_dict returns plain JSON data.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np


def _jsonable(value):
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
    value. Here a list of same-shaped flat records (such as a violation
    list) goes through one %-template, and each column of those records
    is encoded in bulk; every other value is written as json.dumps would.
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
        items = _records(value, inner)
        if items is None:
            items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
        if not value:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            _encode_str(k) + ": " + _encode(v, inner) for k, v in value.items()
        ) + nl + "}"
    # None, bools, non-finite floats, numpy scalars and anything else: a
    # scalar needs no indent, and what .item() returns is indented by json
    return json.dumps(_jsonable(value), indent=2).replace("\n", nl)


def _records(items, nl: str):
    """Encoded items of a list of flat records, or None for any other list.

    Flat records are dicts with the same keys in the same order, whose
    values are scalars or, per key, lists of scalars of one length. Each
    record's lines start with nl.
    """
    first = items[0]
    if not isinstance(first, dict) or not first or not all(type(k) is str for k in first):
        return None
    keys = list(first)
    if not all(isinstance(r, dict) and list(r) == keys for r in items):
        return None
    inner = nl + "  "
    template = []
    columns = []
    for k in keys:
        col = [r[k] for r in items]
        head = _encode_str(k).replace("%", "%%") + ": "
        if isinstance(col[0], (list, tuple)):
            width = len(col[0])
            if not all(isinstance(v, (list, tuple)) and len(v) == width for v in col):
                return None
            slot = inner + "  "
            template.append(
                head + "[" + slot + ("," + slot).join(["%s"] * width) + inner + "]"
                if width else head + "[]"
            )
            parts = [(part, slot) for part in zip(*col)]
        else:
            template.append(head + "%s")
            parts = [(col, inner)]
        for part, at in parts:
            encoded = _column(part, at)
            if encoded is None:
                return None
            columns.append(encoded)
    if not columns:
        return None
    record = "{" + inner + ("," + inner).join(template) + nl + "}"
    return [record % row for row in zip(*columns)]


def _column(values, nl: str):
    """Each scalar value encoded, one bulk map for a column of finite
    floats, of ints or of strings; None if a value is a container."""
    types = set(map(type, values))
    if types == {float}:
        if math.isfinite(sum(values)):  # an inf or nan anywhere makes the sum so
            return list(map(float.__repr__, values))
    elif types == {int}:
        return list(map(int.__repr__, values))
    elif types == {str}:
        return list(map(_encode_str, values))
    elif any(issubclass(t, (list, tuple, dict)) for t in types):
        return None
    return [_encode(v, nl) for v in values]


@dataclass
class PropertyReport:
    """Outcome of a pointwise function-property check (F1, F2, altering)."""

    name: str
    passed: bool
    checked: int
    failures: list = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": _jsonable(self.failures),
            "note": self.note,
        }


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


@dataclass
class ConditionReport:
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

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "checked": self.checked,
            "violations": _jsonable(self.violations),
            "margin_min": _jsonable(self.margin_min),
            "source": self.source,
        }


@dataclass
class SolveReport:
    """Outcome of a fixed-point iteration run."""

    status: str                      # converged | cycle_detected | budget_exhausted
    iterations: int
    fixed_point: Any = None
    residual: float | None = None
    cycle: list | None = None
    trace: Any = None                # IterationTrace, omitted from to_dict

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "iterations": self.iterations,
            "fixed_point": _jsonable(self.fixed_point),
            "residual": _jsonable(self.residual),
            "cycle": _jsonable(self.cycle),
        }

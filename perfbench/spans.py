"""Spans and counters recorded from outside fmetric, around calls into its modules.

Tracer.install() replaces each traced function at every binding a caller
can resolve: the defining module, every fmetric module that imported the
name with `from x import y` (cli binds verify_D3 as _verify_D3, fspace
binds minplus_closure, conditions binds apply_map), the package namespace,
and class attributes for methods. Bindings are found by identity, so a
rename on import is still covered. remove() restores the originals.

A span records name, start, end, parent span and command id; spans are
kept in memory. A counter only counts calls, for functions that run once
per pair or per matrix entry, where a span per call would swamp the time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    command: int
    parent: Optional[int]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _violations(report) -> dict:
    return {"fspace.violations": len(report.violations)}


def _checked(report) -> dict:
    return {"conditions.pairs": report.checked}


# span name -> (defining module, function, counts taken from the result)
SPANNED = {
    "kernels.closure": [("fmetric._kernels", "minplus_closure", None)],
    "kernels.sweep": [("fmetric._kernels", "relax_sweep", None)],
    "spaceio.load": [("fmetric.spaceio", "load_space_file", None)],
    "fspace.d1d2": [("fmetric.fspace", "check_identity_symmetry", None)],
    "fspace.verify_D3": [("fmetric.fspace", "verify_D3", _violations)],
    "fspace.min_alpha": [("fmetric.fspace", "min_alpha", None)],
    "cli.materialize": [("fmetric.cli", "_materialize", None)],
    "reports.emit": [("fmetric.cli", "_emit_json", None)],
    "corpus.build": [("fmetric.corpus", "build_example", None)],
    "conditions.check": [
        ("fmetric.conditions", name, _checked)
        for name in ("edelstein_check", "kannan_check", "orbital_kannan_check",
                     "shift_condition_check")
    ],
    "solver.picard": [("fmetric.solver", "picard", None)],
}

# counter name -> (defining module, function or Class.method)
COUNTED = {
    "fspace.dist_calls": [("fmetric.fspace", "AnalyticSpace.d")],
    "solver.map_evals": [("fmetric.solver", "apply_map")],
    "fclass.phi_evals": [("fmetric.fclass", "AlteringDistance.eval")],
    "fclass.f_evals": [("fmetric.fclass", "FGenerator.eval")],
}

ROOT = "cli.command"


def _resolve(module: str, qualname: str):
    """The function a module defines, looked up without binding it."""
    owner = sys.modules[module]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _bindings(original) -> list:
    """Every (holder, attribute) in loaded fmetric modules and their classes
    whose value is `original`."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fmetric" or modname.startswith("fmetric.")):
            continue
        holders = [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    found.append((holder, attr))
    return found


class Tracer:
    """Collects spans and per-command counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)  # command id -> counter
        self.command = -1
        self._stack: list = []
        self._saved: list = []  # (holder, attribute, original)
        self._clock0 = time.perf_counter()

    # -- wrappers --
    def _spanned(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled in on return
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(sid, name, tracer.command, parent,
                                         start - tracer._clock0, end - tracer._clock0)
            if on_result is not None:
                tracer.counts[tracer.command].update(on_result(result))
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.command][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove --
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = []
        for name, targets in SPANNED.items():
            for module, qualname, on_result in targets:
                original = _resolve(module, qualname)
                plan.append((original, self._spanned(name, original, on_result)))
        for name, targets in COUNTED.items():
            for module, qualname in targets:
                original = _resolve(module, qualname)
                plan.append((original, self._counted(name, original)))
        for original, wrapper in plan:
            for holder, attr in _bindings(original):
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextmanager
    def command_span(self, command_id: int):
        """Root span of one CLI command; layer spans opened inside are its children."""
        self.command = command_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, ROOT, command_id, None,
                                   start - self._clock0, end - self._clock0)

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out

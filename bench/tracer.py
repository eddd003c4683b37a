"""Span and count recorders wrapped around meanmeasure's public API.

``Tracer.install`` replaces the public functions of each meanmeasure module,
in every module that binds them (``means`` calls ``quad`` through its own
``from .quadrature import quad``), and the public methods of the classes that
carry the work, with wrappers that record a span per call.  Spans stay in
memory; per (name, parent) pair the tracer keeps calls, inclusive time and
self time (inclusive time minus the time covered by child spans), and it
keeps the first ``cap`` raw spans for ``dump``.

Three bindings get special recorders:

* ``quadrature.quad`` also sums ``QuadratureResult.evaluations``;
* ``measures.catalog`` returns its measure with a density that counts calls;
* ``ConstructedMeasure.log_F`` is only counted.  It runs once per grid point
  in the constructor, and a span there would inflate the constructor's time.

``OrdinaryMean`` is left alone for the same reason: its section is called
for every quadrature node of the tabulation, inside ``build``'s self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

_MODULES = ("intervals", "quadrature", "measures", "means", "construct",
            "setparse", "verify", "cli")

# class -> methods given a span; None means every public method
_CLASSES = {
    ("intervals", "IntervalSet"): None,
    ("measures", "MeasureSpec"): None,
    ("construct", "ConstructedMeasure"): ("__init__", "to_spec"),
}


class Tracer:
    def __init__(self, cap: int = 50_000):
        self.cap = cap
        self.op = 0  # index of the operation being run, shared by its spans
        self.agg: dict = {}  # (name, parent name) -> [calls, inclusive, self]
        self.counts: dict = {}  # name -> [count]
        self.spans: list = []  # (id, parent id, op, name, start, end)
        self._stack: list = []
        self._next_id = 1

    # -- recorders ---------------------------------------------------------

    def counter(self, name: str) -> list:
        return self.counts.setdefault(name, [0])

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        stack = self._stack
        agg = self.agg
        spans = self.spans
        cap = self.cap
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                key = (name, None if parent is None else parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if len(spans) < cap:
                    spans.append((frame[1], 0 if parent is None else parent[1],
                                  self.op, name, t0, t1))

        return functools.wraps(fn)(traced)

    def _counted(self, name: str, fn):
        cell = self.counter(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap meanmeasure's public API in every module that binds it."""
        pkg = importlib.import_module("meanmeasure")
        modules = {short: importlib.import_module(f"meanmeasure.{short}")
                   for short in _MODULES}
        replaced = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                replaced[id(obj)] = self._function_wrapper(f"{short}.{attr}", obj)
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

        for (short, cls_name), methods in _CLASSES.items():
            cls = getattr(modules[short], cls_name)
            if methods is None:
                methods = [m for m, v in vars(cls).items()
                           if not m.startswith("_") and inspect.isfunction(v)]
            for m in methods:
                setattr(cls, m, self.wrap(f"{short}.{cls_name}.{m}", vars(cls)[m]))
        cm = modules["construct"].ConstructedMeasure
        cm.log_F = self._counted("construct.ConstructedMeasure.log_F", cm.log_F)

    def _function_wrapper(self, name: str, fn):
        if name == "quadrature.quad":
            evals = self.counter("quadrature.evaluations")

            def add(result):
                evals[0] += result.evaluations

            quad_error = sys.modules["meanmeasure.errors"].QuadratureError
            traced = self.wrap(name, fn, on_result=add)

            def quad(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except quad_error as exc:
                    if exc.result is not None:
                        evals[0] += exc.result.evaluations
                    raise

            return functools.wraps(fn)(quad)
        if name == "measures.catalog":
            density_cell = "measures.density_evals"
            traced = self.wrap(name, fn)

            def catalog(*args, **kwargs):
                spec = traced(*args, **kwargs)
                return dataclasses.replace(
                    spec, density=self._counted(density_cell, spec.density))

            return functools.wraps(fn)(catalog)
        return self.wrap(name, fn)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "agg": [[n, p, *rec] for (n, p), rec in self.agg.items()],
            "counts": {k: v[0] for k, v in self.counts.items()},
        }

    def dump(self, path, extra: dict | None = None) -> None:
        """Write the aggregates and the kept spans as one JSON document."""
        doc = self.snapshot()
        doc["spans"] = self.spans
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


class Totals:
    """Aggregates merged from one or more tracers (the CLI children's files)."""

    def __init__(self):
        self.agg: dict = {}
        self.counts: dict = {}

    def merge(self, snapshot: dict) -> None:
        for n, p, calls, incl, self_t in snapshot["agg"]:
            rec = self.agg.setdefault((n, p), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_t
        for k, v in snapshot["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v

    def self_time(self, pred) -> float:
        return sum(rec[2] for (n, _), rec in self.agg.items() if pred(n))

    def inclusive(self, name: str, parent: str | None = None) -> float:
        return sum(rec[1] for (n, p), rec in self.agg.items()
                   if n == name and (parent is None or p == parent))

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.agg.items() if n == name)

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

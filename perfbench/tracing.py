"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps each public function below and rebinds the wrapper
in every ``pseudobell`` module namespace that holds the original, because
``cli``, ``verify`` and ``constructor`` import names with ``from … import``.
Methods are wrapped on their class.  ``uninstall`` puts every original back,
so untraced passes run the program unchanged.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory until the run ends; ``summary`` then derives calls and self time
(duration minus the time covered by child spans) per layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute) — the public entry points of each layer
FUNCTIONS = [
    ("cli.main", "pseudobell.cli", "main"),
    ("verify.run_all", "pseudobell.verify", "run_all"),
    ("constructor.catalog", "pseudobell.constructor", "catalog"),
    ("constructor.build_state", "pseudobell.constructor", "build_state"),
    ("constructor.solve_weight", "pseudobell.constructor", "solve_weight"),
    ("graded_states.graded_tensor", "pseudobell.graded_states", "graded_tensor"),
    ("graded_states.coherent_state", "pseudobell.graded_states", "coherent_state"),
    ("biortho.basis_from_alpha", "pseudobell.biortho", "basis_from_alpha"),
    ("entanglement.embed", "pseudobell.entanglement", "embed"),
    ("entanglement.normalize", "pseudobell.entanglement", "normalize"),
    ("entanglement.concurrence", "pseudobell.entanglement", "concurrence"),
    ("entanglement.average_entropy", "pseudobell.entanglement", "average_entropy"),
    ("entanglement.partial_trace", "pseudobell.entanglement", "partial_trace"),
    ("entanglement.linear_entropy", "pseudobell.entanglement", "linear_entropy"),
    ("entanglement.closed_form", "pseudobell.entanglement", "concurrence_closed_form"),
    ("entanglement.closed_form", "pseudobell.entanglement", "case_b_concurrence"),
    ("entanglement.closed_form", "pseudobell.entanglement", "average_entropy_closed_form"),
    ("entanglement.closed_form", "pseudobell.entanglement", "average_entropy_equal_alpha"),
]

# (span name, module, class, method)
METHODS = [
    ("grassmann.mul", "pseudobell.grassmann", "GrassmannElement", "__mul__"),
    ("grassmann.berezin", "pseudobell.grassmann", "GrassmannElement", "berezin"),
    ("graded_states.premultiply", "pseudobell.graded_states", "GradedState", "premultiply"),
    ("graded_states.integrate", "pseudobell.graded_states", "GradedState", "integrate"),
]

OP_SPAN = "bench.op"
BUILD = "constructor.build_state"
SOLVE = "constructor.solve_weight"
TENSOR = "graded_states.graded_tensor"


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names = [OP_SPAN] + sorted({n for n, *_ in FUNCTIONS + METHODS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []
        # distinct (weight, spec) inputs of build_state, per operation id
        self.build_inputs: dict[int, set] = {}

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self._ids[span]
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer._op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if span != BUILD:
            return traced

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            key = (args, frozenset(kwargs.items()))
            tracer.build_inputs.setdefault(tracer._op_id, set()).add(key)
            return traced(*args, **kwargs)

        return keyed

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span tagged with its id."""
        self._op_id = op_id
        try:
            return self._wrap(fn, OP_SPAN)()
        finally:
            self._op_id = -1

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pseudobell" or k.startswith("pseudobell."))]
        for span, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for span, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- summarizing ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Calls and self seconds per layer, in total and per operation id."""
        a = self.arrays()
        n, k = len(a["name"]), len(self.names)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=n)
        self_s = (dur - covered) / 1e9
        calls = np.bincount(a["name"], minlength=k)
        self_total = np.bincount(a["name"], weights=self_s, minlength=k)
        ops = sorted(set(a["op"].tolist()))
        per_op = {}
        for op_id in ops:
            sel = a["op"] == op_id
            c = np.bincount(a["name"][sel], minlength=k)
            s = np.bincount(a["name"][sel], weights=self_s[sel], minlength=k)
            per_op[op_id] = {self.names[i]: {"calls": int(c[i]), "self_s": float(s[i])}
                             for i in range(k) if c[i]}
        # graded_tensor expansions that ran under a solve_weight span
        solve, tensor = self._ids[SOLVE], self._ids[TENSOR]
        under_solve = 0
        for idx in np.flatnonzero(a["name"] == tensor):
            p = a["parent"][idx]
            while p >= 0 and a["name"][p] != solve:
                p = a["parent"][p]
            under_solve += p >= 0
        return {
            "spans": n,
            "calls": {self.names[i]: int(calls[i]) for i in range(k)},
            "self_s": {self.names[i]: float(self_total[i]) for i in range(k)},
            "per_op": per_op,
            "tensor_under_solve": int(under_solve),
            "build_distinct": sum(len(v) for v in self.build_inputs.values()),
        }

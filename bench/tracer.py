"""Layer spans recorded from outside the engine.

``Tracer.install`` rebinds each timed public function of ``src/infdiag``
to a wrapper, in every loaded ``infdiag`` module that holds the function
under some name (``topological_order`` lives in ``diagram``, ``transform``,
``inference`` and ``oracle``; ``apply_step`` in ``transform`` and
``inference``; and so on), so calls between modules are seen as well as
calls from the benchmark. ``uninstall`` puts the originals back; the
untraced passes run with no wrapper installed.

Each span records its layer, the request it belongs to, its start and end,
its parent span and the time its children covered; a layer's self time is
its duration minus that child time. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Layer -> public functions timed in the traced run. ``oracle`` is the
# referee and ``cli`` is not on a timed path, so neither is listed.
LAYERS = {
    "modelio": ("load", "save"),
    "diagram": ("validate", "topological_order"),
    "transform": ("reverse_arc", "condition", "sum_out", "remove_barren",
                  "refactor", "apply_step"),
    "inference": ("posterior", "plan_reversals", "compare_orders",
                  "d_separated"),
}

# Plans are only counted for the planner that discards work:
# compare_orders returns every order it executes.
PLANNER = "inference.plan_reversals"

# Field positions in one span record.
NAME, REQUEST, START, END, PARENT, CHILD_S, EXTRA = range(7)


def _load_bytes(args, result):
    return len(args[0])


def _save_bytes(args, result):
    return len(result)


def _reversal_cells(args, result):
    """(cells written, largest table, uniform-fill notes added) of one
    reversal, from the tables it returned for its two endpoints."""
    before, x, y = args[0], args[1], args[2]
    cells = peak = 0
    for name in (x, y):
        spec = result.nodes[name]
        if spec is before.nodes[name]:
            continue
        size = 1 if spec.kind == "deterministic" else spec.n_outcomes
        for p in spec.parents:
            size *= result.nodes[p].n_outcomes
        cells += size
        peak = max(peak, size)
    return cells, peak, len(result.notes) - len(before.notes)


def _plan_steps(args, result):
    return len(result.steps)


MEASURES = {
    "modelio.load": _load_bytes,
    "modelio.save": _save_bytes,
    "transform.reverse_arc": _reversal_cells,
    "inference.plan_reversals": _plan_steps,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.bindings = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "infdiag" or n.startswith("infdiag.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"infdiag.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.bindings.append(
                                (module, attr, original, wrapper))

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self.stack, MEASURES.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, self.request, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - start
            if measure is not None:
                rec[EXTRA] = measure(args, result)
            return result

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def totals(self, first: int) -> dict[str, float]:
        """Per-layer totals over the spans recorded since index ``first``."""
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            for fname in functions:
                out[f"{layer}.{fname}.calls"] = 0
                out[f"{layer}.{fname}.self_s"] = 0.0
        out.update({"modelio.load.bytes": 0, "modelio.save.bytes": 0,
                    "transform.reverse_arc.cells_written": 0,
                    "transform.reverse_arc.peak_cells": 0,
                    "transform.reverse_arc.zero_rows": 0})
        planned_steps = planning_calls = 0
        spans = self.spans
        for i in range(first, len(spans)):
            rec = spans[i]
            name = rec[NAME]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += rec[END] - rec[START] - rec[CHILD_S]
            extra = rec[EXTRA]
            if extra is None and name in MEASURES:
                continue  # the call raised; the request is counted as failed
            if name == "transform.reverse_arc":
                cells, peak, zero_rows = extra
                out["transform.reverse_arc.cells_written"] += cells
                out["transform.reverse_arc.peak_cells"] = max(
                    out["transform.reverse_arc.peak_cells"], peak)
                out["transform.reverse_arc.zero_rows"] += zero_rows
            elif name in ("modelio.load", "modelio.save"):
                out[name + ".bytes"] += extra
            elif name == PLANNER:
                planned_steps += extra
            elif name == "transform.apply_step":
                parent = rec[PARENT]
                while parent >= 0 and spans[parent][NAME] != PLANNER:
                    parent = spans[parent][PARENT]
                planning_calls += parent >= 0
        out["inference.plan.useful_ratio"] = (
            planned_steps / planning_calls if planning_calls else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON document."""
        fields = ["layer", "request", "start_s", "end_s", "parent",
                  "child_s", "extra"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

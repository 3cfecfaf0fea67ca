"""Span tracing of flatknot's layers, installed from outside the package.

Each layer's public entry points are replaced, in every flatknot module
that binds them, by a wrapper that records a span (name, layer, parent,
start, end).  Calls made inside the package therefore pass through the
wrappers too: `resistance_energy` opens an energy span whose child is the
`enumerate_cycles` span it calls.  A call nested directly in a span of the
same layer (`enumerate_cycles` calling `enumerate_cycles_graph`,
`whitney_index` calling `gauss_from_curve`) is folded into the outer span,
so each layer counts the calls made into it from outside it.

Spans are kept in memory and written when the traced window closes.  The
window is cut into phases (set-up, then the measured round); each span
belongs to the phase it starts in, and each phase is summed on its own.
A span's self time is its duration minus the time covered by its child
spans; the time of a phase covered by no span at all is the harness's
own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> (defining module, entry points)
LAYERS = {
    "diagram.detect": ("flatknot.diagram", ("detect_crossings",)),
    "diagram.cycles": ("flatknot.diagram", ("enumerate_cycles", "enumerate_cycles_graph")),
    "diagram.energy": ("flatknot.diagram", ("resistance_energy", "mre", "gmre")),
    "diagram.faces": ("flatknot.diagram", ("diagram_faces",)),
    "flow": ("flatknot.flow", ("relax",)),
    "lattice": (
        "flatknot.lattice",
        ("grid_cycle_count", "gstar_alternated_count", "woven_fragment"),
    ),
    "uniformization": (
        "flatknot.uniformization",
        ("energy_uf", "uf_gradient", "project_closure", "gradient_norm"),
    ),
    "curve": (
        "flatknot.curve",
        ("gauss_from_curve", "whitney_index", "resample_arclength", "curve_from_gauss"),
    ),
    "pendulum": ("flatknot.pendulum", ("build_infinity_curve", "find_critical_xi", "delta_x")),
}

HARNESS = "harness"
PHASES = ("setup", "round")


def _result_size(layer, result):
    """Work count carried by a span: cycles found, cycles kept, iterates."""
    if layer == "diagram.cycles":
        return len(result)
    if layer == "diagram.energy":
        return len(result.cycles)
    if layer == "flow":
        return len(result.energies)
    return 0


class Tracer:
    """Records spans while installed; `close` restores the package."""

    def __init__(self):
        self.spans = []  # [id, parent, phase, layer, name, start_ns, end_ns, size, child_ns, child_cycles]
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.phase = 0
        self.bounds_ns = []  # start of each phase, then the end of the window

    def install(self):
        for layer, (defmod, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[defmod], name)
                wrapper = self._wrap(layer, name, original)
                for modname, mod in list(sys.modules.items()):
                    if modname.split(".")[0] != "flatknot" or mod is None:
                        continue
                    if getattr(mod, name, None) is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        self.bounds_ns = [time.perf_counter_ns()]
        return self

    def next_phase(self):
        """End the current phase; later spans belong to the next one."""
        assert not self._stack, "a phase ends only between top-level calls"
        self.bounds_ns.append(time.perf_counter_ns())
        self.phase += 1

    def close(self):
        self.bounds_ns.append(time.perf_counter_ns())
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, layer, name, fn):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] == layer:
                return fn(*args, **kwargs)
            span = [len(spans), parent[0] if parent else None, self.phase, layer, name, 0, 0, 0, 0, 0]
            spans.append(span)
            stack.append(span)
            span[5] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[8] += span[6] - span[5]
            span[7] = _result_size(layer, result)
            if layer == "diagram.cycles" and parent is not None:
                parent[9] += span[7]
            return result

        return wrapper

    # ------------------------------------------------------------------
    # summaries

    def wall_ns(self, phase: int) -> int:
        return self.bounds_ns[phase + 1] - self.bounds_ns[phase]

    def n_spans(self, phase: int) -> int:
        return sum(1 for span in self.spans if span[2] == phase)

    def layer_totals(self, phase: int):
        """layer -> {calls, self_ns, size, child_cycles} over one phase, plus the harness."""
        totals = {layer: dict(calls=0, self_ns=0, size=0, child_cycles=0) for layer in LAYERS}
        covered = 0
        for _, parent, span_phase, layer, _, start, end, size, child_ns, child_cycles in self.spans:
            if span_phase != phase:
                continue
            t = totals[layer]
            t["calls"] += 1
            t["self_ns"] += (end - start) - child_ns
            t["size"] += size
            t["child_cycles"] += child_cycles
            if parent is None:
                covered += end - start
        totals[HARNESS] = dict(calls=0, self_ns=self.wall_ns(phase) - covered, size=0, child_cycles=0)
        return totals

    def write(self, spans_path, totals_path):
        """Spans as JSON lines (times relative to the window start) and the totals per phase."""
        start_ns = self.bounds_ns[0]
        with open(spans_path, "w") as fh:
            for sid, parent, phase, layer, name, start, end, size, _, _ in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "phase": PHASES[phase],
                            "layer": layer,
                            "name": name,
                            "start_us": (start - start_ns) / 1e3,
                            "end_us": (end - start_ns) / 1e3,
                            "size": size,
                        }
                    )
                    + "\n"
                )
        with open(totals_path, "w") as fh:
            phases = {
                name: {"wall_ns": self.wall_ns(k), "layers": self.layer_totals(k)} for k, name in enumerate(PHASES)
            }
            json.dump(phases, fh, indent=1)

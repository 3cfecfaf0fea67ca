"""The benchmark reaches flatknot by name: `benchmark/spans.py` wraps the
entry points listed in its LAYERS table, and `benchmark/reference.py` and
`benchmark/workloads.py` call the flow directly and read the diagram
records.  A rename or deletion in the package must fail here, not only in
a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from flatknot import flow
from flatknot.curve import ClosedCurve
from flatknot.diagram import detect_crossings, diagram_faces, enumerate_cycles
from flatknot.fixtures import trefoil_curve

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _traced_entry_points():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans.LAYERS.values() for name in names]


@pytest.mark.parametrize("module, name", _traced_entry_points())
def test_traced_entry_point_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_flow_step_positional_call():
    c = trefoil_curve(128)
    curve, step = flow.flow_step(c, flow.FlowConfig(resistance="RE"), 1e-4, detect_crossings(c))
    assert curve.n == c.n and step > 0


@pytest.mark.parametrize(
    "fn, args",
    [
        (flow.relax, ("curve", "cfg", "keyframe_cb")),
        (flow.classify_event, ("before", "after", 0.1)),
    ],
)
def test_public_flow_signatures(fn, args):
    inspect.signature(fn).bind(*args)


def test_diagram_records_read_by_workloads():
    d = detect_crossings(trefoil_curve(128))
    faces = diagram_faces(d)
    assert len(faces) == d.n_crossings + 2
    for edges, signed, walk in faces:
        assert edges == frozenset(eid for eid, _ in walk) and isinstance(signed, float)
    for cy in enumerate_cycles(d):
        assert cy.polyline.shape[1] == 2 and cy.n_arcs >= 1
        assert isinstance(cy.alternated, bool) and cy.area > 0


def test_trace_read_by_workloads():
    """The flow workloads and the flow span read these attributes of a
    FlowTrace: energies as (iter, U, R, total) with total = U + R, the
    crossing counts, how it ended, the final curve and the events."""
    tr = flow.relax(trefoil_curve(128), flow.FlowConfig(resistance="RE", max_iters=3))
    assert len(tr.energies) == len(tr.crossing_counts) == 3
    for k, (it, u, r, total) in enumerate(tr.energies):
        assert it == k and total == u + r
    assert tr.crossing_counts == [3, 3, 3]
    assert tr.terminated == "max_iters" and isinstance(tr.final_curve, ClosedCurve)
    assert tr.events == []

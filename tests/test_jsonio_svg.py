import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from flatknot.diagram import detect_crossings, enumerate_cycles
from flatknot.fixtures import circle_curve, noisy_circle, trefoil_curve
from flatknot.flow import FlowConfig, relax
from flatknot.jsonio import (
    census_to_json,
    curve_from_json,
    curve_to_json,
    diagram_from_json,
    diagram_to_json,
    write_trace_jsonl,
)
from flatknot.svg import RenderSpec, curve_svg, diagram_svg


def test_curve_round_trip():
    c = trefoil_curve(128)
    back = curve_from_json(json.loads(json.dumps(curve_to_json(c))))
    assert np.allclose(back.points, c.points)
    assert back.length == c.length


def test_diagram_round_trip_preserves_over_under():
    d = detect_crossings(trefoil_curve(256))
    back = diagram_from_json(json.loads(json.dumps(diagram_to_json(d))))
    assert back.n_crossings == d.n_crossings
    for a, b in zip(d.crossings, back.crossings):
        assert a.over_passage == b.over_passage
        assert a.under_passage == b.under_passage


def test_census_shape(trefoil_diagram):
    census = census_to_json(enumerate_cycles(trefoil_diagram))
    assert census == {
        "counts_by_arcs": {"1": 6, "2": 3, "3": 2},
        "alternated": 11,
        "total": 11,
    }


def test_trace_jsonl(tmp_path):
    cfg = FlowConfig(resistance="none", step0=1e-4, grad_tol=1e-2, max_iters=15)
    tr = relax(noisy_circle(96, seed=1), cfg)
    path = tmp_path / "trace.jsonl"
    write_trace_jsonl(tr, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(tr.records) + len(tr.events)
    for rec, r in zip(lines, tr.records):
        assert (rec["iter"], rec["U"], rec["R"], rec["gmre"], rec["crossings"], rec["whitney"]) == (
            r.iter, r.u, r.r, r.gmre, r.crossings, r.whitney)
        # each iterate a step was taken from carries that step
        if r.step is not None:
            assert (rec["grad_norm"], rec["step"], rec["backtracks"], rec["rejected"]) == (
                r.grad_norm, r.step, len(r.rejected), list(r.rejected))
        else:
            assert "step" not in rec
    assert sum(r.step is not None for r in tr.records) > 0


class TestSvg:
    def test_curve_svg_valid(self):
        root = ET.fromstring(curve_svg(circle_curve(64)))
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_diagram_svg_gaps(self, trefoil_diagram):
        text = diagram_svg(trefoil_diagram, RenderSpec(show_crossings=True))
        root = ET.fromstring(text)
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        # base curve + 2 strand patches per crossing
        assert len(polys) == 1 + 2 * trefoil_diagram.n_crossings

    def test_dimensions_positive(self):
        with pytest.raises(ValueError):
            RenderSpec(width=0)

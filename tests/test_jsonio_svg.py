import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from flatknot.diagram import detect_crossings, enumerate_cycles
from flatknot.fixtures import circle_curve, noisy_circle, random_immersed_curves, trefoil_curve
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


@pytest.mark.parametrize("labelling", [f"trefoil-{k:03b}" for k in range(8)] + ["random"])
def test_diagram_round_trip_preserves_over_under(labelling):
    """Every labelling of the trefoil, and a seeded random labelling of a
    7-crossing random curve, survives diagram JSON; the loaded diagram
    writes the same JSON, byte for byte."""
    if labelling == "random":
        _, d = random_immersed_curves(3, seed=1)[2]
        rule = (np.random.default_rng(5).random(d.n_crossings) < 0.5).tolist()
        assert d.n_crossings == 7 and rule != d.first_over
    else:
        d = detect_crossings(trefoil_curve(256))
        rule = [bit == "1" for bit in labelling[-3:]]
    d = d.relabelled(rule)
    text = json.dumps(diagram_to_json(d))
    back = diagram_from_json(json.loads(text))
    assert [c.passages for c in back.crossings] == [c.passages for c in d.crossings]
    assert back.first_over == d.first_over == rule
    assert back.graph.over_strand == d.graph.over_strand
    alternated = census_to_json(enumerate_cycles(d))["alternated"]
    assert census_to_json(enumerate_cycles(back))["alternated"] == alternated
    assert json.dumps(diagram_to_json(back)) == text


@pytest.mark.parametrize(
    "records",
    [
        [{"over": 0, "under": 99}, {"over": -5, "under": 1}, {"over": 7, "under": 3}],
        [{"over": 0, "under": 0}] * 3,
        [{"over": 0, "under": 3}, {"over": 3, "under": 0}, {"over": 2, "under": 5}],
        [{"over": 0.0, "under": 3}, {"over": 1, "under": 4}, {"over": 2, "under": 5}],
        [{"over": 0, "under": 3}, {"over": 4, "under": True}, {"over": 2, "under": 5}],
    ],
    ids=["unknown-passages", "one-passage", "listed-twice", "float-passage", "bool-passage"],
)
def test_diagram_crossings_must_be_detected_pairs(records):
    """The trefoil's crossings have passage pairs (0, 3), (1, 4) and
    (2, 5): a crossing list is accepted only as those pairs of ints, each
    once.  A list of the right length with other pairs is rejected too,
    and so is 0.0 or true, which equal passages 0 and 1."""
    obj = diagram_to_json(detect_crossings(trefoil_curve(256)))
    assert {tuple(sorted((r["over"], r["under"]))) for r in obj["crossings"]} == {(0, 3), (1, 4), (2, 5)}
    with pytest.raises(ValueError, match="do not fit the curve"):
        diagram_from_json(dict(obj, crossings=records))


def test_diagram_crossings_in_any_order():
    d = detect_crossings(trefoil_curve(256)).relabelled([False, True, False])
    obj = diagram_to_json(d)
    obj["crossings"].reverse()
    assert diagram_from_json(obj).first_over == [False, True, False]


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

    def test_flipped_bit_swaps_the_over_patch(self, trefoil_diagram):
        """At each crossing the under passage's window is painted white and
        the over passage's window is drawn last.  Flipping one crossing's
        bit swaps the two windows there and leaves every other crossing's
        patches as they were."""

        def patches(d):
            polys = [el for el in ET.fromstring(diagram_svg(d)).iter() if el.tag.endswith("polyline")]
            assert all(el.get("stroke") == "#ffffff" for el in polys[1::2])
            assert all(el.get("stroke") != "#ffffff" for el in polys[2::2])
            points = [el.get("points").split() for el in polys]
            return list(zip(points[1::2], points[2::2]))  # per crossing: (under, over)

        d = trefoil_diagram
        before = patches(d)
        for k in range(d.n_crossings):
            after = patches(d.relabelled(fo != (c == k) for c, fo in enumerate(d.first_over)))
            for c, ((under0, over0), (under1, over1)) in enumerate(zip(before, after)):
                if c != k:
                    assert (under1, over1) == (under0, over0)
                else:
                    # the over window is the wider one: each new window covers the other's old one
                    assert over1 != over0
                    assert set(under0) <= set(over1) and set(under1) <= set(over0)

    def test_dimensions_positive(self):
        with pytest.raises(ValueError):
            RenderSpec(width=0)

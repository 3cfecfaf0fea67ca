import sys
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flatknot import diagram as diagram_module
from flatknot.curve import ClosedCurve, resample_arclength
from flatknot.diagram import (
    RESISTANCE_FAMILIES,
    DiagramGraph,
    EnergyBreakdown,
    _segment_intersections,
    detect_crossings,
    diagram_faces,
    enumerate_cycles,
    enumerate_cycles_graph,
    gamma_bound,
    gmre,
    mre,
    resistance,
    resistance_energy,
    shoelace_area,
    signed_area,
)
from flatknot.errors import CodimensionOneError, CycleExplosionError, SingularDiagramError
from flatknot.fixtures import (
    bigon_pair,
    circle_curve,
    limacon_curve,
    random_immersed_curves,
    trefoil_curve,
)
from flatknot.lattice import woven_fragment

from conftest import cycle_vertex_ids, detect_crossings_oracle, enumerate_cycles_graph_oracle, walk_faces_oracle

TWO_PI = 2 * np.pi


def brute_force_crossing_count(points):
    """Oracle: quadratic scan with orientation predicates."""

    def orient(p, q, r):
        return np.sign((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))

    n = len(points)
    count = 0
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            c, d = points[j], points[(j + 1) % n]
            if (
                orient(a, b, c) * orient(a, b, d) < 0
                and orient(c, d, a) * orient(c, d, b) < 0
            ):
                count += 1
    return count


def all_pairs_intersections(pts: np.ndarray):
    """Oracle: the all-pairs O(N^2) crossing detector that the sort-and-sweep
    broad phase of `_segment_intersections` replaced.  All transversal
    interior intersections between non-adjacent segments.

    Returns (i, j, t, u, point, angle) per intersection with parameters in
    [0, 1) along segments i < j.
    """
    n = len(pts)
    a = pts
    b = np.roll(pts, -1, axis=0)
    d = b - a
    ii, jj = np.triu_indices(n, k=2)
    # exclude the wrap-adjacent pair (0, n-1)
    keep = ~((ii == 0) & (jj == n - 1))
    ii, jj = ii[keep], jj[keep]
    # quick bounding-box rejection
    lo_i = np.minimum(a[ii], b[ii])
    hi_i = np.maximum(a[ii], b[ii])
    lo_j = np.minimum(a[jj], b[jj])
    hi_j = np.maximum(a[jj], b[jj])
    boxok = np.all((lo_i <= hi_j) & (lo_j <= hi_i), axis=1)
    ii, jj = ii[boxok], jj[boxok]
    if len(ii) == 0:
        return []
    di, dj = d[ii], d[jj]
    denom = di[:, 0] * dj[:, 1] - di[:, 1] * dj[:, 0]
    rel = a[jj] - a[ii]
    scale = np.hypot(*di.T) * np.hypot(*dj.T)
    ok = np.abs(denom) > 1e-14 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * dj[:, 1] - rel[:, 1] * dj[:, 0]) / denom
        u = (rel[:, 0] * di[:, 1] - rel[:, 1] * di[:, 0]) / denom
    hit = ok & (t >= 0.0) & (t < 1.0) & (u >= 0.0) & (u < 1.0)
    out = []
    for idx in np.nonzero(hit)[0]:
        i, j = int(ii[idx]), int(jj[idx])
        point = a[i] + t[idx] * d[i]
        ang = float(
            abs(np.arctan2(di[idx, 0] * dj[idx, 1] - di[idx, 1] * dj[idx, 0],
                           di[idx, 0] * dj[idx, 0] + di[idx, 1] * dj[idx, 1]))
        )
        out.append((i, j, float(t[idx]), float(u[idx]), point, ang))
    return out


def ear_clip_area(poly):
    """Oracle: triangulation area by ear clipping."""
    pts = [np.asarray(p, dtype=float) for p in poly]
    # drop consecutive duplicates
    cleaned = [pts[0]]
    for p in pts[1:]:
        if np.hypot(*(p - cleaned[-1])) > 1e-12:
            cleaned.append(p)
    if np.hypot(*(cleaned[0] - cleaned[-1])) < 1e-12:
        cleaned.pop()
    pts = cleaned
    signed2 = sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )
    ccw = signed2 > 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def inside(p, a, b, c):
        d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        return (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)

    total = 0.0
    guard = 0
    while len(pts) > 3 and guard < 10**6:
        guard += 1
        m = len(pts)
        for i in range(m):
            a, b, c = pts[(i - 1) % m], pts[i], pts[(i + 1) % m]
            conv = cross(a, b, c)
            if (conv > 0) != ccw or conv == 0:
                continue
            if any(
                inside(pts[j], a, b, c)
                for j in range(m)
                if j not in ((i - 1) % m, i, (i + 1) % m)
            ):
                continue
            total += abs(conv) / 2
            pts.pop(i)
            break
        else:
            raise RuntimeError("no ear found")
    a, b, c = pts
    return total + abs(cross(a, b, c)) / 2


def split_into_arcs(g, cy):
    """Oracle: a cycle's crossings and arcs, the slow way.

    Walks the cycle's darts again and finds, at the crossing after each
    dart, the slot of arrival and the slot of the next departure.  Returns
    those (crossing, slot in, slot out) records and one (start over?, end
    over?) pair per arc, an arc running from one turn crossing to the
    next: it starts on the strand it leaves its first turn by and ends on
    the strand it reaches its last turn by.
    """
    path = list(zip(cy.edge_ids, cy.orientations))
    passes = []
    for k, (eid, fwd) in enumerate(path):
        e0, e1, _ = g.edges[eid]
        nid, nfwd = path[(k + 1) % len(path)]
        n0, n1, _ = g.edges[nid]
        arrive, depart = (e1 if fwd else e0), (n0 if nfwd else n1)
        assert arrive[0] == depart[0]
        passes.append((arrive[0], arrive[1], depart[1]))
    strand = lambda slot: slot // 2
    turns = [k for k, (_, s_in, s_out) in enumerate(passes) if strand(s_in) != strand(s_out)]
    arcs = []
    for a, start in enumerate(turns):
        c_start, _, s_out = passes[start]
        c_end, s_in, _ = passes[turns[(a + 1) % len(turns)]]
        arcs.append((g.over_strand[c_start] == strand(s_out), g.over_strand[c_end] == strand(s_in)))
    return passes, arcs


CAP_SETTINGS = [(None, None), (None, 4), (0.05, 4), (0.05, None)]


def below(cycles, area):
    """The cycles of area < `area`, in their order; all if it is None."""
    return [cy for cy in cycles if area is None or cy.area < area]


def oracle_graphs():
    """The trefoil, eight random curves each also relabelled with seeded
    random over/under bits, and the woven fragments with 2..4 strands."""
    rng = np.random.default_rng(5)
    graphs = [("trefoil", detect_crossings(trefoil_curve(512)).graph)]
    for k, (_, d) in enumerate(random_immersed_curves(8, seed=13, n=200)):
        graphs.append((f"random{k}", d.graph))
        graphs.append((f"random{k}-relabelled", d.relabelled(rng.random(d.n_crossings) < 0.5).graph))
    graphs += [(f"woven{m}", woven_fragment(m)) for m in (2, 3, 4)]
    return graphs


def tiny_loop_far_out():
    """A limacon whose inner loop has area 8e-6, moved far from the origin."""
    c = limacon_curve(512, inner=1.02)
    return detect_crossings(ClosedCurve(c.points + [1e3, -2e3], c.length))


def triple_point_curve():
    """Three straight strands through the origin, joined far away."""
    angles = [0, np.pi / 3, 2 * np.pi / 3]
    pieces = []
    R = 4.0
    for i, th in enumerate(angles):
        u = np.array([np.cos(th), np.sin(th)])
        pieces.append(np.linspace(-R * u, R * u, 41))
        joint_from = R * u
        joint_to = -R * np.array(
            [np.cos(angles[(i + 1) % 3]), np.sin(angles[(i + 1) % 3])]
        )
        mid = 2.2 * R * (joint_from + joint_to) / np.linalg.norm(joint_from + joint_to)
        arc = np.array([joint_from * 0.98 + 0.2 * mid, mid, joint_to * 0.98 + 0.2 * mid])
        pieces.append(arc)
    return ClosedCurve(np.vstack(pieces), 1.0)


def walk_polyline(g, walk):
    """Oracle: the closed polyline of a walk of darts (edge id, forward?),
    each edge's points stacked in traversal order without its last point."""
    return np.vstack([(g.edges[e].points if fwd else g.edges[e].points[::-1])[:-1] for e, fwd in walk])


class TestDetect:
    def test_embedded_circle(self):
        assert detect_crossings(circle_curve(256)).n_crossings == 0

    def test_trefoil(self, trefoil_diagram):
        assert trefoil_diagram.n_crossings == 3
        for c in trefoil_diagram.crossings:
            assert 1e-3 < c.transversality_angle < np.pi - 1e-3
        oracle = brute_force_crossing_count(trefoil_diagram.curve.points)
        assert oracle == 3

    def test_infinity(self, infinity_curve):
        d = detect_crossings(infinity_curve)
        assert d.n_crossings == 1
        assert brute_force_crossing_count(infinity_curve.points) == 1

    def test_edges_consistent(self, trefoil_diagram):
        d = trefoil_diagram
        assert len(d.graph.edges) == 6
        for e in d.graph.edges:
            start = d.crossings[e.end0[0]].position
            end = d.crossings[e.end1[0]].position
            assert np.hypot(*(e.points[0] - start)) < 1e-9
            assert np.hypot(*(e.points[-1] - end)) < 1e-9

    def test_triple_point_rejected(self):
        with pytest.raises(CodimensionOneError):
            detect_crossings(triple_point_curve())

    def test_alternating_rule(self, trefoil_diagram):
        for c in trefoil_diagram.crossings:
            assert {p % 2 for p in c.passages} == {0, 1}

    def test_relabelled_own_rule(self, trefoil_diagram):
        """Relabelling with a diagram's own bits gives the same diagram,
        sharing everything but the one list of bits."""
        d = trefoil_diagram
        d.graph.lobes  # computed before the copy, so the copy shares it
        same = d.relabelled(d.first_over)
        assert detection_record(same) == detection_record(d)
        assert same.first_over == d.first_over
        for name in ("curve", "crossings", "passage_params", "passage_crossing", "crossing_segments"):
            assert getattr(same, name) is getattr(d, name)
        for name in ("edges", "lobes", "left", "slot_edge", "walk"):
            assert getattr(same.graph, name) is getattr(d.graph, name)
        assert same.graph is not d.graph
        assert same.graph.over_strand is not d.graph.over_strand

    def test_relabelled_flips_and_checks_length(self, trefoil_diagram):
        d = trefoil_diagram
        flipped = d.relabelled([not fo for fo in d.first_over])
        assert flipped.first_over == [not fo for fo in d.first_over]
        assert [c.passages for c in flipped.crossings] == [c.passages for c in d.crossings]
        assert flipped.graph.over_strand == [1 - s for s in d.graph.over_strand]
        for rule in ([True] * 2, [True] * 4):
            with pytest.raises(ValueError):
                d.relabelled(rule)


def hit_bytes(hits):
    """A detector's hits as bytes, so equality is bitwise and ordered."""
    f = lambda x: np.float64(x).tobytes()
    return [(int(i), int(j), f(t), f(u), point.tobytes(), f(ang)) for i, j, t, u, point, ang in hits]


def assert_sweep_matches_all_pairs(pts):
    """The sweep's hits, one (i, j, t, u, point, angle) tuple each, checked
    bit for bit against the all-pairs scan."""
    pts = np.asarray(pts, dtype=float)
    *arrays, _ = _segment_intersections(pts)
    got = list(zip(*arrays))
    assert hit_bytes(got) == hit_bytes(all_pairs_intersections(pts))
    return got


# a vertex that touches a segment without crossing it, and a segment lying
# along another, in the opposite direction
VERTEX_TOUCH = [(0, 0), (4, 0), (4, 3), (3, 3), (2, 0), (1, 3), (0, 3)]
COLLINEAR_OVERLAP = [(0, 0), (4, 0), (4, 2), (3, 2), (3, 0), (1, 0), (1, -1), (0, -1)]

# polygons that cross themselves through a vertex, and where they cross
_DEG100 = np.radians(100)
VERTEX_CROSSINGS = [
    # a vertical strand bent at a point of a horizontal segment
    ([(0, 0), (4, 0), (4, 2), (2, 2), (2, 0), (2, -2), (0, -2)], [(2.0, 0.0)]),
    # both strands through one vertex each, at the same point
    ([(0, 0), (2, 1), (2, -1), (0, 0), (-2, 1), (-2, -1)], [(0.0, 0.0)]),
    # the same, with the first strand bent by 90 degrees: the second strand
    # leaves at 100 degrees, to the left of the first strand's outgoing
    # segment but in its right-hand sector, so the segments' cross product
    # names the wrong side
    ([(0, 1), (0, 0), (2, 0), (2, 2), (1, 1), (0, 0), (np.cos(_DEG100), np.sin(_DEG100))], [(0.0, 0.0)]),
]


lattice_points = st.tuples(st.integers(0, 4), st.integers(0, 4))


class TestSweepMatchesAllPairs:
    @given(st.integers(0, 10_000), st.sampled_from([64, 200, 512]))
    def test_random_immersed_curves(self, seed, n):
        (c, _), = random_immersed_curves(1, seed=seed, n=n)
        assert assert_sweep_matches_all_pairs(c.points)

    @given(st.lists(lattice_points, min_size=3, max_size=40))
    def test_integer_lattice_polygons(self, pts):
        # tied lower x, zero-width vertical and horizontal boxes, repeated points
        assert_sweep_matches_all_pairs(pts)

    @given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=3, max_size=4))
    def test_three_and_four_segments(self, pts):
        assert_sweep_matches_all_pairs(pts)

    def test_crossing_free_circle(self):
        assert assert_sweep_matches_all_pairs(circle_curve(256).points) == []

    def test_comb_all_boxes_overlap_in_x(self):
        # teeth between x = 0 and x = 1, closed by one long segment that
        # crosses every tooth
        pts = [(k % 2, 0.1 * k) for k in range(64)]
        assert len(assert_sweep_matches_all_pairs(pts)) == 61

    def test_trefoil_4096(self):
        assert len(assert_sweep_matches_all_pairs(trefoil_curve(4096).points)) == 3

    @pytest.mark.parametrize("pts", [VERTEX_TOUCH, COLLINEAR_OVERLAP])
    def test_degenerate_contacts(self, pts):
        # detection rejects both, but the sweep still finds the all-pairs hit
        assert len(assert_sweep_matches_all_pairs(pts)) == 1


def detection_record(d):
    """Every field detection sets, floats as their bits."""
    f = lambda x: np.asarray(x, dtype=float).tobytes()
    return (
        [(f(c.position), c.passages, f(c.transversality_angle)) for c in d.crossings],
        f(d.passage_params),
        list(d.passage_crossing),
        [tuple(seg) for seg in d.crossing_segments],
        list(d.graph.over_strand),
        list(d.graph.left),
        [(e.end0, e.end1, f(e.points)) for e in d.graph.edges],
        d.graph.walk.tolist(),
        list(d.graph.starts),
    )


def detected_or_error(detect, c):
    """The detection record, or the type and location of the error raised."""
    try:
        return detection_record(detect(c))
    except CodimensionOneError as exc:
        return type(exc), np.asarray(exc.location, dtype=float).tobytes()


def subdivided(poly, k):
    """A closed polygon with each edge cut into k equal pieces."""
    p = np.asarray(poly, dtype=float)
    q = np.roll(p, -1, axis=0)
    s = np.arange(k)[None, :, None] / k
    return (p[:, None] + s * (q - p)[:, None]).reshape(-1, 2)


FLOWS = ["RelaxEight-1", "RelaxEight-2", "RelaxReTrefoil-1", "RelaxReTrefoil-2",
         "pool2-none", "pool9-none", "pool1-MRE", "adversarial"]


def flow_input(name):
    """The start curve and config of a named flow: the benchmark's relax
    workloads at a seed, the event flows of test_flow.py (random immersed
    curves, seed 77, N = 256, whose R2 and R3 moves change the map), and
    the adversarial flow, which ends FORBIDDEN."""
    from flatknot import flow
    from flatknot.fixtures import collapse_functional

    kind, _, arg = name.partition("-")
    if kind.startswith("Relax"):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        w = getattr(workloads, kind)(int(arg))
        return w.make_input(), w.cfg
    if kind == "adversarial":
        return limacon_curve(inner=2.0, n=256), flow.FlowConfig(
            functional=collapse_functional(), resistance="none", delta=0.05, grad_tol=1e-6)
    c0 = random_immersed_curves(12, seed=77, n=256)[int(kind[4:])][0]
    return c0, flow.FlowConfig(resistance=arg, delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=150)


def flow_detections(name, monkeypatch):
    """Every detection a flow makes, as (curve, parent, the record or the
    error, the diagram or None)."""
    from flatknot import flow

    seen = []
    detect = flow.detect_crossings

    def spy(c, parent=None):
        try:
            d = detect(c, parent)
        except CodimensionOneError as exc:
            seen.append((c, parent, (type(exc), np.asarray(exc.location, dtype=float).tobytes()), None))
            raise
        seen.append((c, parent, detection_record(d), d))
        return d

    monkeypatch.setattr(flow, "detect_crossings", spy)
    flow.relax(*flow_input(name))
    return seen


class TestDetectionMatchesOracle:
    """Detection against the post-processing, checks and edge table it
    replaced (conftest), which loop over hits and passages in Python:
    every field bit for bit, and the same error at the same location."""

    def test_census_pools(self, census_pools):
        for d in census_pools:
            assert detected_or_error(detect_crossings, d.curve) == detected_or_error(detect_crossings_oracle, d.curve)

    def test_random_immersed_curves(self):
        for c, _ in random_immersed_curves(300, seed=41, n=256):
            assert detected_or_error(detect_crossings, c) == detected_or_error(detect_crossings_oracle, c)

    def test_flow_iterates_and_candidates(self, monkeypatch):
        """Every curve the benchmark flows at seed 1 and the event flows
        detect, each line-search candidate against its parent: the same
        record, or error, as a detection without a parent and as the
        oracle.  Some candidate takes its parent's edge layout, sharing
        the parent's walk, some builds its edge table anew
        (`_build_edges`' fallback), and some rebuilds the pair list on
        its own samples."""
        reused = fresh_edges = rebuilt = 0
        for name in FLOWS:
            if name.endswith("-2"):
                continue
            seen = flow_detections(name, monkeypatch)
            assert len(seen) > 17, name
            for c, parent, got, d in seen:
                assert got == detected_or_error(detect_crossings, c) == detected_or_error(detect_crossings_oracle, c)
                if d is None or parent is None:
                    continue
                if d.graph.slot_edge is parent.graph.slot_edge:
                    reused += 1
                    assert d.graph.walk is parent.graph.walk and d.graph.starts is parent.graph.starts
                elif d.n_crossings:
                    fresh_edges += 1
                if d.near is not parent.near:
                    rebuilt += 1
                    assert d.near.points is c.points
        assert min(reused, fresh_edges, rebuilt) > 0

    def test_first_passage_is_first_occurrence(self, census_pools, monkeypatch):
        """Crossings are numbered in order of first passage, so passage p is
        its crossing's first exactly when `passage_crossing[p]` does not
        occur before p: the owner sequence alone fixes the first passages,
        which is why `_Layout` and `same_map` need no first-passage flags.
        Checked on the census pools, the random immersed curves and every
        diagram the benchmark flows at seed 1 and the event flows detect."""
        diagrams = list(census_pools) + [d for _, d in random_immersed_curves(300, seed=41, n=256)]
        for name in FLOWS:
            if not name.endswith("-2"):
                diagrams += [d for _, _, _, d in flow_detections(name, monkeypatch) if d is not None]
        assert sum(d.n_crossings > 0 for d in diagrams) > 300
        for d in diagrams:
            owner = d.passage_crossing
            flags = [d.crossings[x].passages[0] == p for p, x in enumerate(owner)]
            assert flags == [x not in owner[:p] for p, x in enumerate(owner)]

    def test_within_half_the_skin(self):
        """A curve moved by less than half the skin keeps its parent's pair
        list and finds the crossings the move made: the spike stops 0.1
        below the top edge on the reference and rises 0.15 through it,
        within half the skin of 0.4 * 2pi / 8 = 0.31."""
        spike = np.array([(0, 0), (4, 0), (4, 3), (0, 3), (0, 1), (1.9, 1), (2.0, 2.9), (2.1, 1)], dtype=float)
        ref = ClosedCurve(spike, 1.0)
        parent = detect_crossings(ref, detect_crossings(ref))
        lift = np.zeros_like(spike)
        lift[6, 1] = 0.15
        moved = ClosedCurve(spike + lift, 1.0)
        d = detect_crossings(moved, parent)
        assert (parent.n_crossings, d.n_crossings) == (0, 2) and d.near is parent.near
        assert detection_record(d) == detection_record(detect_crossings(moved))

    def test_moved_past_half_the_skin(self):
        """A curve moved by more than half the skin builds its own pair
        list, and so finds the two crossings of the bigon that the stale
        list misses."""
        crossed, clear = bigon_pair()
        parent = detect_crossings(clear, detect_crossings(clear))
        near = parent.near
        assert near is not None and near.points is clear.points
        assert np.max(np.abs(crossed.points - clear.points)) > near.skin / 2
        assert len(_segment_intersections(crossed.points, near)[0]) < 2
        d = detect_crossings(crossed, parent)
        assert d.near is not near and d.n_crossings == 2
        assert detection_record(d) == detection_record(detect_crossings(crossed))

    def test_degenerate_inputs(self):
        cases = {
            "triple point": triple_point_curve().points,
            # two segments crossing at an angle of about 4e-4
            "tangential": [(0, 0), (10, 0.002), (10, 0), (0, 0.002)],
            # two crossings 1e-10 apart
            "concurrent": [(0, 0), (2, 0), (2, 1), (1, 1), (1, -1), (1 + 1e-10, -1), (1 + 1e-10, 1), (0, 1)],
        }
        for name, pts in cases.items():
            c = ClosedCurve(np.asarray(pts, dtype=float), 1.0)
            want = detected_or_error(detect_crossings_oracle, c)
            assert want[0] is CodimensionOneError, name
            assert detected_or_error(detect_crossings, c) == want, name

    def test_faces_match_oracle_rotations(self, census_pools):
        """The walk over the rotation bits against the walk over the angle
        sort of the edges' departures (conftest), bit for bit."""
        graphs = [g for _, g in oracle_graphs()] + [woven_fragment(5)] + [d.graph for d in census_pools]
        curves = [c for c, _ in random_immersed_curves(300, seed=41, n=256)]
        curves += [trefoil_curve(n) for n in (128, 256, 512, 1024)] + [limacon_curve(512), *bigon_pair()]
        curves += [ClosedCurve(np.asarray(pts, dtype=float), 1.0) for pts, _ in VERTEX_CROSSINGS]
        graphs += [detect_crossings(c).graph for c in curves]
        assert len(graphs) > 340
        for g in graphs:
            assert diagram_module._walk_faces(g) == walk_faces_oracle(g)


class TestDegenerateContacts:
    """Contacts that are not transversal crossings raise with a location;
    a crossing through a vertex where the curve really crosses stays one."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_vertex_touch(self, k):
        with pytest.raises(CodimensionOneError, match="touch without crossing") as err:
            detect_crossings(ClosedCurve(subdivided(VERTEX_TOUCH, k), 1.0))
        assert np.array_equal(err.value.location, [2.0, 0.0])

    def test_collinear_overlap(self):
        with pytest.raises(CodimensionOneError, match="collinear overlap") as err:
            detect_crossings(ClosedCurve(np.asarray(COLLINEAR_OVERLAP, dtype=float), 1.0))
        assert np.array_equal(err.value.location, [2.0, 0.0])

    def test_spike_along_a_segment(self):
        # the second segment folds back along the first, an adjacent pair
        # the pair search skips; the vertex it ends on meets the first
        pts = [(0, 0), (4, 0), (2, 0), (2, 1), (-1, 1), (-1, -1), (0, -1)]
        with pytest.raises(CodimensionOneError, match="collinear overlap at a vertex") as err:
            detect_crossings(ClosedCurve(np.asarray(pts, dtype=float), 1.0))
        assert np.array_equal(err.value.location, [2.0, 0.0])

    def test_overlap_of_starts(self):
        # two segments along the x axis, each starting inside the other:
        # no hit at either end, so only the parallel pairs show it
        pts = [(0, 0), (4, 0), (4, 2), (-2, 2), (-2, -1), (3, -1), (3, 0), (-1, 0), (-1, 1), (-3, 1), (-3, -2), (0, -2)]
        with pytest.raises(CodimensionOneError, match="collinear overlap") as err:
            detect_crossings(ClosedCurve(np.asarray(pts, dtype=float), 1.0))
        assert np.array_equal(err.value.location, [1.5, 0.0])

    @pytest.mark.parametrize("pts,want", VERTEX_CROSSINGS)
    def test_crossing_through_a_vertex(self, pts, want):
        c = ClosedCurve(np.asarray(pts, dtype=float), 1.0)
        d = detect_crossings(c)
        assert [tuple(cr.position) for cr in d.crossings] == want
        assert detection_record(d) == detection_record(detect_crossings_oracle(c))


class TestEnumerate:
    def test_trefoil_census(self, trefoil_diagram):
        cycles = enumerate_cycles(trefoil_diagram)
        by_arcs = {}
        for cy in cycles:
            by_arcs[cy.n_arcs] = by_arcs.get(cy.n_arcs, 0) + 1
        assert len(cycles) == 11
        assert by_arcs == {1: 6, 2: 3, 3: 2}
        assert all(cy.alternated for cy in cycles)

    def test_infinity_two_lobes(self, infinity_curve):
        cycles = enumerate_cycles(detect_crossings(infinity_curve))
        assert len(cycles) == 2
        assert all(cy.n_arcs == 1 and cy.alternated for cy in cycles)

    def test_circle_convention(self):
        cycles = enumerate_cycles(detect_crossings(circle_curve(256)))
        assert len(cycles) == 1
        assert cycles[0].alternated and cycles[0].n_arcs == 1

    def test_circle_ignores_limit(self):
        # a crossing-free diagram has its one cycle under any limit
        d = detect_crossings(circle_curve(256))
        cycles = enumerate_cycles(d, max_cycles=0)
        assert cycle_records(cycles) == cycle_records(enumerate_cycles(d))
        assert cycles[0].area == pytest.approx(np.pi, rel=1e-3)

    def test_caps(self, trefoil_diagram):
        g = trefoil_diagram.graph
        assert len(enumerate_cycles_graph(g, arc_cap=2)) == 9
        areas = [cy.area for cy in enumerate_cycles(trefoil_diagram)]
        cap = sorted(areas)[4]
        assert len(below(enumerate_cycles_graph(g), cap)) == 4

    def test_explosion_guard(self, trefoil_diagram):
        with pytest.raises(CycleExplosionError, match="cycle explosion") as err:
            enumerate_cycles(trefoil_diagram, max_cycles=5)
        assert err.value.partial_count == 6

    def test_each_crossing_once(self, trefoil_diagram):
        for cy in enumerate_cycles(trefoil_diagram):
            used = [c for c, _, _ in split_into_arcs(trefoil_diagram.graph, cy)[0]]
            assert len(used) == len(set(used))

    @pytest.mark.parametrize("area_below,arc_cap", CAP_SETTINGS)
    def test_carried_bits_match_arc_splitting(self, area_below, arc_cap):
        non_alternated = 0
        for name, g in oracle_graphs():
            for cy in below(enumerate_cycles_graph(g, arc_cap=arc_cap), area_below):
                _, arcs = split_into_arcs(g, cy)
                assert cy.n_arcs == max(1, len(arcs)), name
                assert cy.alternated == all(start != end for start, end in arcs), name
                non_alternated += not cy.alternated
        assert non_alternated > 0

    def test_cycles_embedded(self, trefoil_diagram):
        for cy in enumerate_cycles(trefoil_diagram):
            assert brute_force_crossing_count(cy.polyline) == 0

    @given(st.integers(0, 12))
    def test_orientation_involution(self, idx):
        pool = random_immersed_curves(13, seed=31, n=200)
        c, d = pool[idx]
        rev = detect_crossings(c.reversed())
        sig = sorted((cy.n_arcs, round(cy.area, 8)) for cy in enumerate_cycles(d))
        sig_rev = sorted((cy.n_arcs, round(cy.area, 8)) for cy in enumerate_cycles(rev))
        assert sig == sig_rev

    @given(st.integers(0, 12))
    def test_one_arc_always_alternated(self, idx):
        pool = random_immersed_curves(13, seed=31, n=200)
        _, d = pool[idx]
        for cy in enumerate_cycles(d):
            if cy.n_arcs == 1:
                assert cy.alternated


def cycle_records(cycles):
    """Every field of each cycle record, areas as their bits."""
    return [(cy.edge_ids, cy.orientations, cy.n_arcs, cy.alternated, cy.area.hex()) for cy in cycles]


def walk_records(d, census=True):
    """A diagram's census (if asked for) and faces, every field, areas as
    their bits."""
    faces = [(edge_ids, area.hex(), walk) for edge_ids, area, walk in diagram_faces(d)]
    return cycle_records(enumerate_cycles(d)) if census else None, faces


@pytest.fixture(scope="module")
def census_pools():
    """The diagrams of the benchmark's census workload at seeds 1 and 2."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
    try:
        from workloads import Census
    finally:
        sys.path.pop(0)
    return [detect_crossings(c) for seed in (1, 2) for c in Census(seed)._make_pool()]


class TestSearchMatchesOracle:
    """The search against the one it replaced (conftest), which walks
    every closed path again for its area: the same records in the same
    order, areas bit for bit."""

    @pytest.mark.parametrize("area_below,arc_cap", CAP_SETTINGS)
    def test_census_pools(self, census_pools, area_below, arc_cap):
        for d in census_pools:
            want = enumerate_cycles_graph_oracle(d.graph, area_below, arc_cap)
            got = below(enumerate_cycles_graph(d.graph, arc_cap=arc_cap), area_below)
            assert cycle_records(got) == cycle_records(want)

    @pytest.mark.parametrize("area_below,arc_cap", CAP_SETTINGS)
    def test_oracle_graphs_and_woven_fragments(self, area_below, arc_cap):
        graphs = oracle_graphs() + [("woven5", woven_fragment(5))]
        for name, g in graphs:
            want = enumerate_cycles_graph_oracle(g, area_below, arc_cap)
            got = below(enumerate_cycles_graph(g, arc_cap=arc_cap), area_below)
            assert cycle_records(got) == cycle_records(want), name

    @pytest.mark.parametrize("delta", [0.05, 0.2, 1.0, np.inf])
    def test_critical_edge_subsets(self, census_pools, monkeypatch, delta):
        """Each search of _critical_cycles, on its subset of the edges."""
        calls = []
        search = diagram_module.enumerate_cycles_graph
        monkeypatch.setattr(diagram_module, "enumerate_cycles_graph",
                            lambda *a, **kw: calls.append((a, kw)) or search(*a, **kw))
        # fresh diagrams: the pools' own keep their searches across deltas
        curves = [d.curve for d in census_pools[:17]] + [c for c, _ in random_immersed_curves(11, seed=77, n=200)]
        diagrams = [detect_crossings(c) for c in curves]
        for d in diagrams:
            mre(d, delta)
            gmre(d, delta)
        assert len(calls) > len(diagrams)
        for args, kwargs in calls:
            assert cycle_records(search(*args, **kwargs)) == cycle_records(
                enumerate_cycles_graph_oracle(*args, **kwargs))

    def test_explosion_at_the_same_count(self, trefoil_diagram):
        for max_cycles in (0, 5, 10):
            with pytest.raises(CycleExplosionError) as want:
                enumerate_cycles_graph_oracle(trefoil_diagram.graph, max_cycles=max_cycles)
            with pytest.raises(CycleExplosionError) as got:
                enumerate_cycles_graph(trefoil_diagram.graph, max_cycles=max_cycles)
            assert got.value.partial_count == want.value.partial_count == max_cycles + 1


class TestAreas:
    def test_circle_area(self):
        cy = enumerate_cycles(detect_crossings(circle_curve(512)))[0]
        assert cy.area == pytest.approx(np.pi, abs=1e-4)

    def test_unit_square(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert shoelace_area(sq) == 1.0
        assert signed_area(sq) == 1.0 and signed_area(sq[::-1]) == -1.0

    def test_small_square_far_from_origin(self):
        sq = 1e-4 * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) + 100.0
        assert shoelace_area(sq) == pytest.approx(1e-8, rel=1e-9, abs=0)

    def test_trefoil_center_vs_triangulation(self, trefoil_diagram):
        cycles = [cy for cy in enumerate_cycles(trefoil_diagram) if cy.n_arcs == 3]
        for cy in cycles:
            assert cy.area == pytest.approx(ear_clip_area(cy.polyline), abs=1e-9)

    def test_lobe_areas_match_polyline_shoelace(self):
        graphs = oracle_graphs() + [("tiny loop far out", tiny_loop_far_out().graph)]
        for name, g in graphs:
            for cy in enumerate_cycles_graph(g):
                assert cy.area == pytest.approx(shoelace_area(cy.polyline), rel=1e-12, abs=0), name

    def test_polyline_stacks_edge_points(self):
        for name, g in oracle_graphs():
            for cy in enumerate_cycles_graph(g):
                want = walk_polyline(g, zip(cy.edge_ids, cy.orientations))
                assert cy.polyline.shape == want.shape and cy.polyline.tobytes() == want.tobytes(), name

    def test_polyline_from_samples_and_crossings(self, trefoil_diagram):
        d = trefoil_diagram
        verts = np.vstack([d.curve.points, [cr.position for cr in d.crossings]])
        for cy in enumerate_cycles(d):
            assert cy.polyline.tobytes() == verts[cycle_vertex_ids(d, cy)].tobytes()


class TestSharedCensus:
    @pytest.fixture
    def searches(self, monkeypatch):
        """The calls of the cycle search, counted."""
        calls = []
        search = diagram_module.enumerate_cycles_graph

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(diagram_module, "enumerate_cycles_graph", counted)
        return calls

    def test_census_and_re_search_once(self, searches):
        d = detect_crossings(trefoil_curve(256))
        cycles = enumerate_cycles(d)
        re = resistance_energy(d)
        assert len(searches) == 1
        assert re.total == sum(1.0 / cy.area for cy in cycles if cy.alternated)

    def test_relabelled_searches_afresh(self, searches):
        d = detect_crossings(trefoil_curve(256))
        before = enumerate_cycles(d)
        flipped = d.relabelled(fo != (k == 0) for k, fo in enumerate(d.first_over))
        after = enumerate_cycles(flipped)
        assert len(searches) == 2
        for cy in after:
            _, arcs = split_into_arcs(flipped.graph, cy)
            assert cy.alternated == all(start != end for start, end in arcs)
        assert all(cy.alternated for cy in before)
        assert not all(cy.alternated for cy in after)
        assert resistance_energy(flipped).total < resistance_energy(d).total
        assert len(searches) == 2

    def test_returned_list_is_fresh(self, searches):
        d = detect_crossings(trefoil_curve(256))
        first = enumerate_cycles(d)
        first.clear()
        assert len(enumerate_cycles(d)) == 11
        assert len(resistance_energy(d).cycles) == 11

    def test_capped_calls_search(self, searches):
        """Searches of the map, capped or not, and a census under another
        limit, each search anew past the cached census."""
        d = detect_crossings(trefoil_curve(256))
        enumerate_cycles(d)
        assert len(below(diagram_module.enumerate_cycles_graph(d.graph), 1e9)) == 11
        assert len(diagram_module.enumerate_cycles_graph(d.graph, arc_cap=2)) == 9
        assert len(enumerate_cycles(d, max_cycles=11)) == 11
        assert len(searches) == 4

    def test_energies_filter_the_census(self, searches):
        """With the census in hand, MRE and GMRE filter it: one search per
        diagram, and the breakdowns of a fresh diagram that searches the
        low faces instead, bit for bit."""
        found = 0
        for c, _ in random_immersed_curves(11, seed=77, n=200):
            d = detect_crossings(c)
            cycles = enumerate_cycles(d)
            resistance_energy(d)
            # the last delta is the area of a one-arc cycle, which neither way counts
            deltas = (0.05, 0.2, 1.0, np.inf, cycles[0].area)
            energies = [(mre(d, delta), gmre(d, delta)) for delta in deltas]
            assert len(searches) == 1
            fresh = d.relabelled(d.first_over)
            assert energies == [(mre(fresh, delta), gmre(fresh, delta)) for delta in deltas]
            assert "_census" not in vars(fresh)
            found += sum(len(bd.cycles) for pair in energies[:2] for bd in pair)
            searches.clear()
        assert found > 0

    def test_re_flow_searches_once(self, searches):
        """Between Reidemeister events the flow keeps its map, so a
        20-iterate RE flow of the trefoil searches one census: that of its
        start diagram, which every line-search candidate shares."""
        from flatknot.flow import FlowConfig, relax

        tr = relax(trefoil_curve(256), FlowConfig(resistance="RE", max_iters=20))
        assert (len(tr.records), tr.events) == (20, [])
        assert len(searches) == 1

    def test_map_change_searches_again(self, searches):
        """The R2 move of bigon_pair makes a new map, which searches its
        own census; a curve with that map shares its walks and does not."""
        from flatknot.flow import _inherited_rule

        crossed, clear = bigon_pair()
        start = detect_crossings(clear)
        moved, _ = _inherited_rule(start, crossed)
        assert (start.n_crossings, moved.n_crossings) == (0, 2)
        assert moved.graph.walks is not start.graph.walks
        census = cycle_records(enumerate_cycles(moved))
        assert len(searches) == 1
        same, _ = _inherited_rule(moved, moved.curve)
        assert same.graph.walks is moved.graph.walks
        assert cycle_records(enumerate_cycles(same)) == census
        assert len(searches) == 1

    def test_mirror_image_is_another_map(self):
        """A mirror image passes the crossings in the same order, so every
        edge joins the same two ends, but its rotation system is flipped:
        detected against the original, it shares no walks, and its faces
        run the other way round."""
        d = detect_crossings(trefoil_curve(256))
        diagram_faces(d)
        mirror = detect_crossings(ClosedCurve(d.curve.points * [1.0, -1.0], d.curve.length), d)
        assert [e[:2] for e in mirror.graph.edges] == [e[:2] for e in d.graph.edges]
        assert mirror.graph.left == [not b for b in d.graph.left]
        assert not mirror.graph.same_map(d.graph) and d.graph.same_map(d.relabelled(d.first_over).graph)
        assert mirror.graph.walks is not d.graph.walks
        assert walk_records(mirror) == walk_records(detect_crossings(mirror.curve))

    @pytest.mark.parametrize("name", FLOWS)
    def test_flow_candidates_match_fresh_diagrams(self, name, monkeypatch):
        """Every line-search candidate's census and faces, read through the
        walks it shares with its parent's map, against those of a fresh
        detection with the same labels: the same records in the same
        order, areas bit for bit.  The inputs are the benchmark's flows
        and the event flows of test_flow.py, which change the map."""
        from flatknot import flow

        c0, cfg = flow_input(name)
        shared = []

        def spy(prev, curve, inherited=flow._inherited_rule):
            d, match = inherited(prev, curve)
            shared.append(d.graph.walks is prev.graph.walks)
            census = d.n_crossings <= 12  # the adversarial flow ends on 105 crossings, too many for a census
            fresh = detect_crossings(d.curve).relabelled(d.first_over)
            assert walk_records(d, census) == walk_records(fresh, census)
            return d, match

        monkeypatch.setattr(flow, "_inherited_rule", spy)
        flow.relax(c0, cfg)
        assert any(shared)
        assert name.startswith("Relax") or not all(shared)

    def test_census_op_takes_each_lobe_once(self, monkeypatch):
        calls = []
        area = diagram_module.signed_area
        monkeypatch.setattr(diagram_module, "signed_area", lambda pts: calls.append(1) or area(pts))
        c, _ = random_immersed_curves(11, seed=77, n=200)[4]
        d = detect_crossings(c)
        enumerate_cycles(d), diagram_faces(d), resistance_energy(d), mre(d, 0.05), gmre(d, 0.05)
        assert len(calls) == len(d.graph.edges)

    def test_mre_and_gmre_search_once_each(self, searches):
        # three separate groups of faces of area < 0.05, searched together
        _, d = random_immersed_curves(11, seed=77, n=200)[4]
        assert len(mre(d, 0.05).cycles) == len(gmre(d, 0.05).cycles) == 4
        assert len(searches) == 2


class TestResistanceEnergies:
    def test_circle_re(self):
        re = resistance_energy(detect_crossings(circle_curve(512)))
        assert re.total == pytest.approx(1 / np.pi, abs=1e-4)

    def test_trefoil_re_oracle(self, trefoil_diagram):
        re = resistance_energy(trefoil_diagram)
        oracle = sum(1.0 / ear_clip_area(cy.polyline) for cy in enumerate_cycles(trefoil_diagram))
        assert re.total == pytest.approx(oracle, abs=1e-9)
        assert re.total == pytest.approx(sum(v for _, v in re.per_cycle), abs=1e-12)

    def test_scaling(self, trefoil_diagram):
        re = resistance_energy(trefoil_diagram).total
        re2 = resistance_energy(trefoil_diagram.scaled(2.0)).total
        assert re2 == pytest.approx(re / 4, abs=1e-9)

    def test_singular_diagram(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        curve = resample_arclength(sq, 64)
        d = detect_crossings(curve)
        zero = type(d)(ClosedCurve(np.zeros((8, 2)) + np.arange(8)[:, None] * 1e-16, 1.0), [], DiagramGraph(0, [], []), [], [], [])
        with pytest.raises(SingularDiagramError, match="singular diagram"):
            resistance_energy(zero)


class TestMre:
    def test_empty_when_delta_small(self, trefoil_diagram):
        assert mre(trefoil_diagram, 1e-6).total == 0.0

    def test_identity_at_large_delta(self, trefoil_diagram):
        amax = max(cy.area for cy in enumerate_cycles(trefoil_diagram))
        delta = 2 * amax
        re = resistance_energy(trefoil_diagram).total
        assert mre(trefoil_diagram, delta).total == pytest.approx(re - 11 / delta, abs=1e-9)

    def test_circle_small_delta(self):
        d = detect_crossings(circle_curve(256))
        assert mre(d, 0.01).total == 0.0
        assert mre(d, 10.0).total > 0

    @given(st.integers(0, 10))
    def test_matches_naive_enumeration(self, idx):
        pool = random_immersed_curves(11, seed=77, n=200)
        _, d = pool[idx]
        for delta in (0.05, 0.3, 1.0):
            naive = [cy for cy in enumerate_cycles(d) if cy.alternated and cy.area < delta]
            bd = mre(d, delta)
            assert [cy.key for cy in bd.cycles] == [cy.key for cy in naive]
            assert bd.total == sum(1 / cy.area - 1 / delta for cy in naive)

    def test_contributions_positive(self, trefoil_diagram):
        bd = mre(trefoil_diagram, 0.9)
        assert all(v > 0 for _, v in bd.per_cycle)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, -np.inf])
    def test_rejects_delta_not_positive(self, trefoil_diagram, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            mre(trefoil_diagram, delta)


class TestGmre:
    def test_trefoil_matches_mre(self, trefoil_diagram):
        amax = max(cy.area for cy in enumerate_cycles(trefoil_diagram))
        delta = 2 * amax
        assert gmre(trefoil_diagram, delta).total == pytest.approx(
            mre(trefoil_diagram, delta).total, abs=1e-10
        )

    def test_zero_when_large_areas(self, trefoil_diagram):
        assert gmre(trefoil_diagram, 1e-9).total == 0.0

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, -np.inf])
    def test_rejects_delta_not_positive(self, trefoil_diagram, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            gmre(trefoil_diagram, delta)

    def test_infinite_delta_is_uncapped(self, trefoil_diagram):
        # every trefoil cycle is alternated with at most 3 arcs, so with no
        # area cap and no 1/delta term GMRE is RE
        bd = gmre(trefoil_diagram, np.inf)
        assert bd.delta == np.inf
        assert bd.total == pytest.approx(resistance_energy(trefoil_diagram).total, rel=1e-12)

    def test_lattice_fragment_bound(self):
        # 3 x 3 woven region: 9 crossings, delta = infinity surrogate
        from flatknot.diagram import enumerate_cycles_graph
        from flatknot.lattice import woven_fragment

        g = woven_fragment(3)
        cycles = enumerate_cycles_graph(g, arc_cap=4)
        gamma = [cy for cy in cycles if (cy.n_arcs <= 3 and cy.alternated) or cy.n_arcs == 4]
        assert len(gamma) <= gamma_bound(9)

    @given(st.integers(0, 10))
    def test_corrected_cycle_bound(self, idx):
        # the n^p/p! per-arc-count bound fails in general (the trefoil
        # already has 6 one-arc cycles); the doubled bound (2n)^p/p! holds
        # on the random pool and is tracked here
        pool = random_immersed_curves(11, seed=77, n=200)
        _, d = pool[idx]
        n = d.n_crossings
        counts = {}
        for cy in enumerate_cycles_graph(d.graph, arc_cap=4):
            counts[cy.n_arcs] = counts.get(cy.n_arcs, 0) + 1
        for p in range(1, 5):
            assert counts.get(p, 0) <= (2 * n) ** p / factorial(p)


class TestResistance:
    """`resistance`, the one switch from a family name to its energy."""

    def test_unknown_family(self, trefoil_diagram):
        with pytest.raises(ValueError, match="resistance must be one of"):
            resistance(trefoil_diagram, "RME", 0.2)

    @pytest.mark.parametrize("family", ["MRE", "GMRE"])
    def test_critical_families_need_delta(self, trefoil_diagram, family):
        with pytest.raises(ValueError, match="delta must be positive"):
            resistance(trefoil_diagram, family)

    @pytest.mark.parametrize("family, direct", [
        ("RE", lambda d, delta: resistance_energy(d)),
        ("MRE", mre),
        ("GMRE", gmre),
        ("none", lambda d, delta: EnergyBreakdown(0.0, (), "none")),
    ], ids=RESISTANCE_FAMILIES)
    def test_equals_direct_call(self, family, direct):
        curves = [trefoil_curve(256), circle_curve(128)] + [c for c, _ in random_immersed_curves(4, seed=77, n=200)]
        for c in curves:
            for delta in (0.2, np.inf):
                want = direct(detect_crossings(c), delta)
                got = resistance(detect_crossings(c), family, delta)
                assert got == want
                assert got.total == want.total and cycle_records(got.cycles) == cycle_records(want.cycles)


def gmre_oracle(d, delta):
    """Oracle: the GMRE cycles by a search of the whole map with the arc
    cap, then the area and Gamma filters; a crossing-free diagram has its
    census cycle."""
    cycles = below(enumerate_cycles_graph(d.graph, arc_cap=4) if d.n_crossings else enumerate_cycles(d), delta)
    return [cy for cy in cycles if cy.n_arcs <= 3 and cy.alternated or cy.n_arcs == 4]


class TestCriticalCycles:
    """MRE and GMRE search the edges of the faces of area < delta; the
    whole-map search is their oracle, bit for bit."""

    @staticmethod
    def diagrams(trefoil_diagram):
        pool = [d for _, d in random_immersed_curves(11, seed=77, n=200)]
        return pool + [trefoil_diagram, detect_crossings(circle_curve(256))]

    @pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, np.inf])
    def test_gmre_matches_whole_map_search(self, trefoil_diagram, delta):
        found = 0
        for d in self.diagrams(trefoil_diagram):
            want = gmre_oracle(d, delta)
            bd = gmre(d, delta)
            assert [cy.key for cy in bd.cycles] == [cy.key for cy in want]
            assert [cy.area for cy in bd.cycles] == [cy.area for cy in want]
            assert bd.total == sum(1 / cy.area - 1 / delta for cy in want)
            assert bd.delta == delta
            found += len(want)
        assert found > 0

    @pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, np.inf])
    def test_mre_matches_census(self, trefoil_diagram, delta):
        found = 0
        for d in self.diagrams(trefoil_diagram):
            want = [cy for cy in enumerate_cycles(d) if cy.alternated and cy.area < delta]
            bd = mre(d, delta)
            assert [cy.key for cy in bd.cycles] == [cy.key for cy in want]
            assert [cy.area for cy in bd.cycles] == [cy.area for cy in want]
            assert bd.total == sum(1 / cy.area - 1 / delta for cy in want)
            found += len(want)
        assert found > 0


class TestFaces:
    def test_euler_formula(self, trefoil_diagram):
        faces = diagram_faces(trefoil_diagram)
        v, e = trefoil_diagram.n_crossings, len(trefoil_diagram.graph.edges)
        assert v - e + len(faces) == 2

    def test_area_balance(self, trefoil_diagram):
        faces = diagram_faces(trefoil_diagram)
        signed = sorted(a for _, a, _ in faces)
        assert signed[0] == pytest.approx(-sum(signed[1:]), abs=1e-9)

    def test_areas_match_polyline_shoelace(self, trefoil_diagram):
        diagrams = [trefoil_diagram, tiny_loop_far_out()]
        diagrams += [d for _, d in random_immersed_curves(8, seed=13, n=200)]
        for d in diagrams:
            faces = diagram_faces(d)
            for _, area, walk in faces:
                want = signed_area(walk_polyline(d.graph, walk))
                assert area == pytest.approx(want, rel=1e-12, abs=0)
            signed = sorted(a for _, a, _ in faces)
            assert signed[0] < 0 < signed[1]
            assert signed[0] == pytest.approx(-sum(signed[1:]), rel=1e-12)

    def test_walked_once_per_diagram(self, monkeypatch):
        """diagram_faces, mre and gmre share one walk of the faces."""
        calls = []
        walk = diagram_module._walk_faces
        monkeypatch.setattr(diagram_module, "_walk_faces", lambda g: calls.append(g) or walk(g))
        d = detect_crossings(trefoil_curve(256))
        faces = diagram_faces(d)
        assert mre(d, 1.0).cycles and gmre(d, 1.0).cycles
        assert len(calls) == 1
        assert diagram_faces(d) == faces and diagram_faces(d) is not faces

    @given(st.integers(0, 10))
    def test_euler_random(self, idx):
        pool = random_immersed_curves(11, seed=77, n=200)
        _, d = pool[idx]
        faces = diagram_faces(d)
        assert d.n_crossings - len(d.graph.edges) + len(faces) == 2

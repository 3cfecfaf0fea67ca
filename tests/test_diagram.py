import numpy as np
import pytest
from hypothesis import given, strategies as st
from math import factorial

from flatknot.curve import ClosedCurve, resample_arclength
from flatknot.diagram import (
    DiagramGraph,
    _segment_intersections,
    detect_crossings,
    diagram_faces,
    enumerate_cycles,
    enumerate_cycles_graph,
    gamma_bound,
    gmre,
    mre,
    resistance_energy,
    shoelace_area,
    signed_area,
)
from flatknot.errors import CodimensionOneError, CycleExplosionError, SingularDiagramError
from flatknot.fixtures import (
    circle_curve,
    random_immersed_curves,
    trefoil_curve,
)
from flatknot.lattice import woven_fragment

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
        e0, e1, _, _ = g.edges[eid]
        nid, nfwd = path[(k + 1) % len(path)]
        n0, n1, _, _ = g.edges[nid]
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
        # three straight strands through the origin, joined far away
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
        pts = np.vstack(pieces)
        with pytest.raises(CodimensionOneError):
            detect_crossings(ClosedCurve(pts, 1.0))

    def test_alternating_rule(self, trefoil_diagram):
        for c in trefoil_diagram.crossings:
            assert {c.over_passage % 2, c.under_passage % 2} == {0, 1}

    def test_relabelled_own_rule(self, trefoil_diagram):
        d = trefoil_diagram
        same = d.relabelled([c.first_over for c in d.crossings])
        for a, b in zip(d.crossings, same.crossings):
            assert (a.over_passage, a.under_passage) == (b.over_passage, b.under_passage)
        assert same.graph.over_strand == d.graph.over_strand
        assert same.graph.edges is d.graph.edges

    def test_relabelled_flips_and_checks_length(self, trefoil_diagram):
        d = trefoil_diagram
        flipped = d.relabelled([not c.first_over for c in d.crossings])
        for a, b in zip(d.crossings, flipped.crossings):
            assert (a.over_passage, a.under_passage) == (b.under_passage, b.over_passage)
        assert flipped.graph.over_strand == [1 - s for s in d.graph.over_strand]
        for rule in ([True] * 2, [True] * 4):
            with pytest.raises(ValueError):
                d.relabelled(rule)


def hit_bytes(hits):
    """A detector's hits as bytes, so equality is bitwise and ordered."""
    f = lambda x: np.float64(x).tobytes()
    return [(i, j, f(t), f(u), point.tobytes(), f(ang)) for i, j, t, u, point, ang in hits]


def assert_sweep_matches_all_pairs(pts):
    pts = np.asarray(pts, dtype=float)
    got = _segment_intersections(pts)
    assert hit_bytes(got) == hit_bytes(all_pairs_intersections(pts))
    return got


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

    def test_caps(self, trefoil_diagram):
        assert len(enumerate_cycles(trefoil_diagram, arc_cap=2)) == 9
        areas = [cy.area for cy in enumerate_cycles(trefoil_diagram)]
        cap = sorted(areas)[4]
        assert len(enumerate_cycles(trefoil_diagram, area_cap=cap)) == 4

    def test_explosion_guard(self, trefoil_diagram):
        with pytest.raises(CycleExplosionError, match="cycle explosion") as err:
            enumerate_cycles(trefoil_diagram, max_cycles=5)
        assert err.value.partial_count == 6

    def test_each_crossing_once(self, trefoil_diagram):
        for cy in enumerate_cycles(trefoil_diagram):
            used = [c for c, _, _ in split_into_arcs(trefoil_diagram.graph, cy)[0]]
            assert len(used) == len(set(used))

    @pytest.mark.parametrize("area_cap,arc_cap", CAP_SETTINGS)
    def test_carried_bits_match_arc_splitting(self, area_cap, arc_cap):
        non_alternated = 0
        for name, g in oracle_graphs():
            for cy in enumerate_cycles_graph(g, area_cap, arc_cap):
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
        zero = type(d)(ClosedCurve(np.zeros((8, 2)) + np.arange(8)[:, None] * 1e-16, 1.0), [], DiagramGraph(0, []), [], [], [])
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
            naive = sum(
                1 / cy.area - 1 / delta
                for cy in enumerate_cycles(d)
                if cy.alternated and cy.area < delta
            )
            assert mre(d, delta).total == pytest.approx(naive, abs=1e-10)

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
        for cy in enumerate_cycles(d, arc_cap=4):
            counts[cy.n_arcs] = counts.get(cy.n_arcs, 0) + 1
        for p in range(1, 5):
            assert counts.get(p, 0) <= (2 * n) ** p / factorial(p)


class TestFaces:
    def test_euler_formula(self, trefoil_diagram):
        faces = diagram_faces(trefoil_diagram)
        v, e = trefoil_diagram.n_crossings, len(trefoil_diagram.graph.edges)
        assert v - e + len(faces) == 2

    def test_area_balance(self, trefoil_diagram):
        faces = diagram_faces(trefoil_diagram)
        signed = sorted(a for _, a, _ in faces)
        assert signed[0] == pytest.approx(-sum(signed[1:]), abs=1e-9)

    @given(st.integers(0, 10))
    def test_euler_random(self, idx):
        pool = random_immersed_curves(11, seed=77, n=200)
        _, d = pool[idx]
        faces = diagram_faces(d)
        assert d.n_crossings - len(d.graph.edges) + len(faces) == 2

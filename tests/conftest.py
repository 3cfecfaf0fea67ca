from itertools import combinations

import hypothesis
import numpy as np
import pytest

from flatknot.curve import TWO_PI
from flatknot.diagram import (
    _ANGLE_TOL,
    _POSITION_TOL,
    DEFAULT_CYCLE_LIMIT,
    Crossing,
    DiagramCycle,
    DiagramGraph,
    KnotDiagram,
    _segment_intersections,
    signed_area,
)
from flatknot.errors import CodimensionOneError, CycleExplosionError

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def trefoil_diagram():
    from flatknot.diagram import detect_crossings
    from flatknot.fixtures import trefoil_curve

    return detect_crossings(trefoil_curve(512))


@pytest.fixture(scope="session")
def infinity_curve():
    from flatknot.pendulum import build_infinity_curve

    return build_infinity_curve(2, 1024)


@pytest.fixture(scope="session")
def critical_xi():
    from flatknot.pendulum import find_critical_xi

    return find_critical_xi(2)


@pytest.fixture()
def out_and_back_polygon():
    """x = 0, 1, ..., 8, 7, ..., 1 on y = 0: 16 samples, length 16.  Its
    tangent reverses at both ends, so its angle lift cannot close."""
    from flatknot.curve import ClosedCurve

    x = np.r_[np.arange(9), np.arange(7, 0, -1)]
    return ClosedCurve(np.column_stack([x, np.zeros(16)]), 16.0)


# ---------------------------------------------------------------------------
# Whitney index through the Gauss lift: the oracle of curve.whitney_index
# ---------------------------------------------------------------------------


def whitney_index_oracle(c) -> int:
    """The Whitney index by way of the curve's Gauss lift: unwrap the
    central-difference tangent angles, wrap the lift's cyclic increments
    again for the regularity test, and read the turns off its defect."""
    from flatknot.curve import _wrap_to_pi, gauss_from_curve

    g = gauss_from_curve(c)
    inc = np.abs(_wrap_to_pi(np.diff(np.concatenate([g.alpha, g.alpha[:1]]))))
    bad = np.nonzero(inc >= np.pi / 2)[0]
    if len(bad):
        raise ValueError(f"curve not regular at sample {int(bad[0])}")
    defect = g.lift_defect()
    w = round(defect / TWO_PI)
    if abs(defect / TWO_PI - w) >= 1e-3:
        raise ValueError("tangent winding is not close to an integer")
    return int(w)


# ---------------------------------------------------------------------------
# per-cycle resistance gradient: the oracle of flow._resistance_gradient
# ---------------------------------------------------------------------------


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def cycle_vertex_ids(d, cy, n: int) -> np.ndarray:
    """Vertices of a cycle polyline: k for curve sample k, n + c for crossing c."""
    if d.n_crossings == 0:
        return np.arange(n)
    ids = []
    for eid, fwd in zip(cy.edge_ids, cy.orientations):
        e = d.graph.edges[eid]
        if fwd:
            ids.append(n + e.end0[0])
            ids.extend(e.interior_indices)
        else:
            ids.append(n + e.end1[0])
            ids.extend(reversed(e.interior_indices))
    return np.array(ids)


def per_cycle_resistance_gradient(g, d, bd):
    """Exact gradient, in angle space, of the resistance of the frozen
    cycle set bd.cycles, by one reverse pass per cycle.

    The cycles are evaluated on the samples that trapezoid_points gives
    for g, each crossing at the intersection X = a + t d1 of its two
    segments [a, b] and [c, e].  The pass takes each 1/A to its vertices
    by the shoelace, each crossing's share to its four segment endpoints,
    and the samples' cotangents back through the trapezoid sums to the
    angles.  Returned in the L^2 convention used by uf_gradient (divide
    the Euclidean partials by the arclength step).
    """
    from flatknot.curve import trapezoid_points
    from flatknot.diagram import signed_area
    from flatknot.errors import SingularDiagramError

    n = g.n
    if not bd.cycles:
        return np.zeros(n)
    pts = trapezoid_points(g.alpha, g.base_point, g.length)
    i, j = np.array(d.crossing_segments, dtype=int).reshape(-1, 2).T
    a, b, c, e = pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
    d1, d2 = b - a, e - c
    denom = _cross(d1, d2)
    t = _cross(c - a, d2) / denom
    u = _cross(c - a, d1) / denom
    verts = np.vstack([pts, a + t[:, None] * d1])
    cot = np.zeros_like(verts)
    for cy in bd.cycles:
        ids = cycle_vertex_ids(d, cy, n)
        poly = verts[ids]
        s = signed_area(poly)
        if not abs(s) > 1e-12:
            raise SingularDiagramError("singular diagram: zero-area frozen cycle")
        nxt, prv = np.roll(poly, -1, axis=0), np.roll(poly, 1, axis=0)
        # d(1/A)/dv = -1/A^2 * sign(s)/2 * (y+ - y-, x- - x+)
        dv = np.column_stack([nxt[:, 1] - prv[:, 1], prv[:, 0] - nxt[:, 0]])
        np.add.at(cot, ids, (-0.5 * np.sign(s) / s**2) * dv)
    gx, gp = cot[n:], cot[:n]
    k1 = np.sum(gx * d2, axis=1) / _cross(d2, d1)
    k2 = np.sum(gx * d1, axis=1) / denom
    m1 = np.column_stack([d1[:, 1], -d1[:, 0]])
    m2 = np.column_stack([d2[:, 1], -d2[:, 0]])
    np.add.at(gp, i, ((1 - t) * k1)[:, None] * m1)
    np.add.at(gp, (i + 1) % n, (t * k1)[:, None] * m1)
    np.add.at(gp, j, ((1 - u) * k2)[:, None] * m2)
    np.add.at(gp, (j + 1) % n, (u * k2)[:, None] * m2)
    # p[k] = base + h/2 sum_{m<k} (T[m] + T[m+1]): dR/dT_m is h/2 times the
    # cotangent sum over k > m plus, for m >= 1, over k >= m
    tail = np.cumsum(gp[::-1], axis=0)[::-1]
    dt = tail - gp
    dt[1:] += tail[1:]
    return 0.5 * (dt[:, 1] * np.cos(g.alpha) - dt[:, 0] * np.sin(g.alpha))


# ---------------------------------------------------------------------------
# string-label event classifier: the oracle of flow.classify_event
# ---------------------------------------------------------------------------


def _gauss_sequence(d, labels):
    """Cyclic sequence of crossing labels in passage order."""
    return [labels[d.passage_crossing[p]] for p in range(2 * d.n_crossings)]


def classify_event_by_labels(before, after, radius: float = 0.1):
    """Classify the combinatorial change between consecutive diagrams.

    None means no change: every crossing matched, the same cyclic passage
    order and no crossing-type flip.  Crossing-count changes of +-2 with
    a mutually close unmatched pair are R2 moves; an unchanged census
    whose passage order changed across a cluster of three crossings is an
    R3; everything else (including +-1 loop events and crossing-type
    flips) is FORBIDDEN.
    """
    from flatknot.flow import FlowEvent, _cyclic_equal, _match_crossings

    delta = after.n_crossings - before.n_crossings
    pairs = _match_crossings(before, after, radius)
    matched_b = {i for i, _, _ in pairs}
    matched_a = {j for _, j, _ in pairs}
    gone = [i for i in range(before.n_crossings) if i not in matched_b]
    new = [j for j in range(after.n_crossings) if j not in matched_a]

    labels_b = {i: f"b{i}" for i in range(before.n_crossings)}
    labels_a = {j: "?" for j in range(after.n_crossings)}
    for i, j, _ in pairs:
        labels_a[j] = labels_b[i]

    def location(ids, diagram):
        if not ids:
            return np.zeros(2)
        return np.mean([diagram.crossings[k].position for k in ids], axis=0)

    def cluster_ok(ids, diagram, rad):
        pos = [diagram.crossings[k].position for k in ids]
        return all(
            np.hypot(*(pos[x] - pos[y])) <= rad
            for x in range(len(pos))
            for y in range(x + 1, len(pos))
        )

    seq_b = _gauss_sequence(before, labels_b)
    seq_a = _gauss_sequence(after, labels_a)

    if delta == 2 and len(new) == 2 and not gone:
        if cluster_ok(new, after, 4 * radius):
            marks = {labels_a[j] for j in new} | {"?"}
            trimmed_a = [x for x in seq_a if x not in marks]
            if _cyclic_equal(trimmed_a, seq_b):
                return FlowEvent(-1, "R2_appear", location(new, after), 2)
    if delta == -2 and len(gone) == 2 and not new:
        if cluster_ok(gone, before, 4 * radius):
            marks = {labels_b[i] for i in gone}
            trimmed_b = [x for x in seq_b if x not in marks]
            if _cyclic_equal(trimmed_b, seq_a):
                return FlowEvent(-1, "R2_vanish", location(gone, before), -2)
    if delta == 0 and not gone and not new:
        # crossing-type flips are forbidden
        for i, j, flip in pairs:
            if before.first_over[i] != (after.first_over[j] != flip):
                return FlowEvent(
                    -1, "FORBIDDEN", after.crossings[j].position.copy(), 0
                )
        if _cyclic_equal(seq_a, seq_b):
            return None
        moved = _changed_crossings(seq_b, seq_a, pairs)
        if len(moved) == 3 and cluster_ok(moved, after, 6 * radius):
            return FlowEvent(-1, "R3", location(moved, after), 0)
    kind_ids = new if new else gone
    diagram = after if new else before
    return FlowEvent(-1, "FORBIDDEN", location(kind_ids, diagram), delta)


def _changed_crossings(seq_b, seq_a, pairs):
    """The three after-crossing ids whose removal reconciles the two sequences."""
    from flatknot.flow import _cyclic_equal

    label_to_after = {f"b{i}": j for i, j, _ in pairs}
    for combo in combinations(sorted(set(seq_b)), 3):
        drop = set(combo)
        if _cyclic_equal([x for x in seq_b if x not in drop], [x for x in seq_a if x not in drop]):
            return [label_to_after[lbl] for lbl in combo]
    return []


# ---------------------------------------------------------------------------
# the cycle search with a second walk per cycle: the oracle of
# diagram.enumerate_cycles_graph
# ---------------------------------------------------------------------------

_SLOT_STRAND = (0, 0, 1, 1)


def _walk_areas(g: DiagramGraph, eids):
    """A function giving the signed area of a closed walk of darts
    `(edge id, forward?)` over the edges `eids`: the sum of the edges'
    lobes (each edge's shoelace about its first point), signed by
    direction, plus the shoelace of the walk's corners about the first
    one.  This is the polyline shoelace about its first vertex, regrouped.
    """
    lobe, ends = {}, {}
    for eid in eids:
        pts = g.edges[eid].points
        lobe[eid] = signed_area(pts)
        ends[eid] = (pts[0].tolist(), pts[-1].tolist())

    def area(walk):
        eid, fwd = walk[0]
        x0, y0 = ends[eid][not fwd]  # where the walk starts
        total = corner = px = py = 0.0
        for eid, fwd in walk:
            x, y = ends[eid][fwd]
            x, y = x - x0, y - y0
            total += lobe[eid] if fwd else -lobe[eid]
            corner += px * y - py * x
            px, py = x, y
        return total + corner / 2.0

    return area


def enumerate_cycles_graph_oracle(
    g: DiagramGraph,
    area_cap: float | None = None,
    arc_cap: int | None = None,
    max_cycles: int = DEFAULT_CYCLE_LIMIT,
    edge_subset=None,
) -> list[DiagramCycle]:
    """Oracle of diagram.enumerate_cycles_graph: the search as it was
    before the step tables, the crossing bitmask and the carried area
    sums, kept verbatim.

    All embedded circles of a 4-valent map, canonically ordered.

    DFS anchored at the minimal edge id of each cycle; the anchor is
    traversed in its stored orientation, so every cycle is produced
    exactly once.  At a turn the path arrives on one strand and leaves on
    the other, so exactly one of the two is over: an arc is alternated
    when the turns at its two ends are left on the same level, and a
    cycle when all its turns are.  The search carries the turn count and
    the set of levels its turns were left on; arc_cap prunes on the
    running turn count.
    """
    allowed = set(range(len(g.edges))) if edge_subset is None else set(edge_subset)
    # darts out of each crossing, in slot_edge order: (slot out, edge, forward?, arrival end)
    darts = [[] for _ in range(g.n_crossings)]
    for c, slots in enumerate(g.slot_edge):
        for s_out, eid in slots.items():
            e0, e1, _, _ = g.edges[eid]
            if eid in allowed and e0 is not None and e1 is not None:
                fwd = (c, s_out) == e0
                darts[c].append((s_out, eid, fwd, e1 if fwd else e0))
    over = g.over_strand
    area_of = _walk_areas(g, allowed)
    found: list[DiagramCycle] = []

    def passed(c, s_in, s_out, turns, levels):
        """Turn count and levels (bit 1: left over, bit 0: left under)
        after passing crossing c from slot s_in to slot s_out."""
        if _SLOT_STRAND[s_in] == _SLOT_STRAND[s_out]:
            return turns, levels
        return turns + 1, levels | 1 << (over[c] == _SLOT_STRAND[s_out])

    def record(turns, levels):
        n_arcs = max(1, turns)
        if arc_cap is not None and n_arcs > arc_cap:
            return
        area = abs(area_of(path))
        if area_cap is not None and area >= area_cap:
            return
        edge_ids, orientations = zip(*path)
        found.append(DiagramCycle(edge_ids, orientations, n_arcs, levels != 3, area, g.edges))
        if len(found) > max_cycles:
            raise CycleExplosionError(
                f"cycle explosion: more than {max_cycles} cycles", len(found)
            )

    for anchor in sorted(allowed):
        end0, end1, _, _ = g.edges[anchor]
        if end0 is None or end1 is None:
            continue
        c_home, s_home = end0
        used_cross = set()
        path = [(anchor, True)]

        def dfs(c, s_in, turns, levels):
            if c == c_home:
                record(*passed(c, s_in, s_home, turns, levels))
                return
            if c in used_cross:
                return
            used_cross.add(c)
            for s_out, eid, fwd, (c_next, s_next) in darts[c]:
                if s_out == s_in or eid <= anchor:
                    continue
                t2, l2 = passed(c, s_in, s_out, turns, levels)
                if arc_cap is not None and t2 > arc_cap:
                    continue
                path.append((eid, fwd))
                dfs(c_next, s_next, t2, l2)
                path.pop()
            used_cross.discard(c)

        dfs(*end1, 0, 0)

    found.sort(key=lambda cy: (cy.n_arcs, cy.key))
    return found


# ---------------------------------------------------------------------------
# detection with Python loops over the hits and the passages, and the face
# walk over an angle sort: the oracles of diagram.detect_crossings,
# diagram._build_edges and diagram._walk_faces
# ---------------------------------------------------------------------------


def detect_crossings_oracle(c):
    """Oracle of diagram.detect_crossings: the hit post-processing, the
    concurrency and tangency checks and the edge table as they were
    before the array passes, kept verbatim.  The hits come from
    diagram._segment_intersections, whose oracle is the all-pairs scan in
    test_diagram.py; the degenerate contacts through a vertex and the
    collinear overlaps, which this oracle does not check, are tested on
    their own.

    Build the knot diagram of a closed polyline in general position.

    Overpasses alternate along the strand, falling back to first passage
    over where the two passage parities coincide; `KnotDiagram.relabelled`
    sets any other over/under data on the same geometry.
    """
    pts = c.points
    n = c.n
    *arrays, _ = _segment_intersections(pts)
    hits = [(int(i), int(j), float(t), float(u), point.copy(), float(ang)) for i, j, t, u, point, ang in zip(*arrays)]
    for k in range(len(hits)):
        for l in range(k + 1, len(hits)):
            if np.hypot(*(hits[k][4] - hits[l][4])) < _POSITION_TOL:
                raise CodimensionOneError(
                    "codimension-one configuration: concurrent crossings",
                    location=hits[k][4],
                )
    for i, j, t, u, point, ang in hits:
        if min(ang, np.pi - ang) <= _ANGLE_TOL:
            raise CodimensionOneError(
                "codimension-one configuration: tangential intersection",
                location=point,
            )

    # passage parameters in grid units of the normalized parameter
    h = TWO_PI / n
    raw = []
    for i, j, t, u, point, ang in hits:
        raw.append(((i + t) * h, (j + u) * h, point, ang, (i, j)))
    raw.sort(key=lambda r: min(r[0], r[1]))
    # assign passage indices by sorting all 2n parameters
    all_params = sorted((s, ci) for ci, rec in enumerate(raw) for s in rec[:2])
    passage_params = [p for p, _ in all_params]
    passage_crossing = [ci for _, ci in all_params]
    passages = [[] for _ in raw]  # per crossing: (first, second) passage index
    for pi, ci in enumerate(passage_crossing):
        passages[ci].append(pi)

    crossings = [
        Crossing(np.asarray(point), (p1, p2), ang)
        for (_, _, point, ang, _), (p1, p2) in zip(raw, passages)
    ]
    graph = build_edges_oracle(pts, passage_params, passage_crossing, crossings)
    d = KnotDiagram(c, crossings, graph, passage_params, passage_crossing, [r[4] for r in raw])
    return d.relabelled(p1 % 2 == 0 or p1 % 2 == p2 % 2 for p1, p2 in passages)


def build_edges_oracle(pts, passage_params, passage_crossing, crossings) -> DiagramGraph:
    """The map of the curve with every first passage over: the edge after
    passage j runs from the out slot of its strand to the in slot of
    passage j + 1's strand, and strand 0 is a crossing's first passage.
    The rotation bits come from the angle sort of `rotations_oracle`."""
    n = len(pts)
    h = TWO_PI / n
    m = len(passage_params)
    g = DiagramGraph(len(crossings), [0] * len(crossings), [])
    in_slot = [0 if crossings[ci].passages[0] == j else 2 for j, ci in enumerate(passage_crossing)]
    for j in range(m):
        t0 = passage_params[j]
        t1 = passage_params[(j + 1) % m]
        c0, c1 = passage_crossing[j], passage_crossing[(j + 1) % m]
        p0 = crossings[c0].position
        p1 = crossings[c1].position
        if j + 1 < m:
            ks = np.arange(int(np.floor(t0 / h)) + 1, int(np.ceil(t1 / h)))
        else:
            ks = np.arange(int(np.floor(t0 / h)) + 1, n + int(np.ceil(t1 / h)))
        mids = pts[ks % n]
        poly = np.vstack([p0[None, :], mids, p1[None, :]])
        # drop interior points coincident with the crossing endpoints
        keep = np.ones(len(poly), dtype=bool)
        if len(poly) > 2:
            keep[1:-1] = (np.hypot(*(poly[1:-1] - poly[0]).T) > 1e-12) & (
                np.hypot(*(poly[1:-1] - poly[-1]).T) > 1e-12
            )
        interior = tuple((ks[keep[1:-1]] % n).tolist())
        g.add_edge((c0, in_slot[j] + 1), (c1, in_slot[(j + 1) % m]), poly[keep], interior)
    # strand 1 leaves to the left of strand 0 when slot 3 follows slot 1
    # counter-clockwise
    g.left = [rot[(rot.index(1) + 1) % 4] == 3 for rot in rotations_oracle(g)]
    return g


def rotations_oracle(g: DiagramGraph):
    """CCW cyclic slot order at each crossing, from edge departure angles."""
    rot = []
    for c in range(g.n_crossings):
        entries = []
        for s, eid in g.slot_edge[c].items():
            e0, e1, pts, _ = g.edges[eid]
            if e0 == (c, s):
                v = pts[1] - pts[0]
            else:
                v = pts[-2] - pts[-1]
            entries.append((float(np.arctan2(v[1], v[0])), s))
        entries.sort()
        rot.append([s for _, s in entries])
    return rot


def walk_faces_oracle(g: DiagramGraph) -> tuple:
    """Oracle of diagram._walk_faces: the walk over the angle sort of
    `rotations_oracle`, as it was before the rotation bits.

    Faces of the planar map as (edge id set, signed area, dart walk)
    records; each dart is followed by the dart out of the clockwise-next
    wired slot after its arrival.
    """
    rot = rotations_oracle(g)
    area = _walk_areas(g, range(len(g.edges)))
    faces = []
    remaining = {(eid, fwd) for eid in range(len(g.edges)) for fwd in (True, False)}
    while remaining:
        start = min(remaining)
        walk = []
        dart = start
        while True:
            walk.append(dart)
            remaining.discard(dart)
            eid, fwd = dart
            e0, e1, _, _ = g.edges[eid]
            c, s_in = e1 if fwd else e0
            order = rot[c]
            k = order.index(s_in)
            s_out = order[(k - 1) % len(order)]
            nid = g.slot_edge[c][s_out]
            n0, _, _, _ = g.edges[nid]
            dart = (nid, (c, s_out) == n0)
            if dart == start:
                break
        faces.append((frozenset(eid for eid, _ in walk), area(walk), tuple(walk)))
    return tuple(faces)

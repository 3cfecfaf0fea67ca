"""Knot diagrams as decorated 4-valent planar maps, cycle enumeration,
alternation, and the resistance energies RE / MRE / GMRE.

A cycle is an embedded circle inside the diagram image: at each crossing
it either passes straight through (two opposite branches) or turns (two
adjacent branches), using every crossing and edge at most once.  The
edge set determines the turn/straight structure, so cycles are exactly
the vertex-simple cycles of the underlying 4-valent multigraph; arcs are
the maximal runs between turn crossings, and a cycle is alternated when
every arc has one endpoint on an over-strand and one on an under-strand.
The search counts the arcs and checks the alternation as it extends a
path, from the turn and over/under bits of the darts it passes through.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .curve import ClosedCurve, TWO_PI
from .errors import CodimensionOneError, CycleExplosionError, SingularDiagramError

_POSITION_TOL = 1e-9
_ANGLE_TOL = 1e-3
DEFAULT_CYCLE_LIMIT = 10**7

# slot layout at a crossing: strand 0 owns slots 0 (in) and 1 (out),
# strand 1 owns slots 2 (in) and 3 (out)
_SLOT_STRAND = (0, 0, 1, 1)


@dataclass(frozen=True)
class Crossing:
    """A crossing's geometry and its (first, second) passage indices; its
    over/under bit lives in the map, `DiagramGraph.over_strand`."""

    position: np.ndarray
    passages: tuple[int, int]
    transversality_angle: float


class Edge(NamedTuple):
    """Edge of a 4-valent map between two (crossing, slot) ends; only the
    census cycle of a crossing-free diagram, which has no map, has None."""

    end0: tuple[int, int] | None
    end1: tuple[int, int] | None
    points: np.ndarray  # polyline including both endpoints
    interior_indices: tuple[int, ...] = ()  # curve sample indices strictly inside


@dataclass(frozen=True, slots=True)
class DiagramCycle:
    edge_ids: tuple[int, ...]
    orientations: tuple[bool, ...]  # per edge_ids entry: traversed forward?
    n_arcs: int  # number of turn crossings, at least 1
    alternated: bool
    area: float
    edges: list[Edge] = field(repr=False, compare=False)  # the map's edge table

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_ids))

    @property
    def polyline(self) -> np.ndarray:
        """The closed polyline, built on demand: each edge's points in
        traversal order, without the point that starts the next edge."""
        return np.vstack([
            (self.edges[eid].points if fwd else self.edges[eid].points[::-1])[:-1]
            for eid, fwd in zip(self.edge_ids, self.orientations)
        ])


@dataclass(frozen=True)
class EnergyBreakdown:
    total: float
    per_cycle: tuple[tuple[int, float], ...]
    family: str
    delta: float | None = None
    cycles: tuple[DiagramCycle, ...] = ()


class DiagramGraph:
    """4-valent map: crossings with 4 slots each, edges joining slots.

    `over_strand[c]` names the strand (0 or 1, 0 the first passage) that
    is over at crossing c: a diagram's one copy of its over/under data.
    `left` is the rotation system: `left[c]` is true when strand 1 leaves
    crossing c to the left of strand 0, so its slots run 1, 3, 0, 2
    counter-clockwise, else 1, 2, 0, 3.  Detection sets both once, and
    the face walk reads `left`.

    `walks` holds the walks of the map as first found, shared by every
    graph of the same map (`share_walks`): under "faces" the faces, and
    under each labelling `tuple(over_strand)` its census.  Only darts,
    arc counts and alternation are read back from them; each diagram
    takes the areas on its own lobes.
    """

    def __init__(self, n_crossings, over_strand, left):
        self.n_crossings = n_crossings
        self.over_strand = list(over_strand)
        self.left = list(left)
        self.edges: list[Edge] = []
        self.slot_edge: list[dict] = [dict() for _ in range(n_crossings)]
        self.walks: dict = {}

    def add_edge(self, end0, end1, points, interior_indices=()) -> int:
        eid = len(self.edges)
        self.edges.append(Edge(end0, end1, np.asarray(points, dtype=float), interior_indices))
        for c, s in (end0, end1):
            if s in self.slot_edge[c]:
                raise ValueError(f"slot {s} of crossing {c} already wired")
            self.slot_edge[c][s] = eid
        return eid

    @cached_property
    def lobes(self) -> list[tuple[float, list, list]]:
        """Per edge: its lobe (the shoelace of its points about the first
        one) and its first and last points, computed on first use, once
        the map is wired; a `KnotDiagram.relabelled` copy made after that
        shares it."""
        return [(signed_area(e.points), e.points[0].tolist(), e.points[-1].tolist()) for e in self.edges]

    def share_walks(self, other: "DiagramGraph") -> None:
        """Take `other`'s walks if both graphs are one map: the same
        rotation system, and every edge between the same two ends."""
        if self.left == other.left and len(self.edges) == len(other.edges) and all(
            e[:2] == f[:2] for e, f in zip(self.edges, other.edges)
        ):
            self.walks = other.walks


def signed_area(points: np.ndarray) -> float:
    """Signed shoelace area of a closed polyline (last edge implied),
    positive when counter-clockwise.  Taken about the first vertex, so a
    small polygon far from the origin keeps its relative precision."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0] - p[0, 0], p[:, 1] - p[0, 1]
    return float(np.dot(x[:-1], y[1:]) - np.dot(y[:-1], x[1:])) / 2.0


def shoelace_area(points: np.ndarray) -> float:
    """Absolute shoelace area of a closed polyline (last edge implied)."""
    return abs(signed_area(points))


def _walk_area(g: DiagramGraph, walk) -> float:
    """The signed area of a closed walk of darts `(edge id, forward?)`:
    the sum of the edges' lobes, signed by direction, plus the shoelace
    of the walk's corners about the first one.  This is the polyline
    shoelace about its first vertex, regrouped."""
    eid, fwd = walk[0]
    x0, y0 = g.lobes[eid][2 - fwd]  # where the walk starts
    total = corner = px = py = 0.0
    for eid, fwd in walk:
        lobe, *ends = g.lobes[eid]
        x, y = ends[fwd]
        x, y = x - x0, y - y0
        total += lobe if fwd else -lobe
        corner += px * y - py * x
        px, py = x, y
    return total + corner / 2.0


# ---------------------------------------------------------------------------
# crossing detection
# ---------------------------------------------------------------------------


def _sweep_pairs(lo, hi):
    """The pairs of intervals [lo, hi] that meet, each pair once: sorted
    by lower end, the interval at sorted position k can meet only the run
    of intervals after it whose lower end is at most its upper end."""
    order = np.argsort(lo, kind="stable")
    runs = np.searchsorted(lo[order], hi[order], side="right") - np.arange(len(lo)) - 1
    first = np.repeat(np.arange(len(lo)), runs)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(runs) - runs, runs)
    return order[first], order[second]


def _segment_intersections(pts: np.ndarray):
    """All transversal interior intersections between non-adjacent segments.

    Returns arrays (i, j, t, u, point, angle), one entry per intersection
    with parameters in [0, 1) along segments i < j, in (i, j) order, and
    the midpoints of the collinear overlaps of parallel segments, which
    the narrow phase cannot see.  The broad phase pairs each segment's box
    with the boxes that meet it in x (`_sweep_pairs`) and keeps the
    non-adjacent pairs whose boxes also meet in y; the narrow phase tests
    those pairs in one array pass, and only the hits are sorted.
    """
    n = len(pts)
    a = pts
    b = np.concatenate([pts[1:], pts[:1]])
    d = b - a
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ii, jj = _sweep_pairs(lo[:, 0], hi[:, 0])
    ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
    # exclude adjacent pairs and the wrap-adjacent pair (0, n-1); the boxes
    # meet in x by the sweep and must meet in y
    keep = (jj - ii >= 2) & ~((ii == 0) & (jj == n - 1)) & (lo[ii, 1] <= hi[jj, 1]) & (lo[jj, 1] <= hi[ii, 1])
    ii, jj = ii[keep], jj[keep]
    di, dj = d[ii], d[jj]
    denom = di[:, 0] * dj[:, 1] - di[:, 1] * dj[:, 0]
    rel = a[jj] - a[ii]
    scale = np.hypot(*di.T) * np.hypot(*dj.T)
    ok = np.abs(denom) > 1e-14 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * dj[:, 1] - rel[:, 1] * dj[:, 0]) / denom
        u = (rel[:, 0] * di[:, 1] - rel[:, 1] * di[:, 0]) / denom
    hit = np.flatnonzero(ok & (t >= 0.0) & (t < 1.0) & (u >= 0.0) & (u < 1.0))
    hit = hit[np.lexsort((jj[hit], ii[hit]))]
    i, di, dj = ii[hit], di[hit], dj[hit]
    point = a[i] + t[hit, None] * d[i]
    angle = np.abs(np.arctan2(denom[hit], di[:, 0] * dj[:, 0] + di[:, 1] * dj[:, 1]))
    overlap = _collinear_overlaps(a, d, ii[~ok], jj[~ok]) if not ok.all() else np.empty((0, 2))
    return i, jj[hit], t[hit], u[hit], point, angle, overlap


def _collinear_overlaps(a, d, i, j):
    """Midpoints of the overlaps of parallel segment pairs (i, j), in
    (i, j) order: a_j within _POSITION_TOL of segment i's line, and the two
    spans sharing more than _POSITION_TOL of it (a shorter overlap is a
    point contact)."""
    by_ij = np.lexsort((j, i))
    i, j = i[by_ij], j[by_ij]
    di, dj, rel = d[i], d[j], a[j] - a[i]
    sq = np.sum(di * di, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s0, s1 = np.sum(rel * di, axis=1) / sq, np.sum((rel + dj) * di, axis=1) / sq
    start, end = np.maximum(np.minimum(s0, s1), 0.0), np.minimum(np.maximum(s0, s1), 1.0)
    norm = np.sqrt(sq)
    on_line = np.abs(rel[:, 0] * di[:, 1] - rel[:, 1] * di[:, 0]) <= _POSITION_TOL * norm
    k = on_line & ((end - start) * norm > _POSITION_TOL)
    return a[i[k]] + ((start + end) / 2)[k, None] * di[k]


def _check_vertex_contacts(pts, i, j, t, u, point):
    """Raise CodimensionOneError at the first hit through a curve vertex
    where the curve does not cross itself; otherwise return, per hit,
    whether strand j leaves to the left of strand i.

    A hit at t = 0 (u = 0) lies on the first vertex of segment i (j), so
    that strand bends there, coming in along the segment before; at any
    other hit both strands are straight and cross, as their segments are
    not parallel.  Strand i comes in along -back and leaves along out;
    its left is the sector swept counter-clockwise from out to back.  The
    strands cross when the two rays of strand j leave strictly on
    opposite sides of strand i; a ray along one of strand i's is a
    collinear overlap, and two rays on one side a touch.  Where strand i
    bends, its left is no half-plane, so the segments' cross product can
    put strand j's outgoing ray on the wrong side; the sector test cannot.
    """
    n = len(pts)
    cross = lambda p, q: p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]

    def rays(seg, at_vertex):
        out = pts[(seg + 1) % n] - pts[seg]
        return np.where(at_vertex[:, None], pts[seg - 1] - pts[seg], -out), out

    back, out = rays(i, t == 0.0)
    convex = cross(out, back) > 0
    sides = []  # per ray of strand j: +1 left of strand i, -1 right, 0 along it
    for v in rays(j, u == 0.0):
        s_out, s_back = cross(out, v), cross(v, back)
        left = np.where(convex, (s_out > 0) & (s_back > 0), (s_out > 0) | (s_back > 0))
        right = np.where(convex, (s_out < 0) | (s_back < 0), (s_out < 0) & (s_back < 0))
        sides.append(left.astype(int) - right)
    meet = sides[0] * sides[1]
    bad = np.flatnonzero(meet != -1)
    if len(bad):
        what = "collinear overlap" if meet[bad[0]] == 0 else "touch without crossing"
        raise CodimensionOneError(f"codimension-one configuration: {what} at a vertex", location=point[bad[0]])
    return sides[1] > 0


def detect_crossings(c: ClosedCurve) -> "KnotDiagram":
    """Build the knot diagram of a closed polyline in general position.

    Concurrent crossings, tangential intersections, collinear overlaps
    and contacts through a vertex that do not cross raise
    CodimensionOneError at their location; the checks are array tests
    over the hits.  Overpasses alternate along the strand, falling back
    to first passage over where the two passage parities coincide; the
    bits go to `DiagramGraph.over_strand`, and a `Crossing` keeps only
    geometry and passages.  `KnotDiagram.relabelled` sets other bits on
    the same geometry.  The rotation bit `DiagramGraph.left` is the sign
    of the segments' cross product, or the side `_check_vertex_contacts`
    finds.
    """
    pts = c.points
    n = c.n
    i, j, t, u, point, angle, overlap = _segment_intersections(pts)
    m = len(i)
    if m > 1:
        k, l = _sweep_pairs(point[:, 0] - _POSITION_TOL, point[:, 0] + _POSITION_TOL)
        close = np.hypot(*(point[k] - point[l]).T) < _POSITION_TOL
        if close.any():
            raise CodimensionOneError(
                "codimension-one configuration: concurrent crossings",
                location=point[np.minimum(k, l)[close].min()],
            )
    tangent = np.flatnonzero(np.minimum(angle, np.pi - angle) <= _ANGLE_TOL)
    if len(tangent):
        raise CodimensionOneError(
            "codimension-one configuration: tangential intersection", location=point[tangent[0]]
        )
    if len(overlap):
        raise CodimensionOneError("codimension-one configuration: collinear overlap", location=overlap[0])
    ij = np.stack([i, j])
    di, dj = pts[(ij + 1) % n] - pts[ij]
    left = di[:, 0] * dj[:, 1] - di[:, 1] * dj[:, 0] > 0  # strand j leaves to the left of strand i
    if not (t * u).all():  # some hit may lie on a vertex
        left = _check_vertex_contacts(pts, i, j, t, u, point)

    # crossings in order of first passage; passage parameters in grid
    # units of the normalized parameter, their indices by sorting all 2m
    h = TWO_PI / n
    i, j, t, u, angle, left = (x.tolist() for x in (i, j, t, u, angle, left))
    s1 = [(a + b) * h for a, b in zip(i, t)]
    order = sorted(range(m), key=s1.__getitem__)
    passages = sorted((s, x) for x, k in enumerate(order) for s in (s1[k], (j[k] + u[k]) * h))
    params, owner = [s for s, _ in passages], [x for _, x in passages]
    rank = [[] for _ in order]  # per crossing: (first, second) passage index
    for p, x in enumerate(owner):
        rank[x].append(p)
    over_strand = [0 if p1 % 2 == 0 or p1 % 2 == p2 % 2 else 1 for p1, p2 in rank]
    point = point[order]
    crossings = [Crossing(pos, tuple(r), angle[k]) for pos, r, k in zip(point, rank, order)]
    first = [rank[x][0] == p for p, x in enumerate(owner)]
    graph = _build_edges(pts, params, owner, first, point, over_strand, [left[k] for k in order])
    return KnotDiagram(c, crossings, graph, params, owner, [(i[k], j[k]) for k in order])


def _build_edges(pts, params, owner, first, positions, over_strand, left) -> DiagramGraph:
    """The map of the curve: the edge after passage k runs from the out
    slot of its strand to the in slot of passage k + 1's strand, and
    strand 0 is a crossing's first passage (`first`).  Every edge's
    samples, those strictly between its two passages, come from one
    index array, and so do the polylines: the start crossing, the
    samples not within 1e-12 of either end crossing, and the end
    crossing."""
    n, m = len(pts), len(params)
    g = DiagramGraph(len(positions), over_strand, left)
    if not m:
        return g
    h = TWO_PI / n
    c1 = owner[1:] + owner[:1]
    lo = [math.floor(s / h) + 1 for s in params]
    hi = [math.ceil(s / h) for s in params[1:]] + [n + math.ceil(params[0] / h)]
    runs = [max(b - a, 0) for a, b in zip(lo, hi)]
    start = list(accumulate(runs, initial=0))
    ks = (np.arange(start[-1]) + np.repeat([a - s for a, s in zip(lo, start)], runs)) % n
    ends = np.repeat(positions[owner + c1].reshape(2, m, 2), runs, axis=1)  # each sample's end crossings
    gap = pts[ks] - ends
    keep = (np.hypot(gap[..., 0], gap[..., 1]) > 1e-12).all(axis=0)
    cut = np.concatenate([[0], np.cumsum(keep)])[start].tolist()
    ks = ks[keep].tolist()
    idx = []
    for k in range(m):
        idx += [n + owner[k], *ks[cut[k]:cut[k + 1]], n + c1[k]]
    polylines = np.vstack([pts, positions])[idx]
    in_slot = [0 if f else 2 for f in first]
    for k in range(m):
        stop = cut[k + 1] + 2 * k + 2
        g.add_edge((owner[k], in_slot[k] + 1), (c1[k], in_slot[(k + 1) % m]),
                   polylines[cut[k] + 2 * k:stop], tuple(ks[cut[k]:cut[k + 1]]))
    return g


class KnotDiagram:
    """Immersed closed curve with over/under data at each crossing."""

    def __init__(
        self,
        curve: ClosedCurve,
        crossings: list[Crossing],
        graph: DiagramGraph,
        passage_params: list[float],
        passage_crossing: list[int],
        crossing_segments: list,
    ):
        self.curve = curve
        self.crossings = crossings
        self.graph = graph
        self.passage_params = passage_params
        self.passage_crossing = passage_crossing
        self.crossing_segments = crossing_segments

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def first_over(self) -> list[bool]:
        """The over/under data, one bool per crossing in order of first
        passage, true where the first passage is over: a fresh read of
        `graph.over_strand`."""
        return [s == 0 for s in self.graph.over_strand]

    def relabelled(self, first_over) -> "KnotDiagram":
        """The same diagram with new over/under data in the form of
        `first_over`; ValueError unless there is one bool per crossing.
        Only `graph.over_strand` is new: the curve, crossing records,
        passages, segments, edge table, lobes, rotation system and walks
        are shared; a census is kept per labelling."""
        graph = copy.copy(self.graph)
        graph.over_strand = [0 if fo else 1 for _, fo in zip(self.crossings, first_over, strict=True)]
        return KnotDiagram(
            self.curve, self.crossings, graph, self.passage_params, self.passage_crossing, self.crossing_segments
        )

    def scaled(self, s: float) -> "KnotDiagram":
        return detect_crossings(self.curve.scaled(s)).relabelled(self.first_over)

    @cached_property
    def _census(self) -> tuple["DiagramCycle", ...]:
        """The cycle census, searched once per map and labelling: another
        diagram of them takes the cycles' darts, arc counts and
        alternation from `graph.walks` and only the areas, by
        `_walk_area`, from its own geometry.  The search sums the areas as
        `_walk_area` does, so either way gives the same bits."""
        g = self.graph
        if not self.n_crossings:
            return tuple(_search(self, DEFAULT_CYCLE_LIMIT))
        key = tuple(g.over_strand)
        known = g.walks.get(key)
        if known is None:
            known = g.walks[key] = tuple(_search(self, DEFAULT_CYCLE_LIMIT))
            return known
        return tuple(
            DiagramCycle(cy.edge_ids, cy.orientations, cy.n_arcs, cy.alternated,
                         abs(_walk_area(g, tuple(zip(cy.edge_ids, cy.orientations)))), g.edges)
            for cy in known
        )

    @cached_property
    def _faces(self) -> tuple:
        """The faces of the map (diagram_faces), walked once per map:
        another diagram of it takes the walks from `graph.walks` and the
        areas from its own geometry."""
        g = self.graph
        known = g.walks.get("faces")
        if known is None:
            known = g.walks["faces"] = _walk_faces(g)
            return known
        return tuple((edge_ids, _walk_area(g, walk), walk) for edge_ids, _, walk in known)


# ---------------------------------------------------------------------------
# cycle enumeration
# ---------------------------------------------------------------------------


def enumerate_cycles_graph(
    g: DiagramGraph,
    area_cap: float | None = None,
    arc_cap: int | None = None,
    max_cycles: int = DEFAULT_CYCLE_LIMIT,
    edge_subset=None,
) -> list[DiagramCycle]:
    """All embedded circles of a 4-valent map, canonically ordered.

    DFS anchored at the minimal edge id of each cycle; the anchor is
    traversed in its stored orientation, so every cycle is produced
    exactly once.  The anchors run in descending order, and each anchor's
    darts join the step tables after its own search, so the tables hold
    exactly the edges above the current anchor.  A path closes only
    through a crossing joined to home by such an edge, so the search
    stops descending once all of those are used.  At a turn the path
    arrives on one strand and leaves on the other, so exactly one of the
    two is over: an arc is alternated when the turns at its two ends are
    left on the same level, and a cycle when all its turns are.  The
    search carries the turn count, the set of levels its turns were left
    on (bit 1: over, bit 0: under) and the crossings it used (a bitmask,
    tested before it descends); arc_cap prunes on the running turn count.
    It also carries the sums of `_walk_area`, added in the same order, so
    a cycle's area is that function's value bit for bit without a second
    walk.
    """
    allowed = set(range(len(g.edges))) if edge_subset is None else set(edge_subset)
    over, lobes = g.over_strand, g.lobes

    def passing(c, s_in, s_out):
        """Turns added and level bit set by passing crossing c from slot s_in to slot s_out."""
        if _SLOT_STRAND[s_in] == _SLOT_STRAND[s_out]:
            return 0, 0
        return 1, 1 << (over[c] == _SLOT_STRAND[s_out])

    # steps[c][s_in]: the darts out of crossing c entered by slot s_in, of
    # the edges above the anchor: (edge, forward?, next crossing, its slot,
    # turns added, level bit, signed lobe, arrival point); joined[c]: the
    # crossings those edges join to c, as a bitmask
    steps = [[[] for _ in range(4)] for _ in range(g.n_crossings)]
    joined = [0] * g.n_crossings
    cap = g.n_crossings if arc_cap is None else arc_cap  # a path turns at most once per crossing
    found: list[DiagramCycle] = []

    for anchor in sorted(allowed, reverse=True):
        end0, end1, _, _ = g.edges[anchor]
        c_home, s_home = end0
        home = [passing(c_home, s_in, s_home) for s_in in range(4)]
        exits = joined[c_home] & ~(1 << c_home)
        lobe, (x0, y0), (x, y) = lobes[anchor]
        eids, fwds = [anchor], [True]

        def close(s_in, turns, levels, total, corner):
            t, bit = home[s_in]
            n_arcs = max(1, turns + t)
            if n_arcs > cap:
                return
            area = abs(total + corner / 2.0)
            if area_cap is not None and area >= area_cap:
                return
            found.append(DiagramCycle(tuple(eids), tuple(fwds), n_arcs, levels | bit != 3, area, g.edges))
            if len(found) > max_cycles:
                raise CycleExplosionError(f"cycle explosion: more than {max_cycles} cycles", len(found))

        def dfs(c, s_in, turns, levels, total, corner, px, py, used):
            live = exits & ~used  # the unused crossings next to home: a path closes only through one
            for eid, fwd, c_next, s_next, t, bit, lobe, x, y in steps[c][s_in]:
                if used >> c_next & 1 or turns + t > cap or not (live or c_next == c_home):
                    continue
                x, y = x - x0, y - y0
                eids.append(eid)
                fwds.append(fwd)
                if c_next == c_home:
                    close(s_next, turns + t, levels | bit, total + lobe, corner + (px * y - py * x))
                else:
                    dfs(c_next, s_next, turns + t, levels | bit, total + lobe, corner + (px * y - py * x),
                        x, y, used | 1 << c_next)
                eids.pop()
                fwds.pop()

        # the anchor adds its lobe and no corner
        if end1[0] == c_home:
            close(end1[1], 0, 0, lobe, 0.0)
        elif exits:
            dfs(*end1, 0, 0, lobe, 0.0, x - x0, y - y0, 1 << end1[0])

        # the anchor's darts join the tables for the anchors below it
        lobe, first, last = lobes[anchor]
        for (c, s_out), fwd in ((end0, True), (end1, False)):
            dart = (anchor, fwd, *(end1 if fwd else end0))
            for s_in in g.slot_edge[c]:
                if s_in != s_out:
                    steps[c][s_in].append((*dart, *passing(c, s_in, s_out), lobe if fwd else -lobe,
                                           *(last if fwd else first)))
        joined[end0[0]] |= 1 << end1[0]
        joined[end1[0]] |= 1 << end0[0]

    found.sort(key=lambda cy: (cy.n_arcs, cy.key))
    return found


def enumerate_cycles(d: KnotDiagram, max_cycles: int = DEFAULT_CYCLE_LIMIT) -> list[DiagramCycle]:
    """Every embedded circle of the diagram, canonically ordered: a fresh
    list of the diagram's cached census.  Another `max_cycles` searches
    anew, so that the limit it sets is enforced."""
    if max_cycles == DEFAULT_CYCLE_LIMIT:
        return list(d._census)
    return _search(d, max_cycles)


def _search(d: KnotDiagram, max_cycles) -> list[DiagramCycle]:
    if d.n_crossings == 0:
        # the curve itself, one closed arc, vacuously alternated
        pts = d.curve.points
        edge = Edge(None, None, np.vstack([pts, pts[:1]]))
        return [DiagramCycle((0,), (True,), 1, True, shoelace_area(pts), [edge])]
    return enumerate_cycles_graph(d.graph, max_cycles=max_cycles)


# ---------------------------------------------------------------------------
# resistance energies
# ---------------------------------------------------------------------------


def _breakdown(cycles, family, delta=None) -> EnergyBreakdown:
    per = []
    for i, cy in enumerate(cycles):
        if cy.area <= 1e-12:
            raise SingularDiagramError("singular diagram: zero-area alternated cycle")
        contrib = 1.0 / cy.area if delta is None else 1.0 / cy.area - 1.0 / delta
        per.append((i, contrib))
    return EnergyBreakdown(
        total=float(sum(v for _, v in per)),
        per_cycle=tuple(per),
        family=family,
        delta=delta,
        cycles=tuple(cycles),
    )


def resistance_energy(d: KnotDiagram) -> EnergyBreakdown:
    """RE = sum of 1/area over all alternated cycles."""
    cycles = [cy for cy in d._census if cy.alternated]
    return _breakdown(cycles, "RE")


def _critical_cycles(d: KnotDiagram, delta: float, arc_cap: int | None = None) -> list[DiagramCycle]:
    """The delta-critical cycles, those of area < delta, with at most
    `arc_cap` arcs, canonically ordered.

    A diagram that holds its census filters it.  Otherwise the search
    runs on the edges of the bounded faces of area < delta: a cycle
    bounds a union of faces, so one of area < delta encloses only faces
    of area < delta and each of its edges borders one of them.  It finds
    each such cycle once, from its least edge id along the same darts as
    the census, so both ways give the same cycles, areas and order.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if d.n_crossings == 0 or "_census" in vars(d):
        return [cy for cy in d._census if cy.area < delta and (arc_cap is None or cy.n_arcs <= arc_cap)]
    faces = d._faces
    outer = min(range(len(faces)), key=lambda i: faces[i][1])
    low = set()
    for i, (edge_ids, area, _) in enumerate(faces):
        if i != outer and abs(area) < delta:
            low |= edge_ids
    if not low:
        return []
    return enumerate_cycles_graph(d.graph, area_cap=delta, arc_cap=arc_cap, edge_subset=low)


def mre(d: KnotDiagram, delta: float) -> EnergyBreakdown:
    """Material resistance energy: sum of (1/A - 1/delta) over the
    delta-critical alternated cycles, filtered from the census when the
    diagram holds one (`_critical_cycles`)."""
    return _breakdown([cy for cy in _critical_cycles(d, delta) if cy.alternated], "MRE", delta)


def gmre(d: KnotDiagram, delta: float) -> EnergyBreakdown:
    """Genericity modification: the delta-critical alternated cycles with
    at most 3 arcs, plus every delta-critical 4-arc cycle, alternated or
    not.  At delta = inf the 1/delta term is 0 and no area is capped.
    Like `mre`, it filters the census when the diagram holds one."""
    cycles = [
        cy
        for cy in _critical_cycles(d, delta, arc_cap=4)
        if cy.n_arcs <= 3 and cy.alternated or cy.n_arcs == 4
    ]
    return _breakdown(cycles, "GMRE", delta)


def gamma_bound(n_crossings: int) -> float:
    """The crossing-count bound n^4/24 + n^3/6 + n^2/2 + n."""
    n = n_crossings
    return n**4 / 24 + n**3 / 6 + n**2 / 2 + n


# ---------------------------------------------------------------------------
# faces of the planar map (used by the delta-critical cycle search)
# ---------------------------------------------------------------------------


# counter-clockwise slot order at a crossing, by `DiagramGraph.left`
_CCW_SLOTS = {True: (1, 3, 0, 2), False: (1, 2, 0, 3)}


def diagram_faces(d: KnotDiagram):
    """Faces of the planar map as (edge id set, signed area, dart walk) records.

    Signed area is positive for the bounded faces under the traversal
    rule used here; the unbounded face carries the negative total.  A
    fresh list of the faces the diagram walks once and caches.
    """
    return list(d._faces)


def _walk_faces(g: DiagramGraph) -> tuple:
    """The faces of the map: after each dart comes the dart out of the
    clockwise-next wired slot in the rotation system `DiagramGraph.left`
    (only lattice fragments have unwired slots)."""
    faces = []
    remaining = {(eid, fwd) for eid in range(len(g.edges)) for fwd in (True, False)}
    while remaining:
        start = dart = min(remaining)
        walk = []
        while True:
            walk.append(dart)
            remaining.discard(dart)
            eid, fwd = dart
            c, s = g.edges[eid][fwd]  # the arrival end
            ccw, wired = _CCW_SLOTS[g.left[c]], g.slot_edge[c]
            k = ccw.index(s)
            s = next(ccw[k - r] for r in (1, 2, 3) if ccw[k - r] in wired)
            nid = wired[s]
            dart = (nid, (c, s) == g.edges[nid].end0)
            if dart == start:
                break
        faces.append((frozenset(eid for eid, _ in walk), _walk_area(g, walk), tuple(walk)))
    return tuple(faces)

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
import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
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
    position: np.ndarray
    over_passage: int
    under_passage: int
    transversality_angle: float

    @property
    def passages(self) -> tuple[int, int]:
        return tuple(sorted((self.over_passage, self.under_passage)))

    @property
    def first_over(self) -> bool:
        return self.over_passage < self.under_passage


class Edge(NamedTuple):
    """Edge of a 4-valent map between two (crossing, slot) ends; an end is
    None for the dangling strand ends of lattice fragments."""

    end0: tuple[int, int] | None
    end1: tuple[int, int] | None
    points: np.ndarray  # polyline including both endpoints
    interior_indices: tuple[int, ...] = ()  # curve sample indices strictly inside


@dataclass(frozen=True)
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

    `over_strand[c]` names the strand (0 or 1) whose passage is the
    overpass at crossing c.
    """

    def __init__(self, n_crossings, over_strand):
        self.n_crossings = n_crossings
        self.over_strand = list(over_strand)
        self.edges: list[Edge] = []
        self.slot_edge: list[dict] = [dict() for _ in range(n_crossings)]

    def add_edge(self, end0, end1, points, interior_indices=()) -> int:
        eid = len(self.edges)
        self.edges.append(Edge(end0, end1, np.asarray(points, dtype=float), interior_indices))
        for end in (end0, end1):
            if end is not None:
                c, s = end
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


def _segment_intersections(pts: np.ndarray):
    """All transversal interior intersections between non-adjacent segments.

    Returns (i, j, t, u, point, angle) per intersection with parameters in
    [0, 1) along segments i < j, in (i, j) order.  The broad phase sorts
    the segments' boxes by lower x: the box at sorted position k can meet
    in x only the boxes after it whose lower x is at most its upper x.
    """
    n = len(pts)
    a = pts
    b = np.roll(pts, -1, axis=0)
    d = b - a
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(lo[:, 0], kind="stable")
    runs = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - np.arange(n) - 1
    first = np.repeat(np.arange(n), runs)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(runs) - runs, runs)
    ii = np.minimum(order[first], order[second])
    jj = np.maximum(order[first], order[second])
    # exclude adjacent pairs and the wrap-adjacent pair (0, n-1)
    keep = (jj - ii >= 2) & ~((ii == 0) & (jj == n - 1))
    ii, jj = ii[keep], jj[keep]
    # quick bounding-box rejection
    boxok = np.all((lo[ii] <= hi[jj]) & (lo[jj] <= hi[ii]), axis=1)
    ii, jj = ii[boxok], jj[boxok]
    if len(ii) == 0:
        return []
    by_ij = np.lexsort((jj, ii))
    ii, jj = ii[by_ij], jj[by_ij]
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


def detect_crossings(c: ClosedCurve) -> "KnotDiagram":
    """Build the knot diagram of a closed polyline in general position.

    Overpasses alternate along the strand, falling back to first passage
    over where the two passage parities coincide; `KnotDiagram.relabelled`
    sets any other over/under data on the same geometry.
    """
    pts = c.points
    n = c.n
    hits = _segment_intersections(pts)
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
        Crossing(np.asarray(point), p1, p2, ang)
        for (_, _, point, ang, _), (p1, p2) in zip(raw, passages)
    ]
    graph = _build_edges(pts, passage_params, passage_crossing, crossings)
    d = KnotDiagram(c, crossings, graph, passage_params, passage_crossing, [r[4] for r in raw])
    return d.relabelled(p1 % 2 == 0 or p1 % 2 == p2 % 2 for p1, p2 in passages)


def _build_edges(pts, passage_params, passage_crossing, crossings) -> DiagramGraph:
    """The map of the curve with every first passage over: the edge after
    passage j runs from the out slot of its strand to the in slot of
    passage j + 1's strand, and strand 0 is a crossing's first passage."""
    n = len(pts)
    h = TWO_PI / n
    m = len(passage_params)
    g = DiagramGraph(len(crossings), [0] * len(crossings))
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

    def relabelled(self, first_over) -> "KnotDiagram":
        """The same diagram with new over/under data: one bool per crossing
        in order of first passage, true where the first passage is over.

        The curve, passages, segments and edge table are shared; only the
        crossing records and `graph.over_strand` are new.
        """
        crossings = []
        for cr, fo in zip(self.crossings, first_over, strict=True):
            p1, p2 = cr.passages
            over, under = (p1, p2) if fo else (p2, p1)
            crossings.append(dataclasses.replace(cr, over_passage=over, under_passage=under))
        graph = copy.copy(self.graph)
        graph.over_strand = [0 if cr.first_over else 1 for cr in crossings]
        return KnotDiagram(
            self.curve, crossings, graph, self.passage_params, self.passage_crossing, self.crossing_segments
        )

    def scaled(self, s: float) -> "KnotDiagram":
        return detect_crossings(self.curve.scaled(s)).relabelled(cr.first_over for cr in self.crossings)

    @cached_property
    def _census(self) -> tuple["DiagramCycle", ...]:
        """The cycle census, searched once per instance; new
        geometry or labels make a new instance."""
        return tuple(_search(self, DEFAULT_CYCLE_LIMIT))

    @cached_property
    def _faces(self) -> tuple:
        """The faces of the map, walked once per instance (diagram_faces)."""
        return _walk_faces(self.graph)


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
    exactly once.  At a turn the path arrives on one strand and leaves on
    the other, so exactly one of the two is over: an arc is alternated
    when the turns at its two ends are left on the same level, and a
    cycle when all its turns are.  The search carries the turn count,
    the set of levels its turns were left on (bit 1: over, bit 0: under)
    and the crossings it used (a bitmask, tested before it descends);
    arc_cap prunes on the running turn count.  It also carries the sums
    of `_walk_area`, added in the same order, so a cycle's area is that
    function's value bit for bit without a second walk.
    """
    allowed = set(range(len(g.edges))) if edge_subset is None else set(edge_subset)
    over, lobes = g.over_strand, g.lobes

    def passing(c, s_in, s_out):
        """Turns added and level bit set by passing crossing c from slot s_in to slot s_out."""
        if _SLOT_STRAND[s_in] == _SLOT_STRAND[s_out]:
            return 0, 0
        return 1, 1 << (over[c] == _SLOT_STRAND[s_out])

    # steps[c][s_in]: the darts out of crossing c entered by slot s_in, in
    # slot_edge order: (edge, forward?, next crossing, its slot, turns
    # added, level bit, signed lobe, arrival point)
    steps = [[[] for _ in range(4)] for _ in range(g.n_crossings)]
    for c, slots in enumerate(g.slot_edge):
        for s_out, eid in slots.items():
            e0, e1, _, _ = g.edges[eid]
            if eid in allowed and e0 is not None and e1 is not None:
                fwd = (c, s_out) == e0
                lobe, first, last = lobes[eid]
                dart = (eid, fwd, *(e1 if fwd else e0))
                for s_in in slots:
                    if s_in != s_out:
                        steps[c][s_in].append((*dart, *passing(c, s_in, s_out), lobe if fwd else -lobe,
                                               *(last if fwd else first)))
    cap = g.n_crossings if arc_cap is None else arc_cap  # a path turns at most once per crossing
    found: list[DiagramCycle] = []

    for anchor in sorted(allowed):
        end0, end1, _, _ = g.edges[anchor]
        if end0 is None or end1 is None:
            continue
        c_home, s_home = end0
        home = [passing(c_home, s_in, s_home) for s_in in range(4)]
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
            for eid, fwd, c_next, s_next, t, bit, lobe, x, y in steps[c][s_in]:
                if eid <= anchor or used >> c_next & 1 or turns + t > cap:
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
        else:
            dfs(*end1, 0, 0, lobe, 0.0, x - x0, y - y0, 1 << end1[0])

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


def _rotations(g: DiagramGraph):
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


def diagram_faces(d: KnotDiagram):
    """Faces of the planar map as (edge id set, signed area, dart walk) records.

    Signed area is positive for the bounded faces under the traversal
    rule used here; the unbounded face carries the negative total.  A
    fresh list of the faces the diagram walks once and caches.
    """
    return list(d._faces)


def _walk_faces(g: DiagramGraph) -> tuple:
    rot = _rotations(g)
    darts = set()
    for eid, (e0, e1, _, _) in enumerate(g.edges):
        if e0 is not None and e1 is not None:
            darts.add((eid, True))
            darts.add((eid, False))
    faces = []
    remaining = set(darts)
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
            # next dart departs from the clockwise-next slot after arrival
            k = order.index(s_in)
            s_out = order[(k - 1) % len(order)]
            nid = g.slot_edge[c][s_out]
            n0, _, _, _ = g.edges[nid]
            dart = (nid, (c, s_out) == n0)
            if dart == start:
                break
        faces.append((frozenset(eid for eid, _ in walk), _walk_area(g, walk), tuple(walk)))
    return tuple(faces)

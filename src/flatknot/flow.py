"""Projected gradient descent on E = U_f + resistance, with Reidemeister
event detection and the bounded-GMRE knot-type monitor.

The descent lives in angle space.  The gradient is the analytic bending
gradient plus the exact resistance gradient of the frozen cycle set of
the current diagram, projected off the two closure directions.  As
A_c = sum_e o_ce S_e over the edges' open shoelace sums (o_ce = +-1),
the latter is sum_e W_e grad S_e with W_e = sum_c o_ce (-sign A_c / A_c^2):
one weighted pass over the curve, the crossing points and the trapezoid
integration.  The step runs along its H^1 direction: the gradient
preconditioned by P = I - d^2/ds^2 (one real FFT, symbol 1 + k^2 at
integer frequency k) and projected again, so the stiff high frequencies
no longer set the step size.  Convergence is still tested on the L^2
norm of the projected gradient.  Every accepted iterate is re-closed and
integrated at unit speed, so it has length 2pi, and carries its U_f
value and its resistance breakdown, whose cycles are the next frozen
set.  Each line-search candidate's crossings are matched once to the
current ones; over/under data is inherited along that match, and the
accepted candidate's census change is judged on it: R2 / R3, or
FORBIDDEN, which aborts the flow.  Between those events the map is
frozen: a candidate with its parent's map shares the parent's census and
faces and only re-measures their areas, and each iterate's lift takes
its cos/sin, closure basis and curvature once for every use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import chain, combinations
from numbers import Real

import numpy as np

from .curve import (ClosedCurve, GaussRep, TWO_PI, _integrate_tangent, curve_from_gauss, gauss_from_curve,
                    whitney_index)
from .diagram import (
    EnergyBreakdown,
    KnotDiagram,
    detect_crossings,
    gmre,
    mre,
    resistance_energy,
)
from .errors import CodimensionOneError, SingularDiagramError, StalledError
from .uniformization import EnergyFunctional, F_X2, energy_uf, gradient_norm, project_closure, uf_gradient

_ARMIJO = 1e-4
_STEP_FLOOR = 1e-12
_STEP_GROWTH = 1.5
_REJECTED_BY = {CodimensionOneError: "codim1", SingularDiagramError: "singular", StalledError: "stalled"}

RESISTANCE_FAMILIES = ("RE", "MRE", "GMRE", "none")


@dataclass(frozen=True)
class FlowConfig:
    functional: EnergyFunctional = F_X2
    resistance: str = "MRE"
    delta: float = 0.1
    step0: float = 1e-4
    max_iters: int = 2000
    grad_tol: float = 1e-4

    def __post_init__(self):
        if self.resistance not in RESISTANCE_FAMILIES:
            raise ValueError(f"resistance must be one of {RESISTANCE_FAMILIES}")
        for name in ("delta", "step0", "grad_tol"):
            if isinstance(getattr(self, name), bool) or not isinstance(getattr(self, name), Real):
                raise ValueError(f"{name} must be a real number")
        if not (self.step0 > 0 and self.grad_tol > 0):  # NaN fails too
            raise ValueError("step0 and grad_tol must be positive")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        # the GMRE monitor reads delta under every resistance
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class FlowEvent:
    iter: int
    kind: str  # R2_appear | R2_vanish | R3 | FORBIDDEN
    location: np.ndarray
    crossing_delta: int


@dataclass(frozen=True)
class IterateRecord:
    """One iterate of a flow: its energy split, crossing count, GMRE
    monitor value and Whitney index (None where undefined).  grad_norm is
    the projected L^2 gradient norm, where one was taken; a line search
    leaves the accepted `step` (None if it stalled) and, per rejected
    candidate, why it failed: codim1 | singular | stalled | armijo."""

    iter: int
    u: float
    r: float
    crossings: int
    gmre: float
    whitney: int | None
    grad_norm: float | None = None
    step: float | None = None
    rejected: tuple[str, ...] = ()

    @property
    def total(self) -> float:
        return self.u + self.r


@dataclass
class FlowTrace:
    records: list[IterateRecord] = field(default_factory=list)
    events: list[FlowEvent] = field(default_factory=list)
    final_curve: ClosedCurve = None
    terminated: str = "max_iters"

    @property
    def energies(self) -> list[tuple]:
        """(iter, U, R, total) per iterate."""
        return [(r.iter, r.u, r.r, r.total) for r in self.records]

    @property
    def crossing_counts(self) -> list[int]:
        return [r.crossings for r in self.records]

    @property
    def max_gmre(self) -> float:
        return max((r.gmre for r in self.records), default=0.0)


def resistance_breakdown(d: KnotDiagram, cfg: FlowConfig) -> EnergyBreakdown:
    """The configured resistance of the diagram; its cycles are the frozen
    cycle set of the resistance gradient.  "none" is empty with total 0."""
    if cfg.resistance == "RE":
        return resistance_energy(d)
    if cfg.resistance == "MRE":
        return mre(d, cfg.delta)
    if cfg.resistance == "GMRE":
        return gmre(d, cfg.delta)
    return EnergyBreakdown(0.0, (), "none")


@dataclass(frozen=True)
class _Iterate:
    """Exactly-closed angle samples with everything measured on them."""

    gauss: GaussRep  # length 2pi, based at curve.points[0]
    curve: ClosedCurve
    diagram: KnotDiagram
    u: float
    resistance: EnergyBreakdown
    match: tuple | None = None  # (pairs, radius): the match that labelled it from its parent

    @property
    def total(self) -> float:
        return self.u + self.resistance.total


def _measure(g: GaussRep, curve: ClosedCurve, diagram: KnotDiagram, cfg: FlowConfig, match=None) -> _Iterate:
    return _Iterate(g, curve, diagram, energy_uf(g, cfg.functional), resistance_breakdown(diagram, cfg), match)


# ---------------------------------------------------------------------------
# frozen-combinatorics resistance gradient
# ---------------------------------------------------------------------------


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _resistance_gradient(g: GaussRep, d: KnotDiagram, bd: EnergyBreakdown):
    """Exact gradient, in angle space, of the resistance of the frozen
    cycle set bd.cycles, by one weighted pass over the curve.

    The curve is one closed walk of the samples that trapezoid_points
    gives for g and, at each passage, of the crossing X = a + t d1 of its
    segments [a, b] and [c, e]; each segment lies on one edge of the map
    (a crossing-free curve is one edge).  A cycle's signed area is
    A_c = sum_e o_ce S_e, with S_e edge e's open shoelace sum and
    o_ce = +-1 its direction in c, so grad sum_c 1/|A_c| = sum_e W_e grad S_e
    with W_e = sum_c o_ce (-sign A_c / A_c^2).  Each weighted segment goes
    to its two ends, each crossing's share to its four segment endpoints,
    and the samples' cotangents back through the trapezoid sums to the
    angles.  Returned in the L^2 convention of uf_gradient (the Euclidean
    partials divided by the arclength step).
    """
    n = g.n
    if not bd.cycles:
        return np.zeros(n)
    cos, sin = g._tangent
    pts = _integrate_tangent(cos, sin, g.base_point, g.length)
    i, j = np.array(d.crossing_segments, dtype=int).reshape(-1, 2).T
    a, b, c, e = pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
    d1, d2 = b - a, e - c
    denom = _cross(d1, d2)
    t = _cross(c - a, d2) / denom
    u = _cross(c - a, d1) / denom
    verts = np.vstack([pts, a + t[:, None] * d1])
    # the walk, edge by edge in passage order: start crossing, interior samples
    runs = [(n + end0[0], *inner) for end0, _, _, inner in d.graph.edges] or [range(n)]
    size = np.array([len(r) for r in runs])
    walk = np.fromiter(chain.from_iterable(runs), int, size.sum())
    first, edge = np.cumsum(size) - size, np.repeat(np.arange(len(runs)), size)
    p = verts[walk]
    seg = np.roll(p, -1, axis=0) - p
    # areas regrouped as in diagram._walk_area: edge lobes plus corner polygon
    lobe = np.add.reduceat(_cross(p - p[first][edge], seg), first) / 2
    eid = np.fromiter(chain.from_iterable(cy.edge_ids for cy in bd.cycles), int)
    o = np.fromiter(chain.from_iterable(cy.orientations for cy in bd.cycles), bool) * 2.0 - 1
    cyc = np.repeat(np.arange(len(bd.cycles)), [len(cy.edge_ids) for cy in bd.cycles])
    start = walk[first]
    corner = verts[np.where(o > 0, np.roll(start, -1)[eid], start[eid])]  # each dart's arrival
    corner -= corner[np.cumsum(np.bincount(cyc)) - 1][cyc]  # a cycle starts where it ends
    area = np.bincount(cyc, o * lobe[eid] + _cross(np.roll(corner, 1, axis=0), corner) / 2)
    if not np.all(np.abs(area) > 1e-12):
        raise SingularDiagramError("singular diagram: zero-area frozen cycle")
    w = np.bincount(eid, o * (-np.sign(area) / area**2)[cyc], len(runs))
    f = (0.5 * w[edge])[:, None] * np.column_stack([seg[:, 1], -seg[:, 0]])
    f += np.roll(f, 1, axis=0)
    cot = np.column_stack([np.bincount(walk, f[:, k], len(verts)) for k in (0, 1)])
    gx, gp = cot[n:], cot[:n]
    k1 = np.sum(gx * d2, axis=1) / _cross(d2, d1)
    k2 = np.sum(gx * d1, axis=1) / denom
    m1, m2 = np.column_stack([d1[:, 1], -d1[:, 0]]), np.column_stack([d2[:, 1], -d2[:, 0]])
    np.add.at(gp, i, ((1 - t) * k1)[:, None] * m1)
    np.add.at(gp, (i + 1) % n, (t * k1)[:, None] * m1)
    np.add.at(gp, j, ((1 - u) * k2)[:, None] * m2)
    np.add.at(gp, (j + 1) % n, (u * k2)[:, None] * m2)
    # p[k] = base + h/2 sum_{m<k} (T[m] + T[m+1]): dR/dT_m is h/2 times the
    # cotangent sum over k > m plus, for m >= 1, over k >= m
    tail = np.cumsum(gp[::-1], axis=0)[::-1]
    dt = tail - gp
    dt[1:] += tail[1:]
    return 0.5 * (dt[:, 1] * cos - dt[:, 0] * sin)


def _projected_gradient(x: _Iterate, cfg: FlowConfig) -> np.ndarray:
    """Gradient of U_f + resistance at x, projected off the closure
    directions (uf_gradient comes projected already)."""
    g = x.gauss
    rg = _resistance_gradient(g, x.diagram, x.resistance)
    return uf_gradient(g, cfg.functional) + project_closure(g, rg)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def _reclose_alpha(alpha, length):
    """Newton-correct alpha along sin/cos directions so both closure
    integrals vanish (the projected step leaves an O(step^2) drift).
    Each Newton step takes sin and cos of its angles once, for both the
    closure integrals and the Jacobian."""
    a = alpha.copy()
    s0, c0 = np.sin(alpha), np.cos(alpha)
    s, c = s0, c0
    h = length / len(a)
    for _ in range(8):
        f1, f2 = h * c.sum(), h * s.sum()  # closure_integrals(a, length)
        if abs(f1) < 1e-12 * TWO_PI and abs(f2) < 1e-12 * TWO_PI:
            break
        j11 = -h * np.sum(s * s0)
        j12 = -h * np.sum(s * c0)
        j21 = h * np.sum(c * s0)
        j22 = h * np.sum(c * c0)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            break
        da = (j22 * -f1 - j12 * -f2) / det
        db = (j11 * -f2 - j21 * -f1) / det
        a = a + da * s0 + db * c0
        s, c = np.sin(a), np.cos(a)
    return a


def _inherited_rule(prev: KnotDiagram, curve: ClosedCurve):
    """Detect crossings on `curve`, inheriting over/under from `prev`.

    The crossings are matched once, with radius 5 times the largest
    sample displacement from prev's curve (at least 1e-3), and that match
    is returned with the diagram as (pairs, radius): the event verdict of
    the step reads the same pairs.  Matched crossings keep their overpass
    strand; unmatched new crossings put the earlier passage on top, which
    is the consistent choice for an R2 pair.  Between Reidemeister events
    the map stays prev's, and the diagram shares prev's walks: the census
    of a labelling is searched and the faces are walked once per map.
    """
    base = detect_crossings(curve)
    base.graph.share_walks(prev.graph)
    radius = max(5.0 * float(np.max(np.hypot(*(curve.points - prev.curve.points).T))), 1e-3)
    pairs = _match_crossings(prev, base, radius)
    rule, prev_over = [True] * base.n_crossings, prev.first_over
    for i, j, flip in pairs:
        rule[j] = prev_over[i] != flip
    return base.relabelled(rule), (pairs, radius)


def _match_crossings(before: KnotDiagram, after: KnotDiagram, radius: float):
    """Pairs (i, j, flip) of crossings of `before` and `after` on the same
    two strands, nearest first.

    A crossing is known by its pair of passage parameters, not by its
    position.  The distance of two crossings is the larger of the two
    strands' cyclic parameter distances, under the straight or the swapped
    pairing of their passages, whichever is smaller; flip is true when the
    swapped pairing is, that is when the after-crossing's first passage
    lies on the before-crossing's second strand.  A move that displaces
    the curve by `radius` in the plane slides a crossing of angle theta
    about radius / sin(theta) along each strand; in parameter units (2pi
    per curve length), with the smaller sin(theta) of the two crossings,
    that is how far apart a matched pair may lie.  The flow takes radius
    from the step itself, in _inherited_rule; classify_event takes it as
    given.
    """
    if before.n_crossings == 0 or after.n_crossings == 0:
        return []

    def params(d):
        return np.array([[d.passage_params[p] for p in cr.passages] for cr in d.crossings])

    def cyc(x, y):
        r = np.abs(x[:, None] - y[None, :]) % TWO_PI
        return np.minimum(r, TWO_PI - r)

    pb, pa = params(before), params(after)
    straight = np.maximum(cyc(pb[:, 0], pa[:, 0]), cyc(pb[:, 1], pa[:, 1]))
    swapped = np.maximum(cyc(pb[:, 0], pa[:, 1]), cyc(pb[:, 1], pa[:, 0]))
    dist = np.minimum(straight, swapped)
    sin_b = np.sin([cr.transversality_angle for cr in before.crossings])
    sin_a = np.sin([cr.transversality_angle for cr in after.crossings])
    reach = radius * TWO_PI / before.curve.length / np.minimum(sin_b[:, None], sin_a[None, :])
    pairs = []
    used_b, used_a = set(), set()
    for k in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(k), after.n_crossings)
        if dist[i, j] > reach[i, j] or i in used_b or j in used_a:
            continue
        pairs.append((i, j, bool(swapped[i, j] < straight[i, j])))
        used_b.add(i)
        used_a.add(j)
    return pairs


def _precondition(v: np.ndarray) -> np.ndarray:
    """P^-1 v for P = I - d^2/ds^2 on a closed curve of length 2pi: one
    real FFT, each integer frequency k divided by 1 + k^2."""
    k = np.arange(len(v) // 2 + 1)
    return np.fft.irfft(np.fft.rfft(v) / (1.0 + k * k), len(v))


def _h1_direction(g: GaussRep, grad: np.ndarray) -> np.ndarray:
    """The H^1 gradient direction project_closure(P^-1 grad).

    Frequency k moves at 1/(1 + k^2) of its L^2 rate, so the stiff high
    modes no longer limit the step, and the iteration count no longer
    grows fourfold per doubling of N.  The symbol is the continuous one,
    not the one matched to the central-difference curvature,
    1 + sin^2(kh)/h^2, which falls back to 1 near Nyquist, where that
    curvature cannot see the checkerboard modes, and so would move them
    at the full L^2 rate.
    """
    return project_closure(g, _precondition(grad))


def _step_from_alpha(x: _Iterate, grad, cfg: FlowConfig, step: float):
    """One Armijo-backtracking descent step from x along -d, the H^1
    direction of the closure-projected gradient grad.

    Since grad is already projected, the Armijo slope
    h <grad, d> = h <grad, P^-1 grad> is positive.  Both sides of the
    Armijo test measure the bending part directly on the angle samples,
    so the comparison is exact; the resistance part is re-detected
    honestly on each candidate curve, whose crossings _inherited_rule
    matches once, and the accepted iterate carries that match.
    Returns (accepted iterate, accepted step, why each rejected candidate
    failed); each rejection halves the step.  A step below 1e-12 raises
    StalledError carrying the reasons of every candidate tried.
    """
    g = x.gauss
    d = _h1_direction(g, grad)
    slope = (TWO_PI / g.n) * float(np.dot(grad, d))
    s, rejected = step, []
    while s >= _STEP_FLOOR:
        try:
            alpha_s = _reclose_alpha(g.alpha - s * d, TWO_PI)
            if np.array_equal(alpha_s, g.alpha):
                # already critical to rounding: nothing moves
                return x, s, tuple(rejected)
            g_s = GaussRep(alpha_s, g.base_point, TWO_PI)
            cand = curve_from_gauss(g_s)
            d_s, match = _inherited_rule(x.diagram, cand)
            y = _measure(g_s, cand, d_s, cfg, match)
            if y.total <= x.total - _ARMIJO * s * slope:
                return y, s, tuple(rejected)
            rejected.append("armijo")
        except (CodimensionOneError, SingularDiagramError, StalledError) as exc:
            rejected.append(_REJECTED_BY[type(exc)])
        s *= 0.5
    raise StalledError("stalled", tuple(rejected))


def _start(c: ClosedCurve, cfg: FlowConfig, diagram: KnotDiagram | None = None) -> _Iterate:
    """The iterate a flow steps from: c scaled to length 2pi, its angles
    re-closed and integrated, and the crossings detected on that curve.
    A supplied diagram lends only its over/under bits, in order of first
    passage."""
    if abs(c.length - TWO_PI) > 1e-8:
        c = c.scaled(TWO_PI / c.length)
    g = GaussRep(_reclose_alpha(gauss_from_curve(c).alpha, TWO_PI), c.points[0], TWO_PI)
    curve = curve_from_gauss(g)
    d = detect_crossings(curve)
    if diagram is not None:
        d = d.relabelled(diagram.first_over)
    return _measure(g, curve, d, cfg)


def flow_step(c: ClosedCurve, cfg: FlowConfig, step: float, diagram: KnotDiagram | None = None):
    """One backtracking line-search step along the H^1 direction from the
    iterate `relax` would start from; returns (new curve, accepted step).

    Energy is non-increasing (Armijo factor 1e-4); a step underflow below
    1e-12 raises StalledError("stalled").
    """
    x = _start(c, cfg, diagram)
    y, s, _ = _step_from_alpha(x, _projected_gradient(x, cfg), cfg, step)
    return y.curve, s


# ---------------------------------------------------------------------------
# event classification
# ---------------------------------------------------------------------------


def _cyclic_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = a + a
    return any(doubled[i : i + len(b)] == b for i in range(len(a)))


def classify_event(before: KnotDiagram, after: KnotDiagram, radius: float = 0.1) -> FlowEvent | None:
    """Classify the combinatorial change between consecutive diagrams.

    Both diagrams are read as Gauss words in `before`'s crossing ids: the
    word of `before` is its passage_crossing, and each passage of `after`
    carries the id of the `before` crossing its own crossing is matched
    to, or -1 for an unmatched one.  Every verdict asks whether the two
    words are cyclically equal once some ids are dropped from both.

    None means no change: every crossing matched, the same cyclic passage
    order and no crossing-type flip.  Crossing-count changes of +-2 with
    a mutually close unmatched pair are R2 moves; an unchanged census
    whose passage order changed across a cluster of three crossings is an
    R3; everything else (including +-1 loop events and crossing-type
    flips) is FORBIDDEN.
    """
    return _verdict(before, after, _match_crossings(before, after, radius), radius)


def _verdict(before: KnotDiagram, after: KnotDiagram, pairs, radius: float) -> FlowEvent | None:
    """classify_event's verdict on a given match `pairs` of the two
    diagrams' crossings, made with `radius`.  `relax` passes the match
    that labelled `after`, so no matched crossing flips there."""
    delta = after.n_crossings - before.n_crossings
    to_after = {i: j for i, j, _ in pairs}
    to_before = {j: i for i, j, _ in pairs}
    gone = [i for i in range(before.n_crossings) if i not in to_after]
    new = [j for j in range(after.n_crossings) if j not in to_before]
    word_b = before.passage_crossing
    word_a = [to_before.get(j, -1) for j in after.passage_crossing]

    def same_without(drop):
        return _cyclic_equal([k for k in word_b if k not in drop], [k for k in word_a if k not in drop])

    def location(ids, diagram):
        if not ids:
            return np.zeros(2)
        return np.mean([diagram.crossings[k].position for k in ids], axis=0)

    def cluster_ok(ids, diagram, rad):
        pos = [diagram.crossings[k].position for k in ids]
        return all(np.hypot(*(p - q)) <= rad for p, q in combinations(pos, 2))

    if delta == 2 and len(new) == 2 and not gone:
        if cluster_ok(new, after, 4 * radius) and same_without({-1}):
            return FlowEvent(-1, "R2_appear", location(new, after), 2)
    if delta == -2 and len(gone) == 2 and not new:
        if cluster_ok(gone, before, 4 * radius) and same_without(set(gone)):
            return FlowEvent(-1, "R2_vanish", location(gone, before), -2)
    if delta == 0 and not gone and not new:
        # crossing-type flips are forbidden
        over_b, over_a = before.first_over, after.first_over
        for i, j, flip in pairs:
            if over_b[i] != (over_a[j] != flip):
                return FlowEvent(-1, "FORBIDDEN", after.crossings[j].position.copy(), 0)
        if same_without(()):
            return None
        trio = next((t for t in combinations(range(before.n_crossings), 3) if same_without(t)), ())
        moved = [to_after[i] for i in trio]
        if moved and cluster_ok(moved, after, 6 * radius):
            return FlowEvent(-1, "R3", location(moved, after), 0)
    return FlowEvent(-1, "FORBIDDEN", location(new, after) if new else location(gone, before), delta)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def relax(c0: ClosedCurve, cfg: FlowConfig, keyframe_cb=None) -> FlowTrace:
    """Iterate descent steps to convergence or termination.

    The state is the exactly-closed angle sample vector; iterates are its
    unit-speed integrals, so every recorded curve has length 2pi.  The
    trace holds one IterateRecord per iterate; any event other than R2/R3
    aborts with terminated = "forbidden_event", after a last record of the
    offending state.  The flow ends "converged" when the projected
    gradient norm falls below grad_tol, and "stalled" when the line search
    finds no step (its record lists every rejected candidate) or its step
    moves nothing; a frozen cycle of zero area, or a start curve whose
    angle lift does not close, ends it with terminated = "singular".  An
    accepted step's event is judged on the crossing match that labelled
    its iterate.
    """
    trace = FlowTrace()
    try:
        x = _start(c0, cfg)
    except (CodimensionOneError, StalledError):
        trace.final_curve = c0
        trace.terminated = "singular"
        return trace
    step = cfg.step0

    for it in range(cfg.max_iters):
        if keyframe_cb is not None:
            keyframe_cb(it, x.curve)
        y, gnorm, accepted, rejected = None, None, None, ()
        try:
            grad = _projected_gradient(x, cfg)
            gnorm = gradient_norm(x.gauss, grad)
            if gnorm < cfg.grad_tol:
                trace.terminated = "converged"
            else:
                y, accepted, rejected = _step_from_alpha(x, grad, cfg, step)
                if y is x:  # critical to rounding: the step moved no angle
                    y, accepted, trace.terminated = None, None, "stalled"
        except SingularDiagramError:
            trace.terminated = "singular"
        except StalledError as exc:
            trace.terminated, rejected = "stalled", exc.rejected
        trace.records.append(_record(it, x, cfg, gnorm, accepted, rejected))
        if y is None:
            break

        event = _verdict(x.diagram, y.diagram, *y.match)
        x, step = y, min(accepted * _STEP_GROWTH, 1.0)
        if event is not None:
            trace.events.append(dataclasses.replace(event, iter=it))
            if event.kind == "FORBIDDEN":
                trace.records.append(_record(it + 1, x, cfg))
                trace.terminated = "forbidden_event"
                break

    trace.final_curve = x.curve
    return trace


def _record(it: int, x: _Iterate, cfg: FlowConfig, grad_norm=None, step=None, rejected=()) -> IterateRecord:
    try:
        whitney = whitney_index(x.curve)
    except ValueError:
        whitney = None
    return IterateRecord(it, x.u, x.resistance.total, x.diagram.n_crossings, _monitor(x, cfg), whitney,
                         grad_norm, step, rejected)


def _monitor(x: _Iterate, cfg: FlowConfig) -> float:
    """The GMRE monitor value of an iterate: 0 without crossings, inf if a
    zero-area cycle makes it singular; under resistance="GMRE" it is the
    breakdown the iterate already carries."""
    if not x.diagram.n_crossings:
        return 0.0
    try:
        return x.resistance.total if cfg.resistance == "GMRE" else gmre(x.diagram, cfg.delta).total
    except SingularDiagramError:
        return np.inf

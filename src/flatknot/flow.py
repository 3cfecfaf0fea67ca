"""Projected gradient descent on E = U_f + resistance, with Reidemeister
event detection and the bounded-GMRE knot-type monitor.

The descent lives in angle space: the step direction is the analytic
bending gradient plus the exact resistance gradient of the frozen cycle
set of the current diagram (one reverse pass through the shoelace areas,
the crossing points and the trapezoid integration), projected off the
two closure directions.  Every accepted iterate is re-closed and integrated
at unit speed, so it has length 2pi, and carries its U_f value and its
resistance breakdown, whose cycles are the next frozen set.  Over/under
data is inherited across iterates by spatial matching; census changes
are classified as R2 / R3 and anything else aborts the flow as FORBIDDEN.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .curve import ClosedCurve, GaussRep, TWO_PI, gauss_from_curve, trapezoid_points, whitney_index
from .diagram import (
    EnergyBreakdown,
    KnotDiagram,
    detect_crossings,
    gmre,
    mre,
    resistance_energy,
    signed_area,
)
from .errors import CodimensionOneError, SingularDiagramError, StalledError
from .uniformization import EnergyFunctional, F_X2, energy_uf, gradient_norm, project_closure, uf_gradient

_ARMIJO = 1e-4
_STEP_FLOOR = 1e-12
_STEP_GROWTH = 1.5

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
        if self.step0 <= 0 or self.grad_tol <= 0:
            raise ValueError("step0 and grad_tol must be positive")
        # the GMRE monitor reads delta under every resistance
        if not self.delta > 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class FlowEvent:
    iter: int
    kind: str  # R2_appear | R2_vanish | R3 | FORBIDDEN
    location: np.ndarray
    crossing_delta: int


@dataclass
class FlowTrace:
    energies: list = field(default_factory=list)  # (iter, U, R, total)
    events: list = field(default_factory=list)
    final_curve: ClosedCurve = None
    terminated: str = "max_iters"
    gmre_values: list = field(default_factory=list)
    crossing_counts: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def max_gmre(self) -> float:
        return max(self.gmre_values) if self.gmre_values else 0.0


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


def total_energy(c: ClosedCurve, cfg: FlowConfig, diagram: KnotDiagram | None = None):
    """(U, R) on the curve; the diagram is re-detected unless supplied."""
    g = gauss_from_curve(c)
    u = energy_uf(g, cfg.functional)
    if diagram is None:
        diagram = detect_crossings(c)
    return u, resistance_breakdown(diagram, cfg).total


@dataclass(frozen=True)
class _Iterate:
    """Exactly-closed angle samples with everything measured on them."""

    gauss: GaussRep  # length 2pi, based at curve.points[0]
    curve: ClosedCurve
    diagram: KnotDiagram
    u: float
    resistance: EnergyBreakdown

    @property
    def total(self) -> float:
        return self.u + self.resistance.total


def _measure(g: GaussRep, curve: ClosedCurve, diagram: KnotDiagram, cfg: FlowConfig) -> _Iterate:
    return _Iterate(g, curve, diagram, energy_uf(g, cfg.functional), resistance_breakdown(diagram, cfg))


# ---------------------------------------------------------------------------
# frozen-combinatorics resistance gradient
# ---------------------------------------------------------------------------


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _cycle_vertex_ids(d: KnotDiagram, cy, n: int) -> np.ndarray:
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


def _resistance_gradient(g: GaussRep, d: KnotDiagram, bd: EnergyBreakdown):
    """Exact gradient, in angle space, of the resistance of the frozen
    cycle set bd.cycles, by one reverse pass.

    The cycles are evaluated on the samples that trapezoid_points gives
    for g, each crossing at the intersection X = a + t d1 of its two
    segments [a, b] and [c, e].  The pass takes each 1/A to its vertices
    by the shoelace, each crossing's share to its four segment endpoints,
    and the samples' cotangents back through the trapezoid sums to the
    angles.  Returned in the L^2 convention used by uf_gradient (divide
    the Euclidean partials by the arclength step).
    """
    n = g.n
    if not bd.cycles:
        return np.zeros(n)
    pts = trapezoid_points(g.alpha, g.base_point, g.length)[:-1]
    i, j = np.array(d.crossing_segments, dtype=int).reshape(-1, 2).T
    a, b, c, e = pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
    d1, d2 = b - a, e - c
    denom = _cross(d1, d2)
    t = _cross(c - a, d2) / denom
    u = _cross(c - a, d1) / denom
    verts = np.vstack([pts, a + t[:, None] * d1])
    cot = np.zeros_like(verts)
    for cy in bd.cycles:
        ids = _cycle_vertex_ids(d, cy, n)
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
    integrals vanish (the projected step leaves an O(step^2) drift)."""
    a = alpha.copy()
    s0, c0 = np.sin(alpha), np.cos(alpha)
    n = len(a)
    h = length / n
    for _ in range(8):
        f1 = h * np.cos(a).sum()
        f2 = h * np.sin(a).sum()
        if abs(f1) < 1e-12 * TWO_PI and abs(f2) < 1e-12 * TWO_PI:
            break
        j11 = -h * np.sum(np.sin(a) * s0)
        j12 = -h * np.sum(np.sin(a) * c0)
        j21 = h * np.sum(np.cos(a) * s0)
        j22 = h * np.sum(np.cos(a) * c0)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            break
        da = (j22 * -f1 - j12 * -f2) / det
        db = (j11 * -f2 - j21 * -f1) / det
        a = a + da * s0 + db * c0
    return a


def _integrate_alpha(alpha, base) -> ClosedCurve:
    """Closed curve of length 2pi from exactly-closed angle samples.

    Unit-tangent integration is already uniform in arclength, so no
    resampling is needed; the residual endpoint gap (1e-12 scale after
    the Newton re-closure) is distributed linearly.
    """
    n = len(alpha)
    h = TWO_PI / n
    pts = trapezoid_points(alpha, base, TWO_PI)[:-1]
    gap_vec = np.array([h * np.cos(alpha).sum(), h * np.sin(alpha).sum()])
    if np.hypot(*gap_vec) > 1e-6:
        raise StalledError("stalled: step broke the closure constraints")
    pts = pts - np.outer(np.arange(n) / n, gap_vec)
    return ClosedCurve(pts, TWO_PI)


def _inherited_rule(prev: KnotDiagram | None, curve: ClosedCurve, radius: float):
    """Detect crossings on `curve`, inheriting over/under from `prev`.

    Matched crossings keep their overpass strand; unmatched new crossings
    put the earlier passage on top, which is the consistent choice for an
    R2 pair.
    """
    base = detect_crossings(curve)
    if prev is None or prev.n_crossings == 0 or base.n_crossings == 0:
        return base
    rule = [True] * base.n_crossings
    for i, j, flip in _match_crossings(prev, base, radius):
        rule[j] = prev.crossings[i].first_over != flip
    return base.relabelled(rule)


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
    that is how far apart a matched pair may lie.
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


def _step_from_alpha(x: _Iterate, grad, cfg: FlowConfig, step: float):
    """One Armijo-backtracking descent step along -grad from x.

    Both sides of the Armijo test measure the bending part directly on
    the angle samples, so the comparison is exact; the resistance part is
    re-detected honestly on each candidate curve.
    Returns (accepted iterate, accepted step).
    """
    g = x.gauss
    gnorm2 = (TWO_PI / g.n) * float(np.dot(grad, grad))
    radius = max(5.0 * step * np.sqrt(max(gnorm2, 0.0)), 1e-3)
    s = step
    while s >= _STEP_FLOOR:
        try:
            alpha_s = _reclose_alpha(g.alpha - s * grad, TWO_PI)
            if np.array_equal(alpha_s, g.alpha):
                # already critical to rounding: nothing moves
                return x, s
            cand = _integrate_alpha(alpha_s, g.base_point)
            d_cand = _inherited_rule(x.diagram, cand, radius)
            y = _measure(GaussRep(alpha_s, g.base_point, TWO_PI), cand, d_cand, cfg)
        except (CodimensionOneError, SingularDiagramError, StalledError):
            s *= 0.5
            continue
        if y.total <= x.total - _ARMIJO * s * gnorm2:
            return y, s
        s *= 0.5
    raise StalledError("stalled")


def _start(c: ClosedCurve, cfg: FlowConfig, diagram: KnotDiagram | None = None) -> _Iterate:
    """The iterate a flow steps from: c scaled to length 2pi, its angles
    re-closed and integrated, and the crossings detected on that curve.
    A supplied diagram lends only its over/under bits, in order of first
    passage."""
    if abs(c.length - TWO_PI) > 1e-8:
        c = c.scaled(TWO_PI / c.length)
    g = GaussRep(_reclose_alpha(gauss_from_curve(c).alpha, TWO_PI), c.points[0], TWO_PI)
    curve = _integrate_alpha(g.alpha, g.base_point)
    d = detect_crossings(curve)
    if diagram is not None:
        d = d.relabelled(cr.first_over for cr in diagram.crossings)
    return _measure(g, curve, d, cfg)


def flow_step(c: ClosedCurve, cfg: FlowConfig, step: float, diagram: KnotDiagram | None = None):
    """One backtracking line-search step from the iterate `relax` would
    start from; returns (new curve, accepted step).

    Energy is non-increasing (Armijo factor 1e-4); a step underflow below
    1e-12 raises StalledError("stalled").
    """
    x = _start(c, cfg, diagram)
    y, s = _step_from_alpha(x, _projected_gradient(x, cfg), cfg, step)
    return y.curve, s


# ---------------------------------------------------------------------------
# event classification
# ---------------------------------------------------------------------------


def _gauss_sequence(d: KnotDiagram, labels):
    """Cyclic sequence of crossing labels in passage order."""
    return [labels[d.passage_crossing[p]] for p in range(2 * d.n_crossings)]


def _cyclic_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = a + a
    return any(doubled[i : i + len(b)] == b for i in range(len(a)))


def classify_event(
    before: KnotDiagram, after: KnotDiagram, radius: float = 0.1
) -> FlowEvent | None:
    """Classify the combinatorial change between consecutive diagrams.

    None means no change: every crossing matched, the same cyclic passage
    order and no crossing-type flip.  Crossing-count changes of +-2 with
    a mutually close unmatched pair are R2 moves; an unchanged census
    whose passage order changed across a cluster of three crossings is an
    R3; everything else (including +-1 loop events and crossing-type
    flips) is FORBIDDEN.
    """
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
            if before.crossings[i].first_over != (after.crossings[j].first_over != flip):
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
    label_to_after = {f"b{i}": j for i, j, _ in pairs}
    for combo in combinations(sorted(set(seq_b)), 3):
        drop = set(combo)
        if _cyclic_equal([x for x in seq_b if x not in drop], [x for x in seq_a if x not in drop]):
            return [label_to_after[lbl] for lbl in combo]
    return []


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def relax(c0: ClosedCurve, cfg: FlowConfig, keyframe_cb=None) -> FlowTrace:
    """Iterate descent steps to convergence or termination.

    The state is the exactly-closed angle sample vector; iterates are its
    unit-speed integrals, so every recorded curve has length 2pi.  The
    trace records (U, R, total) and the GMRE monitor value per iterate;
    any event other than R2/R3 aborts with terminated = "forbidden_event".
    A stalled line search is recorded as convergence (the iterate is a
    numerical critical point); a frozen cycle of zero area ends the flow
    with terminated = "singular".
    """
    trace = FlowTrace()
    try:
        x = _start(c0, cfg)
    except (CodimensionOneError, StalledError):
        trace.final_curve = c0
        trace.terminated = "singular"
        return trace
    step = cfg.step0
    last_whitney = _safe_whitney(x.curve)

    for it in range(cfg.max_iters):
        trace.energies.append((it, x.u, x.resistance.total, x.total))
        trace.crossing_counts.append(x.diagram.n_crossings)
        trace.gmre_values.append(_monitor(x, cfg) if x.diagram.n_crossings else 0.0)
        if keyframe_cb is not None:
            keyframe_cb(it, x.curve)

        try:
            grad = _projected_gradient(x, cfg)
        except SingularDiagramError:
            trace.terminated = "singular"
            break
        gnorm = gradient_norm(x.gauss, grad)
        if gnorm < cfg.grad_tol:
            trace.terminated = "converged"
            break
        try:
            y, accepted = _step_from_alpha(x, grad, cfg, step)
        except StalledError:
            trace.terminated = "converged"
            trace.findings.append(f"iter {it}: line search stalled at |grad| = {gnorm:.3e}")
            break

        disp = float(np.max(np.hypot(*(y.curve.points - x.curve.points).T)))
        event = classify_event(x.diagram, y.diagram, max(5.0 * disp, 1e-3))
        if event is not None:
            event = dataclasses.replace(event, iter=it)
            trace.events.append(event)
            if event.kind == "FORBIDDEN":
                # record the offending state so the GMRE monitor sees it
                trace.energies.append((it + 1, y.u, y.resistance.total, y.total))
                trace.crossing_counts.append(y.diagram.n_crossings)
                try:
                    trace.gmre_values.append(_monitor(y, cfg))
                except SingularDiagramError:
                    trace.gmre_values.append(np.inf)
                trace.terminated = "forbidden_event"
                trace.final_curve = y.curve
                return trace

        w = _safe_whitney(y.curve)
        if w is not None and last_whitney is not None and w != last_whitney:
            trace.findings.append(f"iter {it}: Whitney index changed {last_whitney} -> {w}")
        last_whitney = w if w is not None else last_whitney

        x = y
        step = min(accepted * _STEP_GROWTH, 1.0)
    else:
        trace.terminated = "max_iters"

    trace.final_curve = x.curve
    return trace


def _monitor(x: _Iterate, cfg: FlowConfig) -> float:
    """The GMRE monitor value of an iterate; under resistance="GMRE" it is
    the breakdown the iterate already carries."""
    return x.resistance.total if cfg.resistance == "GMRE" else gmre(x.diagram, cfg.delta).total


def _safe_whitney(curve: ClosedCurve):
    try:
        return whitney_index(curve)
    except ValueError:
        return None

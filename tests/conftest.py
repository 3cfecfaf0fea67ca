import hypothesis
import numpy as np
import pytest

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

"""Discrete regular closed plane curves and their turning-angle form.

A curve is a closed polyline sampled uniformly in arclength; its Gauss
representation is the continuous lift of the tangent direction on the
normalized parameter grid [0, 2pi).  All quadrature on that grid is the
periodic trapezoid rule, which for these smooth periodic integrands is
just the plain sample mean times the period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegeneratePolylineError, StalledError

TWO_PI = 2.0 * np.pi

# Resampling targets segment-length ratios within this of 1.
_SPACING_TOL = 1e-3


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _wrap_to_pi(x):
    """Reduce angle(s) into (-pi, pi]."""
    y = np.remainder(x + np.pi, TWO_PI) - np.pi
    return np.where(y == -np.pi, np.pi, y) if np.ndim(y) else (np.pi if y == -np.pi else y)


@dataclass(frozen=True)
class ClosedCurve:
    """Arclength-sampled closed polyline; index arithmetic is mod N."""

    points: np.ndarray
    length: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return len(self.points)

    def segment_lengths(self) -> np.ndarray:
        d = np.roll(self.points, -1, axis=0) - self.points
        return np.hypot(d[:, 0], d[:, 1])

    def scaled(self, s: float) -> "ClosedCurve":
        return ClosedCurve(self.points * s, self.length * s)

    def translated(self, v) -> "ClosedCurve":
        return ClosedCurve(self.points + np.asarray(v, dtype=float), self.length)

    def rotated(self, theta: float) -> "ClosedCurve":
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return ClosedCurve(self.points @ rot.T, self.length)

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.points[::-1].copy(), self.length)


@dataclass(frozen=True)
class GaussRep:
    """Continuous lift of the tangent angle on the uniform grid over [0, 2pi).

    `length` is the true arclength of the underlying curve (2pi unless the
    curve was rescaled); curvature is d(alpha)/ds = alpha' * 2pi/length.

    A lift takes (cos alpha, sin alpha), the closure gap, the trapezoid
    points, the closure basis with its Gram matrix and the discrete
    curvature once, on first use, and keeps them read-only.  They assume
    `alpha` and `base_point` never change, so both are read-only views:
    writing to them raises.
    """

    alpha: np.ndarray
    base_point: np.ndarray = field(default_factory=lambda: np.zeros(2))
    length: float = TWO_PI

    def __post_init__(self):
        for name in ("alpha", "base_point"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=float).view()))

    @property
    def n(self) -> int:
        return len(self.alpha)

    @cached_property
    def _tangent(self) -> tuple[np.ndarray, np.ndarray]:
        """(cos alpha, sin alpha)."""
        return _read_only(np.cos(self.alpha)), _read_only(np.sin(self.alpha))

    @cached_property
    def _gap(self) -> np.ndarray:
        """(h sum cos alpha, h sum sin alpha) with h = length / N: the
        periodic trapezoid values of the two closure integrals, by which
        the trapezoid points miss closing."""
        cos, sin = self._tangent
        h = self.length / self.n
        return _read_only(np.array([h * cos.sum(), h * sin.sum()]))

    @cached_property
    def _points(self) -> np.ndarray:
        """The N trapezoid points p[k+1] = p[k] + h/2 (T[k] + T[k+1]) of
        the unit tangent T = (cos alpha, sin alpha) from base_point, with
        h = length / N; the step from the last point back to the first
        closes when the gap is 0."""
        h = self.length / self.n
        coords = [b + np.concatenate([[0.0], np.cumsum(0.5 * h * (t[:-1] + t[1:]))])
                  for t, b in zip(self._tangent, self.base_point)]
        return _read_only(np.column_stack(coords))

    @cached_property
    def _closure(self) -> tuple[np.ndarray, np.ndarray]:
        """The (N, 2) basis of the closure directions (sin alpha, cos alpha),
        the gradients of the two closure integrals, and its Gram matrix."""
        cos, sin = self._tangent
        basis = _read_only(np.column_stack([sin, cos]))
        return basis, _read_only(basis.T @ basis)

    @cached_property
    def _curvature(self) -> np.ndarray:
        """kappa = d(alpha)/ds by central differences on the periodic lift."""
        ext = self.lifted_extension()
        n = self.n
        return _read_only((ext[n + 1 : 2 * n + 1] - ext[n - 1 : 2 * n - 1]) / (2.0 * (self.length / n)))

    def lift_defect(self) -> float:
        """alpha_end - alpha[0] where alpha_end continues the lift to t = 2pi.

        For a periodic grid the tangent at 2pi equals the tangent at 0, so
        the defect is 2pi times an integer up to rounding noise.
        """
        a = self.alpha
        alpha_end = a[-1] + _wrap_to_pi(a[0] - a[-1])
        return float(alpha_end - a[0])

    def lifted_extension(self) -> np.ndarray:
        """Samples extended one period on each side via alpha(t + 2pi) = alpha(t) + defect."""
        d = self.lift_defect()
        return np.concatenate([self.alpha - d, self.alpha, self.alpha + d])


@dataclass(frozen=True)
class ClosureReport:
    cos_integral: float
    sin_integral: float
    angle_defect_mod_2pi: float
    whitney: int


def polyline_length(points: np.ndarray) -> float:
    """Length of the closed polyline through the points, wrap chord included."""
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0)
    return float(np.hypot(d[:, 0], d[:, 1]).sum()) + float(np.hypot(*(pts[0] - pts[-1])))


def _resample_once(points: np.ndarray, n: int) -> np.ndarray:
    """One pass of uniform-arclength placement on the closed polyline."""
    pts = np.asarray(points, dtype=float)
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(n) * (total / n)
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / np.where(seg[idx] > 0, seg[idx], 1.0)
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def resample_arclength(points, n: int) -> ClosedCurve:
    """Resample a closed polyline to n points uniform in arclength.

    Iterates the placement on its own output so chord shortening at the
    input's corners cannot leave unequal segments; the stored length is
    the output polygon's own length.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegeneratePolylineError("degenerate polyline")
    # drop consecutive duplicates (including a duplicated closing point)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.hypot(*np.diff(pts, axis=0).T) > 0
    pts = pts[keep]
    if len(pts) > 1 and np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    if len(pts) < 3 or polyline_length(pts) <= 0:
        raise DegeneratePolylineError("degenerate polyline")
    if n < 8:
        raise ValueError("n must be at least 8")

    out = _resample_once(pts, n)
    for _ in range(5):
        seg = np.hypot(*np.diff(np.vstack([out, out[:1]]), axis=0).T)
        if seg.min() > 0 and seg.max() / seg.min() <= 1.0 + _SPACING_TOL:
            break
        out = _resample_once(out, n)
    return ClosedCurve(out, polyline_length(out))


def _tangent_angles(pts: np.ndarray) -> np.ndarray:
    """The directions of the central-difference tangents, in (-pi, pi]."""
    tangents = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    return np.arctan2(tangents[:, 1], tangents[:, 0])


def gauss_from_curve(c: ClosedCurve) -> GaussRep:
    """Continuous lift of the tangent direction, by central differences."""
    raw = _tangent_angles(c.points)
    # cumulative unwrap: keep increments in (-pi, pi)
    steps = _wrap_to_pi(np.diff(raw))
    alpha = raw[0] + np.concatenate([[0.0], np.cumsum(steps)])
    return GaussRep(alpha, c.points[0].copy(), c.length)


def close_lift(alpha, base) -> GaussRep:
    """alpha re-closed as a lift of length 2pi from `base`: Newton steps
    along alpha's closure directions (sin alpha, cos alpha) until both
    closure integrals are below 1e-12 * 2pi (a projected step leaves an
    O(step^2) drift).  Each Newton step takes sin and cos of its angles
    once, for both the closure integrals and the Jacobian; the last pair
    is the returned lift's tangent."""
    a = alpha
    s0, c0 = np.sin(alpha), np.cos(alpha)
    s, c = s0, c0
    h = TWO_PI / len(a)
    for _ in range(8):
        f1, f2 = h * c.sum(), h * s.sum()
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
    g = GaussRep(a, base, TWO_PI)
    g.__dict__["_tangent"] = _read_only(c), _read_only(s)
    return g


def curve_from_gauss(g: GaussRep) -> ClosedCurve:
    """The closed curve of a Gauss lift, of stored length g.length.

    The lift's trapezoid points miss closing by its gap, which is spread
    linearly over the samples.  A gap above 1e-6 is no rounding residue
    but an open lift, and raises StalledError.
    """
    gap = g._gap
    if not np.hypot(*gap) <= 1e-6:
        raise StalledError(f"angle lift does not close: gap {np.hypot(*gap):.3e}")
    return ClosedCurve(g._points - np.outer(np.arange(g.n) / g.n, gap), g.length)


def closure_report(g: GaussRep) -> ClosureReport:
    """Closure integrals, angle defect and Whitney index of a Gauss lift."""
    cos_i, sin_i = g._gap
    defect = g.lift_defect()
    w = int(round(defect / TWO_PI))
    return ClosureReport(float(cos_i), float(sin_i), float(_wrap_to_pi(defect)), w)


def _points_to_polyline_dist(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a closed polyline (point-to-segment)."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    d = b - a
    len2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pse,se->ps", rel, d) / len2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.hypot(points[:, None, 0] - proj[:, :, 0], points[:, None, 1] - proj[:, :, 1])
    return dist.min(axis=1)


def hausdorff_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two closed polylines."""
    pa = np.asarray(points_a, dtype=float)
    pb = np.asarray(points_b, dtype=float)
    return float(
        max(
            _points_to_polyline_dist(pa, pb).max(),
            _points_to_polyline_dist(pb, pa).max(),
        )
    )


def align_rigid(points: np.ndarray, target: np.ndarray):
    """Rigid motion (rotation + translation, either reflection) of `points`
    onto `target`, and the polyline Hausdorff distance it leaves.

    Returns (distance, aligned points in the order of `points`).  Both
    closed curves are assumed sampled uniformly in arclength and of equal
    length: `target` is resampled to len(points), and sample k of `points`
    is matched to sample k + s of the target, in either traversal
    direction.  Over every shift s the least-squares motion is the
    orthogonal Procrustes solution U V^T of the centred cross-covariance
    H_s = U S V^T (its determinant is -1 for a reflection); the shift with
    the largest trace of S leaves the least residual.  All H_s come from
    circular cross-correlations by FFT.  The distance is that of a real
    rigid motion, so it bounds the optimum over motions from above.
    """
    a = np.asarray(points, dtype=float)
    b = resample_arclength(target, len(a)).points
    a0 = a - a.mean(axis=0)
    b0 = b - b.mean(axis=0)
    # h[d, s, i, j] = sum_k run_d[k + s, i] * b0[k, j], run_1 the reversed points
    fa = np.fft.rfft(np.stack([a0, a0[::-1]]), axis=1)
    fb = np.conj(np.fft.rfft(b0, axis=0))
    h = np.fft.irfft(fa[..., :, None] * fb[:, None, :], n=len(a), axis=1)
    u, sv, vt = np.linalg.svd(h)
    d, s = np.unravel_index(np.argmax(sv.sum(axis=-1)), sv.shape[:2])
    aligned = a0 @ (u[d, s] @ vt[d, s]) + b.mean(axis=0)
    return hausdorff_distance(aligned, target), aligned


def whitney_index(c: ClosedCurve) -> int:
    """Number of turns of the tangent vector; errors out on cusps.

    One pass over the central-difference tangent angles: their cyclic
    increments, wrapped into (-pi, pi], must stay below pi/2 in size, and
    sum to 2pi times the index.
    """
    raw = _tangent_angles(c.points)
    inc = _wrap_to_pi(np.diff(raw, append=raw[:1]))
    bad = np.flatnonzero(np.abs(inc) >= np.pi / 2)
    if len(bad):
        raise ValueError(f"curve not regular at sample {int(bad[0])}")
    turns = float(inc.sum()) / TWO_PI
    w = round(turns)
    if abs(turns - w) >= 1e-3:
        raise ValueError("tangent winding is not close to an integer")
    return int(w)

"""Discrete regular closed plane curves and their turning-angle form.

A curve is a closed polyline sampled uniformly in arclength; its Gauss
representation is the continuous lift of the tangent direction on the
normalized parameter grid [0, 2pi).  All quadrature on that grid is the
periodic trapezoid rule, which for these smooth periodic integrands is
just the plain sample mean times the period.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePolylineError

TWO_PI = 2.0 * np.pi

# Resampling targets segment-length ratios within this of 1.
_SPACING_TOL = 1e-3


def _wrap_to_pi(x):
    """Reduce angle(s) into (-pi, pi]."""
    y = np.remainder(x + np.pi, TWO_PI) - np.pi
    return np.where(y == -np.pi, np.pi, y) if np.ndim(y) else (np.pi if y == -np.pi else y)


@dataclass(frozen=True)
class ClosedCurve:
    """Arclength-sampled closed polyline; index arithmetic is mod N.

    closure_gap is nonzero only for curves reconstructed from an angle
    function that fails the closure conditions; the implied wrap chord
    is then not part of the geometry.
    """

    points: np.ndarray
    length: float
    closure_gap: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))

    @property
    def n(self) -> int:
        return len(self.points)

    def segment_lengths(self) -> np.ndarray:
        d = np.roll(self.points, -1, axis=0) - self.points
        return np.hypot(d[:, 0], d[:, 1])

    def polygon_length(self) -> float:
        return float(self.segment_lengths().sum())

    def scaled(self, s: float) -> "ClosedCurve":
        return ClosedCurve(self.points * s, self.length * s, self.closure_gap * s)

    def translated(self, v) -> "ClosedCurve":
        return ClosedCurve(self.points + np.asarray(v, dtype=float), self.length, self.closure_gap)

    def rotated(self, theta: float) -> "ClosedCurve":
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        return ClosedCurve(self.points @ rot.T, self.length, self.closure_gap)

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.points[::-1].copy(), self.length, self.closure_gap)

    def validate(self) -> None:
        if self.n < 8:
            raise ValueError(f"need at least 8 samples, got {self.n}")
        seg = self.segment_lengths()
        if seg.min() <= 0:
            raise DegeneratePolylineError("degenerate polyline")
        if seg.max() / seg.min() > 1.0 + _SPACING_TOL:
            raise ValueError(
                f"samples not equi-spaced: ratio {seg.max() / seg.min():.6f}"
            )
        if abs(self.polygon_length() - self.length) > 1e-6 * self.length:
            raise ValueError("stored length inconsistent with polygon length")


@dataclass(frozen=True)
class GaussRep:
    """Continuous lift of the tangent angle on the uniform grid over [0, 2pi).

    `length` is the true arclength of the underlying curve (2pi unless the
    curve was rescaled); curvature is d(alpha)/ds = alpha' * 2pi/length.
    """

    alpha: np.ndarray
    base_point: np.ndarray = field(default_factory=lambda: np.zeros(2))
    length: float = TWO_PI

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float))

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def step(self) -> float:
        """Grid step of the normalized parameter, 2pi/N."""
        return TWO_PI / self.n

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


def polyline_length(points: np.ndarray, closed: bool = True) -> float:
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0)
    total = float(np.hypot(d[:, 0], d[:, 1]).sum())
    if closed:
        total += float(np.hypot(*(pts[0] - pts[-1])))
    return total


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


def gauss_from_curve(c: ClosedCurve) -> GaussRep:
    """Continuous lift of the tangent direction, by central differences."""
    pts = c.points
    tangents = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    raw = np.arctan2(tangents[:, 1], tangents[:, 0])
    # cumulative unwrap: keep increments in (-pi, pi)
    steps = _wrap_to_pi(np.diff(raw))
    alpha = raw[0] + np.concatenate([[0.0], np.cumsum(steps)])
    return GaussRep(alpha, pts[0].copy(), c.length)


def trapezoid_points(alpha, base, length: float) -> np.ndarray:
    """Integrate the unit tangent (cos alpha, sin alpha) from `base`.

    Periodic trapezoid steps p[k+1] = p[k] + h/2 (T[k] + T[k+1]), with
    T[N] := T[0] and h = length / N, batched over the leading axes of
    alpha (..., N).  Returns all N + 1 points, shape (..., N + 1, 2); the
    last one lies on the first exactly when the closure integrals vanish.
    """
    a = np.asarray(alpha, dtype=float)
    h = length / a.shape[-1]
    zeros = np.zeros(a.shape[:-1] + (1,))
    coords = []
    for t, b in ((np.cos(a), base[0]), (np.sin(a), base[1])):
        te = np.concatenate([t, t[..., :1]], axis=-1)
        steps = np.cumsum(0.5 * h * (te[..., :-1] + te[..., 1:]), axis=-1)
        coords.append(b + np.concatenate([zeros, steps], axis=-1))
    return np.stack(coords, axis=-1)


def curve_from_gauss(g: GaussRep) -> ClosedCurve:
    """Integrate (cos alpha, sin alpha) from the base point.

    Periodic trapezoid steps; if the closure integrals vanish within
    1e-8 * 2pi the residual endpoint gap is distributed linearly and the
    curve snapped closed, otherwise the open polyline is returned with
    its closure gap recorded.
    """
    ends = trapezoid_points(g.alpha, g.base_point, g.length)
    gap_vec = ends[-1] - ends[0]
    pts = ends[:-1]
    h = g.length / g.n
    cos_i = h * np.cos(g.alpha).sum()
    sin_i = h * np.sin(g.alpha).sum()
    if abs(cos_i) < 1e-8 * TWO_PI and abs(sin_i) < 1e-8 * TWO_PI:
        pts = pts - np.outer(np.arange(g.n) / g.n, gap_vec)
        return ClosedCurve(pts, polyline_length(pts))
    return ClosedCurve(pts, polyline_length(pts, closed=False), closure_gap=float(np.hypot(*gap_vec)))


def closure_report(g: GaussRep) -> ClosureReport:
    """Closure integrals, angle defect and Whitney index of a Gauss lift."""
    h = g.length / g.n
    cos_i = float(h * np.cos(g.alpha).sum())
    sin_i = float(h * np.sin(g.alpha).sum())
    defect = g.lift_defect()
    w = int(round(defect / TWO_PI))
    return ClosureReport(cos_i, sin_i, float(_wrap_to_pi(defect)), w)


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
    """Number of turns of the tangent vector; errors out on cusps."""
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

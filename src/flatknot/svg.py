"""SVG rendering of curves and diagrams.

Over/under is drawn the usual way: a short gap is cut into the
under-strand around each crossing and the over-strand is repainted on
top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import ClosedCurve
from .diagram import KnotDiagram


@dataclass(frozen=True)
class RenderSpec:
    width: int = 640
    height: int = 640
    stroke: float = 2.0
    show_crossings: bool = True

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("render dimensions must be positive")


class _Canvas:
    def __init__(self, spec: RenderSpec, points: np.ndarray):
        self.spec = spec
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
        pad = 0.08 * span
        self.scale = min(spec.width, spec.height) / (span + 2 * pad)
        self.lo = lo - pad
        self.hi = hi + pad
        self.body = []

    def map(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        x = (p[:, 0] - self.lo[0]) * self.scale
        y = self.spec.height - (p[:, 1] - self.lo[1]) * self.scale
        return np.column_stack([x, y])

    def polyline(self, pts, color="#202020", width=None, closed=False):
        q = self.map(pts)
        if closed:
            q = np.vstack([q, q[:1]])
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in q)
        w = width if width is not None else self.spec.stroke
        self.body.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{w:.2f}" stroke-linejoin="round" stroke-linecap="round"/>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.spec.width}" '
            f'height="{self.spec.height}" viewBox="0 0 {self.spec.width} {self.spec.height}">\n'
            f'<rect width="{self.spec.width}" height="{self.spec.height}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.body) + "\n</svg>\n"


def _strand_window(pts: np.ndarray, center_idx: int, halfwidth: float):
    """Polyline piece within +-halfwidth of arclength around a sample index."""
    n = len(pts)
    out = [pts[center_idx]]
    dist = 0.0
    i = center_idx
    while dist < halfwidth:
        j = (i + 1) % n
        dist += float(np.hypot(*(pts[j] - pts[i])))
        out.append(pts[j])
        i = j
    fwd = out
    out = [pts[center_idx]]
    dist = 0.0
    i = center_idx
    while dist < halfwidth:
        j = (i - 1) % n
        dist += float(np.hypot(*(pts[j] - pts[i])))
        out.append(pts[j])
        i = j
    return np.vstack([np.array(out[::-1]), np.array(fwd[1:])])


def curve_svg(c: ClosedCurve, spec: RenderSpec = RenderSpec()) -> str:
    canvas = _Canvas(spec, c.points)
    canvas.polyline(c.points, closed=True)
    return canvas.render()


def diagram_svg(d: KnotDiagram, spec: RenderSpec = RenderSpec()) -> str:
    canvas = _Canvas(spec, d.curve.points)
    canvas.polyline(d.curve.points, closed=True)
    if spec.show_crossings and d.n_crossings:
        gap = 2.5 * spec.stroke / canvas.scale
        pts = d.curve.points
        n = pts.shape[0]
        h = 2 * np.pi / n
        for cr, first_over in zip(d.crossings, d.first_over):
            over, under = cr.passages if first_over else cr.passages[::-1]
            under_idx = int(round(d.passage_params[under] / h)) % n
            over_idx = int(round(d.passage_params[over] / h)) % n
            canvas.polyline(
                _strand_window(pts, under_idx, 1.8 * gap), color="#ffffff",
                width=spec.stroke * 3,
            )
            canvas.polyline(_strand_window(pts, over_idx, 2.2 * gap))
    return canvas.render()

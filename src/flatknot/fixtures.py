"""Reference curves used by the tests, the verification suite and the CLI
examples.  Everything is generated, deterministic, and sampled uniformly
in arclength.
"""

from __future__ import annotations

import numpy as np

from .curve import ClosedCurve, TWO_PI, resample_arclength
from .pendulum import build_infinity_curve


def circle_curve(n: int = 512, radius: float = 1.0, clockwise: bool = False) -> ClosedCurve:
    """Exact circle samples; the stored length is the smooth arclength
    2 pi r, so the constant curvature 1/r is reproduced exactly."""
    th = np.arange(n) * (TWO_PI / n)
    if clockwise:
        th = -th
    pts = radius * np.column_stack([np.cos(th), np.sin(th)])
    return ClosedCurve(pts, TWO_PI * radius)


def doubly_traversed_circle(n: int = 512) -> ClosedCurve:
    """Radius-1/2 circle wound twice; total length 2pi."""
    th = np.arange(n) * (2 * TWO_PI / n)
    pts = 0.5 * np.column_stack([np.cos(th), np.sin(th)])
    return ClosedCurve(pts, TWO_PI)


def ellipse_curve(n: int = 512, a: float = 2.0, b: float = 1.0) -> ClosedCurve:
    """Ellipse (a cos t, b sin t), sampled exactly on the curve at uniform
    arclength via dense inversion of the cumulative length, and scaled to
    length 2pi; the stored length is the smooth arclength.
    """
    m = 1 << 18
    t = np.linspace(0, TWO_PI, m + 1)
    speed = np.hypot(-a * np.sin(t), b * np.cos(t))
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speed[:-1] + speed[1:]) * (TWO_PI / m))])
    total = s[-1]
    t_at = np.interp(np.arange(n) * (total / n), s, t)
    pts = np.column_stack([a * np.cos(t_at), b * np.sin(t_at)])
    c = ClosedCurve(pts, float(total))
    return c.scaled(TWO_PI / c.length)


def trefoil_curve(n: int = 512) -> ClosedCurve:
    """Standard trefoil projection (sin t + 2 sin 2t, cos t - 2 cos 2t),
    scaled to length 2pi."""
    t = np.linspace(0, TWO_PI, 4096, endpoint=False)
    pts = np.column_stack([np.sin(t) + 2 * np.sin(2 * t), np.cos(t) - 2 * np.cos(2 * t)])
    c = resample_arclength(pts, n)
    return c.scaled(TWO_PI / c.length)


def limacon_curve(n: int = 512, inner: float = 2.0) -> ClosedCurve:
    """Limacon r = 1 + inner*cos(theta): one small inner loop (one crossing),
    scaled to length 2pi.

    The shrinking inner loop is the standard Omega_1 collapse scenario.
    """
    th = np.linspace(0, TWO_PI, 4096, endpoint=False)
    r = 1.0 + inner * np.cos(th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    c = resample_arclength(pts, n)
    return c.scaled(TWO_PI / c.length)


def fourier_wobble(n: int, seed: int, amplitude: float = 0.05) -> ClosedCurve:
    """Circle with random radial Fourier noise in modes 3..8."""
    rng = np.random.default_rng(seed)
    th = np.linspace(0, TWO_PI, 4096, endpoint=False)
    r = np.ones_like(th)
    for k in range(3, 9):
        ak, bk = rng.normal(0, amplitude / 6, 2)
        r += ak * np.cos(k * th) + bk * np.sin(k * th)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    c = resample_arclength(pts, n)
    return c.scaled(TWO_PI / c.length)


def noisy_circle(n: int = 256, seed: int = 7, amplitude: float = 0.05) -> ClosedCurve:
    return fourier_wobble(n, seed, amplitude)


def noisy_figure_eight(n: int = 256, seed: int = 11, amplitude: float = 0.02) -> ClosedCurve:
    """Smoothly perturbed infinity curve with Whitney index 0, one crossing."""
    base = build_infinity_curve(2, 2048)
    rng = np.random.default_rng(seed)
    t = np.linspace(0, TWO_PI, base.n, endpoint=False)
    wob = np.zeros_like(t)
    for k in range(2, 6):
        ak, bk = rng.normal(0, amplitude / 4, 2)
        wob += ak * np.cos(k * t) + bk * np.sin(k * t)
    # displace along the normal direction of the curve
    tang = np.roll(base.points, -1, axis=0) - np.roll(base.points, 1, axis=0)
    tang /= np.hypot(*tang.T)[:, None]
    normal = np.column_stack([-tang[:, 1], tang[:, 0]])
    pts = base.points + wob[:, None] * normal
    c = resample_arclength(pts, n)
    return c.scaled(TWO_PI / c.length)


def collapse_functional(threshold: float = 2.5):
    """Adversarial functional: uniformizing below the curvature threshold
    and loop-collapsing above it.  Descent on it violates the generic
    deformation hypothesis and drives diagrams into forbidden events."""
    from .uniformization import EnergyFunctional

    cc = 1.0 / (6.0 * threshold**2)
    return EnergyFunctional(
        lambda x: x * x - cc * x**4,
        lambda x: 2 * x - 4 * cc * x**3,
        lambda x: 2 - 12 * cc * x * x,
        "x^2-c*x^4",
    )


def random_immersed_curves(count: int, seed: int = 2024, n: int = 256):
    """Deterministic pool of smooth immersed curves with 1..8 transversal
    crossings, from random trigonometric coordinates."""
    from .diagram import detect_crossings
    from .errors import CodimensionOneError

    out = []
    attempt = 0
    while len(out) < count and attempt < count * 400:
        attempt += 1
        rng = np.random.default_rng(seed * 100003 + attempt)
        t = np.linspace(0, TWO_PI, 2048, endpoint=False)
        x = np.cos(t)
        y = np.sin(t)
        strength = rng.uniform(0.5, 1.4)
        for k in range(2, 6):
            sigma = strength / k
            ax, bx, ay, by = rng.normal(0, sigma, 4)
            x = x + ax * np.cos(k * t) + bx * np.sin(k * t)
            y = y + ay * np.cos(k * t) + by * np.sin(k * t)
        try:
            c = resample_arclength(np.column_stack([x, y]), n)
            c = c.scaled(TWO_PI / c.length)
            d = detect_crossings(c)
        except (CodimensionOneError, ValueError):
            continue
        if 1 <= d.n_crossings <= 8:
            out.append((c, d))
    if len(out) < count:
        raise RuntimeError(f"could only generate {len(out)} immersed curves")
    return out


def bigon_pair(n: int = 400):
    """Two closed curves: one with a shallow dip crossing a straight run
    twice (a 2-gon), the other with the dip lifted clear.  The pair is a
    fixture for R2 classification."""

    def build(depth):
        xs = np.linspace(-3, 3, 60)
        top = np.column_stack([xs, np.full_like(xs, 1.0)])
        # dip in the return strand near x = 0
        xr = np.linspace(3, -3, 120)
        yr = -1.0 + (1.0 + depth) * np.exp(-(xr**2) / 0.5)
        bottom = np.column_stack([xr, yr])
        right = np.column_stack([np.full(20, 3.2), np.linspace(1, -1, 22)[1:-1]])
        left = np.column_stack([np.full(20, -3.2), np.linspace(-1, 1, 22)[1:-1]])
        ring = np.vstack(
            [
                top,
                [[3.2, 1.0]],
                right,
                [[3.2, -1.0]],
                bottom,
                [[-3.2, -1.0]],
                left,
                [[-3.2, 1.0]],
            ]
        )
        c = resample_arclength(ring, n)
        return c.scaled(TWO_PI / c.length)

    # the top strand sits at y = 1 and the bump peaks at depth; peaks above
    # 1 cross it twice, peaks below stay clear
    return build(2.3), build(0.5)

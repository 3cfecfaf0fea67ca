"""Uniformization energies U_f, their circumradius extension, gradients,
and Euler-Lagrange residuals, all in the Gauss representation.

The discrete curvature is the central difference of the angle lift, the
energy is the periodic trapezoid sum, and the L^2 gradient is taken with
respect to the angle samples with the two closure directions (sin alpha,
cos alpha) projected out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import GaussRep, ClosedCurve

_FD_STEP = 1e-5  # fallback step for functional derivatives


@dataclass(frozen=True)
class EnergyFunctional:
    """Plug-in functional f with optional analytic derivatives, each
    applied elementwise to numpy arrays.

    f(0) must vanish; missing derivatives fall back to central finite
    differences with step 1e-5.
    """

    f: callable
    f_prime: callable = None
    f_double_prime: callable = None
    name: str = "f"

    def __post_init__(self):
        f = self.f
        if abs(float(f(0.0))) >= 1e-12:
            raise ValueError("functional must satisfy f(0) = 0")
        if self.f_prime is None:
            fp = lambda x: (f(x + _FD_STEP) - f(x - _FD_STEP)) / (2 * _FD_STEP)
            object.__setattr__(self, "f_prime", fp)
        if self.f_double_prime is None:
            fpp = lambda x: (f(x + _FD_STEP) - 2 * f(x) + f(x - _FD_STEP)) / _FD_STEP**2
            object.__setattr__(self, "f_double_prime", fpp)


F_X = EnergyFunctional(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x), "x")
F_X2 = EnergyFunctional(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0 * np.ones_like(x), "x^2")
F_X4 = EnergyFunctional(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x, "x^4")


def power_functional(exponent: float) -> EnergyFunctional:
    """|x|^a with 1 < a < inf, the family singled out for study."""
    a = float(exponent)
    if not 1 < a < np.inf:  # NaN fails too
        raise ValueError("exponent must exceed 1" if a <= 1 else "exponent must be finite")
    return EnergyFunctional(
        lambda x: np.abs(x) ** a,
        lambda x: a * np.sign(x) * np.abs(x) ** (a - 1),
        lambda x: a * (a - 1) * np.abs(x) ** (a - 2),
        f"|x|^{a:g}",
    )


@dataclass(frozen=True)
class ELResidualReport:
    c1: float
    c2: float
    rms_residual: float


def discrete_curvature(g: GaussRep) -> np.ndarray:
    """kappa = d(alpha)/ds by central differences on the periodic lift:
    the read-only array the lift takes once."""
    return g._curvature


def _second_derivative(g: GaussRep) -> np.ndarray:
    ext = g.lifted_extension()
    n = g.n
    h_s = g.length / n
    return (ext[n + 1 : 2 * n + 1] - 2 * ext[n : 2 * n] + ext[n - 1 : 2 * n - 1]) / h_s**2


def energy_uf(g: GaussRep, e: EnergyFunctional) -> float:
    """U_f = int f(kappa) ds, periodic trapezoid (exact for constant kappa)."""
    h_s = g.length / g.n
    return float(h_s * np.sum(e.f(discrete_curvature(g))))


def three_point_curvature(a, b, c) -> np.ndarray:
    """Signed curvature of the circle through three points (1/R).

    2 * cross(b-a, c-a) / (|b-a| |c-a| |c-b|); collinear triples give 0.
    """
    ab = b - a
    ac = c - a
    cb = c - b
    cross = ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0]
    denom = (
        np.hypot(ab[..., 0], ab[..., 1])
        * np.hypot(ac[..., 0], ac[..., 1])
        * np.hypot(cb[..., 0], cb[..., 1])
    )
    return np.where(denom > 0, 2.0 * cross / np.where(denom > 0, denom, 1.0), 0.0)


def energy_uf_extended(c: ClosedCurve, e: EnergyFunctional, eps: float) -> float:
    """Circumradius-based energy: trapezoid sum of f(1/R(t-eps, t, t+eps)).

    eps is rounded to the nearest whole number of grid steps so the
    sample triples lie exactly on the polyline vertices.  Converges to
    energy_uf as eps -> 0 for smooth curves; see the package notes on the
    normalization of the defining limit.
    """
    n = c.n
    h_s = c.length / n
    if not (h_s < eps < c.length / 8):
        raise ValueError(f"eps must lie in (step, length/8) = ({h_s:.3g}, {c.length / 8:.3g})")
    m = max(1, int(round(eps / h_s)))
    pts = c.points
    kappa = three_point_curvature(np.roll(pts, m, axis=0), pts, np.roll(pts, -m, axis=0))
    return float(h_s * np.sum(e.f(kappa)))


def project_closure(g: GaussRep, v: np.ndarray) -> np.ndarray:
    """Remove the components of v along sin(alpha) and cos(alpha).

    These are the gradients of the two closure integrals; the projection
    is the rank-2 Gram solve in the discrete L^2 inner product, on the
    basis and Gram matrix the lift takes once.
    """
    basis, gram = g._closure
    rhs = basis.T @ v
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef = np.linalg.lstsq(basis, v, rcond=None)[0]
    return v - basis @ coef


def uf_gradient(g: GaussRep, e: EnergyFunctional) -> np.ndarray:
    """Projected L^2 gradient of energy_uf with respect to the angle samples.

    grad = -d/ds f'(kappa), discretized consistently with
    discrete_curvature, then projected onto the tangent space of the
    closure constraints.
    """
    fp = e.f_prime(discrete_curvature(g))
    h_s = g.length / g.n
    raw = -(np.roll(fp, -1) - np.roll(fp, 1)) / (2.0 * h_s)
    return project_closure(g, raw)


def gradient_norm(g: GaussRep, v: np.ndarray) -> float:
    """L^2 norm sqrt(int v^2 ds) on the curve's grid."""
    return float(np.sqrt(g.length / g.n * np.sum(v * v)))


def el_residual(g: GaussRep, e: EnergyFunctional) -> ELResidualReport:
    """Least-squares fit of f''(a') a'' = C1 cos a + C2 sin a."""
    lhs = e.f_double_prime(discrete_curvature(g)) * _second_derivative(g)
    basis = np.column_stack(g._tangent)
    coef, *_ = np.linalg.lstsq(basis, lhs, rcond=None)
    res = lhs - basis @ coef
    return ELResidualReport(float(coef[0]), float(coef[1]), float(np.sqrt(np.mean(res * res))))

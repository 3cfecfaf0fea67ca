"""Jacobi elliptic functions and the pendulum-case critical curves.

Convention: the second argument of sn and K is the MODULUS k, which
appears squared under the square root,

    K(k) = int_0^1 dt / sqrt((1 - t^2)(1 - k^2 t^2)),
    u    = int_0^phi dt / sqrt(1 - k^2 sin^2 t),   sn(u|k) = sin(phi).

Many libraries take the parameter m = k^2 instead; everything here takes k.

The closed critical curves of the bending energy with f(x) = x^2 are the
swing solutions alpha(t) = 2 arcsin(xi sn(omega t + t0 | xi)) with
omega = r K(xi)/pi; the curve closes iff r is even and Delta x(xi) = 0,
whose positive root is xi ~= 0.90890856.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curve import ClosedCurve, GaussRep, TWO_PI, curve_from_gauss, polyline_length
from .errors import ModulusRangeError, ParityObstructionError

_DX_NODES = 4096  # trapezoid nodes for Delta x; integrand is analytic periodic


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Arithmetic-geometric mean iteration: K = pi / (2 agm(1, k')).
    K is even in k; k >= 1 is out of range.
    """
    k = abs(float(k))
    if k >= 1.0:
        raise ModulusRangeError("modulus out of range")
    a, b = 1.0, float(np.sqrt(1.0 - k * k))
    for _ in range(64):
        if abs(a - b) <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def _landen_moduli(k: float) -> list[float]:
    """Descending Landen sequence k_1, k_2, ... down to ~1e-16."""
    seq = []
    for _ in range(32):
        if k <= 1e-16:
            break
        kp = np.sqrt((1.0 - k) * (1.0 + k))
        k = (1.0 - kp) / (1.0 + kp)
        seq.append(float(k))
    return seq


def _sn_cn_dn(u, k: float):
    """Vectorized sn, cn, dn by descending Landen transformation.

    The argument is reduced mod 4K before descent, so large arguments do
    not lose precision.  The ascent uses the rational Gauss-transformation
    formulas, which preserve sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1 to a
    few ulp.
    """
    k = abs(float(k))
    if k >= 1.0:
        raise ModulusRangeError("modulus out of range")
    u = np.asarray(u, dtype=float)
    if k < 1e-16:
        return np.sin(u), np.cos(u), np.ones_like(u)
    bigk = elliptic_k(k)
    u = u - 4.0 * bigk * np.round(u / (4.0 * bigk))
    moduli = _landen_moduli(k)
    w = u / np.prod([1.0 + kj for kj in moduli])
    s, c, d = np.sin(w), np.cos(w), np.ones_like(w)
    for kj in reversed(moduli):
        denom = 1.0 + kj * s * s
        s, c, d = (1.0 + kj) * s / denom, c * d / denom, (1.0 - kj * s * s) / denom
    return s, c, d


@dataclass(frozen=True)
class EllipticValue:
    u: float
    k: float
    sn: float
    cn: float
    dn: float


def jacobi_sn(u: float, k: float) -> EllipticValue:
    """sn(u|k) together with cn and dn; modulus convention (see module doc)."""
    s, c, d = _sn_cn_dn(np.asarray([u], dtype=float), k)
    return EllipticValue(float(u), abs(float(k)), float(s[0]), float(c[0]), float(d[0]))


@dataclass(frozen=True)
class PendulumParams:
    """Swing-solution parameters: amplitude modulus xi, winding count r.

    omega = r K(xi) / pi is derived; t0 is the starting phase.
    """

    xi: float
    r: int
    t0: float = 0.0
    omega: float = field(init=False)

    def __post_init__(self):
        if not abs(self.xi) < 1.0:
            raise ModulusRangeError("modulus out of range")
        if self.r == 0:
            raise ValueError("r must be a nonzero integer")
        object.__setattr__(self, "omega", self.r * elliptic_k(self.xi) / np.pi)


def pendulum_alpha(p: PendulumParams, n: int) -> GaussRep:
    """Sampled lift alpha(t) = 2 arcsin(xi sn(omega t + t0 | xi)) on [0, 2pi).

    For |xi| < 1 the arcsin argument stays inside (-1, 1), so the
    principal branch already gives the C^1 lift; alpha oscillates within
    (-pi, pi) and never wraps.
    """
    if n < 64:
        raise ValueError("n must be at least 64")
    t = np.arange(n) * (TWO_PI / n)
    s, _, _ = _sn_cn_dn(p.omega * t + p.t0, p.xi)
    alpha = 2.0 * np.arcsin(np.clip(p.xi * s, -1.0, 1.0))
    return GaussRep(alpha, np.zeros(2))


def delta_x(xi: float, r: int, n: int = _DX_NODES) -> float:
    """Closure integral int_0^{2pi} (1 - 2 xi^2 sn^2(r K(xi) t / pi | xi)) dt.

    Periodic trapezoid value; independent of r because sn^2 has period 2K.
    """
    if not abs(xi) < 1.0:
        raise ModulusRangeError("modulus out of range")
    if r == 0:
        raise ValueError("r must be a nonzero integer")
    if n < 256:
        raise ValueError("need at least 256 quadrature nodes")
    t = np.arange(n) * (TWO_PI / n)
    s, _, _ = _sn_cn_dn(r * elliptic_k(xi) / np.pi * t, xi)
    return float((TWO_PI / n) * np.sum(1.0 - 2.0 * xi * xi * s * s))


@lru_cache(maxsize=None)
def find_critical_xi(r: int) -> float:
    """Positive zero of Delta x(., r) on (0, 1), by bisection to 1e-12."""
    if r == 0:
        raise ValueError("r must be a nonzero integer")
    lo, hi = 0.0, 0.99
    flo, fhi = delta_x(1e-12, r), delta_x(hi, r)
    if not (flo > 0 > fhi):
        raise RuntimeError(
            f"bisection bracket failure: Delta x({lo}) = {flo}, Delta x({hi}) = {fhi}"
        )
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if delta_x(mid, r) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_infinity_curve(r: int, n: int = 1024) -> ClosedCurve:
    """The infinity-shaped critical curve for even winding count r.

    r = 2k yields the r = 2 curve traversed k times at scale 1/k.  Odd r
    is rejected: the sin closure integral equals 2 alpha'(0)/omega^2 != 0.
    """
    if r % 2 != 0 or r == 0:
        raise ParityObstructionError(
            "sin-integral obstruction: the closure condition fails for odd r"
        )
    if n < 256:
        raise ValueError("n must be at least 256")
    xi = find_critical_xi(r)
    pts = curve_from_gauss(pendulum_alpha(PendulumParams(xi, r), n)).points
    return ClosedCurve(pts, polyline_length(pts))

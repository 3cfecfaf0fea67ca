import numpy as np
import pytest
from hypothesis import given, strategies as st

from flatknot.curve import GaussRep, gauss_from_curve
from flatknot.fixtures import (
    circle_curve,
    doubly_traversed_circle,
    ellipse_curve,
    fourier_wobble,
)
from flatknot.pendulum import PendulumParams, _sn_cn_dn, elliptic_k, pendulum_alpha
from flatknot.uniformization import (
    EnergyFunctional,
    F_X,
    F_X2,
    F_X4,
    discrete_curvature,
    el_residual,
    energy_uf,
    energy_uf_extended,
    gradient_norm,
    power_functional,
    project_closure,
    three_point_curvature,
    uf_gradient,
)

TWO_PI = 2 * np.pi


class TestEnergyFunctional:
    def test_f0_must_vanish(self):
        with pytest.raises(ValueError, match="f\\(0\\) = 0"):
            EnergyFunctional(lambda x: x + 1.0)

    def test_fd_fallback(self):
        e = EnergyFunctional(lambda x: np.asarray(x) ** 3, name="x^3")
        assert float(e.f_prime(2.0)) == pytest.approx(12.0, rel=1e-7)
        assert float(e.f_double_prime(2.0)) == pytest.approx(12.0, rel=1e-4)

    def test_power_family(self):
        p = power_functional(1.5)
        assert float(p.f(4.0)) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            power_functional(1.0)

    @pytest.mark.parametrize("exponent", [np.nan, np.inf])
    def test_power_family_is_finite(self, exponent):
        with pytest.raises(ValueError, match="exponent must be finite"):
            power_functional(exponent)


class TestDiscreteCurvature:
    def test_unit_circle(self):
        k = discrete_curvature(gauss_from_curve(circle_curve(512)))
        assert np.abs(k - 1).max() < 1e-4

    def test_double_circle(self):
        k = discrete_curvature(gauss_from_curve(doubly_traversed_circle(512)))
        assert np.abs(k - 2).max() < 1e-3

    def test_infinity_matches_elliptic_derivative(self, critical_xi):
        # oracle: kappa = 2 xi omega cn dn / sqrt(1 - xi^2 sn^2)
        p = PendulumParams(critical_xi, 2)
        n = 1024
        g = pendulum_alpha(p, n)
        k = discrete_curvature(g)
        t = np.arange(n) * (TWO_PI / n)
        s, c, d = _sn_cn_dn(p.omega * t, critical_xi)
        analytic = 2 * critical_xi * p.omega * c * d / np.sqrt(1 - critical_xi**2 * s**2)
        assert np.abs(k - analytic).max() < 1e-3


class TestEnergyUf:
    def test_circle_x2(self):
        assert energy_uf(gauss_from_curve(circle_curve(512)), F_X2) == pytest.approx(
            TWO_PI, abs=1e-6
        )

    def test_circle_x_is_whitney(self):
        assert energy_uf(gauss_from_curve(circle_curve(512)), F_X) == pytest.approx(
            TWO_PI, abs=1e-6
        )

    def test_double_circle_x2(self):
        g = gauss_from_curve(doubly_traversed_circle(512))
        assert energy_uf(g, F_X2) == pytest.approx(8 * np.pi, abs=1e-3)

    @given(st.integers(0, 20))
    def test_cyclic_shift_invariance(self, seed):
        c = fourier_wobble(256, seed=seed)
        u0 = energy_uf(gauss_from_curve(c), F_X2)
        from flatknot.curve import ClosedCurve

        shifted = ClosedCurve(np.roll(c.points, 37, axis=0), c.length)
        assert abs(energy_uf(gauss_from_curve(shifted), F_X2) - u0) <= 1e-12 * max(1, u0)

    @given(st.integers(0, 20), st.floats(0, TWO_PI))
    def test_rigid_motion_invariance(self, seed, theta):
        c = fourier_wobble(256, seed=seed)
        u0 = energy_uf(gauss_from_curve(c), F_X2)
        moved = c.rotated(theta).translated([3.7, -1.2])
        assert abs(energy_uf(gauss_from_curve(moved), F_X2) - u0) <= 1e-9

    @given(st.integers(0, 20))
    def test_orientation_reversal(self, seed):
        c = fourier_wobble(256, seed=seed)
        g, gr = gauss_from_curve(c), gauss_from_curve(c.reversed())
        assert energy_uf(gr, F_X2) == pytest.approx(energy_uf(g, F_X2), rel=1e-10)
        assert energy_uf(gr, F_X) == pytest.approx(-energy_uf(g, F_X), abs=1e-9)


class TestExtended:
    def test_circle_near_2pi(self):
        c = circle_curve(2048)
        assert energy_uf_extended(c, F_X2, 0.05) == pytest.approx(TWO_PI, abs=1e-2)

    def test_collinear_contributes_zero(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 0.0])
        c = np.array([2.5, 0.0])
        assert three_point_curvature(a, b, c) == 0.0

    def test_eps_range(self):
        c = circle_curve(64)
        with pytest.raises(ValueError):
            energy_uf_extended(c, F_X2, 0.01)
        with pytest.raises(ValueError):
            energy_uf_extended(c, F_X2, 2.0)

    def test_ellipse_convergence_order(self):
        c = ellipse_curve(4096)
        u = energy_uf(gauss_from_curve(c), F_X2)
        errs = [abs(energy_uf_extended(c, F_X2, e) - u) for e in (0.1, 0.05, 0.025)]
        assert errs[0] > errs[1] > errs[2]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestGradient:
    def test_circle_critical(self):
        g = gauss_from_curve(circle_curve(512))
        assert gradient_norm(g, uf_gradient(g, F_X2)) < 1e-6

    @pytest.mark.parametrize("functional", [F_X2, F_X4])
    def test_matches_projected_fd(self, functional):
        c = fourier_wobble(128, seed=4, amplitude=0.1)
        g = gauss_from_curve(c)
        grad = uf_gradient(g, functional)
        h_s = g.length / g.n
        eps = 1e-6
        fd = np.zeros(g.n)
        for j in range(g.n):
            ap, am = g.alpha.copy(), g.alpha.copy()
            ap[j] += eps
            am[j] -= eps
            fd[j] = (
                energy_uf(GaussRep(ap, g.base_point, g.length), functional)
                - energy_uf(GaussRep(am, g.base_point, g.length), functional)
            ) / (2 * eps * h_s)
        fd = project_closure(g, fd)
        assert np.linalg.norm(fd - grad) / np.linalg.norm(grad) < 1e-5

    def test_infinity_near_critical(self, infinity_curve):
        g = gauss_from_curve(infinity_curve)
        assert gradient_norm(g, uf_gradient(g, F_X2)) < 1e-3

    def test_projection_kills_closure_directions(self):
        g = gauss_from_curve(fourier_wobble(128, seed=9))
        v = project_closure(g, np.random.default_rng(0).normal(size=g.n))
        assert abs(np.dot(v, np.sin(g.alpha))) < 1e-9
        assert abs(np.dot(v, np.cos(g.alpha))) < 1e-9


class TestELResidual:
    def test_circle(self):
        rep = el_residual(gauss_from_curve(circle_curve(512)), F_X2)
        assert abs(rep.c1) < 1e-6
        assert abs(rep.c2) < 1e-6
        assert rep.rms_residual < 1e-6

    def test_infinity_constants(self, infinity_curve, critical_xi):
        rep = el_residual(gauss_from_curve(infinity_curve), F_X2)
        assert rep.rms_residual < 1e-3
        omega = 2 * elliptic_k(critical_xi) / np.pi
        assert np.hypot(rep.c1, rep.c2) == pytest.approx(2 * omega**2, rel=1e-4)

    def test_noncritical_floor(self):
        # regression: a 10% perturbed circle sits far from criticality
        rep = el_residual(gauss_from_curve(fourier_wobble(512, seed=1, amplitude=0.10)), F_X2)
        assert rep.rms_residual > 1e-1

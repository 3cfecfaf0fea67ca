import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, optimize, special

from flatknot.curve import closure_report, hausdorff_distance, whitney_index
from flatknot.diagram import detect_crossings
from flatknot.errors import ModulusRangeError, ParityObstructionError
from flatknot.pendulum import (
    PendulumParams,
    _sn_cn_dn,
    build_infinity_curve,
    delta_x,
    elliptic_k,
    find_critical_xi,
    jacobi_sn,
    pendulum_alpha,
)

TWO_PI = 2 * np.pi


def k_quadrature(k):
    """Oracle: adaptive quadrature of the defining integral (substituting
    t = sin(theta) removes the endpoint singularity)."""
    val, _ = integrate.quad(
        lambda th: 1.0 / np.sqrt(1 - k * k * np.sin(th) ** 2), 0, np.pi / 2, epsabs=1e-14
    )
    return val


def sn_inversion(u, k):
    """Oracle: invert the incomplete integral by bisection on phi."""

    def incomplete(phi):
        val, _ = integrate.quad(
            lambda t: 1.0 / np.sqrt(1 - k * k * np.sin(t) ** 2), 0, phi, epsabs=1e-13
        )
        return val

    phi = optimize.brentq(lambda p: incomplete(p) - u, -np.pi / 2, np.pi / 2, xtol=1e-14)
    return np.sin(phi)


class TestEllipticK:
    def test_k0(self):
        assert elliptic_k(0.0) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_lemniscatic(self):
        # Gauss: K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
        expected = special.gamma(0.25) ** 2 / (4 * np.sqrt(np.pi))
        assert elliptic_k(1 / np.sqrt(2)) == pytest.approx(expected, abs=1e-14)
        assert elliptic_k(1 / np.sqrt(2)) == pytest.approx(k_quadrature(1 / np.sqrt(2)), abs=1e-12)

    def test_near_root_value(self):
        k = 0.90890856
        assert elliptic_k(k) == pytest.approx(k_quadrature(k), abs=1e-12)

    def test_even_and_range(self):
        assert elliptic_k(-0.5) == elliptic_k(0.5)
        with pytest.raises(ModulusRangeError, match="modulus out of range"):
            elliptic_k(1.0)


class TestJacobiSn:
    @pytest.mark.parametrize("u", [0.3, 1.0, 2.5])
    def test_degenerate_modulus(self, u):
        assert jacobi_sn(u, 0.0).sn == pytest.approx(np.sin(u), abs=1e-12)

    def test_quarter_period(self):
        v = jacobi_sn(elliptic_k(0.5), 0.5)
        assert v.sn == pytest.approx(1.0, abs=1e-11)
        assert v.dn == pytest.approx(np.sqrt(0.75), abs=1e-11)

    def test_against_integral_inversion(self):
        assert jacobi_sn(0.7, 0.8).sn == pytest.approx(sn_inversion(0.7, 0.8), abs=1e-10)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for _ in range(25):
            k = rng.uniform(0, 0.98)
            u = rng.uniform(-8, 8)
            v = jacobi_sn(u, k)
            m = k * k  # mpmath uses the parameter convention
            assert v.sn == pytest.approx(float(mp.ellipfun("sn", u, m)), abs=1e-10)
            assert v.cn == pytest.approx(float(mp.ellipfun("cn", u, m)), abs=1e-10)
            assert v.dn == pytest.approx(float(mp.ellipfun("dn", u, m)), abs=1e-10)

    @given(st.floats(-30, 30), st.floats(0, 0.99))
    def test_identities(self, u, k):
        v = jacobi_sn(u, k)
        assert abs(v.sn**2 + v.cn**2 - 1) < 1e-12
        assert abs(v.dn**2 + k * k * v.sn**2 - 1) < 1e-12
        assert abs(v.sn) <= 1 + 1e-12

    @pytest.mark.parametrize("k", [0.2, 0.7, 0.95])
    def test_periodicity(self, k):
        rng = np.random.default_rng(17)
        big_k = elliptic_k(k)
        for u in rng.uniform(-10, 10, 40):
            assert jacobi_sn(u + 4 * big_k, k).sn == pytest.approx(
                jacobi_sn(u, k).sn, abs=1e-11
            )

    def test_identity_batch(self):
        rng = np.random.default_rng(99)
        u = rng.uniform(-30, 30, 10000)
        for k in rng.uniform(0, 0.99, 8):
            s, c, d = _sn_cn_dn(u, k)
            assert np.abs(s * s + c * c - 1).max() < 1e-12
            assert np.abs(d * d + k * k * s * s - 1).max() < 1e-12


class TestPendulumAlpha:
    def test_rest_solution(self):
        g = pendulum_alpha(PendulumParams(1e-18, 2), 128)
        assert np.abs(g.alpha).max() < 1e-15

    def test_amplitude_and_closure(self):
        g = pendulum_alpha(PendulumParams(0.5, 2), 1024)
        assert g.alpha[0] == pytest.approx(0.0, abs=1e-14)
        assert np.abs(g.alpha).max() == pytest.approx(np.pi / 3, abs=1e-4)
        assert g.lift_defect() == pytest.approx(0.0, abs=1e-12)

    def test_swing_never_reaches_pi(self):
        for xi in (0.3, 0.9, 0.99):
            g = pendulum_alpha(PendulumParams(xi, 2), 512)
            assert np.abs(g.alpha).max() <= 2 * np.arcsin(xi) + 1e-12 < np.pi

    def test_critical_closure(self, critical_xi):
        rep = closure_report(pendulum_alpha(PendulumParams(critical_xi, 2), 2048))
        assert abs(rep.cos_integral) < 1e-6
        assert abs(rep.sin_integral) < 1e-6
        assert rep.whitney == 0

    def test_pendulum_ode_residual(self, critical_xi):
        # alpha'' + omega^2 sin alpha = 0 in the normalized parameter
        p = PendulumParams(critical_xi, 2)
        n = 4096
        g = pendulum_alpha(p, n)
        ext = g.lifted_extension()
        h = TWO_PI / n
        acc = (ext[n + 1 : 2 * n + 1] - 2 * ext[n : 2 * n] + ext[n - 1 : 2 * n - 1]) / h**2
        res = acc + p.omega**2 * np.sin(g.alpha)
        assert np.sqrt(np.mean(res**2)) < 1e-3

    def test_omega_is_derived(self):
        p = PendulumParams(0.5, 3)
        assert p.omega == 3 * elliptic_k(0.5) / np.pi
        with pytest.raises(TypeError):
            PendulumParams(0.5, 3, omega=p.omega)


class TestDeltaX:
    def test_zero_amplitude(self):
        assert delta_x(0.0, 2) == pytest.approx(TWO_PI, abs=1e-15)

    @pytest.mark.parametrize("x", [0.3, 0.7])
    def test_even(self, x):
        assert delta_x(x, 2) == pytest.approx(delta_x(-x, 2), abs=1e-12)

    def test_r_independence(self):
        vals = [delta_x(0.5, r) for r in (1, 2, 3)]
        assert max(vals) - min(vals) < 1e-9

    def test_analytic_identity(self):
        # Delta x = 2 pi (2E - K)/K in the modulus convention
        for xi in (0.3, 0.6, 0.85):
            m = xi * xi
            expected = TWO_PI * (2 * special.ellipe(m) - special.ellipk(m)) / special.ellipk(m)
            assert delta_x(xi, 2) == pytest.approx(expected, abs=1e-9)


class TestCriticalXi:
    def test_paper_value(self, critical_xi):
        assert critical_xi == pytest.approx(0.90890856, abs=1e-6)

    def test_r_independent_root(self, critical_xi):
        assert abs(find_critical_xi(4) - critical_xi) < 1e-9

    def test_single_sign_change(self):
        xs = np.arange(1e-3, 1.0 - 1e-9, 1e-3)
        signs = np.sign([delta_x(float(x), 2, n=512) for x in xs])
        assert int(np.sum(np.abs(np.diff(signs)) > 0)) == 1

    def test_matches_2e_equals_k(self, critical_xi):
        # the root solves 2E(k) = K(k)
        m = critical_xi**2
        assert 2 * special.ellipe(m) - special.ellipk(m) == pytest.approx(0.0, abs=1e-9)


class TestInfinityCurve:
    def test_r2_shape(self, infinity_curve):
        d = detect_crossings(infinity_curve)
        assert d.n_crossings == 1
        assert whitney_index(infinity_curve) == 0

    def test_r4_homothety(self, infinity_curve):
        # n doubled so each of the two laps samples at the r=2 density
        c4 = build_infinity_curve(4, 2048)
        assert hausdorff_distance(2.0 * c4.points, infinity_curve.points) < 1e-4

    def test_odd_r_raises(self):
        with pytest.raises(ParityObstructionError, match="sin-integral obstruction"):
            build_infinity_curve(1)


class TestFullSwingExclusion:
    def test_full_rotations_never_close(self):
        # trajectories above the separatrix: alpha'(0) > 2 omega
        omega = 1.3
        for margin in (1.05, 1.2, 1.5, 2.0, 3.0):
            v0 = 2 * omega * margin
            sol = integrate.solve_ivp(
                lambda t, y: [y[1], -(omega**2) * np.sin(y[0])],
                (0, TWO_PI),
                [0.0, v0],
                rtol=1e-10,
                atol=1e-12,
                dense_output=True,
            )
            t = np.linspace(0, TWO_PI, 4096, endpoint=False)
            alpha = sol.sol(t)[0]
            assert abs(np.trapezoid(np.cos(alpha), dx=TWO_PI / 4096)) > 0.05

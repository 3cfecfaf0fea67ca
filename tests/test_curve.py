import numpy as np
import pytest
from hypothesis import given, strategies as st

from flatknot import curve as curve_mod
from flatknot.curve import (
    ClosedCurve,
    GaussRep,
    align_rigid,
    closure_integrals,
    closure_report,
    curve_from_gauss,
    gauss_from_curve,
    hausdorff_distance,
    resample_arclength,
    whitney_index,
)
from flatknot.errors import DegeneratePolylineError, StalledError
from flatknot.fixtures import (
    circle_curve,
    doubly_traversed_circle,
    ellipse_curve,
    fourier_wobble,
    noisy_figure_eight,
    random_immersed_curves,
)
from flatknot.pendulum import PendulumParams, build_infinity_curve, pendulum_alpha

from conftest import whitney_index_oracle

TWO_PI = 2 * np.pi


class TestResample:
    def test_square_corners(self):
        square = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
        c = resample_arclength(square, 8)
        assert c.length == pytest.approx(8.0, abs=1e-12)
        assert np.allclose(c.segment_lengths(), 1.0, atol=1e-12)

    def test_circle_resample(self):
        th = np.linspace(0, TWO_PI, 1000, endpoint=False)
        c = resample_arclength(np.column_stack([np.cos(th), np.sin(th)]), 512)
        assert c.n == 512
        radii = np.hypot(*c.points.T)
        assert np.abs(radii - 1).max() < 1e-5

    def test_ellipse_spacing(self):
        # oracle: uniform spacing comes out of cumulative-length inversion
        th = np.linspace(0, TWO_PI, 64, endpoint=False)
        c = resample_arclength(np.column_stack([2 * np.cos(th), np.sin(th)]), 256)
        seg = c.segment_lengths()
        assert seg.max() / seg.min() - 1 < 1e-3

    @pytest.mark.parametrize(
        "points",
        [
            np.zeros((5, 2)),
            np.array([[0.0, 0.0], [1.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_degenerate(self, points):
        with pytest.raises(DegeneratePolylineError, match="degenerate polyline"):
            resample_arclength(points, 16)

    def test_shape_preserved(self):
        th = np.linspace(0, TWO_PI, 200, endpoint=False)
        pts = np.column_stack([2 * np.cos(th), np.sin(th)])
        max_seg = np.hypot(*np.diff(np.vstack([pts, pts[:1]]), axis=0).T).max()
        c = resample_arclength(pts, 64)
        from flatknot.curve import hausdorff_distance

        assert hausdorff_distance(c.points, pts) <= max_seg


class TestGauss:
    def test_circle_lift(self):
        g = gauss_from_curve(circle_curve(256))
        expected = np.pi / 2 + np.arange(256) * (TWO_PI / 256)
        assert np.abs(g.alpha - expected).max() < 1e-12
        assert g.lift_defect() == pytest.approx(TWO_PI, abs=1e-9)

    def test_clockwise_lift(self):
        g = gauss_from_curve(circle_curve(256, clockwise=True))
        assert g.lift_defect() == pytest.approx(-TWO_PI, abs=1e-9)

    def test_figure_eight_lift(self, infinity_curve):
        g = gauss_from_curve(infinity_curve)
        assert g.lift_defect() == pytest.approx(0.0, abs=1e-9)

    def test_lift_has_no_wraps(self):
        g = gauss_from_curve(fourier_wobble(256, seed=3))
        assert np.abs(np.diff(g.alpha)).max() < np.pi


    def test_lift_is_read_only(self):
        """A lift caches what it computes from its angles, so its arrays
        are read-only views: a write raises, and the caller's arrays stay
        writable."""
        alpha, base = np.arange(64) * (TWO_PI / 64), np.zeros(2)
        g = GaussRep(alpha, base)
        curve_from_gauss(g)
        for a in (g.alpha, g.base_point):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        assert alpha.flags.writeable and base.flags.writeable


class TestCurveFromGauss:
    def test_circle_reconstruction(self):
        n = 512
        alpha = np.pi / 2 + np.arange(n) * (TWO_PI / n)
        c = curve_from_gauss(GaussRep(alpha, np.array([1.0, 0.0])))
        center = c.points.mean(axis=0)
        assert np.abs(np.hypot(*(c.points - center).T) - 1).max() < 1e-4

    def test_straight_line_gap(self):
        with pytest.raises(StalledError, match="does not close"):
            curve_from_gauss(GaussRep(np.zeros(128)))

    @staticmethod
    def _circle_lift_with_gap(gap, n=128):
        # turning the first tangent by gap / h opens the circle by about gap
        alpha = np.arange(n) * (TWO_PI / n)
        alpha[0] += gap * n / TWO_PI
        g = GaussRep(alpha)
        assert np.hypot(*closure_integrals(g.alpha, g.length)) == pytest.approx(gap, rel=1e-3)
        return g

    def test_gap_above_tolerance_raises(self):
        with pytest.raises(StalledError):
            curve_from_gauss(self._circle_lift_with_gap(2e-6))

    def test_gap_below_tolerance_closes(self):
        g = self._circle_lift_with_gap(5e-7)
        c = curve_from_gauss(g)
        # every step, the wrap step included, is the trapezoid step less gap / N
        t = np.column_stack([np.cos(g.alpha), np.sin(g.alpha)])
        want = 0.5 * (g.length / g.n) * (t + np.roll(t, -1, axis=0)) - closure_integrals(g.alpha, g.length) / g.n
        assert np.abs(np.roll(c.points, -1, axis=0) - c.points - want).max() < 1e-14

    def test_stores_lift_length(self):
        for c in (circle_curve(256, radius=2.0), ellipse_curve(256)):
            g = gauss_from_curve(c)
            assert gauss_from_curve(curve_from_gauss(g)).length == g.length

    def test_infinity_alpha_closes(self, critical_xi):
        g = pendulum_alpha(PendulumParams(critical_xi, 2), 1024)
        rep = closure_report(g)
        assert np.hypot(rep.cos_integral, rep.sin_integral) < 1e-6
        curve_from_gauss(g)

    def test_round_trip(self):
        for c in (circle_curve(256), ellipse_curve(256)):
            back = curve_from_gauss(gauss_from_curve(c))
            shift = back.points[0] - c.points[0]
            err = np.abs(back.points - shift - c.points).max()
            assert err <= 10 * (TWO_PI / c.n) ** 2


class TestClosureReport:
    def test_circle(self):
        rep = closure_report(gauss_from_curve(circle_curve(512)))
        assert abs(rep.cos_integral) < 1e-10
        assert abs(rep.sin_integral) < 1e-10
        assert rep.whitney == 1

    def test_open_line(self):
        rep = closure_report(GaussRep(np.zeros(128)))
        assert rep.cos_integral == pytest.approx(TWO_PI)
        assert rep.sin_integral == 0.0
        assert rep.whitney == 0

    def test_odd_winding_obstruction(self, critical_xi):
        # the sin integral of the r = 1 swing equals 2 alpha'(0)/omega^2
        p = PendulumParams(critical_xi, 1)
        rep = closure_report(pendulum_alpha(p, 4096))
        expected = 4 * critical_xi / p.omega
        assert abs(rep.sin_integral) == pytest.approx(expected, rel=1e-6)

    @given(st.integers(0, 40))
    def test_resampled_polyline_closes(self, seed):
        c = fourier_wobble(512, seed=seed, amplitude=0.08)
        rep = closure_report(gauss_from_curve(c))
        assert abs(rep.cos_integral) + abs(rep.sin_integral) <= 1e-3 * TWO_PI


class TestWhitney:
    def test_values(self, infinity_curve):
        assert whitney_index(circle_curve(512)) == 1
        assert whitney_index(doubly_traversed_circle(512)) == 2
        assert whitney_index(infinity_curve) == 0

    def test_cusp_rejected(self):
        # rectangle with a narrow slit: the hairpin reverses the tangent
        outline = np.array(
            [[0, 0], [2, 0], [2, 1], [1.05, 1], [1.05, 0.2], [0.95, 0.2], [0.95, 1], [0, 1]],
            dtype=float,
        )
        c = resample_arclength(outline, 64)
        with pytest.raises(ValueError, match="curve not regular at sample"):
            whitney_index(c)

    def test_matches_lift_oracle(self, infinity_curve):
        """The one-pass index against the round trip through the Gauss
        lift (conftest): the same value, or the same error message."""
        curves = [c for c, _ in random_immersed_curves(300, seed=41, n=256)]
        curves += [circle_curve(512), circle_curve(512, clockwise=True)]
        curves += [doubly_traversed_circle(512), doubly_traversed_circle(512).reversed()]
        curves += [noisy_figure_eight(256), infinity_curve]
        # the slit rectangle of test_cusp_rejected, and a square with a spike on top
        slit = [[0, 0], [2, 0], [2, 1], [1.05, 1], [1.05, 0.2], [0.95, 0.2], [0.95, 1], [0, 1]]
        spike = [[0, 0], [2, 0], [2, 2], [1.001, 2], [1, 4], [0.999, 2], [0, 2]]
        curves += [resample_arclength(np.array(p, dtype=float), 64) for p in (slit, spike)]
        curves += [ClosedCurve(np.array(spike, dtype=float), 8.0)]

        def outcome(fn, c):
            try:
                return fn(c)
            except ValueError as exc:
                return str(exc)

        got = [outcome(whitney_index, c) for c in curves]
        assert got == [outcome(whitney_index_oracle, c) for c in curves]
        assert {1, -1, 2, -2, 0} <= set(got) and sum(isinstance(w, str) for w in got) >= 3

    @given(st.integers(0, 25))
    def test_resampling_invariance(self, seed):
        c = fourier_wobble(256, seed=seed)
        c2 = resample_arclength(c.points, 512)
        assert whitney_index(c) == whitney_index(c2)

    @given(st.integers(0, 25))
    def test_reversal_negates(self, seed):
        c = fourier_wobble(256, seed=seed)
        assert whitney_index(c.reversed()) == -whitney_index(c)


def align_rigid_grid_search(points: np.ndarray, target: np.ndarray, angles: int = 180):
    """Best rigid motion (rotation + translation, either reflection) of
    `points` onto `target`, minimizing polyline Hausdorff distance.

    Returns (distance, aligned points).  Grid search plus local
    refinement; intended for verification, not performance.
    """
    a = np.asarray(points, dtype=float)
    b = np.asarray(target, dtype=float)
    a = a - a.mean(axis=0)
    b_c = b.mean(axis=0)
    bt = b - b_c

    def rot(p, th):
        c, s = np.cos(th), np.sin(th)
        return p @ np.array([[c, s], [-s, c]])

    best = (np.inf, a)
    for refl in (1.0, -1.0):
        ar = a * np.array([1.0, refl])
        coarse = np.linspace(0, TWO_PI, angles, endpoint=False)
        vals = [hausdorff_distance(rot(ar, th), bt) for th in coarse]
        i = int(np.argmin(vals))
        for th in np.linspace(coarse[i] - 0.08, coarse[i] + 0.08, 40):
            q = rot(ar, th)
            dist = hausdorff_distance(q, bt)
            if dist < best[0]:
                best = (dist, q + b_c)
    return best


def rigidly_moved(points, rng, reflect, reverse):
    """A seeded rotation, translation and start shift of `points`, with an
    optional reflection and reversed traversal."""
    th = rng.uniform(0, TWO_PI)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    if reflect:
        rot = rot @ np.diag([1.0, -1.0])
    moved = points @ rot.T + rng.normal(0, 3, 2)
    if reverse:
        moved = moved[::-1]
    return np.roll(moved, rng.integers(len(moved)), axis=0)


class TestAlignRigid:
    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_exact_pose_recovery(self, infinity_curve, reflect, reverse):
        target = infinity_curve.points
        rng = np.random.default_rng(2 * reflect + reverse)
        moved = rigidly_moved(target[::4], rng, reflect, reverse)
        dist, aligned = align_rigid(moved, target)
        assert dist == pytest.approx(hausdorff_distance(target[::4], target), abs=1e-9)
        assert hausdorff_distance(aligned, target) == dist

    def test_one_measurement(self, infinity_curve, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return hausdorff_distance(a, b)

        monkeypatch.setattr(curve_mod, "hausdorff_distance", counted)
        align_rigid(infinity_curve.points[::4], infinity_curve.points)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed,reflect,reverse", [(0, False, False), (1, True, False), (2, True, True)])
    def test_within_grid_search_oracle(self, seed, reflect, reverse):
        # the closed form minimizes the L2 residual over sample matches, the
        # oracle the Hausdorff distance over angles; they agree to a few %
        target = build_infinity_curve(2, 256).points
        rng = np.random.default_rng(100 + seed)
        moved = rigidly_moved(noisy_figure_eight(64, seed=seed, amplitude=0.03).points, rng, reflect, reverse)
        dist, _ = align_rigid(moved, target)
        oracle, _ = align_rigid_grid_search(moved, target)
        assert dist <= 1.25 * oracle

import numpy as np
import pytest

from flatknot.curve import TWO_PI, ClosedCurve, GaussRep, gauss_from_curve, resample_arclength, trapezoid_points
from flatknot import flow
from flatknot.diagram import detect_crossings, enumerate_cycles, gmre, resistance_energy, shoelace_area
from flatknot.errors import SingularDiagramError, StalledError
from flatknot.fixtures import (
    bigon_pair,
    circle_curve,
    ellipse_curve,
    limacon_curve,
    noisy_circle,
    noisy_figure_eight,
    random_immersed_curves,
    trefoil_curve,
)
from flatknot.flow import (
    FlowConfig,
    _inherited_rule,
    _resistance_gradient,
    classify_event,
    flow_step,
    relax,
    resistance_breakdown,
    total_energy,
)
from flatknot.pendulum import build_infinity_curve
from flatknot.uniformization import (
    EnergyFunctional,
    F_X2,
    gradient_norm,
    project_closure,
    uf_gradient,
)


def r3_pair():
    """A pure third Reidemeister move.  The curve
    (2 sin t + 2 sin 2t, 2 cos t - 2 cos 2t) has a triple point at the
    origin, passed at t = 2pi/3, 4pi/3 and 2pi.  Sliding the strand passed
    at t = 2pi/3 from one side of the other two's crossing to the other
    inverts the small central triangle.  The traversal starts at t = pi/3
    and every crossing puts its first passage over, so the three strands
    are layered with the sliding one on top."""
    t = np.linspace(0, TWO_PI, 4096, endpoint=False) + np.pi / 3
    pts = np.column_stack([2 * np.sin(t) + 2 * np.sin(2 * t), 2 * np.cos(t) - 2 * np.cos(2 * t)])
    tang = np.gradient(pts, axis=0)
    normal = np.column_stack([-tang[:, 1], tang[:, 0]]) / np.hypot(*tang.T)[:, None]
    bump = np.exp(-((np.angle(np.exp(1j * (t - 2 * np.pi / 3))) / 0.3) ** 2))

    def slid(eps):
        c = resample_arclength(pts + eps * bump[:, None] * normal, 512)
        return detect_crossings(c.scaled(TWO_PI / c.length)).relabelled([True] * 3)

    return slid(-0.1), slid(0.1)


def layered_triangle(b):
    """The curve (b sin t + 2 sin 2t, b cos t - 2 cos 2t) from 512 samples
    uniform in t, scaled to length 2pi.  At b = 2 its three strands S0, S1
    and S2, passed near t = 0, 2pi/3 and 4pi/3, meet at the origin; off
    b = 2 they form a small triangle, inverted between b < 2 and b > 2.
    The labels layer the strands, S0 over S1 over S2, so moving b across
    2 is an R3."""
    t = np.linspace(0, TWO_PI, 512, endpoint=False)
    pts = np.column_stack([b * np.sin(t) + 2 * np.sin(2 * t), b * np.cos(t) - 2 * np.cos(2 * t)])
    length = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T).sum()
    d = detect_crossings(ClosedCurve(pts * (TWO_PI / length), TWO_PI))
    return d.relabelled(
        triangle_strand(d, cr.passages[0]) < triangle_strand(d, cr.passages[1]) for cr in d.crossings
    )


def triangle_strand(d, p):
    """The strand (0, 1 or 2) of `layered_triangle` that passage p lies on."""
    return round(d.passage_params[p] / (TWO_PI / 3)) % 3


class TestTotalEnergy:
    def test_round_circle(self):
        cfg = FlowConfig(resistance="MRE", delta=0.01)
        u, r = total_energy(circle_curve(512), cfg)
        assert u == pytest.approx(TWO_PI, abs=1e-6)
        assert r == 0.0

    def test_infinity_with_re(self, infinity_curve):
        cfg = FlowConfig(resistance="RE")
        u, r = total_energy(infinity_curve, cfg)
        assert u == pytest.approx(17.8949330683, abs=1e-6)  # frozen regression
        lobes = enumerate_cycles(detect_crossings(infinity_curve))
        assert abs(lobes[0].area - lobes[1].area) < 1e-6
        assert r == pytest.approx(2.0 / lobes[0].area, rel=1e-9)

    @pytest.mark.parametrize("resistance", ["none", "RE", "MRE", "GMRE"])
    @pytest.mark.parametrize("delta", [0.0, -0.1, np.nan])
    def test_delta_checked_under_every_resistance(self, resistance, delta):
        # the GMRE monitor reads delta whatever the resistance
        with pytest.raises(ValueError, match="delta must be positive"):
            FlowConfig(resistance=resistance, delta=delta)

    def test_scaling_laws(self, trefoil_diagram):
        cfg = FlowConfig(resistance="RE")
        c = trefoil_diagram.curve
        u1, r1 = total_energy(c, cfg)
        u2, r2 = total_energy(c.scaled(2.0), cfg)
        assert u2 == pytest.approx(u1 / 2, rel=1e-9)
        assert r2 == pytest.approx(r1 / 4, rel=1e-9)


class TestResistanceGradient:
    def test_crossing_free_matches_finite_differences(self):
        """The whole-curve cycle of a crossing-free diagram drives the
        gradient: it matches central differences of 1/A in angle space,
        taken on an independent complex-valued trapezoid integration."""
        c = ellipse_curve(128)
        d = detect_crossings(c)
        assert d.n_crossings == 0 and c.length == pytest.approx(TWO_PI)
        g = gauss_from_curve(c)
        got = project_closure(g, _resistance_gradient(g, d, resistance_breakdown(d, FlowConfig(resistance="RE"))))

        h = g.length / g.n

        def inv_area(alpha):
            t = np.exp(1j * alpha)
            steps = np.cumsum(0.5 * h * (t + np.roll(t, -1)))[:-1]
            z = complex(*g.base_point) + np.concatenate([[0.0], steps])
            return 1.0 / shoelace_area(np.column_stack([z.real, z.imag]))

        eps = 1e-6
        fd = np.empty(g.n)
        for i in range(g.n):
            e = np.zeros(g.n)
            e[i] = eps
            fd[i] = (inv_area(g.alpha + e) - inv_area(g.alpha - e)) / (2 * eps)
        want = project_closure(g, fd / h)
        assert gradient_norm(g, want) > 0.1
        assert gradient_norm(g, got - want) <= 1e-6 * gradient_norm(g, want)

    @pytest.mark.parametrize(
        "curve, families",
        [(trefoil_curve(128), ("RE",))]
        + [(c, ("RE", "MRE", "GMRE")) for c, _ in random_immersed_curves(3, seed=3, n=96)],
        ids=["trefoil", "random0", "random1", "random2"],
    )
    def test_matches_public_path_finite_differences(self, curve, families):
        """The reverse pass against central differences (step 1e-5) of the
        resistance through the public path: integrate the angles, detect
        the crossings with the same over/under bits and evaluate."""
        g = gauss_from_curve(curve)
        d = detect_crossings(ClosedCurve(trapezoid_points(g.alpha, g.base_point, g.length)[:-1], g.length))
        rule = [cr.first_over for cr in d.crossings]
        cfgs = [FlowConfig(resistance=fam, delta=0.5) for fam in families]

        def resistances(alpha):
            pts = trapezoid_points(alpha, g.base_point, g.length)[:-1]
            dd = detect_crossings(ClosedCurve(pts, g.length)).relabelled(rule)
            return np.array([resistance_breakdown(dd, cfg).total for cfg in cfgs])

        eps = 1e-5
        fd = np.empty((len(cfgs), g.n))
        for m in range(g.n):
            e = np.zeros(g.n)
            e[m] = eps
            fd[:, m] = (resistances(g.alpha + e) - resistances(g.alpha - e)) / (2 * eps)
        for cfg, row in zip(cfgs, fd):
            got = project_closure(g, _resistance_gradient(g, d, resistance_breakdown(d, cfg)))
            want = project_closure(g, row / (g.length / g.n))
            assert gradient_norm(g, want) > 1e-3, cfg.resistance
            assert gradient_norm(g, got - want) <= 1e-6 * gradient_norm(g, want), cfg.resistance

    def test_zero_area_frozen_cycle_raises(self, trefoil_diagram):
        d = trefoil_diagram
        g = gauss_from_curve(d.curve)
        tiny = GaussRep(g.alpha, g.base_point * 1e-7, g.length * 1e-7)
        with pytest.raises(SingularDiagramError, match="singular diagram"):
            _resistance_gradient(tiny, d, resistance_energy(d))

    def test_relax_ends_singular(self, monkeypatch):
        def singular(x, cfg):
            raise SingularDiagramError("singular diagram: zero-area frozen cycle")

        monkeypatch.setattr(flow, "_projected_gradient", singular)
        tr = relax(trefoil_curve(128), FlowConfig(resistance="RE"))
        assert tr.terminated == "singular"
        assert len(tr.energies) == 1 and tr.final_curve is not None


class TestInheritedRule:
    def test_detects_once(self, trefoil_diagram, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return detect_crossings(c)

        monkeypatch.setattr(flow, "detect_crossings", counted)
        prev = trefoil_diagram.relabelled([True] * 3)
        d = _inherited_rule(prev, trefoil_diagram.curve, 0.1)
        assert len(calls) == 1
        assert [c.first_over for c in d.crossings] == [True] * 3


class TestFlowStep:
    def test_descends_on_perturbed_circle(self):
        cfg = FlowConfig(resistance="none", step0=1e-4)
        c = noisy_circle(128, seed=3)
        e0 = sum(total_energy(c, cfg))
        c1, s = flow_step(c, cfg, cfg.step0)
        assert sum(total_energy(c1, cfg)) < e0
        assert s > 0

    def test_critical_circle_barely_moves(self):
        """The step moves nothing; the curve it steps from is the circle's
        re-integrated angles, whose trapezoid chords are shorter by the
        factor (pi/N)/tan(pi/N)."""
        cfg = FlowConfig(resistance="none", step0=1e-4)
        c = circle_curve(128)
        c1, _ = flow_step(c, cfg, cfg.step0)
        assert np.abs(c1.points - flow._start(c, cfg).curve.points).max() < 1e-8

    def test_steps_from_the_start_iterate(self):
        """flow_step steps from the curve relax starts from: re-closed,
        integrated and detected, a supplied diagram lending only its
        over/under bits.  On this curve the input's crossings fall on
        other segment pairs than the integrated curve's."""
        c, d = random_immersed_curves(6, seed=5, n=128)[1]
        cfg = FlowConfig(resistance="RE", max_iters=2)
        frames = []
        relax(c, cfg, keyframe_cb=lambda it, cur: frames.append(cur))
        for diagram in (None, d):
            c1, _ = flow_step(c, cfg, cfg.step0, diagram)
            assert np.array_equal(c1.points, frames[1].points)

    def test_perturbed_infinity_gradient_drops(self):
        cfg = FlowConfig(resistance="none", step0=1e-4, grad_tol=1e-12, max_iters=200)
        c = noisy_figure_eight(256, seed=2, amplitude=0.03)
        g0 = gauss_from_curve(c)
        n0 = gradient_norm(g0, project_closure(g0, uf_gradient(g0, F_X2)))
        tr = relax(c, cfg)
        g1 = gauss_from_curve(tr.final_curve)
        n1 = gradient_norm(g1, project_closure(g1, uf_gradient(g1, F_X2)))
        assert n1 <= n0 / 10


class TestClassify:
    def test_no_change_is_none(self, trefoil_diagram):
        assert classify_event(trefoil_diagram, trefoil_diagram) is None

    def test_r2_vanish(self):
        with_bigon, without = bigon_pair()
        ev = classify_event(
            detect_crossings(with_bigon), detect_crossings(without), radius=1.0
        )
        assert ev.kind == "R2_vanish"
        assert ev.crossing_delta == -2

    def test_r2_appear(self):
        with_bigon, without = bigon_pair()
        ev = classify_event(
            detect_crossings(without), detect_crossings(with_bigon), radius=1.0
        )
        assert ev.kind == "R2_appear"
        assert ev.crossing_delta == 2

    def test_r3(self):
        before, after = r3_pair()
        ev = classify_event(before, after, radius=0.3)
        assert ev.kind == "R3"
        assert ev.crossing_delta == 0

    @pytest.mark.parametrize("b0,b1", [(1.95, 2.05), (2.05, 1.95)])
    def test_r3_inverted_triangle(self, b0, b1):
        """The move inverts the triangle, so the nearest crossing after it
        is another crossing; matched by their passage parameters, each
        crossing keeps its two strands."""
        before, after = layered_triangle(b0), layered_triangle(b1)

        def strands(d, k):
            return {triangle_strand(d, p) for p in d.crossings[k].passages}

        pairs = flow._match_crossings(before, after, 0.3)
        assert len(pairs) == 3
        assert all(strands(before, i) == strands(after, j) for i, j, _ in pairs)
        ev = classify_event(before, after, radius=0.3)
        assert ev.kind == "R3"
        assert ev.crossing_delta == 0

    def test_omega1_forbidden(self):
        before = detect_crossings(limacon_curve(n=256))
        after = detect_crossings(circle_curve(256))
        ev = classify_event(before, after, radius=1.0)
        assert ev.kind == "FORBIDDEN"
        assert ev.crossing_delta == -1

    def test_crossing_flip_forbidden(self, trefoil_diagram):
        flipped = detect_crossings(trefoil_diagram.curve).relabelled(
            [c.over_passage != min(c.passages) for c in trefoil_diagram.crossings]
        )
        ev = classify_event(trefoil_diagram, flipped, radius=0.3)
        assert ev.kind == "FORBIDDEN"


class TestRelax:
    def test_monotone_and_length(self):
        lengths = []
        cfg = FlowConfig(resistance="MRE", delta=0.05, step0=1e-4, grad_tol=2e-3, max_iters=150)
        tr = relax(noisy_circle(128, seed=5), cfg, keyframe_cb=lambda it, c: lengths.append(c.length))
        totals = [t for _, _, _, t in tr.energies]
        assert all(t1 <= t0 + 1e-12 for t0, t1 in zip(totals, totals[1:]))
        assert all(abs(L - TWO_PI) < 1e-8 for L in lengths)
        for (_, u, r, t) in tr.energies:
            assert t == pytest.approx(u + r, abs=1e-8)

    def test_whitney_stays_put(self):
        cfg = FlowConfig(resistance="none", step0=1e-4, grad_tol=1e-3, max_iters=120)
        tr = relax(noisy_figure_eight(160, seed=4), cfg)
        assert not any("Whitney" in f for f in tr.findings)

    def test_trefoil_keeps_small_cycles(self):
        cfg = FlowConfig(resistance="MRE", delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=400)
        tr = relax(trefoil_curve(192), cfg)
        final = detect_crossings(tr.final_curve)
        crit = [cy for cy in enumerate_cycles(final) if cy.alternated and cy.area < cfg.delta]
        assert len(crit) >= 1
        assert not any(ev.kind == "FORBIDDEN" for ev in tr.events)

    def test_adversarial_forbidden_with_gmre_spike(self):
        from flatknot.fixtures import collapse_functional

        cfg = FlowConfig(functional=collapse_functional(), resistance="none",
                         delta=0.05, step0=1e-4, grad_tol=1e-6, max_iters=500)
        tr = relax(limacon_curve(inner=2.0, n=256), cfg)
        assert tr.terminated == "forbidden_event"
        assert any(ev.kind == "FORBIDDEN" for ev in tr.events)
        # the knot-type theorem stays vacuous: the monitor blows up
        assert tr.max_gmre > 50.0

    def test_gmre_monitor_reuses_the_breakdown(self, monkeypatch):
        """Under GMRE the monitor reads the iterate's breakdown: gmre runs
        once per measured iterate, and the values are those of a monitor
        that recomputes gmre on each iterate's diagram."""
        cfg = FlowConfig(resistance="GMRE", delta=0.5, max_iters=12)
        calls, measured = [], []

        def counted(d, delta):
            calls.append(d)
            return gmre(d, delta)

        def measure(*args, _measure=flow._measure):
            measured.append(args)
            return _measure(*args)

        monkeypatch.setattr(flow, "gmre", counted)
        monkeypatch.setattr(flow, "_measure", measure)
        tr = relax(trefoil_curve(128), cfg)
        assert len(tr.gmre_values) == cfg.max_iters and tr.max_gmre > 0
        assert len(calls) == len(measured)

        monkeypatch.setattr(flow, "_monitor", lambda x, cfg: gmre(x.diagram, cfg.delta).total)
        assert relax(trefoil_curve(128), cfg).gmre_values == tr.gmre_values

    def test_gmre_monitor_on_clean_run(self):
        cfg = FlowConfig(resistance="MRE", delta=0.1, step0=1e-4, grad_tol=5e-4, max_iters=120)
        tr = relax(noisy_circle(128, seed=6), cfg)
        assert tr.max_gmre <= 50.0
        assert not any(ev.kind == "FORBIDDEN" for ev in tr.events)

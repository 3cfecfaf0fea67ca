import numpy as np
import pytest

from flatknot.curve import TWO_PI, ClosedCurve, GaussRep, gauss_from_curve, resample_arclength, trapezoid_points
from flatknot import flow
from flatknot.diagram import detect_crossings, enumerate_cycles, gmre, resistance_energy, shoelace_area
from flatknot.errors import CodimensionOneError, SingularDiagramError, StalledError
from flatknot.fixtures import (
    bigon_pair,
    circle_curve,
    collapse_functional,
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
)
from flatknot.pendulum import elliptic_k
from flatknot.uniformization import (
    F_X2,
    energy_uf,
    gradient_norm,
    project_closure,
    uf_gradient,
)

from conftest import classify_event_by_labels, per_cycle_resistance_gradient


def many_crossing_curve():
    """z(t) = e^{it} + 1.5 e^{-3it} + 0.8 e^{2it} at 256 samples,
    scaled to length 2pi: 10 crossings and 164 alternated cycles."""
    t = np.linspace(0, TWO_PI, 4096, endpoint=False)
    z = np.exp(1j * t) + 1.5 * np.exp(-3j * t) + 0.8 * np.exp(2j * t)
    c = resample_arclength(np.column_stack([z.real, z.imag]), 256)
    return c.scaled(TWO_PI / c.length)


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


def energy_split(c, cfg):
    """(U, R) of a curve: U_f of its angles and the configured resistance
    of its detected diagram."""
    return energy_uf(gauss_from_curve(c), cfg.functional), resistance_breakdown(detect_crossings(c), cfg).total


class TestTotalEnergy:
    def test_round_circle(self):
        cfg = FlowConfig(resistance="MRE", delta=0.01)
        u, r = energy_split(circle_curve(512), cfg)
        assert u == pytest.approx(TWO_PI, abs=1e-6)
        assert r == 0.0

    def test_infinity_with_re(self, infinity_curve):
        cfg = FlowConfig(resistance="RE")
        u, r = energy_split(infinity_curve, cfg)
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

    @pytest.mark.parametrize("max_iters", [0, -1, "3", 2.5])
    def test_max_iters_must_be_positive_integer(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            FlowConfig(max_iters=max_iters)

    def test_scaling_laws(self, trefoil_diagram):
        cfg = FlowConfig(resistance="RE")
        c = trefoil_diagram.curve
        u1, r1 = energy_split(c, cfg)
        u2, r2 = energy_split(c.scaled(2.0), cfg)
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
        d = detect_crossings(ClosedCurve(trapezoid_points(g.alpha, g.base_point, g.length), g.length))
        rule = d.first_over
        cfgs = [FlowConfig(resistance=fam, delta=0.5) for fam in families]

        def resistances(alpha):
            pts = trapezoid_points(alpha, g.base_point, g.length)
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

    @pytest.mark.parametrize(
        "curve, families",
        [(trefoil_curve(256), ("RE", "MRE", "GMRE")), (ellipse_curve(128), ("RE",))]
        + [(c, ("RE", "MRE", "GMRE")) for c, _ in random_immersed_curves(3, seed=3, n=96)]
        + [(many_crossing_curve(), ("RE", "MRE", "GMRE"))],
        ids=["trefoil", "ellipse", "random0", "random1", "random2", "many"],
    )
    def test_matches_per_cycle_oracle(self, curve, families):
        """The weighted pass over the curve against one reverse pass per
        frozen cycle, on the same diagram and angles."""
        g = gauss_from_curve(curve)
        d = detect_crossings(curve)
        for fam in families:
            bd = resistance_breakdown(d, FlowConfig(resistance=fam, delta=0.5))
            assert bd.cycles, fam
            want = per_cycle_resistance_gradient(g, d, bd)
            got = _resistance_gradient(g, d, bd)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), fam

    def test_many_crossing_curve(self):
        d = detect_crossings(many_crossing_curve())
        assert d.n_crossings >= 10
        assert sum(cy.alternated for cy in enumerate_cycles(d)) >= 100

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
        d, (pairs, radius) = _inherited_rule(prev, trefoil_diagram.curve)
        assert len(calls) == 1
        assert d.first_over == [True] * 3
        # the curve did not move: the radius floor, and each crossing matches itself
        assert radius == 1e-3 and pairs == [(0, 0, False), (1, 1, False), (2, 2, False)]

    def test_one_match_per_candidate(self, monkeypatch):
        """Each line-search candidate is matched once, with 5 times its
        largest sample displacement (at least 1e-3), and the accepted
        iterate carries that match: relax never matches it again."""
        matches, rules = [], []

        def match(before, after, radius, _match=flow._match_crossings):
            matches.append(radius)
            return _match(before, after, radius)

        def rule(prev, curve, _rule=flow._inherited_rule):
            d, m = _rule(prev, curve)
            rules.append((prev, curve, m))
            return d, m

        monkeypatch.setattr(flow, "_match_crossings", match)
        monkeypatch.setattr(flow, "_inherited_rule", rule)
        cfg = FlowConfig(resistance="MRE", delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=30)
        tr = relax(trefoil_curve(128), cfg)
        assert len(tr.records) == cfg.max_iters and len(rules) > cfg.max_iters
        assert matches == [radius for _, _, (_, radius) in rules]
        for prev, curve, (_, radius) in rules:
            disp = np.max(np.hypot(*(curve.points - prev.curve.points).T))
            assert radius == max(5.0 * disp, 1e-3)

    def test_new_pair_from_crossing_free_diagram_is_a_bigon(self):
        """Crossings born from a crossing-free diagram put the earlier
        passage on top, as any unmatched pair does: an R2 bigon with two
        alternated cycles, not an alternating clasp with three."""
        with_bigon, without = bigon_pair()
        d, (pairs, _) = _inherited_rule(detect_crossings(without), with_bigon)
        assert pairs == [] and d.first_over == [True, True]
        assert sum(cy.alternated for cy in enumerate_cycles(d)) == 2


class TestFlowStep:
    def test_descends_on_perturbed_circle(self):
        cfg = FlowConfig(resistance="none", step0=1e-4)
        c = noisy_circle(128, seed=3)
        e0 = sum(energy_split(c, cfg))
        c1, s = flow_step(c, cfg, cfg.step0)
        assert sum(energy_split(c1, cfg)) < e0
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


def eight_flow(n):
    """The figure-eight flow of `flatknot verify` (c12b) at n samples."""
    cfg = FlowConfig(resistance="none", step0=1e-4, grad_tol=3e-4, max_iters=6000)
    return relax(noisy_figure_eight(n, seed=11, amplitude=0.02), cfg)


class TestH1Step:
    @pytest.mark.parametrize("n", [64, 256])
    def test_fourier_modes(self, n):
        """P = I - d^2/ds^2 on length 2pi: frequency m is divided by 1 + m^2,
        to the rounding of one FFT pair."""
        theta = TWO_PI * np.arange(n) / n
        for m in (0, 1, 2, 7, n // 2 - 1, n // 2):
            for mode in (np.cos(m * theta), np.sin(m * theta)):
                got = flow._precondition(mode)
                assert np.abs(got - mode / (1 + m * m)).max() <= 1e-14

    @pytest.mark.parametrize("k", range(4))
    def test_direction_closed_and_descending(self, k):
        """Under RE on random curves, d is L^2-orthogonal to both closure
        directions and h <grad, d> > 0, so -d descends."""
        c, _ = random_immersed_curves(4, seed=8, n=128)[k]
        cfg = FlowConfig(resistance="RE")
        x = flow._start(c, cfg)
        g = x.gauss
        grad = flow._projected_gradient(x, cfg)
        d = flow._h1_direction(g, grad)
        h = TWO_PI / g.n
        for direction in (np.sin(g.alpha), np.cos(g.alpha)):
            assert abs(h * np.dot(d, direction)) <= 1e-12 * gradient_norm(g, d)
        assert h * np.dot(grad, d) > 0
        # the preconditioner shrinks every frequency
        assert 0 < gradient_norm(g, d) < gradient_norm(g, grad)

    def test_l2_step_is_the_oracle(self, monkeypatch):
        """With the preconditioner set to the identity the step is the
        plain L^2 step.  Both flows reach the same elastica, and the H^1
        flow needs at most a fifth of the L^2 flow's iterates."""
        h1 = eight_flow(256)
        monkeypatch.setattr(flow, "_precondition", lambda v: v)
        l2 = eight_flow(256)
        assert h1.terminated == l2.terminated == "converged"
        u_h1, u_l2 = h1.energies[-1][1], l2.energies[-1][1]
        assert abs(u_h1 - u_l2) <= 1e-9 * u_l2
        assert len(h1.energies) <= len(l2.energies) / 5

    def test_second_order_in_n(self, critical_xi):
        """The relaxed eight converges to the elastica energy
        32 K(xi)^2 / pi (xi^2 - 1/2) at second order in N, and the
        Richardson value from N = 512 and 1024 meets it."""
        xi = critical_xi
        exact = 32 * elliptic_k(xi) ** 2 / np.pi * (xi**2 - 0.5)
        traces = {n: eight_flow(n) for n in (256, 512, 1024)}
        assert all(tr.terminated == "converged" for tr in traces.values())
        u = {n: tr.energies[-1][1] for n, tr in traces.items()}
        err = {n: exact - un for n, un in u.items()}
        assert err[256] / err[512] == pytest.approx(4, abs=0.05)
        assert err[512] / err[1024] == pytest.approx(4, abs=0.05)
        richardson = (4 * u[1024] - u[512]) / 3
        assert abs(richardson - exact) <= 1e-9 * exact
        for n, cap in ((256, 100), (512, 150), (1024, 300)):
            assert len(traces[n].energies) <= cap, n


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
            [not fo for fo in trefoil_diagram.first_over]
        )
        ev = classify_event(trefoil_diagram, flipped, radius=0.3)
        assert ev.kind == "FORBIDDEN"

    def test_matches_string_label_oracle(self, trefoil_diagram):
        """The integer Gauss words give the verdicts of the string-label
        classifier bit for bit, on the fixture pairs and on consecutive and
        jittered pairs of random immersed curves."""
        with_bigon, without = (detect_crossings(c) for c in bigon_pair())
        flipped = trefoil_diagram.relabelled([not fo for fo in trefoil_diagram.first_over])
        cases = [
            (with_bigon, without, 1.0),
            (without, with_bigon, 1.0),
            (*r3_pair(), 0.3),
            (layered_triangle(1.95), layered_triangle(2.05), 0.3),
            (layered_triangle(2.05), layered_triangle(1.95), 0.3),
            (detect_crossings(limacon_curve(n=256)), detect_crossings(circle_curve(256)), 1.0),
            (trefoil_diagram, flipped, 0.3),
        ]
        pool = random_immersed_curves(40, seed=77, n=200)
        cases += [(a, b, 0.5) for (_, a), (_, b) in zip(pool, pool[1:])]
        rng = np.random.default_rng(5)
        for c, d in pool:
            for amp in (1e-3, 1e-2):
                jitter = rng.normal(0, amp, c.points.shape)
                try:
                    jittered = detect_crossings(ClosedCurve(c.points + jitter, c.length))
                except CodimensionOneError:
                    continue
                cases += [(d, jittered, r) for r in (0.05, 0.3)]
                cases += [(jittered.relabelled([True] * jittered.n_crossings),
                           d.relabelled([True] * d.n_crossings), r) for r in (0.05, 0.3)]
        kinds = set()
        for before, after, radius in cases:
            got, want = (f(before, after, radius) for f in (classify_event, classify_event_by_labels))
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.kind, got.crossing_delta) == (want.kind, want.crossing_delta)
                assert np.array_equal(got.location, want.location)
            kinds.add(got and got.kind)
        assert kinds == {None, "R2_appear", "R2_vanish", "R3", "FORBIDDEN"}


class TestEventFlows:
    """Flows that make R2 and R3 moves: random immersed curves (seed 77,
    N = 256) at delta = 0.2, and the adversarial flow, which ends
    FORBIDDEN."""

    FLOWS = {
        "pool2-none": (2, "none", [(18, "R3"), (20, "R2_vanish"), (23, "R2_appear")], "stalled", 52),
        "pool9-none": (9, "none", [(13, "R3"), (15, "R3"), (16, "FORBIDDEN")], "forbidden_event", 18),
        "pool1-MRE": (1, "MRE", [(13, "R2_appear"), (20, "R2_vanish"), (23, "R2_vanish")], "max_iters", 150),
        "adversarial": (None, "none", [(16, "FORBIDDEN")], "forbidden_event", 18),
    }

    @pytest.mark.parametrize("name", FLOWS)
    def test_verdicts_match_classify_event(self, name, monkeypatch):
        """The verdict relax takes from the candidate's own match equals
        classify_event's, and the string-label classifier's, with the same
        radius, at every accepted step."""
        k, resistance, events, terminated, n_records = self.FLOWS[name]
        if k is None:
            c0 = limacon_curve(inner=2.0, n=256)
            cfg = FlowConfig(functional=collapse_functional(), resistance="none", delta=0.05, grad_tol=1e-6)
        else:
            c0 = random_immersed_curves(12, seed=77, n=256)[k][0]
            cfg = FlowConfig(resistance=resistance, delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=150)
        steps = []

        def spy(*args, _verdict=flow._verdict):
            steps.append((*args, _verdict(*args)))
            return steps[-1][-1]

        with monkeypatch.context() as m:
            m.setattr(flow, "_verdict", spy)
            tr = relax(c0, cfg)
        assert [(ev.iter, ev.kind) for ev in tr.events] == events
        assert (tr.terminated, len(tr.records)) == (terminated, n_records)
        assert [v.kind for *_, v in steps if v is not None] == [ev.kind for ev in tr.events]
        for before, after, _, radius, got in steps:
            for want in (classify_event(before, after, radius), classify_event_by_labels(before, after, radius)):
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.kind, got.crossing_delta) == (want.kind, want.crossing_delta)
                    assert np.array_equal(got.location, want.location)


class TestRelax:
    def test_start_that_cannot_close_is_singular(self, out_and_back_polygon):
        """A curve whose angle lift does not close stops before the first
        iterate: no records, and the final curve is the input."""
        tr = relax(out_and_back_polygon, FlowConfig())
        assert tr.terminated == "singular" and tr.records == [] and tr.final_curve is out_and_back_polygon

    def test_start_rescales_to_length_2pi(self):
        """A flow from a scaled copy of a curve starts from the same
        iterate, base point included, so its records and final curve are
        the unscaled flow's up to rounding."""
        cfg = FlowConfig(resistance="RE", max_iters=3)
        ref, big = (relax(c, cfg) for c in (trefoil_curve(128), trefoil_curve(128).scaled(3.0)))
        assert np.max(np.abs(big.final_curve.points - ref.final_curve.points)) <= 1e-12
        assert len(ref.records) == len(big.records) == 3
        for a, b in zip(ref.records, big.records):
            assert (a.iter, a.crossings, a.whitney, a.rejected) == (b.iter, b.crossings, b.whitney, b.rejected)
            for f in ("u", "r", "gmre", "grad_norm", "step"):
                assert getattr(b, f) == pytest.approx(getattr(a, f), rel=1e-12, abs=1e-12), f

    def test_monotone_and_length(self):
        lengths = []
        cfg = FlowConfig(resistance="MRE", delta=0.05, step0=1e-4, grad_tol=2e-3, max_iters=150)
        tr = relax(noisy_circle(128, seed=5), cfg, keyframe_cb=lambda it, c: lengths.append(c.length))
        totals = [t for _, _, _, t in tr.energies]
        assert all(t1 <= t0 + 1e-12 for t0, t1 in zip(totals, totals[1:]))
        assert all(abs(L - TWO_PI) < 1e-8 for L in lengths)
        for (_, u, r, t) in tr.energies:
            assert t == pytest.approx(u + r, abs=1e-8)

    @pytest.mark.parametrize("max_iters", [15, 2000])
    def test_per_step_fields(self, max_iters):
        """Every iterate a step was taken from records its gradient norm
        and accepted step; a converged flow's last record has only the
        gradient norm that stopped it."""
        cfg = FlowConfig(resistance="MRE", delta=0.05, grad_tol=2e-3, max_iters=max_iters)
        tr = relax(noisy_circle(128, seed=5), cfg)
        converged = tr.terminated == "converged"
        assert tr.terminated == ("max_iters" if max_iters == 15 else "converged")
        assert [r.iter for r in tr.records] == list(range(len(tr.records)))
        stepped = tr.records[:-1] if converged else tr.records
        assert all(0 < r.step <= 1.0 and r.grad_norm >= cfg.grad_tol for r in stepped)
        if converged:
            last = tr.records[-1]
            assert last.grad_norm < cfg.grad_tol and last.step is None and last.rejected == ()

    def test_rejected_counts_the_halvings(self):
        """Each rejected candidate halves the step, exactly in binary, so
        len(rejected) is log2(tried / accepted), with the step tried at
        each iterate the last accepted one grown by _STEP_GROWTH."""
        cfg = FlowConfig(resistance="MRE", delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=60)
        tr = relax(trefoil_curve(128), cfg)
        stepped = [r for r in tr.records if r.step is not None]
        tried = cfg.step0
        for r in stepped:
            assert len(r.rejected) == round(np.log2(tried / r.step))
            tried = min(r.step * flow._STEP_GROWTH, 1.0)
        assert len(stepped) > 10 and sum(len(r.rejected) for r in stepped) > 0

    def test_rejection_reasons(self, monkeypatch):
        """A candidate is rejected for the error its measurement raised,
        else for failing the Armijo test, and each rejection halves the
        step."""
        cfg = FlowConfig(resistance="RE")
        x = flow._start(trefoil_curve(128), cfg)
        errors = iter([CodimensionOneError("triple point"), SingularDiagramError("zero area"),
                       StalledError("open lift")])

        def failing(prev, curve, _rule=flow._inherited_rule):
            err = next(errors, None)
            if err is not None:
                raise err
            return _rule(prev, curve)

        monkeypatch.setattr(flow, "_inherited_rule", failing)
        _, s, rejected = flow._step_from_alpha(x, flow._projected_gradient(x, cfg), cfg, 1.0)
        assert rejected[:3] == ("codim1", "singular", "stalled") and set(rejected[3:]) <= {"armijo"}
        assert s == 0.5 ** len(rejected)

    def test_stalled_record_lists_its_candidates(self):
        """The c12d trefoil stalls: its last record has no step, and every
        candidate tried, halving from the grown step to below 1e-12, is
        rejected with a reason."""
        cfg = FlowConfig(resistance="MRE", delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=800)
        tr = relax(trefoil_curve(256), cfg)
        assert tr.terminated == "stalled"
        *_, prev, last = tr.records
        assert last.step is None and last.grad_norm >= cfg.grad_tol
        tried = min(prev.step * flow._STEP_GROWTH, 1.0)
        assert tried * 0.5 ** len(last.rejected) < flow._STEP_FLOOR <= tried * 0.5 ** (len(last.rejected) - 1)
        assert set(last.rejected) <= {"codim1", "singular", "stalled", "armijo"}

    def test_stalled_line_search_is_not_converged(self, monkeypatch):
        def stall(*args):
            raise StalledError("stalled", ("codim1", "armijo"))

        monkeypatch.setattr(flow, "_step_from_alpha", stall)
        cfg = FlowConfig(resistance="none", grad_tol=1e-4, max_iters=50)
        tr = relax(noisy_circle(128, seed=5), cfg)
        assert tr.terminated == "stalled"
        [rec] = tr.records
        assert rec.step is None and rec.grad_norm >= cfg.grad_tol
        assert rec.rejected == ("codim1", "armijo")

    def test_step_that_moves_nothing_stalls(self):
        """At the circle the accepted step rounds to the same angles, so
        the flow ends stalled at its first record instead of repeating
        that step until max_iters."""
        cfg = FlowConfig(resistance="none", grad_tol=1e-300, max_iters=50)
        tr = relax(circle_curve(128), cfg)
        assert tr.terminated == "stalled"
        [rec] = tr.records
        assert rec.step is None and rec.rejected == () and rec.grad_norm >= cfg.grad_tol

    def test_whitney_stays_put(self):
        cfg = FlowConfig(resistance="none", step0=1e-4, grad_tol=1e-3, max_iters=120)
        tr = relax(noisy_figure_eight(160, seed=4), cfg)
        assert {r.whitney for r in tr.records} == {0}

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
        assert len(tr.records) == cfg.max_iters and tr.max_gmre > 0
        assert len(calls) == len(measured)

        monkeypatch.setattr(flow, "_monitor", lambda x, cfg: gmre(x.diagram, cfg.delta).total)
        assert [r.gmre for r in relax(trefoil_curve(128), cfg).records] == [r.gmre for r in tr.records]

    def test_gmre_monitor_on_clean_run(self):
        cfg = FlowConfig(resistance="MRE", delta=0.1, step0=1e-4, grad_tol=5e-4, max_iters=120)
        tr = relax(noisy_circle(128, seed=6), cfg)
        assert tr.max_gmre <= 50.0
        assert not any(ev.kind == "FORBIDDEN" for ev in tr.events)

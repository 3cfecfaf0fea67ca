"""Acceptance suite: every criterion is a named check with its stated
tolerance pinned, runnable from the CLI (`flatknot verify`) and mirrored
one-to-one by tests/test_acceptance.py.

Checks depend only on numpy; the heavier oracle cross-checks (quadrature,
independent special-function libraries) live in the pytest suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import fixtures
from .curve import align_rigid, gauss_from_curve, closure_report, whitney_index, TWO_PI
from .diagram import detect_crossings, enumerate_cycles, gamma_bound, resistance_energy
from .errors import ParityObstructionError
from .flow import FlowConfig, relax, total_energy
from .lattice import grid_cycle_count, gstar_alternated_count, gstar_lower_bound
from .pendulum import (
    build_infinity_curve,
    delta_x,
    elliptic_k,
    find_critical_xi,
    jacobi_sn,
    pendulum_alpha,
    PendulumParams,
)
from .uniformization import (
    EnergyFunctional,
    F_X,
    F_X2,
    el_residual,
    energy_uf,
    energy_uf_extended,
    gradient_norm,
    project_closure,
    uf_gradient,
)

GRID_TABLE = {1: 1, 2: 13, 3: 213, 4: 9349, 5: 1222363}
XI_PAPER = 0.90890856
GMRE_CEILING = 50.0
_FLOW_N = 256

_flow_cache: dict = {}


@dataclass
class CheckResult:
    name: str
    group: str
    passed: bool
    detail: str
    seconds: float


_FLOWS = {
    "circle": lambda: relax(
        fixtures.noisy_circle(_FLOW_N, seed=7, amplitude=0.05),
        FlowConfig(resistance="MRE", delta=0.05, step0=1e-4, grad_tol=2e-4, max_iters=4000),
    ),
    "eight": lambda: relax(
        fixtures.noisy_figure_eight(_FLOW_N, seed=11, amplitude=0.02),
        FlowConfig(resistance="none", step0=1e-4, grad_tol=3e-4, max_iters=6000),
    ),
    "trefoil": lambda: relax(
        fixtures.trefoil_curve(_FLOW_N),
        FlowConfig(resistance="MRE", delta=0.2, step0=1e-4, grad_tol=1e-4, max_iters=800),
    ),
    # adversarial: collapse-above-threshold functional, violates the
    # generic-deformation hypothesis and must abort as FORBIDDEN
    "adversarial": lambda: relax(
        fixtures.limacon_curve(inner=2.0, n=_FLOW_N),
        FlowConfig(functional=fixtures.collapse_functional(), resistance="none",
                   delta=0.05, step0=1e-4, grad_tol=1e-6, max_iters=2000),
    ),
}


def _flow_run(name: str):
    """Run one reference flow once and cache its trace with its seconds."""
    if name not in _flow_cache:
        t0 = time.time()
        tr = _FLOWS[name]()
        _flow_cache[name] = tr, time.time() - t0
    return _flow_cache[name]


def check_xi_root():
    find_critical_xi.cache_clear()
    t0 = time.time()
    root2 = find_critical_xi(2)
    dt = time.time() - t0
    root4 = find_critical_xi(4)
    ok = abs(root2 - XI_PAPER) < 1e-6 and abs(root2 - root4) < 1e-9 and dt < 1.0
    return ok, f"xi = {root2:.12f} (paper {XI_PAPER}), |r2-r4| = {abs(root2 - root4):.2e}, {dt:.2f}s"


def check_grid_table():
    t0 = time.time()
    got = {n: grid_cycle_count(n) for n in range(1, 6)}
    dt = time.time() - t0
    ok = got == GRID_TABLE and dt < 60.0
    return ok, f"counts {list(got.values())}, {dt:.2f}s"


def check_trefoil_census():
    t0 = time.time()
    cycles = enumerate_cycles(detect_crossings(fixtures.trefoil_curve(512)))
    dt = time.time() - t0
    by_arcs = {}
    for cy in cycles:
        by_arcs[cy.n_arcs] = by_arcs.get(cy.n_arcs, 0) + 1
    ok = (
        len(cycles) == 11
        and by_arcs == {1: 6, 2: 3, 3: 2}
        and all(cy.alternated for cy in cycles)
        and dt < 1.0
    )
    return ok, f"census {by_arcs}, alternated {sum(c.alternated for c in cycles)}/11, {dt:.2f}s"


def check_circle_energies():
    g = gauss_from_curve(fixtures.circle_curve(512))
    u2 = energy_uf(g, F_X2)
    lines = [f"U_x2(circle) - 2pi = {u2 - TWO_PI:.2e}"]
    ok = abs(u2 - TWO_PI) < 1e-6
    for name, c, w in (
        ("circle", fixtures.circle_curve(512), 1),
        ("double", fixtures.doubly_traversed_circle(512), 2),
        ("infinity", build_infinity_curve(2, 1024), 0),
    ):
        ux = energy_uf(gauss_from_curve(c), F_X)
        ok = ok and abs(ux - TWO_PI * w) < 1e-3 and whitney_index(c) == w
        lines.append(f"U_x({name}) = {ux:.6f} vs 2pi*{w}")
    return ok, "; ".join(lines)


def check_extended_convergence():
    epss = (0.1, 0.05, 0.025)
    ok = True
    lines = []
    for name, c in (("circle", fixtures.circle_curve(8192)), ("ellipse", fixtures.ellipse_curve(8192))):
        u = energy_uf(gauss_from_curve(c), F_X2)
        errs = [abs(energy_uf_extended(c, F_X2, e) - u) for e in epss]
        if max(errs) <= 1e-12:
            lines.append(f"{name}: errors at floating-point floor {max(errs):.1e}")
            continue
        orders = [np.log2(errs[i] / max(errs[i + 1], 1e-300)) for i in range(2)]
        decreasing = errs[0] > errs[1] > errs[2]
        ok = ok and decreasing and min(orders) >= 1.8
        lines.append(f"{name}: errs {[f'{e:.2e}' for e in errs]}, orders {[f'{o:.2f}' for o in orders]}")
    return ok, "; ".join(lines)


def check_infinity_criticality():
    c = build_infinity_curve(2, 1024)
    g = gauss_from_curve(c)
    rep = el_residual(g, F_X2)
    gn = gradient_norm(g, uf_gradient(g, F_X2))
    ok = rep.rms_residual < 1e-3 and gn < 1e-3
    return ok, f"EL rms = {rep.rms_residual:.2e}, |proj grad| = {gn:.2e}"


def check_parity():
    xi = find_critical_xi(2)
    rep2 = closure_report(pendulum_alpha(PendulumParams(xi, 2), 4096))
    rep1 = closure_report(pendulum_alpha(PendulumParams(xi, 1), 4096))
    ok = abs(rep2.sin_integral) < 1e-8 and abs(rep1.sin_integral) > 1e-2
    return ok, f"|sin integral| r=2: {abs(rep2.sin_integral):.2e}, r=1: {abs(rep1.sin_integral):.3f}"


def check_elliptic_identities():
    rng = np.random.default_rng(12345)
    worst1 = worst2 = 0.0
    for _ in range(100):
        k = rng.uniform(0, 0.99)
        us = rng.uniform(-30, 30, 100)
        for u in us[:2]:
            v = jacobi_sn(float(u), k)
            worst1 = max(worst1, abs(v.sn**2 + v.cn**2 - 1))
            worst2 = max(worst2, abs(v.dn**2 + k * k * v.sn**2 - 1))
        from .pendulum import _sn_cn_dn

        s, c, d = _sn_cn_dn(us, k)
        worst1 = max(worst1, float(np.abs(s * s + c * c - 1).max()))
        worst2 = max(worst2, float(np.abs(d * d + k * k * s * s - 1).max()))
    us = np.array([0.3, 1.0, 2.5, -4.0, 11.0])
    sn0 = np.array([jacobi_sn(float(u), 0.0).sn for u in us])
    e_k0 = abs(elliptic_k(0.0) - np.pi / 2)
    worst_p = 0.0
    rng2 = np.random.default_rng(999)
    for k in (0.2, 0.7, 0.95):
        bigk = elliptic_k(k)
        for u in rng2.uniform(-10, 10, 50):
            worst_p = max(worst_p, abs(jacobi_sn(u + 4 * bigk, k).sn - jacobi_sn(u, k).sn))
    ok = (
        worst1 < 1e-12
        and worst2 < 1e-12
        and np.abs(sn0 - np.sin(us)).max() < 1e-12
        and worst_p < 1e-11
        and e_k0 < 1e-14
    )
    return ok, (
        f"identity residuals {worst1:.1e}/{worst2:.1e}, sn(u|0) err "
        f"{np.abs(sn0 - np.sin(us)).max():.1e}, period err {worst_p:.1e}, K(0) err {e_k0:.1e}"
    )


def check_gradient():
    from .curve import GaussRep

    worst = 0.0
    for seed in range(20):
        c = fixtures.fourier_wobble(128, seed, amplitude=0.12)
        g = gauss_from_curve(c)
        grad = uf_gradient(g, F_X2)
        h_s = g.length / g.n
        eps = 1e-6
        fd = np.zeros(g.n)
        for j in range(g.n):
            ap = g.alpha.copy()
            am = g.alpha.copy()
            ap[j] += eps
            am[j] -= eps
            fd[j] = (
                energy_uf(GaussRep(ap, g.base_point, g.length), F_X2)
                - energy_uf(GaussRep(am, g.base_point, g.length), F_X2)
            ) / (2 * eps * h_s)
        fdp = project_closure(g, fd)
        rel = np.linalg.norm(fdp - grad) / np.linalg.norm(grad)
        worst = max(worst, rel)
    return worst < 1e-5, f"worst relative error {worst:.2e} over 20 curves"


def check_gamma_bound():
    pool = fixtures.random_immersed_curves(50, seed=2024, n=_FLOW_N)
    violations = []
    for idx, (c, d) in enumerate(pool):
        n = d.n_crossings
        cycles = enumerate_cycles(d, arc_cap=4)
        gamma = [
            cy for cy in cycles if (cy.n_arcs <= 3 and cy.alternated) or cy.n_arcs == 4
        ]
        if len(gamma) > gamma_bound(n):
            violations.append(f"#{idx}: |Gamma| = {len(gamma)} > {gamma_bound(n):.2f} (n={n})")
        counts = {}
        for cy in cycles:
            counts[cy.n_arcs] = counts.get(cy.n_arcs, 0) + 1
        for p in range(1, 5):
            if counts.get(p, 0) >= n**p / factorial(p):
                violations.append(
                    f"#{idx}: {counts.get(p, 0)} {p}-arc cycles >= n^{p}/{p}! = "
                    f"{n**p / factorial(p):.2f} (n={n})"
                )
    ok = not violations
    detail = "no violations" if ok else f"{len(violations)} violations, e.g. " + "; ".join(violations[:3])
    return ok, detail


def check_gstar_bound():
    lines = []
    ok = True
    for n in (2, 3, 4):
        cnt = gstar_alternated_count(n)
        bound = gstar_lower_bound(n)
        ok = ok and cnt >= bound
        lines.append(f"G*({n}): {cnt} >= {bound}")
    return ok, "; ".join(lines)


def check_flow_circle():
    from .uniformization import discrete_curvature

    tr, dt = _flow_run("circle")
    k = discrete_curvature(gauss_from_curve(tr.final_curve))
    spread = float(k.max() - k.min())
    ok = spread < 1e-3 and tr.crossing_counts[-1] == 0 and dt < 120
    return ok, f"spread {spread:.2e}, crossings {tr.crossing_counts[-1]}, {dt:.1f}s, {tr.terminated}"


def check_flow_eight():
    tr, dt = _flow_run("eight")
    target = build_infinity_curve(2, 1024)
    dist, _ = align_rigid(tr.final_curve.points, target.points)
    ok = dist < 1e-2 and dt < 120
    return ok, f"aligned Hausdorff {dist:.4f}, {dt:.1f}s, {tr.terminated}"


def check_flow_monitor():
    lines = []
    ok = True
    for name in _FLOWS:
        tr, _ = _flow_run(name)
        forbidden = any(ev.kind == "FORBIDDEN" for ev in tr.events)
        if tr.max_gmre <= GMRE_CEILING and forbidden:
            ok = False
            lines.append(f"{name}: FORBIDDEN with max GMRE {tr.max_gmre:.2f} <= {GMRE_CEILING}")
        else:
            lines.append(f"{name}: max GMRE {tr.max_gmre:.3g}, forbidden={forbidden}")
    return ok, "; ".join(lines)


def check_flow_trefoil():
    tr, dt = _flow_run("trefoil")
    delta = 0.2
    final = detect_crossings(tr.final_curve)
    crit = [cy for cy in enumerate_cycles(final) if cy.alternated and cy.area < delta]
    ok = len(crit) >= 1 and dt < 120
    areas = sorted(round(cy.area, 5) for cy in crit)
    return ok, f"{len(crit)} delta-critical alternated cycles, areas {areas[:4]}, {dt:.1f}s"


def check_scaling():
    d = detect_crossings(fixtures.trefoil_curve(512))
    re1 = resistance_energy(d).total
    re2 = resistance_energy(d.scaled(2.0)).total
    err_re = abs(re2 - re1 / 4.0)
    c = fixtures.ellipse_curve(512)
    u1 = energy_uf(gauss_from_curve(c), F_X2)
    u2 = energy_uf(gauss_from_curve(c.scaled(2.0)), F_X2)
    err_u = abs(u2 - u1 / 2.0)
    ok = err_re < 1e-9 and err_u < 1e-6
    return ok, f"|RE(2d) - RE/4| = {err_re:.2e}, |U(2c) - U/2| = {err_u:.2e}"


CHECKS = [
    ("c01-xi-root", "pendulum", check_xi_root),
    ("c02-grid-table", "grid", check_grid_table),
    ("c03-trefoil-census", "diagram", check_trefoil_census),
    ("c04-circle-energies", "energy", check_circle_energies),
    ("c05-extended-convergence", "energy", check_extended_convergence),
    ("c06-infinity-criticality", "infinity", check_infinity_criticality),
    ("c07-parity", "pendulum", check_parity),
    ("c08-elliptic-identities", "pendulum", check_elliptic_identities),
    ("c09-gradient", "gradient", check_gradient),
    ("c10-gamma-bound", "diagram", check_gamma_bound),
    ("c11-gstar-bound", "grid", check_gstar_bound),
    ("c12a-flow-circle", "flow", check_flow_circle),
    ("c12b-flow-eight", "flow", check_flow_eight),
    ("c12c-flow-monitor", "flow", check_flow_monitor),
    ("c12d-flow-trefoil", "flow", check_flow_trefoil),
    ("c13-scaling", "scaling", check_scaling),
]


def run_checks(only: str | None = None, out=print) -> list[CheckResult]:
    results = []
    for name, group, fn in CHECKS:
        if only is not None and group != only and not name.startswith(only):
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        res = CheckResult(name, group, passed, detail, time.time() - t0)
        results.append(res)
        out(f"{'PASS' if res.passed else 'FAIL'}  {res.name:<26} {res.seconds:7.2f} s  {res.detail}")
    return results

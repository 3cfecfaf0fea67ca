"""The benchmark's workloads: inputs built from a seed, one timed round of
operations, and checks of every operation's outputs.

Workloads reach flatknot through module attributes (`flow.relax`,
`diagram.detect_crossings`), so the span wrappers of `spans.py` see the
calls when they are installed.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from math import pi

import numpy as np

from flatknot import curve, diagram, fixtures, flow, lattice
from flatknot.errors import CodimensionOneError

import oracles

N_FLOW = 256
N_CENSUS = 1024


@dataclasses.dataclass
class Op:
    """One operation: a flow or a census item.

    `pieces_ms` cut its timed work into consecutive pieces, leaving out
    what runs between them (the speed gauge): the iterations of a flow,
    with the work before the first iteration and after the last, or the
    item itself.  `error` is set when it raised or when a check failed.
    """

    name: str
    pieces_ms: list
    output: object = None
    error: str | None = None


def _timed(name, fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:  # an operation that raises is a failed operation
        return Op(name, [], error=traceback.format_exc(limit=3))
    return Op(name, [(time.perf_counter() - t0) * 1e3], out)


def _rigid(points, rng):
    """Seeded rotation, translation and start sample of a closed polyline."""
    th = rng.uniform(0.0, 2 * pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    points = np.roll(points, -int(rng.integers(len(points))), axis=0)
    return points @ rot.T + rng.uniform(-1.0, 1.0, 2)


# ---------------------------------------------------------------------------
# relaxation flows


class _Relax:
    """A flow is one operation, timed piece by piece between keyframe
    callbacks.  Its op_ms samples are blocks of `block` pieces, and
    `pause` runs after each block, outside the timed pieces."""

    cfg: flow.FlowConfig
    block = 1
    warmup_iters = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.curve0 = self.make_input()
        flow.relax(self.curve0, dataclasses.replace(self.cfg, max_iters=self.warmup_iters))

    def round(self, pause=None):
        starts, ends, iterates = [], [], []  # piece k runs from starts[k] to ends[k]

        def keyframe(it, c):
            ends.append(time.perf_counter())
            iterates.append(c.points)
            if pause is not None and it % self.block == self.block - 1:
                pause()
            starts.append(time.perf_counter())

        starts.append(time.perf_counter())
        op = _timed(self.name, flow.relax, self.curve0, self.cfg, keyframe)
        ends.append(time.perf_counter())
        if op.error is None:
            op.pieces_ms = [(e - s) * 1e3 for s, e in zip(starts, ends)]
            op.output = (op.output, iterates)
        return [op]

    def check(self, op):
        tr, iterates = op.output
        total = [e[3] for e in tr.energies]
        if tr.events:
            return f"events {[ev.kind for ev in tr.events]}"
        if any(b > a for a, b in zip(total, total[1:])):
            return "energy increased between iterates"
        if set(tr.crossing_counts) != {self.crossings}:
            return f"crossing counts {sorted(set(tr.crossing_counts))}, expected {self.crossings}"
        if oracles.self_intersections(tr.final_curve.points) != self.crossings:
            return "final curve has the wrong number of self-intersections"
        return self.check_flow(tr, iterates)

    def signature(self, op):
        tr, _ = op.output
        return (len(tr.energies), tr.energies[-1][3], tr.terminated)


class RelaxEight(_Relax):
    """The figure-eight flow of `flatknot verify` (c12b): no resistance,
    run to its convergence tolerance.

    The wobble is c12b's (seed 11): other wobble seeds change the number
    of iterations to convergence by up to 50 %.  The seed draws a rigid
    motion and the start sample, which leave the flow's work unchanged.

    An iteration tries one or two line-search candidates (about 20 or
    42 ms), close to half and half, so the median of single iterations
    would jump between the two; blocks of five iterations have one mode.
    """

    name = "relax-eight"
    cfg = flow.FlowConfig(resistance="none", step0=1e-4, grad_tol=3e-4, max_iters=6000)
    block = 5
    crossings = 1
    wobble_seed = 11
    u_rel_tol = 1e-3

    def make_input(self):
        c = fixtures.noisy_figure_eight(N_FLOW, seed=self.wobble_seed, amplitude=0.02)
        pts = _rigid(c.points, np.random.default_rng([self.seed, 1]))
        return curve.ClosedCurve(pts, c.length)

    def check_flow(self, tr, iterates):
        if tr.terminated != "converged":
            return f"terminated {tr.terminated}"
        bad = [k for k, p in enumerate(iterates) if oracles.turning_number(p) != 0]
        if bad:
            return f"Whitney index not 0 at iterate {bad[0]}"
        u, ref = tr.energies[-1][1], oracles.elastica_energy()
        if abs(u - ref) > self.u_rel_tol * ref:
            return f"final U {u:.6f} vs elastica {ref:.6f}"
        return None


class RelaxReTrefoil(_Relax):
    """The trefoil under RE for a fixed iteration budget.

    The seed draws a rotation, translation and start sample and a small
    normal wobble; inputs that do not keep 3 crossings are redrawn.
    """

    name = "relax-re-trefoil"
    cfg = flow.FlowConfig(resistance="RE", step0=1e-4, grad_tol=1e-4, max_iters=120)
    crossings = 3
    wobble = 0.01

    def make_input(self):
        rng = np.random.default_rng([self.seed, 2])
        base = fixtures.trefoil_curve(N_FLOW)
        t = np.arange(N_FLOW) * (2 * pi / N_FLOW)
        tang = np.roll(base.points, -1, axis=0) - np.roll(base.points, 1, axis=0)
        normal = np.column_stack([-tang[:, 1], tang[:, 0]]) / np.hypot(*tang.T)[:, None]
        while True:
            wob = sum(
                a * np.cos(k * t) + b * np.sin(k * t)
                for k, (a, b) in zip(range(2, 6), rng.normal(0, self.wobble / 4, (4, 2)))
            )
            pts = _rigid(base.points + wob[:, None] * normal, rng)
            c = curve.resample_arclength(pts, N_FLOW)
            c = c.scaled(2 * pi / c.length)
            try:
                if diagram.detect_crossings(c).n_crossings == self.crossings:
                    return c
            except CodimensionOneError:
                pass

    def check_flow(self, tr, iterates):
        if len(tr.energies) != self.cfg.max_iters:
            return f"{len(tr.energies)} iterates, expected the budget {self.cfg.max_iters}"
        cycles = diagram.enumerate_cycles(diagram.detect_crossings(tr.final_curve))
        by_arcs = {}
        for cy in cycles:
            by_arcs[cy.n_arcs] = by_arcs.get(cy.n_arcs, 0) + 1
        if by_arcs != {1: 6, 2: 3, 3: 2} or not all(cy.alternated for cy in cycles):
            return f"final census {by_arcs}, not the trefoil's 6/3/2 all alternated"
        if tr.energies[-1][1] < 8 * pi:
            return f"final U {tr.energies[-1][1]:.6f} below (2 pi w)^2 / L = 8 pi"
        return None


# ---------------------------------------------------------------------------
# census


def _trig_curve(coef, t):
    """Unit circle plus Fourier modes 2, 3, ... with one row (ax, bx, ay, by) per mode."""
    k = np.arange(2, 2 + len(coef))[:, None]
    cos, sin = np.cos(k * t), np.sin(k * t)
    x = np.cos(t) + coef[:, 0] @ cos + coef[:, 1] @ sin
    y = np.sin(t) + coef[:, 2] @ cos + coef[:, 3] @ sin
    return np.column_stack([x, y])


class Census:
    """The cycle census of a pool of 9..14-crossing diagrams, each detected
    once at N = 1024, plus the lattice counts G(n), n <= 6, and G*(n),
    n <= 4.  Every diagram and every lattice count is one operation.

    The pool's diagrams are fixed: the first random trigonometric curves
    (modes 2..5) drawn from `pool_seed` with 9..14 crossings at N = 256.
    Random pools differ in cycle count by two orders of magnitude, which
    would make the census time a property of the seed.  The seed instead
    jitters each curve's coefficients, rotates, translates and re-starts
    it, redrawing until the crossing count at N = 256 is unchanged.

    Curves whose smallest face at N = 256 is under `min_face` are skipped
    or redrawn: on so small a cycle the package's shoelace area loses
    relative precision, and RE, which the cycle dominates, then misses
    the independent sum by more than the checks allow (1.3e-9 relative
    on a cycle of area 4e-9).
    """

    name = "census"
    block = 1
    pool_seed = 2024
    pool_size = 17
    jitter = 0.005
    min_face = 1e-5
    delta = 0.05
    grid_ns = range(1, 7)
    gstar_ns = range(1, 5)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.pool = self._make_pool()
        self._diagram_op(self.pool[0])  # warm-up

    @staticmethod
    def _probe(pts):
        """Crossing count at N = 256, or None in a degenerate position: one
        that raises, or whose smallest face is under MIN_FACE."""
        try:
            d = diagram.detect_crossings(curve.resample_arclength(pts, 256))
        except (CodimensionOneError, ValueError):
            return None
        if d.n_crossings and min(a for _, a, _ in diagram.diagram_faces(d) if a > 0) < Census.min_face:
            return None
        return d.n_crossings

    def _make_pool(self):
        t = np.linspace(0, 2 * pi, 2048, endpoint=False)
        base = np.random.default_rng(self.pool_seed)
        rng = np.random.default_rng([self.seed, 3])
        pool = []
        while len(pool) < self.pool_size:
            coef = base.normal(0.0, 1.0, (4, 4)) * (base.uniform(1.5, 2.5) / np.arange(2, 6))[:, None]
            n = self._probe(_trig_curve(coef, t))
            if n is None or not 9 <= n <= 14:
                continue
            while True:
                pts = _rigid(_trig_curve(coef * (1 + rng.normal(0, self.jitter, coef.shape)), t), rng)
                if self._probe(pts) == n:
                    break
            c = curve.resample_arclength(pts, N_CENSUS)
            pool.append(c.scaled(2 * pi / c.length))
        return pool

    @staticmethod
    def _census(c, delta):
        d = diagram.detect_crossings(c)
        return (
            d,
            diagram.enumerate_cycles(d),
            diagram.diagram_faces(d),
            diagram.resistance_energy(d),
            diagram.mre(d, delta),
            diagram.gmre(d, delta),
        )

    def _diagram_op(self, c):
        return _timed("diagram", self._census, c, self.delta)

    def round(self, pause=None):
        """Every item is timed on its own; `pause` runs after each one."""
        items = [(self._diagram_op, c) for c in self.pool]
        items += [(self._lattice_op, ("grid", lattice.grid_cycle_count, n)) for n in self.grid_ns]
        items += [(self._lattice_op, ("gstar", lattice.gstar_alternated_count, n)) for n in self.gstar_ns]
        ops = []
        for run, arg in items:
            ops.append(run(arg))
            if pause is not None:
                pause()
        return ops

    @staticmethod
    def _lattice_op(item):
        name, fn, n = item
        op = _timed(name, fn, n)
        op.output = (n, op.output)
        return op

    def signature(self, op):
        if op.name == "diagram":
            d, cycles, faces, re, mre, gmre = op.output
            return (d.n_crossings, len(cycles), len(faces), re.total, mre.total, gmre.total)
        return op.output

    def check(self, op):
        if op.name == "grid":
            n, got = op.output
            return None if got == oracles.GRID_CYCLES[n] else f"G({n}) = {got}, OEIS {oracles.GRID_CYCLES[n]}"
        if op.name == "gstar":
            n, got = op.output
            want = oracles.gstar_by_run_parity(n)
            if got != want or got < oracles.gstar_lower_bound(n):
                return f"G*({n}) = {got}, run-parity count {want}"
            return None
        return self._check_diagram(*op.output)

    def _check_diagram(self, d, cycles, faces, re, mre, gmre):
        n = d.n_crossings
        if len(faces) != n + 2:
            return f"{len(faces)} faces, Euler gives {n + 2}"
        areas = [oracles.polygon_area(cy.polyline) for cy in cycles]
        if any(a <= 0.0 for a in areas):
            return "a cycle has zero area"
        delta = self.delta
        alt = [(cy, a) for cy, a in zip(cycles, areas) if cy.alternated]
        want = {
            "RE": sum(1 / a for _, a in alt),
            "MRE": sum(1 / a - 1 / delta for _, a in alt if a < delta),
            "GMRE": sum(
                1 / a - 1 / delta
                for cy, a in zip(cycles, areas)
                if a < delta and (cy.n_arcs <= 3 and cy.alternated or cy.n_arcs == 4)
            ),
        }
        for name, bd in (("RE", re), ("MRE", mre), ("GMRE", gmre)):
            if abs(bd.total - want[name]) > 1e-9 * max(1.0, abs(want[name])):
                return f"{name} {bd.total!r} vs {want[name]!r} from the full census"
        return None


WORKLOADS = {w.name: w for w in (RelaxEight, RelaxReTrefoil, Census)}

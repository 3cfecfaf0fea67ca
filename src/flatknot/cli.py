"""Command-line front end.

Commands: pendulum, energy, cycles, relax, render, verify.
Exit codes: 0 ok, 2 usage/parity, 3 singular diagram, 4 cycle explosion,
5 forbidden event (1 for verification failures).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .curve import gauss_from_curve, closure_report
from .diagram import enumerate_cycles, enumerate_cycles_graph, resistance
from .errors import (
    CodimensionOneError,
    CycleExplosionError,
    SingularDiagramError,
)
from .flow import FlowConfig, relax
from .jsonio import (
    breakdown_to_json,
    census_to_json,
    curve_from_json,
    curve_to_json,
    diagram_from_json,
    dump_json,
    energy_report_json,
    load_json,
    write_trace_jsonl,
)
from .lattice import _TABLE_MAX_N, grid_cycle_count, woven_fragment
from .pendulum import build_infinity_curve, find_critical_xi
from .svg import RenderSpec, curve_svg, diagram_svg
from .uniformization import F_X, F_X2, F_X4, el_residual, energy_uf, gradient_norm, power_functional, uf_gradient
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_EXPLOSION = 4
EXIT_FORBIDDEN = 5

_FUNCTIONALS = {"x": F_X, "x^2": F_X2, "x2": F_X2, "x^4": F_X4, "x4": F_X4}


def _functional(name: str):
    if not isinstance(name, str):
        raise ValueError(f"functional must be a string, not {name!r}")
    if name in _FUNCTIONALS:
        return _FUNCTIONALS[name]
    if name.startswith("|x|^"):
        return power_functional(float(name[4:]))
    if name == "adversarial":
        from .fixtures import collapse_functional

        return collapse_functional()
    raise ValueError(f"unknown functional {name!r}")


def cmd_pendulum(args) -> int:
    curve = build_infinity_curve(args.r, args.n)  # an odd r raises ParityObstructionError
    print(f"xi = {find_critical_xi(args.r):.12f}")
    rep = closure_report(gauss_from_curve(curve))
    print(
        f"closure: cos integral {rep.cos_integral:.3e}, sin integral "
        f"{rep.sin_integral:.3e}, whitney {rep.whitney}"
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(curve_to_json(curve), out / f"infinity_r{args.r}.json")
    (out / f"infinity_r{args.r}.svg").write_text(curve_svg(curve))
    print(f"wrote {out / f'infinity_r{args.r}.json'} and .svg")
    return EXIT_OK


def cmd_energy(args) -> int:
    diagram = diagram_from_json(load_json(args.input))
    if args.family != "U":
        report = breakdown_to_json(resistance(diagram, args.family, args.delta))
    else:
        e = _functional(args.f)
        g = gauss_from_curve(diagram.curve)
        report = energy_report_json(e.name, energy_uf(g, e), gradient_norm(g, uf_gradient(g, e)), el_residual(g, e))
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_cycles(args) -> int:
    if args.limit < 1:
        raise ValueError(f"--limit must be at least 1, not {args.limit}")
    try:
        if args.grid is not None:
            print(json.dumps({"total": grid_cycle_count(args.grid)}))
            return EXIT_OK
        if args.gstar is not None:
            if not 1 <= args.gstar <= _TABLE_MAX_N:
                raise ValueError(f"n out of supported range 1..{_TABLE_MAX_N}")
            cycles = enumerate_cycles_graph(woven_fragment(args.gstar + 1), max_cycles=args.limit)
            print(json.dumps(census_to_json(cycles)))
            return EXIT_OK
        cycles = enumerate_cycles(diagram_from_json(load_json(args.diagram)), max_cycles=args.limit)
        print(json.dumps(census_to_json(cycles)))
        return EXIT_OK
    except CycleExplosionError as exc:
        print(
            json.dumps({"error": "cycle explosion", "partial": exc.partial_count}),
            file=sys.stderr,
        )
        return EXIT_EXPLOSION


def cmd_relax(args) -> int:
    curve = curve_from_json(load_json(args.curve))
    cfg_obj = load_json(args.config)
    if not isinstance(cfg_obj, dict):
        raise ValueError("flow config must be a JSON object")
    unknown = sorted(set(cfg_obj) - {f.name for f in dataclasses.fields(FlowConfig)})
    if unknown:
        raise ValueError(f"unknown flow config keys {unknown}")
    if "functional" in cfg_obj:
        cfg_obj["functional"] = _functional(cfg_obj["functional"])
    cfg = FlowConfig(**cfg_obj)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    every = max(1, args.keyframe_every or max(1, cfg.max_iters // 10))

    def keyframe(it, c):
        if it % every == 0:
            (outdir / f"frame_{it:06d}.svg").write_text(curve_svg(c))

    trace = relax(curve, cfg, keyframe_cb=keyframe)
    write_trace_jsonl(trace, outdir / "trace.jsonl")
    dump_json(curve_to_json(trace.final_curve), outdir / "final_curve.json")
    (outdir / "final_curve.svg").write_text(curve_svg(trace.final_curve))
    print(
        f"terminated: {trace.terminated} after {len(trace.energies)} iterations; "
        f"events {[ev.kind for ev in trace.events]}"
    )
    if trace.terminated == "forbidden_event":
        return EXIT_FORBIDDEN
    if trace.terminated == "singular":
        return EXIT_SINGULAR
    return EXIT_OK


def cmd_render(args) -> int:
    obj = load_json(args.input)
    spec = RenderSpec(width=args.width, height=args.height, stroke=args.stroke,
                      show_crossings=not args.no_crossings)
    try:
        svg = diagram_svg(diagram_from_json(obj), spec)
    except CodimensionOneError:
        svg = curve_svg(curve_from_json(obj.get("curve", obj)), spec)
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(only=args.only)
    if not results:
        print(f"no checks match group '{args.only}'", file=sys.stderr)
        return EXIT_USAGE
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed))
        return 1
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flatknot",
        description="Uniformization and resistance energies on flat knot diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pendulum", help="build the infinity-shaped critical curve")
    p.add_argument("--r", type=int, required=True, help="even winding count")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_pendulum)

    p = sub.add_parser("energy", help="evaluate an energy on a curve or diagram")
    p.add_argument("input", help="Curve or Diagram JSON path")
    p.add_argument("--family", choices=["U", "RE", "MRE", "GMRE"], default="U")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--f", default="x^2", help="functional for family U (x, x^2, x^4, |x|^a)")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("cycles", help="cycle census of a diagram or lattice")
    p.add_argument("--diagram", help="Diagram or Curve JSON path")
    p.add_argument("--grid", type=int, help="count cycles of the (n+1)x(n+1) grid graph")
    p.add_argument("--gstar", type=int, help="census of the woven lattice G*(n)")
    p.add_argument("--limit", type=int, default=10**7)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("relax", help="run the gradient relaxation flow")
    p.add_argument("curve", help="Curve JSON path")
    p.add_argument("config", help="FlowConfig JSON path")
    p.add_argument("outdir")
    p.add_argument("--keyframe-every", type=int, default=None)
    p.set_defaults(fn=cmd_relax)

    p = sub.add_parser("render", help="render a curve or diagram to SVG")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=640)
    p.add_argument("--stroke", type=float, default=2.0)
    p.add_argument("--no-crossings", action="store_true")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="restrict to a check group")
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    if args.command == "cycles" and args.diagram is None and args.grid is None and args.gstar is None:
        parser.error("cycles needs --diagram, --grid or --gstar")
    try:
        return args.fn(args)
    except (CodimensionOneError, SingularDiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except CycleExplosionError as exc:
        print(f"error: {exc} (partial count {exc.partial_count})", file=sys.stderr)
        return EXIT_EXPLOSION
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

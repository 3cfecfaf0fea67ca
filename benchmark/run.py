"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload relax-eight --seed 1 --seconds 20 --trace 0

With --trace 0 the workload is set up several times and then runs whole
rounds of operations, one after another on one thread, until --seconds
have passed; the end-to-end metrics are printed.  Every timing is
scaled by the speed gauge of speed.py, whose kernel runs between pieces
of work (census items, blocks of flow iterations) outside the timed
pieces; each round, and the set-up tries, are scaled by their own
gauge.  With --trace 1 it runs one round untraced, then one set-up and
one round with the span wrappers of spans.py installed, writes the spans
to benchmark/out/, and prints the per-layer metrics: those of the round,
and under `setup.` those of the set-up.  Every operation's outputs are
checked outside the timed and traced windows.  `correct` is true when
every operation passed its checks and gave the same result in every
round.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # at least; more while SETUP_SECONDS have not passed
SETUP_SECONDS = 3.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Time to import flatknot in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import flatknot; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def setup_seconds(wl, gauge):
    """Median import time plus median set-up time, over at least
    SETUP_REPEATS tries and as many more as fit in SETUP_SECONDS,
    scaled by the gauge read before and after each try."""
    imports, setups = [], []
    t_start = time.perf_counter()
    gauge()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - t_start < SETUP_SECONDS:
        imports.append(import_seconds())
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        gauge()
    return (statistics.median(imports) + statistics.median(setups)) * gauge.scale()


def _check(wl, ops):
    """Check each operation, then keep only what must repeat across rounds."""
    for op in ops:
        if op.error is None:
            try:
                op.error = wl.check(op)
            except Exception:  # a check that cannot be made fails its operation
                op.error = traceback.format_exc(limit=3)
        if op.error is not None:
            print(f"{wl.name}: {op.name} failed: {op.error}", file=sys.stderr)
        op.output = None if op.error else wl.signature(op)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(wl, seconds, gauge_cls):
    setup_s = setup_seconds(wl, gauge_cls())

    rounds, scales = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        gauge = gauge_cls()
        ops = wl.round(gauge)
        _check(wl, ops)
        rounds.append(ops)
        scales.append(gauge.scale())

    walls, op_medians, n_samples = [], [], 0
    for ops, scale in zip(rounds, scales):
        pieces = [p * scale for op in ops for p in op.pieces_ms]
        samples = [sum(pieces[k : k + wl.block]) for k in range(0, len(pieces), wl.block)]
        walls.append(sum(pieces) / 1e3)
        op_medians.append(statistics.median(samples) if samples else 0.0)
        n_samples += len(samples)
    first = [op.output for op in rounds[0]]
    deterministic = all([op.output for op in ops] == first for ops in rounds)
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_ms": _metric(statistics.median(op_medians), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"rounds": len(rounds), "op_samples": n_samples, "slowdown": [round(1 / x, 3) for x in scales]}
    return rounds, deterministic, metrics, info


def run_traced(wl, tracer_cls, stem):
    wl.setup()  # also fills lazy caches, so both windows below start warm

    t0 = time.perf_counter()
    plain = wl.round()
    untraced_s = time.perf_counter() - t0

    with tracer_cls() as tracer:
        wl.setup()
        tracer.next_phase()
        traced = wl.round()
    _check(wl, plain)
    _check(wl, traced)

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{stem}.spans.jsonl", OUT / f"{stem}.totals.json")
    setup, measured = 0, 1
    wall_s = tracer.wall_ns(measured) / 1e9
    metrics = layer_metrics(tracer.layer_totals(measured), wall_s, wall_s - untraced_s, tracer.n_spans(measured))
    metrics.update(setup_metrics(tracer.layer_totals(setup), tracer.wall_ns(setup) / 1e9))
    deterministic = [op.output for op in plain] == [op.output for op in traced]
    return [plain, traced], deterministic, metrics


def _ms(totals, layer):
    return totals[layer]["self_ns"] / 1e6


def setup_metrics(totals, wall_s):
    """The set-up's own split: the layers that make the inputs."""
    m = {
        "setup.wall_s": (wall_s, "s"),
        "setup.diagram.detect.calls": (totals["diagram.detect"]["calls"], "count"),
        "setup.diagram.detect.self_ms": (_ms(totals, "diagram.detect"), "ms"),
        "setup.curve.self_ms": (_ms(totals, "curve"), "ms"),
        "setup.pendulum.self_ms": (_ms(totals, "pendulum"), "ms"),
    }
    return {k: _metric(v, unit) for k, (v, unit) in m.items()}


def layer_metrics(totals, wall_s, overhead_s, n_spans):
    def ms(layer):
        return _ms(totals, layer)

    def calls(layer):
        return totals[layer]["calls"]

    detect, energy, iters = totals["diagram.detect"], totals["diagram.energy"], totals["flow"]["size"]
    m = {
        "diagram.detect.calls": (calls("diagram.detect"), "count"),
        "diagram.detect.self_ms": (ms("diagram.detect"), "ms"),
        "diagram.detect.ms_per_call": (ms("diagram.detect") / detect["calls"] if detect["calls"] else 0.0, "ms"),
        "diagram.detect.calls_per_iter": (detect["calls"] / iters if iters else 0.0, "calls/iter"),
        "flow.self_ms": (ms("flow"), "ms"),
        "flow.iters": (iters, "count"),
        "diagram.cycles.calls": (calls("diagram.cycles"), "count"),
        "diagram.cycles.self_ms": (ms("diagram.cycles"), "ms"),
        "diagram.cycles.cycles": (totals["diagram.cycles"]["size"], "count"),
        "diagram.energy.calls": (calls("diagram.energy"), "count"),
        "diagram.energy.self_ms": (ms("diagram.energy"), "ms"),
        "diagram.energy.kept_ratio": (
            energy["size"] / energy["child_cycles"] if energy["child_cycles"] else 0.0,
            "ratio",
        ),
        "diagram.faces.calls": (calls("diagram.faces"), "count"),
        "diagram.faces.self_ms": (ms("diagram.faces"), "ms"),
        "lattice.calls": (calls("lattice"), "count"),
        "lattice.self_ms": (ms("lattice"), "ms"),
        "uniformization.calls": (calls("uniformization"), "count"),
        "uniformization.self_ms": (ms("uniformization"), "ms"),
        "curve.calls": (calls("curve"), "count"),
        "curve.self_ms": (ms("curve"), "ms"),
        "harness.self_ms": (ms("harness"), "ms"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (n_spans, "count"),
    }
    return {k: _metric(v, unit) for k, (v, unit) in m.items()}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "flatknot" / "__init__.py").is_file():
        print(f"flatknot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        rounds, deterministic, metrics = run_traced(wl, spans.Tracer, stem)
    else:
        rounds, deterministic, metrics, info = run_untraced(wl, args.seconds, speed.Gauge)
        print(json.dumps(info), file=sys.stderr)
    ops = [op for ops in rounds for op in ops]
    failed = sum(op.error is not None for op in ops)
    print(
        json.dumps(
            {
                "correct": deterministic and failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

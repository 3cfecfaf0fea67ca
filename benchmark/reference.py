"""Reference timings of single layers, for the ROADMAP baseline table.

    python3 benchmark/reference.py

Prints the median of repeated calls of `detect_crossings` on the trefoil
at N = 256 .. 4096, of one RE `flow_step` on the trefoil at N = 256,
512 and 1024, and of `gstar_alternated_count(4)` and
`grid_cycle_count(6)`, with one BLAS thread.  Not part of a benchmark
run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flatknot import diagram, fixtures, flow, lattice  # noqa: E402


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), repeats


def main():
    rows = []
    for n in (256, 512, 1024, 2048, 4096):
        c = fixtures.trefoil_curve(n)
        rows.append((f"detect_crossings N={n}", *median_ms(lambda: diagram.detect_crossings(c), 25 if n <= 1024 else 5)))
    cfg = flow.FlowConfig(resistance="RE")
    for n in (256, 512, 1024):
        c = fixtures.trefoil_curve(n)
        d = diagram.detect_crossings(c)
        rows.append((f"RE flow_step N={n}", *median_ms(lambda: flow.flow_step(c, cfg, 1e-4, d), 9 if n <= 512 else 3)))
    rows.append(("gstar_alternated_count(4)", *median_ms(lambda: lattice.gstar_alternated_count(4), 5)))
    rows.append(("grid_cycle_count(6)", *median_ms(lambda: lattice.grid_cycle_count(6), 25)))
    for name, ms, repeats in rows:
        print(f"{name:<28} {ms:10.2f} ms  (median of {repeats})")


if __name__ == "__main__":
    main()

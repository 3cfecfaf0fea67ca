"""Run two sets of benchmark runs of the same code and compare them.

    python3 benchmark/steady.py

For each seed 1..10, each set runs every workload of BENCHMARK.json once,
for its `run_seconds`; the sets take turns, and which set goes first
alternates from seed to seed.  For each end-to-end metric the command
prints, per set, the median and quartiles over the seeds and the spread
(quartile distance over median), then the shift of set 1's median
against set 0's, all next to the metric's bound.  It exits with 1 unless
every spread and every shift is within its bound and every run of a
workload failed the same share of its operations.  The raw results are
written to benchmark/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return {"run_s": time.perf_counter() - t0, **json.loads(proc.stdout.strip().splitlines()[-1])}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: ([], []) for w in workloads}
    for i, seed in enumerate(SEEDS):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **res})
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: {res['run_s']:.1f} s, correct {res['correct']}, "
                      f"failed {res['failed']}/{res['attempted']} {vals}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print()
    for w in workloads:
        runs = results[w][0] + results[w][1]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{w}: correct {correct}, failed share {sorted(shares)}, "
              f"run time median {statistics.median(r['run_s'] for r in runs):.1f} s")
        ok &= correct and len(shares) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in results[w][s]]) for s in (0, 1)]
            shift = stats[1][0] / stats[0][0] - 1
            line = [f"  {name:<12} bound {bound:.2f}"]
            for s, (med, q1, q3, spread) in enumerate(stats):
                line.append(f"set {s}: {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                ok &= spread <= bound
            line.append(f"shift {shift:+.3f}")
            ok &= abs(shift) <= bound
            print("  ".join(line))
    print("within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

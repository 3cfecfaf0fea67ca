"""JSON wire formats.

Curve JSON:    {"points": [[x, y], ...], "length": L}, N >= 8 finite points, finite L > 0
Diagram JSON:  {"curve": CurveJSON, "crossings": [{"pos": [x, y], "over": i, "under": j}]}: ints i and j
               index the over and under passages in the curve's passage order, and
               must be the passage pair of a crossing that detection finds on the
               curve; `pos` is not read back.
Census JSON:   {"counts_by_arcs": {...}, "alternated": k, "total": m}
Energy report: {"functional": name, "value": v, "gradient_norm": n, "el": {...}}
Trace lines:   per iterate {"iter", "U", "R", "gmre", "crossings", "whitney"}, plus
               "grad_norm" where a gradient was taken and "step" (null if stalled),
               "backtracks" and "rejected" (each rejected candidate's reason) where a
               line search ran; then {"event", "iter", "location", "crossing_delta"}.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .curve import ClosedCurve
from .diagram import EnergyBreakdown, KnotDiagram, detect_crossings


def curve_to_json(c: ClosedCurve) -> dict:
    return {"points": c.points.tolist(), "length": c.length}


def curve_from_json(obj: dict) -> ClosedCurve:
    """ValueError unless `points` is a finite (N, 2) array with N >= 8 and
    `length` a finite number > 0."""
    try:
        pts, length = np.asarray(obj["points"], dtype=float), obj["length"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"curve JSON needs points and length: {exc!r}") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 8 or not np.isfinite(pts).all():
        raise ValueError(f"curve points must be a finite (N, 2) array with N >= 8, got shape {pts.shape}")
    if isinstance(length, bool) or not isinstance(length, (int, float)) or not 0 < length < np.inf:
        raise ValueError(f"curve length must be a finite number > 0, got {length!r}")
    return ClosedCurve(pts, float(length))


def diagram_to_json(d: KnotDiagram) -> dict:
    over_under = [c.passages if fo else c.passages[::-1] for c, fo in zip(d.crossings, d.first_over)]
    crossings = [{"pos": c.position.tolist(), "over": o, "under": u} for c, (o, u) in zip(d.crossings, over_under)]
    return {"curve": curve_to_json(d.curve), "crossings": crossings}


def diagram_from_json(obj: dict) -> KnotDiagram:
    """Rebuild a diagram: crossings are re-detected from the curve and the
    stored over/under choices are replayed onto them; on curve JSON (no
    `crossings` key) they keep detect_crossings' labels.  ValueError
    without a curve, for a crossing record without comparable `over` and
    `under`, and unless they are ints (no float or bool) whose unordered
    pairs are those of the detected crossings, each once."""
    if "crossings" not in obj:
        return detect_crossings(curve_from_json(obj))
    if "curve" not in obj:
        raise ValueError("diagram JSON needs a curve")
    d = detect_crossings(curve_from_json(obj["curve"]))
    index = {c.passages: k for k, c in enumerate(d.crossings)}
    try:
        pairs = [(r["over"], r["under"]) for r in obj["crossings"]]
        first_over = {index.get((min(p), max(p))): p[0] < p[1] for p in pairs}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"diagram crossings need over and under passages: {exc!r}") from None
    integral = all(type(i) is int for p in pairs for i in p)  # 0.0 and true find passages 0 and 1
    if not integral or None in first_over or len(first_over) != len(pairs) or len(pairs) != d.n_crossings:
        raise ValueError(f"diagram crossings (over, under) {pairs} do not fit the curve's passage pairs "
                         f"{[c.passages for c in d.crossings]}")
    return d.relabelled(first_over[k] for k in range(d.n_crossings))


def census_to_json(cycles) -> dict:
    counts = Counter(cy.n_arcs for cy in cycles)
    return {
        "counts_by_arcs": {str(k): counts[k] for k in sorted(counts)},
        "alternated": sum(1 for cy in cycles if cy.alternated),
        "total": len(cycles),
    }


def breakdown_to_json(b: EnergyBreakdown) -> dict:
    out = {
        "family": b.family,
        "total": b.total,
        "per_cycle": [[i, v] for i, v in b.per_cycle],
    }
    if b.delta is not None:
        out["delta"] = b.delta
    return out


def energy_report_json(name: str, value: float, grad_norm: float, el) -> dict:
    return {
        "functional": name,
        "value": value,
        "gradient_norm": grad_norm,
        "el": {"c1": el.c1, "c2": el.c2, "rms": el.rms_residual},
    }


def write_trace_jsonl(trace, path) -> None:
    """One line per IterateRecord, then one per event."""
    with open(path, "w") as fh:
        for r in trace.records:
            rec = {"iter": r.iter, "U": r.u, "R": r.r, "gmre": r.gmre, "crossings": r.crossings, "whitney": r.whitney}
            if r.grad_norm is not None:
                rec["grad_norm"] = r.grad_norm
            if r.step is not None or r.rejected:
                rec.update(step=r.step, backtracks=len(r.rejected), rejected=list(r.rejected))
            fh.write(json.dumps(rec) + "\n")
        for ev in trace.events:
            fh.write(
                json.dumps(
                    {
                        "event": ev.kind,
                        "iter": ev.iter,
                        "location": np.asarray(ev.location).tolist(),
                        "crossing_delta": ev.crossing_delta,
                    }
                )
                + "\n"
            )


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")

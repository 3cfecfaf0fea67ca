"""Print one SHA-256 digest per standard output of flatknot, floats
written exactly (float.hex), so two versions of the code that print the
same lines produce the same bits:

- each record, event, ending and final curve of the four reference flows
  behind `flatknot verify`;
- relax of the 256-sample trefoil under RE for 120 iterates, and under
  GMRE (delta = 0.2) for 60;
- relax of the third random immersed curve (seed 77, 256 samples) under
  MRE (delta = 0.2) for 40 iterates, which makes eight R2 events;
- census, RE, MRE and GMRE (delta = 0.2) of twelve random immersed curves
  (seed 77, 256 samples);
- the SVG of the 256-sample trefoil's diagram and of the third of those
  random curves;
- the grid-graph cycle counts G(n) and the woven-lattice alternated counts
  G*(n), n = 1..6.

Usage: python scripts/output_digest.py > digest.txt, on each version, then
diff the two files.
"""

import dataclasses
import hashlib

import numpy as np

from flatknot import verify
from flatknot.diagram import detect_crossings, enumerate_cycles, gmre, mre, resistance_energy
from flatknot.fixtures import random_immersed_curves, trefoil_curve
from flatknot.flow import FlowConfig, relax
from flatknot.lattice import grid_cycle_count, gstar_alternated_count
from flatknot.svg import diagram_svg


def _exact(x):
    """A nested value with every float spelled by float.hex."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return [_exact(v) for v in x.tolist()]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [_exact(getattr(x, f.name)) for f in dataclasses.fields(x) if f.compare]
    if isinstance(x, (list, tuple)):
        return [_exact(v) for v in x]
    return x


def _line(name, value):
    print(f"{hashlib.sha256(repr(_exact(value)).encode()).hexdigest()}  {name}")


def _flow(name, trace):
    _line(f"{name} records", trace.records)
    _line(f"{name} events", trace.events)
    _line(f"{name} ending", trace.terminated)
    _line(f"{name} final curve", trace.final_curve)


for name, run in verify._FLOWS.items():
    _flow(name, run())
_flow("relax trefoil RE", relax(trefoil_curve(256), FlowConfig(resistance="RE", max_iters=120)))
_flow("relax trefoil GMRE", relax(trefoil_curve(256), FlowConfig(resistance="GMRE", delta=0.2, max_iters=60)))
random_curves = random_immersed_curves(12, seed=77, n=256)
_flow("relax random2 MRE", relax(random_curves[2][0], FlowConfig(resistance="MRE", delta=0.2, max_iters=40)))

for k, (_, d) in enumerate(random_curves):
    _line(f"random{k} census", enumerate_cycles(d))
    _line(f"random{k} RE", resistance_energy(d))
    _line(f"random{k} MRE", mre(d, 0.2))
    _line(f"random{k} GMRE", gmre(d, 0.2))

_line("trefoil svg", diagram_svg(detect_crossings(trefoil_curve(256))))
_line("random2 svg", diagram_svg(random_curves[2][1]))
for n in range(1, 7):
    _line(f"G({n})", grid_cycle_count(n))
    _line(f"G*({n})", gstar_alternated_count(n))

"""flatknot: uniformization and resistance energies for flat knots.

Closed plane curves carry the bending-type energies U_f evaluated through
their Gauss representation; knot diagrams carry the resistance energies
RE / MRE / GMRE summed over alternated cycles; the pendulum module builds
the infinity-shaped critical curves from Jacobi elliptic functions; and
the flow module relaxes curves by projected gradient descent while
monitoring Reidemeister events.
"""

from .curve import (
    ClosedCurve,
    ClosureReport,
    GaussRep,
    align_rigid,
    closure_report,
    curve_from_gauss,
    gauss_from_curve,
    hausdorff_distance,
    resample_arclength,
    whitney_index,
)
from .diagram import (
    Crossing,
    DiagramCycle,
    Edge,
    EnergyBreakdown,
    KnotDiagram,
    detect_crossings,
    diagram_faces,
    enumerate_cycles,
    gamma_bound,
    gmre,
    mre,
    resistance_energy,
    shoelace_area,
)
from .errors import (
    CodimensionOneError,
    CycleExplosionError,
    DegeneratePolylineError,
    ModulusRangeError,
    ParityObstructionError,
    SingularDiagramError,
    StalledError,
)
from .flow import (
    FlowConfig,
    FlowEvent,
    FlowTrace,
    IterateRecord,
    classify_event,
    flow_step,
    relax,
)
from .lattice import (
    grid_cycle_count,
    gstar_alternated_count,
    gstar_lower_bound,
    woven_fragment,
)
from .pendulum import (
    EllipticValue,
    PendulumParams,
    build_infinity_curve,
    delta_x,
    elliptic_k,
    find_critical_xi,
    jacobi_sn,
    pendulum_alpha,
)
from .svg import RenderSpec, curve_svg, diagram_svg
from .uniformization import (
    ELResidualReport,
    EnergyFunctional,
    F_X,
    F_X2,
    F_X4,
    discrete_curvature,
    el_residual,
    energy_uf,
    energy_uf_extended,
    gradient_norm,
    power_functional,
    project_closure,
    uf_gradient,
)

__version__ = "0.1.0"

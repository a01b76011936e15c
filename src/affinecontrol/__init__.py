"""Computational toolkit for affine control systems with bounded controls.

Capabilities: exact simulation under piecewise-constant controls, Floquet
data and periodic solutions, hyperbolicity scanning and continuation along
control paths, set-oriented approximation of control sets and chain control
sets, and the projective compactification with its boundary at infinity.
"""

__version__ = "0.1.0"

from .config import Tolerances, DEFAULT_TOLERANCES
from .system import (
    AffineSystem,
    PiecewiseControl,
    AffineVectorField,
    Trajectory,
    BlowUpError,
    lie_bracket,
    larc_rank,
    simulate,
    equilibrium,
)
from .floquet import (
    Monodromy,
    FloquetData,
    Unique,
    AffineFamily,
    Obstructed,
    ContinuationRecord,
    ControlPath,
    ControlSampler,
    principal_matrix,
    floquet_of,
    forced_integral,
    periodic_solution,
    hyperbolicity_scan,
    concat_path,
    continuation,
)
from .reach import (
    BoxGrid,
    BoxSet,
    TransitionGraph,
    build_transition_graph,
    closure,
    control_set_approx,
    chain_components,
    refine,
    is_invariant_in_window,
    MemoryBudgetError,
)
from .projective import (
    ProjPoint,
    SphereGrid,
    InfinityBoundaryReport,
    embed_system,
    proj_metric,
    proj_step,
    embed_point,
    unembed_point,
    lyapunov_estimate,
    infinity_boundary_directions,
    infinity_boundary_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]

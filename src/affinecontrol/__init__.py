"""Computational toolkit for affine control systems with bounded controls.

Capabilities: exact simulation under piecewise-constant controls, Floquet
data and periodic solutions, hyperbolicity scanning and continuation along
control paths, set-oriented approximation of control sets and chain control
sets, and the projective compactification with its boundary at infinity.

`config`, `system` and `floquet` load with the package and need numpy
alone.  `reach` (scipy.sparse, scipy.sparse.csgraph) and `projective`
(scipy.linalg as well) load on first use of one of their names, such as
`affinecontrol.BoxGrid` or `affinecontrol.projective`, so Floquet work
never pays for importing scipy.  A re-exported name is read from its
module on every access and never stored in the package, so the package
name and the module name are always the same object.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

# re-exported name -> the module it is read from on first use
_LAZY = {
    **dict.fromkeys([
        "BoxGrid", "BoxSet", "TransitionGraph", "build_transition_graph", "closure",
        "control_set_approx", "chain_components", "refine", "is_invariant_in_window",
        "MemoryBudgetError",
    ], "reach"),
    **dict.fromkeys([
        "ProjPoint", "SphereGrid", "InfinityBoundaryReport", "embed_system",
        "lyapunov_estimate", "infinity_boundary_directions", "infinity_boundary_chain",
    ], "projective"),
}

__all__ = [
    "config", "system", "floquet", "reach", "projective",
    "Tolerances", "DEFAULT_TOLERANCES",
    "AffineSystem", "PiecewiseControl", "AffineVectorField", "Trajectory", "BlowUpError",
    "lie_bracket", "larc_rank", "simulate", "equilibrium",
    "Monodromy", "FloquetData", "Unique", "AffineFamily", "Obstructed",
    "ContinuationRecord", "ControlPath", "ControlSampler", "principal_matrix",
    "floquet_of", "forced_integral", "periodic_solution", "hyperbolicity_scan",
    "concat_path", "continuation",
    *_LAZY,
]


def __getattr__(name):
    # Only names missing from the package globals get here.  Importing a
    # submodule binds it in the globals, so `reach` and `projective` pass
    # through once; a re-export passes through on every access.
    if name in ("reach", "projective"):
        return _import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

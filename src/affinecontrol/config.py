"""Numerical tolerances and shared defaults.

Every threshold that turns an exact spectral statement into a numerical
decision lives here, so reports can echo the configuration they ran with,
except five fixed slacks that stay in their modules and that no report echoes:

- `system._OMEGA_SLACK = 1e-12`, the relative slack of the control-box test;
- the `1e-10` relative residual below which `system.larc_rank` counts a field
  as inside the span so far (saturation);
- the `1e-14 * period` below which `system.PiecewiseControl._cuts` drops a
  piece as a rounding sliver;
- the `1e-12` modulus below which `projective._canonical_sign` skips an entry
  when it picks a row's sign;
- `projective._WINDOW_SLACK = 1e-12`, added to the clustering radius in
  `projective._single_linkage`'s sorted-window test.
"""

from dataclasses import dataclass, asdict

__all__ = ["Tolerances", "DEFAULT_TOLERANCES", "DEFAULT_MEMORY_CAP", "MAX_EXP_GROWTH"]


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used across the toolkit.

    unit_tol
        A Floquet multiplier rho counts as a unit multiplier when
        |rho - 1| <= unit_tol.
    res_tol
        Relative residual separating a solvable periodic-solution system
        from an obstructed one.
    rank_tol
        Relative singular-value cutoff for Lie-span rank computations.
    eig_tol
        Singular-value cutoff when extracting the eigenspace of the
        monodromy matrix for eigenvalue 1 (nullspace of Phi - I).
    cross_tol
        |det(I - Phi)| below cross_tol * scale is flagged as a crossing
        during continuation.
    level_tol
        |z|-coordinate of a unit representative below this classifies a
        projective point as lying on the level at infinity.
    cluster_tol
        Single-linkage clustering radius (projective metric) of the
        box-center estimator `infinity_boundary_directions` only.  The chain
        estimator matches within two embedded-sphere box diameters.
    kernel_window
        Kernel alignment of periodic initial values is reported when the
        unit-multiplier margin falls below this.
    """

    unit_tol: float = 1e-8
    res_tol: float = 1e-8
    rank_tol: float = 1e-9
    eig_tol: float = 1e-6
    cross_tol: float = 1e-10
    level_tol: float = 1e-6
    cluster_tol: float = 0.1
    kernel_window: float = 0.1

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLERANCES = Tolerances()

# Box-graph construction refuses to allocate beyond this many point-control
# work items; raise the cap explicitly for bigger runs.  `simulate` refuses
# samples whose states and times pass this many words, and a control's
# pieces (`PiecewiseControl._cuts`) a table of more slots.
DEFAULT_MEMORY_CAP = 50_000_000

# Matrix-exponential applications are chunked so that ||M||_F * dt stays
# below this, with renormalization in between (overflow guard).
MAX_EXP_GROWTH = 50.0

# A chunked flow step takes at most this many chunks, so dt ||M||_F may be up
# to 2**16 * MAX_EXP_GROWTH, about 3.3e6; a longer step raises ValueError
# rather than looping for as long as dt is large.
_MAX_EXP_CHUNKS = 2**16

"""Monodromy matrices, Floquet data, periodic solutions, and continuation.

For a periodic piecewise-constant control the period map [[Phi, b], [0, 1]]
is the ordered product of augmented segment exponentials (Van Loan's block
form), so the monodromy, the forced integral, the multipliers and the
periodic-solution trichotomy (unique / affine family / obstructed) come
from closed-form maps rather than an ODE stepper.  Every entry point maps
its controls in one batch, one stacked exponential for all segments.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .system import (
    AffineSystem,
    PiecewiseControl,
    _check_control,
    _segment_maps,
    larc_rank,
)

__all__ = [
    "Monodromy",
    "FloquetData",
    "Unique",
    "AffineFamily",
    "Obstructed",
    "ControlSampler",
    "ScanReport",
    "ControlPath",
    "ContinuationRecord",
    "Crossing",
    "ContinuationResult",
    "EigenSolverError",
    "principal_matrix",
    "floquet_of",
    "forced_integral",
    "periodic_solution",
    "hyperbolicity_scan",
    "concat_path",
    "continuation",
]


class EigenSolverError(RuntimeError):
    """Eigenvalue extraction failed; carries a condition estimate."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class Monodromy:
    """Principal fundamental solution over one period of the control."""

    phi: np.ndarray
    tau: float
    control: PiecewiseControl = field(repr=False, default=None)


@dataclass(frozen=True)
class FloquetData:
    """Multipliers, exponents, and the eigenspace for multiplier one.

    `margin` is min_j |rho_j - 1|; `unit_multiplier` is True when the
    margin falls below the unit tolerance, in which case `unit_eigenspace`
    holds an orthonormal basis (columns) of the nullspace of phi - I.
    """

    multipliers: np.ndarray
    exponents: np.ndarray
    margin: float
    unit_multiplier: bool
    unit_eigenspace: np.ndarray


@dataclass(frozen=True)
class Unique:
    """Exactly one periodic solution; x0 is its initial value."""

    x0: np.ndarray

    @property
    def kind(self) -> str:
        return "unique"


@dataclass(frozen=True)
class AffineFamily:
    """Every point of y0 + span(basis) starts a periodic solution."""

    y0: np.ndarray
    basis: np.ndarray

    @property
    def kind(self) -> str:
        return "affine_family"


@dataclass(frozen=True)
class Obstructed:
    """No periodic solution; residual is the size of the unsolvable component."""

    residual: float

    @property
    def kind(self) -> str:
        return "obstructed"


def _period_maps(sys: AffineSystem, controls) -> tuple[np.ndarray, np.ndarray]:
    """Monodromies Phi (N, n, n) and forced integrals b (N, n) of N controls.

    The augmented segment maps of all controls come from one stacked
    exponential and are multiplied with batched matmul per segment count,
    so no control's result depends on the rest of the batch.  Raises
    EigenSolverError, naming the control, when a map is not finite.
    """
    _check_control(sys, *controls)
    counts = np.array([ctrl.num_segments for ctrl in controls])
    E = _segment_maps(sys, np.concatenate([c.values for c in controls]),
                      np.concatenate([c.durations for c in controls]))
    first = np.cumsum(counts) - counts
    maps = np.empty((len(controls),) + E.shape[1:])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        P = E[first[rows]]
        for j in range(1, k):
            P = E[first[rows] + j] @ P
        maps[rows] = P
    phi, b = maps[:, :-1, :-1], maps[:, :-1, -1]
    finite = np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise EigenSolverError(f"period map of control {i} ({controls[i]}) is not finite",
                               float("inf"))
    return phi, b


def _spectrum(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and margins min_j |rho_j - 1| of a monodromy or a stack of them."""
    try:
        multipliers = np.linalg.eigvals(phi)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("eigenvalue iteration failed on the monodromy",
                               float(np.max(np.linalg.cond(phi)))) from exc
    return multipliers, np.min(np.abs(multipliers - 1.0), axis=-1)


def principal_matrix(sys: AffineSystem, ctrl: PiecewiseControl,
                     t: float, s: float) -> np.ndarray:
    """Fundamental solution Phi(t, s) of dx = A(u(.)) x under the periodic control.

    The period map of the segments covering [s, t], so only their values
    are checked against the box; for t < s the inverse of Phi(s, t).
    """
    if t < s:
        return np.linalg.inv(principal_matrix(sys, ctrl, s, t))
    pieces = list(ctrl.pieces(s, t))
    if not pieces:
        return np.eye(sys.n)
    return _period_maps(sys, [PiecewiseControl.from_segments(pieces)])[0][0]


def floquet_of(sys: AffineSystem, ctrl: PiecewiseControl,
               tolerances: Tolerances = DEFAULT_TOLERANCES,
               ) -> tuple[Monodromy, FloquetData]:
    """Monodromy over one period and the derived Floquet data."""
    tau = ctrl.period
    phi = _period_maps(sys, [ctrl])[0][0]
    multipliers, margin = _spectrum(phi)
    margin = float(margin)
    # exponents lambda_j = (1/tau) log|rho_j|, sorted descending
    with np.errstate(divide="ignore"):
        exponents = np.sort(np.log(np.abs(multipliers)) / tau)[::-1]
    unit = margin <= tolerances.unit_tol
    basis = np.zeros((sys.n, 0))
    if unit:  # orthonormal basis of the numerical nullspace of phi - I
        _, sv, vt = np.linalg.svd(phi - np.eye(sys.n))
        basis = vt[sv <= tolerances.eig_tol * sv.max(initial=1.0)].T.copy()
    data = FloquetData(multipliers=multipliers, exponents=exponents,
                       margin=margin, unit_multiplier=unit,
                       unit_eigenspace=basis)
    return Monodromy(phi, tau, ctrl), data


def forced_integral(sys: AffineSystem, ctrl: PiecewiseControl) -> np.ndarray:
    """The integral of Phi(tau, s) (C u(s) + d) ds over one period.

    Computed exactly as the translation part of the composed augmented
    segment maps, so no quadrature error enters.
    """
    return _period_maps(sys, [ctrl])[1][0]


def _solve(M: np.ndarray, b: np.ndarray, margin: float, tolerances: Tolerances):
    """Trichotomy of the fixed-point system M x = b, where M = I - Phi."""
    if margin > tolerances.unit_tol:
        return Unique(np.linalg.solve(M, b))
    U, sv, vt = np.linalg.svd(M)
    cutoff = tolerances.eig_tol * max(1.0, sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > cutoff))
    coeffs = U.T @ b
    y0 = vt[:rank].T @ (coeffs[:rank] / sv[:rank]) if rank else np.zeros(b.size)
    residual = float(np.linalg.norm(coeffs[rank:]))
    if residual <= tolerances.res_tol * (1.0 + np.linalg.norm(b)):
        return AffineFamily(y0, vt[rank:].T.copy())
    return Obstructed(residual)


def _solution_point(sol):
    """x0 of a Unique, y0 of an AffineFamily, None when obstructed."""
    return getattr(sol, "x0", getattr(sol, "y0", None))


def periodic_solution(sys: AffineSystem, ctrl: PiecewiseControl,
                      tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Classify the periodic solutions for the given periodic control.

    Returns Unique(x0) when no multiplier sits at 1, otherwise solves the
    fixed-point system in the least-squares sense: a small residual means
    an affine family of periodic solutions, a large one means none exist.
    """
    phi, b = _period_maps(sys, [ctrl])
    return _solve(np.eye(sys.n) - phi[0], b[0], float(_spectrum(phi)[1][0]), tolerances)


# --------------------------------------------------------------------- scan

@dataclass(frozen=True)
class ControlSampler:
    """Random periodic control generator for hyperbolicity scans.

    kind: "bang" (values at box corners), "levels" (uniform in the box),
    or "mixed" (alternating).  `include` controls are evaluated before the
    random samples.
    """

    kind: str = "mixed"
    period_range: tuple[float, float] = (0.5, 3.0)
    segments_range: tuple[int, int] = (1, 4)
    include: tuple[PiecewiseControl, ...] = ()

    def sample(self, rng: np.random.Generator, sys: AffineSystem,
               index: int) -> PiecewiseControl:
        tau = rng.uniform(*self.period_range)
        k = int(rng.integers(self.segments_range[0], self.segments_range[1] + 1))
        durations = rng.dirichlet(np.ones(k)) * tau
        bang = self.kind == "bang" or (self.kind == "mixed" and index % 2 == 0)
        if bang:
            pick = rng.integers(0, 2, size=(k, sys.m))
            values = np.where(pick == 0, sys.omega_lo, sys.omega_hi)
        else:
            values = rng.uniform(sys.omega_lo, sys.omega_hi, size=(k, sys.m))
        return PiecewiseControl(values, durations)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a finite hyperbolicity scan.

    verdict is "REFUTED" when some sampled periodic control has a unit
    multiplier within tolerance (witness attached), else "NOT-REFUTED".
    A finite scan can refute hyperbolicity but never certify it.
    """

    count: int
    min_margin: float
    argmin_control: PiecewiseControl
    verdict: str
    witness: PiecewiseControl | None
    margins: np.ndarray
    rank_proxy: int | None
    rank_proxy_full: bool | None

    @property
    def refuted(self) -> bool:
        return self.verdict == "REFUTED"


def hyperbolicity_scan(sys: AffineSystem, sampler: ControlSampler, count: int,
                       seed: int,
                       tolerances: Tolerances = DEFAULT_TOLERANCES) -> ScanReport:
    """Scan periodic controls for unit Floquet multipliers.

    Evaluates the sampler's `include` list first, then `count` random
    samples drawn deterministically from `seed`.  Reports the minimal
    margin, the control attaining it, and the interior-hypothesis proxy
    (full bracket rank at the periodic point of the argmin control).
    """
    rng = np.random.default_rng(seed)
    controls = list(sampler.include)
    controls += [sampler.sample(rng, sys, i) for i in range(count)]
    phi, b = _period_maps(sys, controls)
    margins = _spectrum(phi)[1]
    best = int(np.argmin(margins))
    min_margin = float(margins[best])
    refuted = min_margin <= tolerances.unit_tol
    witness = controls[best] if refuted else None
    # Interior-of-semigroup hypothesis is undecidable here; record the
    # bracket-rank proxy at the periodic point of the extremal control.
    proxy_rank = None
    proxy_full = None
    point = _solution_point(_solve(np.eye(sys.n) - phi[best], b[best], min_margin,
                                   tolerances))
    if point is not None and np.all(np.isfinite(point)):
        proxy_rank = larc_rank(sys, point, rank_tol=tolerances.rank_tol)
        proxy_full = proxy_rank == sys.n
    return ScanReport(count=len(controls), min_margin=min_margin,
                      argmin_control=controls[best],
                      verdict="REFUTED" if refuted else "NOT-REFUTED",
                      witness=witness, margins=margins,
                      rank_proxy=proxy_rank, rank_proxy_full=proxy_full)


# --------------------------------------------------------------------- paths

@dataclass(frozen=True)
class ControlPath:
    """Family alpha -> periodic control interpolating two periodic controls.

    Built as a two-leg concatenation: on [0, 1/2] a growing suffix of the
    second control is appended after the first; on [1/2, 1] the prefix of
    the first control shrinks away in front of the second.  Both legs meet
    at the full concatenation, so the monodromy at alpha = 1/2 is the
    product of the endpoint monodromies.  Periods stay within
    [min(period_u, period_v), period_u + period_v].
    """

    u: PiecewiseControl
    v: PiecewiseControl
    constant: bool = False

    def at(self, alpha: float) -> PiecewiseControl:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.constant:
            return self.u
        sigma = self.u.period
        tau = self.v.period
        if alpha <= 0.5:
            suffix = 2.0 * alpha * tau
            segments = list(self.u.pieces(0.0, sigma)) + self.v.truncated(suffix)
        else:
            prefix = (2.0 - 2.0 * alpha) * sigma
            segments = self.u.truncated(prefix) + list(self.v.pieces(0.0, tau))
        return PiecewiseControl.from_segments(segments)


def concat_path(u: PiecewiseControl, v: PiecewiseControl) -> ControlPath:
    """Path of periodic controls from u to v through their concatenation.

    Identical endpoint controls give the constant path.
    """
    if u.m != v.m:
        raise ValueError("controls have different dimensions")
    return ControlPath(u, v, constant=u.same_as(v))


# --------------------------------------------------------------- continuation

@dataclass(frozen=True)
class ContinuationRecord:
    """State of the periodic-solution problem at one path parameter."""

    alpha: float
    tau: float
    control: PiecewiseControl = field(repr=False)
    det_gap: float
    margin: float
    solution: object
    norm_x: float
    kernel_angle: float
    refined: bool = False


@dataclass(frozen=True)
class Crossing:
    """Unit-multiplier crossing located by bisection on the det gap."""

    alpha: float
    tau: float
    control: PiecewiseControl = field(repr=False)
    margin: float
    det_gap: float
    kernel: np.ndarray
    solution: object


@dataclass(frozen=True)
class ContinuationResult:
    records: list
    crossings: list


def _near_kernel(M: np.ndarray, eig_tol: float) -> np.ndarray:
    """Right singular vectors of M = I - phi at the smallest singular value."""
    _, sv, vt = np.linalg.svd(M)
    if sv.size == 0:
        return np.zeros((M.shape[0], 0))
    cutoff = max(10.0 * sv[-1], eig_tol * max(1.0, sv[0]))
    keep = sv <= cutoff
    return vt[keep].T.copy()


def _sphere_distance(x: np.ndarray, basis: np.ndarray) -> float:
    """Distance of x/||x|| to the unit sphere of span(basis)."""
    nx = np.linalg.norm(x)
    if nx == 0.0 or basis.shape[1] == 0:
        return float("nan")
    xhat = x / nx
    p = basis @ (basis.T @ xhat)
    np_ = np.linalg.norm(p)
    if np_ == 0.0:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(xhat - p / np_))


def _evaluate_path_points(sys, path, alphas, tolerances, refined=False):
    """Continuation records at the alphas, from one batch of period maps."""
    controls = [path.at(alpha) for alpha in alphas]
    phi, b = _period_maps(sys, controls)
    M = np.eye(sys.n) - phi
    records = []
    for alpha, ctrl, Mi, bi, det_gap, margin in zip(
            alphas, controls, M, b, np.linalg.det(M), _spectrum(phi)[1]):
        sol = _solve(Mi, bi, margin, tolerances)
        point = _solution_point(sol)
        norm_x = float(np.linalg.norm(point)) if point is not None else float("nan")
        kernel_angle = float("nan")
        if point is not None and margin <= tolerances.kernel_window:
            kernel_angle = _sphere_distance(point, _near_kernel(Mi, tolerances.eig_tol))
        records.append(ContinuationRecord(
            alpha=float(alpha), tau=ctrl.period, control=ctrl, det_gap=float(det_gap),
            margin=float(margin), solution=sol, norm_x=norm_x,
            kernel_angle=kernel_angle, refined=refined))
    return records


def _bisect_crossing(sys, path, lo, hi, gap_lo, tolerances):
    """Zero of the det gap in [lo, hi], whose sign at lo is that of gap_lo.

    Halves until the midpoint no longer splits [lo, hi] in floating point,
    so a crossing on a mesh node (lo == hi) takes no step.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        phi, _ = _period_maps(sys, [path.at(mid)])
        gap = float(np.linalg.det(np.eye(sys.n) - phi[0]))
        if gap == 0.0:
            lo = hi = mid
        elif np.sign(gap) == np.sign(gap_lo):
            lo, gap_lo = mid, gap
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    ctrl = path.at(alpha)
    phi, b = _period_maps(sys, [ctrl])
    M = np.eye(sys.n) - phi[0]
    margin = float(_spectrum(phi)[1][0])
    return Crossing(alpha=float(alpha), tau=ctrl.period, control=ctrl, margin=margin,
                    det_gap=float(np.linalg.det(M)),
                    kernel=_near_kernel(M, tolerances.eig_tol),
                    solution=_solve(M, b[0], margin, tolerances))


def continuation(sys: AffineSystem, path: ControlPath, steps: int,
                 tolerances: Tolerances = DEFAULT_TOLERANCES,
                 refine_crossings: bool = True,
                 refine_decades: int = 5) -> ContinuationResult:
    """Track the periodic-solution problem along a control path.

    Walks a uniform alpha-mesh recording the det gap det(I - Phi), the
    solution trichotomy, the solution norm, and (near unit multipliers)
    the alignment of the solution direction with the near-kernel, mapping the
    whole mesh in one batch.  Sign changes of the det gap are located by
    bisection until the midpoint no longer splits the bracket in floating
    point (no step for a crossing on a node); around each crossing one more
    batch adds records on a geometric ladder of offsets, which is where
    blow-up of the solution norms becomes visible.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    mesh = np.linspace(0.0, 1.0, steps)
    spacing = 1.0 / (steps - 1)
    records = _evaluate_path_points(sys, path, mesh, tolerances)
    crossings = []
    if not path.constant:
        scale = max(abs(r.det_gap) for r in records) or 1.0
        # nodes already sitting on a zero of the det gap
        node_hits = [r for r in records
                     if abs(r.det_gap) <= tolerances.cross_tol * scale]
        for r in node_hits:
            crossings.append(_bisect_crossing(
                sys, path, r.alpha, r.alpha, r.det_gap, tolerances))
        # strict sign changes away from those nodes
        hit_alphas = [r.alpha for r in node_hits]
        for r0, r1 in zip(records[:-1], records[1:]):
            if any(abs(a - r0.alpha) < 0.5 * spacing
                   or abs(a - r1.alpha) < 0.5 * spacing for a in hit_alphas):
                continue
            if np.sign(r0.det_gap) != np.sign(r1.det_gap):
                crossings.append(_bisect_crossing(
                    sys, path, r0.alpha, r1.alpha, r0.det_gap, tolerances))
        crossings.sort(key=lambda c: c.alpha)
    if refine_crossings and crossings:
        ladder = [a for crossing in crossings for j in range(refine_decades + 1)
                  for a in (crossing.alpha - 0.5 * spacing * 10.0 ** (-j),
                            crossing.alpha + 0.5 * spacing * 10.0 ** (-j))
                  if 0.0 < a < 1.0]
        if ladder:
            records = sorted(records + _evaluate_path_points(
                sys, path, ladder, tolerances, refined=True), key=lambda r: r.alpha)
    return ContinuationResult(records=records, crossings=crossings)

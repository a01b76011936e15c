"""Monodromy matrices, Floquet data, periodic solutions, and continuation.

For a periodic piecewise-constant control the period map [[Phi, b], [0, 1]]
is the ordered product of augmented segment exponentials (Van Loan's block
form), so the monodromy, the forced integral, the multipliers and the
periodic-solution trichotomy (unique / affine family / obstructed) come
from closed-form maps rather than an ODE stepper.  Every entry point maps a
flat batch (values, durations, segment counts), filled directly by the scan's
sampler or a path, through one vectorised exponential of all segments
(`system._expm`, after Higham 2005); the batch format lives here alone.
That exponential works entry-major, each matrix entry one contiguous array
over a slab of segments: its products, Pade quotient (`system._solve_stack`,
a pivoted elimination) and squarings are elementwise across the slab, with
no LAPACK or BLAS call per segment.  Callers that read only the monodromy
(the scan's margins, `floquet_of`, `principal_matrix`, the bisection steps)
exponentiate the n x n generators (`_monodromies`); the augmented maps are
made only where the forced integral is read (`_period_maps`).  For n <= 2
the multipliers of a whole batch come in closed form from the trace and a
discriminant that keeps near-Jordan monodromies accurate
(`_planar_multipliers`), with no LAPACK call per monodromy; larger n go
through `np.linalg.eigvals`.  The sampler draws a batch's random stream in four
bulk calls, so a seed determines the whole batch.  A continuation is held as
columns filled from stacked solves, norms and singular value decompositions;
its records, and the Unique solutions among them, are made on first read.
Controls are made for reports only: a scan's argmin and each crossing at
once, and a record's from the path when it is first read.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .system import (
    AffineSystem,
    PiecewiseControl,
    _check_values,
    _homogeneous_maps,
    _row_norms,
    _segment_maps,
    _whole,
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

_LADDER_DECADES = 5  # continuation's ladder: alpha +- 0.5 spacing 10^-j, j = 0..5


class EigenSolverError(RuntimeError):
    """Eigenvalue extraction failed; carries a condition estimate."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True, eq=False)
class Monodromy:
    """Principal fundamental solution over one period of the control."""

    phi: np.ndarray
    tau: float
    control: PiecewiseControl = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class FloquetData:
    """Multipliers, exponents, and the eigenspace for multiplier one.

    `multipliers` (n,) are the eigenvalues rho_j of the monodromy in
    descending modulus, ties by descending imaginary part (a complex pair
    has its positive one first), then by descending real part; they are
    float64 when every imaginary part is zero, else complex128.
    `exponents` (n,) are log|rho_j| / tau in the same order, so descending.
    `margin` is min_j |rho_j - 1|; `unit_multiplier` is True when the
    margin falls below the unit tolerance, in which case `unit_eigenspace`
    holds an orthonormal basis (columns) of the nullspace of phi - I.
    """

    multipliers: np.ndarray
    exponents: np.ndarray
    margin: float
    unit_multiplier: bool
    unit_eigenspace: np.ndarray


@dataclass(frozen=True, eq=False)
class Unique:
    """Exactly one periodic solution; x0 is its initial value."""

    x0: np.ndarray

    @property
    def kind(self) -> str:
        return "unique"


@dataclass(frozen=True, eq=False)
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


def _flatten(controls) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat batch (values, durations, counts) of a sequence of controls."""
    return (np.concatenate([c.values for c in controls]),
            np.concatenate([c.durations for c in controls]),
            np.array([c.num_segments for c in controls]))


def _control(values, durations, counts, i: int) -> PiecewiseControl:
    """Control i of a flat batch."""
    lo = int(np.sum(counts[:i]))
    return PiecewiseControl(values[lo:lo + counts[i]], durations[lo:lo + counts[i]])


def _compose(E: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Period maps (N, p, p) from the segment maps E (K, p, p) of N controls,
    control i owning the next counts[i] rows: the ordered product, last
    segment leftmost.  Batched matmul per segment count, so no control's
    product depends on the rest of the batch."""
    first = np.cumsum(counts) - counts
    maps = np.empty((counts.size,) + E.shape[1:])
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        P = E[first[rows]]
        for j in range(1, k):
            P = E[first[rows] + j] @ P
        maps[rows] = P
    return maps


def _raise_unless_finite(maps: np.ndarray, values, durations, counts):
    """Raise EigenSolverError naming the first control whose map (N, ...) has
    a non-finite entry."""
    if np.isfinite(maps).all():
        return
    i = int(np.argmin(np.isfinite(maps.reshape(len(maps), -1)).all(axis=1)))
    ctrl = _control(values, durations, counts, i)
    raise EigenSolverError(f"period map of control {i} ({ctrl}) is not finite",
                           float("inf"))


def _monodromies(sys: AffineSystem, values, durations, counts) -> np.ndarray:
    """Monodromies Phi (N, n, n) of the N controls of a flat batch laid out as
    for `_period_maps`, for callers that read no forced integral.

    Composed from one `_expm` of the n x n generators A(u) dt
    (`system._homogeneous_maps`), not of the augmented ones: bit for bit the
    Phi of `_period_maps`.  Raises EigenSolverError, naming the control, when
    a monodromy is not finite; a forced integral that overflows does not
    matter here.
    """
    _check_values(sys, values)
    counts = np.asarray(counts)
    phi = _compose(_homogeneous_maps(sys, values, durations), counts)
    _raise_unless_finite(phi, values, durations, counts)
    return phi


def _period_maps(sys: AffineSystem, values, durations, counts
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Monodromies Phi (N, n, n) and forced integrals b (N, n) of N controls,
    control i being the next counts[i] rows of values (K, m) and durations (K,).

    The augmented segment maps of all controls come from one stacked
    exponential and are multiplied with batched matmul per segment count,
    so no control's result depends on the rest of the batch.  Only callers
    that read b use them: continuation records, a crossing,
    `periodic_solution`, `forced_integral`.  Raises EigenSolverError, naming
    the control, when Phi or b is not finite.
    """
    _check_values(sys, values)
    maps = _compose(_segment_maps(sys, values, durations), np.asarray(counts))[:, :-1]
    _raise_unless_finite(maps, values, durations, counts)
    return maps[:, :, :-1], maps[:, :, -1]


def _planar_multipliers(phi: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., n) of monodromies (..., n, n), n = 1 or 2, in closed form.

    For n = 1 the multiplier is phi itself.  For n = 2 each slice
    [[a, b], [c, d]] is first divided by 2**e, the power of two that takes its
    largest entry into [1/2, 1) (exactly, by `np.ldexp`), so nothing below
    overflows or loses bits to underflow.  With p = (a - d)/2 and
    disc = p**2 + b c, a real pair (disc >= 0) is a + b c / z and
    d - b c / z for z = p + sign(p) sqrt(disc), larger first, and a complex
    pair is (a + d)/2 +- i sqrt(-disc), positive imaginary part first; both
    are multiplied back by 2**e.  On a near-Jordan slice [[1, b], [c, 1]]
    this discriminant is b c alone, where (trace/2)**2 - det would subtract
    two numbers near 1 and lose b c to rounding; it is the sum LAPACK's
    2 x 2 standardisation (dlanv2) forms.  Each real multiplier is a
    diagonal entry moved by b c / z, whose z adds two terms of one sign, so
    a triangular slice gives its diagonal exactly, as LAPACK does, where
    (a + d)/2 - |p| would lose a small entry to cancellation against a
    large one.  As `np.linalg.eigvals` does, the result is float64 when
    every imaginary part is zero, else complex.  A non-finite slice gives
    inf or NaN there, with no warning.
    """
    if phi.shape[-1] == 1:
        return phi[..., 0].copy()
    entries = [phi[..., i, j] for i in (0, 1) for j in (0, 1)]
    power = np.frexp(reduce(np.maximum, map(np.abs, entries)))[1]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        a, b, c, d = (np.ldexp(entry, -power) for entry in entries)
        p = 0.5 * (a - d)
        bc = b * c
        disc = p * p + bc
        root = np.sqrt(np.abs(disc))
        complex_pair = disc < 0.0
        z = p + np.copysign(root, p)
        shift = bc / np.where(z == 0.0, 1.0, z)  # z = 0 only where p = b c = 0
        half = 0.5 * (a + d)
        pair = [np.where(complex_pair, half, np.maximum(a + shift, d - shift)),
                np.where(complex_pair, half, np.minimum(a + shift, d - shift))]
        real = np.ldexp(np.stack(pair, axis=-1), power[..., None])
        imag = np.ldexp(np.where(complex_pair, root, 0.0), power)
    if not np.any(imag):
        return real
    multipliers = real.astype(complex)
    multipliers.imag = np.stack([imag, -imag], axis=-1)
    return multipliers


def _spectrum(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and margins min_j |rho_j - 1| of a monodromy (n, n) or a stack
    (k, n, n) of them.  For n <= 2 the multipliers come in closed form
    (`_planar_multipliers`), with no LAPACK call per monodromy; for larger n
    from `np.linalg.eigvals`.  Either way they are float64 when every
    imaginary part is zero, else complex, and each row is in the order its
    solver gives (`floquet_of` sorts its one row)."""
    if phi.shape[-1] in (1, 2):
        multipliers = _planar_multipliers(phi)
    else:
        try:
            multipliers = np.linalg.eigvals(phi)
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError("eigenvalue iteration failed on the monodromy",
                                   float(np.max(np.linalg.cond(phi)))) from exc
    # a column minimum, bit for bit np.min(..., axis=-1) without its short-axis reduction
    distance = np.abs(multipliers - 1.0)
    margins = distance[..., 0]
    for j in range(1, distance.shape[-1]):
        margins = np.minimum(margins, distance[..., j])
    return multipliers, margins


def principal_matrix(sys: AffineSystem, ctrl: PiecewiseControl,
                     t: float, s: float) -> np.ndarray:
    """Fundamental solution Phi(t, s) of dx = A(u(.)) x under the periodic control.

    The monodromy (`_monodromies`, no forced integral) of the segments
    covering [s, t], so only their values are checked against the box; for
    t < s the inverse of Phi(s, t).
    """
    if t < s:
        return np.linalg.inv(principal_matrix(sys, ctrl, s, t))
    pieces = list(ctrl.pieces(s, t))
    if not pieces:
        return np.eye(sys.n)
    return _monodromies(sys, *_flatten([PiecewiseControl.from_segments(pieces)]))[0]


def floquet_of(sys: AffineSystem, ctrl: PiecewiseControl,
               tolerances: Tolerances = DEFAULT_TOLERANCES,
               ) -> tuple[Monodromy, FloquetData]:
    """Monodromy over one period and the derived Floquet data.

    The monodromy comes from the n x n generators alone (`_monodromies`): no
    augmented map is made, so a forced integral that overflows does not
    matter.
    """
    tau = ctrl.period
    phi = _monodromies(sys, *_flatten([ctrl]))[0]
    multipliers, margin = _spectrum(phi)
    margin = float(margin)
    multipliers = multipliers[np.lexsort((-multipliers.real, -multipliers.imag,
                                          -np.abs(multipliers)))]
    # exponents lambda_j = (1/tau) log|rho_j|, descending with the moduli
    with np.errstate(divide="ignore"):
        exponents = np.log(np.abs(multipliers)) / tau
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
    segment maps (`_period_maps`), so no quadrature error enters.
    """
    return _period_maps(sys, *_flatten([ctrl]))[1][0]


def _solutions(M: np.ndarray, b: np.ndarray, margins: np.ndarray,
               tolerances: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Trichotomy of the fixed-point systems M x = b (M = I - Phi) of a batch:
    (points, solutions).  Rows whose margin exceeds `unit_tol` are Unique, from
    one stacked solve; the others are solved by least squares through the SVD.
    `points` holds x0 or y0 per row, NaN where the row is Obstructed;
    `solutions` holds the AffineFamily or Obstructed of each row that is not
    Unique, and None for a Unique row, whose x0 is its row of `points`
    (`_solution` makes the object)."""
    unique = margins > tolerances.unit_tol
    points = np.full(b.shape, np.nan)
    points[unique] = np.linalg.solve(M[unique], b[unique][..., None])[..., 0]
    solutions = np.full(margins.size, None, dtype=object)
    for i in np.flatnonzero(~unique):
        U, sv, vt = np.linalg.svd(M[i])
        cutoff = tolerances.eig_tol * max(1.0, sv[0] if sv.size else 1.0)
        rank = int(np.sum(sv > cutoff))
        coeffs = U.T @ b[i]
        y0 = vt[:rank].T @ (coeffs[:rank] / sv[:rank]) if rank else np.zeros(b.shape[1])
        residual = float(np.linalg.norm(coeffs[rank:]))
        if residual <= tolerances.res_tol * (1.0 + np.linalg.norm(b[i])):
            solutions[i] = AffineFamily(y0, vt[rank:].T.copy())
            points[i] = y0
        else:
            solutions[i] = Obstructed(residual)
    return points, solutions


def _solution(points: np.ndarray, solutions: np.ndarray, i: int):
    """The solution object of row i of `_solutions`' (points, solutions)."""
    return Unique(points[i]) if solutions[i] is None else solutions[i]


def periodic_solution(sys: AffineSystem, ctrl: PiecewiseControl,
                      tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Classify the periodic solutions for the given periodic control.

    Returns Unique(x0) when no multiplier sits at 1, otherwise solves the
    fixed-point system in the least-squares sense: a small residual means
    an affine family of periodic solutions, a large one means none exist.
    """
    phi, b = _period_maps(sys, *_flatten([ctrl]))
    return _solution(*_solutions(np.eye(sys.n) - phi, b, _spectrum(phi)[1], tolerances), 0)


# --------------------------------------------------------------------- scan

@dataclass(frozen=True)
class ControlSampler:
    """Random periodic control generator for hyperbolicity scans.

    kind: "bang" (values at box corners), "levels" (uniform in the box),
    or "mixed" (alternating).  `include` controls are evaluated before the
    random samples.  Samples are drawn a batch at a time (`sample_batch`),
    so an rng state determines the whole batch rather than each sample on
    its own.  `segments_range` takes whole numbers (3.0 is stored as 3).
    """

    kind: str = "mixed"
    period_range: tuple[float, float] = (0.5, 3.0)
    segments_range: tuple[int, int] = (1, 4)
    include: tuple[PiecewiseControl, ...] = ()

    def __post_init__(self):
        k0, k1 = _whole(self.segments_range, "segments_range").tolist()
        object.__setattr__(self, "segments_range", (k0, k1))
        p0, p1 = self.period_range
        if self.kind not in ("bang", "levels", "mixed"):
            raise ValueError(f"kind must be 'bang', 'levels' or 'mixed', got {self.kind!r}")
        if not 0.0 < p0 <= p1 < np.inf:
            raise ValueError(f"period_range needs 0 < low <= high < inf, got {(p0, p1)}")
        if not 1 <= k0 <= k1:
            raise ValueError(f"segments_range needs 1 <= low <= high, got {(k0, k1)}")

    def sample(self, rng: np.random.Generator, sys: AffineSystem,
               index: int) -> PiecewiseControl:
        """The one-sample batch `sample_batch(rng, sys, 1, start=index)`; `index`
        sets only the bang/levels parity of a "mixed" sampler."""
        values, durations, _ = self.sample_batch(rng, sys, 1, start=index)
        return PiecewiseControl(values, durations)

    def sample_batch(self, rng: np.random.Generator, sys: AffineSystem, count: int,
                     start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Samples start, ..., start + count - 1 as a flat (values, durations, counts).

        A sample splits a period uniform in period_range by Dirichlet(1, ..., 1)
        weights into k segments, valued at box corners ("bang") or uniformly
        in the box ("levels"); for "mixed", sample start + i is bang when
        start + i is even.  The batch reads the rng's stream in four bulk
        calls, whatever `count` is: `random(count)` for the periods,
        `integers(k0, k1 + 1, count)` for the segment counts,
        `standard_exponential(K)` for the Dirichlet weights of all K segments
        (normalised by their sum in segment order) and `random((K, m))` for
        the values, a corner coordinate being the box's low end below 0.5.
        So the seed determines the whole batch: sample i of a batch is not
        the one-sample batch drawn from the same seed.
        """
        index = np.arange(start, start + count)
        bang = (self.kind == "bang") | ((self.kind == "mixed") & (index % 2 == 0))
        (lo, hi), (k0, k1) = self.period_range, self.segments_range
        uniform = rng.random(count)
        counts = rng.integers(k0, k1 + 1, count)
        owner = np.repeat(np.arange(count), counts)
        gammas = rng.standard_exponential(owner.size)
        draws = rng.random((owner.size, sys.m))
        total = np.bincount(owner, weights=gammas, minlength=count)  # sums in segment order
        durations = gammas * (1.0 / total)[owner] * (lo + (hi - lo) * uniform)[owner]
        values = np.where(bang[owner, None],
                          np.where(draws < 0.5, sys.omega_lo, sys.omega_hi),
                          sys.omega_lo + (sys.omega_hi - sys.omega_lo) * draws)
        return values, durations, counts


@dataclass(frozen=True, eq=False)
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

    The margins come from the monodromies alone (`_monodromies`); only the
    argmin control gets an augmented period map, for its periodic point.
    `rank_proxy` is None when that point is not finite: obstructed, or a
    forced integral that overflows.  `count` and `seed` are whole numbers
    (3.0 is taken as 3): ValueError for 2.5 or NaN, TypeError for None.
    Raises ValueError for a negative `count` or when there is no control
    to scan.
    """
    count = int(_whole(count, "count"))
    seed = int(_whole(seed, "seed"))
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0 and not sampler.include:
        raise ValueError("the scan has no controls: count is 0 and the "
                         "sampler's include list is empty")
    batch = sampler.sample_batch(np.random.default_rng(seed), sys, count)
    if sampler.include:
        include = _flatten(sampler.include)
        _check_values(sys, include[0])
        batch = [np.concatenate(p) for p in zip(include, batch)]
    margins = _spectrum(_monodromies(sys, *batch))[1]
    best = int(np.argmin(margins))
    min_margin = float(margins[best])
    refuted = min_margin <= tolerances.unit_tol
    argmin_control = _control(*batch, best)
    witness = argmin_control if refuted else None
    # Interior-of-semigroup hypothesis is undecidable here; record the
    # bracket-rank proxy at the periodic point of the extremal control.  A
    # forced integral that overflows leaves no point, but raises no error.
    proxy_rank = proxy_full = point = None
    try:
        phi, b = _period_maps(sys, *_flatten([argmin_control]))
        point = _solutions(np.eye(sys.n) - phi, b, margins[best:best + 1], tolerances)[0][0]
    except EigenSolverError:
        pass
    if point is not None and np.all(np.isfinite(point)):  # not obstructed, no overflow
        proxy_rank = larc_rank(sys, point, rank_tol=tolerances.rank_tol)
        proxy_full = proxy_rank == sys.n
    return ScanReport(count=margins.size, min_margin=min_margin,
                      argmin_control=argmin_control,
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
    [min(period_u, period_v), period_u + period_v].  Identical endpoint
    controls give the constant path.
    """

    u: PiecewiseControl
    v: PiecewiseControl

    def __post_init__(self):
        if self.u.m != self.v.m:
            raise ValueError("controls have different dimensions")

    @property
    def constant(self) -> bool:
        return self.u.same_as(self.v)

    def segments(self, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The controls at the alphas as one flat (values, durations, counts); both
        endpoints are cut for all alphas at once, as `pieces` cuts them for one."""
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        u, v, a = self.u, self.v, alphas.size
        if self.constant:
            k = u.num_segments
            return np.tile(u.values, (a, 1)), np.tile(u.durations, a), np.full(a, k)
        first, twice = alphas <= 0.5, 2.0 * alphas
        su, tu, ku = u._cuts(0.0, np.where(first, u.period, (2.0 - twice) * u.period))
        sv, tv, kv = v._cuts(0.0, np.where(first, twice * v.period, v.period))
        kept = np.hstack([ku, kv])
        rows, slots = np.nonzero(kept)
        values = np.concatenate([u.values[su], v.values[sv]])
        return values[slots], np.hstack([tu, tv])[rows, slots], kept.sum(axis=1)

    def at(self, alpha: float) -> PiecewiseControl:
        values, durations, _ = self.segments([alpha])
        return self.u if self.constant else PiecewiseControl(values, durations)


def concat_path(u: PiecewiseControl, v: PiecewiseControl) -> ControlPath:
    """Path of periodic controls from u to v through their concatenation.

    Identical endpoint controls give the constant path.
    """
    return ControlPath(u, v)


# --------------------------------------------------------------- continuation

@dataclass(frozen=True, eq=False)
class ContinuationRecord:
    """State of the periodic-solution problem at one path parameter; its
    `control`, `path.at(alpha)`, is made on first read, and `tau` is its period."""

    alpha: float
    path: ControlPath = field(repr=False)
    det_gap: float
    margin: float
    solution: object
    norm_x: float
    kernel_angle: float
    refined: bool = False

    @cached_property
    def control(self) -> PiecewiseControl:
        return self.path.at(self.alpha)

    @property
    def tau(self) -> float:
        return self.control.period


@dataclass(frozen=True, eq=False)
class Crossing:
    """Unit-multiplier crossing located by bisection on the det gap."""

    alpha: float
    tau: float
    control: PiecewiseControl = field(repr=False)
    margin: float
    det_gap: float
    kernel: np.ndarray
    solution: object


_COLUMNS = ("alphas", "det_gaps", "margins", "points", "norms", "kernel_angles",
            "refined", "solutions")


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    """A continuation along `path`, held as columns, one row per record in
    alpha order: alphas, det gaps det(I - Phi), margins, solution points
    (N, n) (x0 or y0, NaN where obstructed), their norms, kernel angles and
    refined flags.  `solutions` holds the AffineFamily or Obstructed of the
    few rows that are not Unique, None for a Unique row, whose x0 is its row
    of `points`.  The rows come from augmented period maps (`_period_maps`),
    which the records read b from; the bisection steps toward a crossing use
    monodromies alone, the crossing itself the augmented map.

    `records`, the list of `ContinuationRecord`s with their Unique solutions,
    is made from the columns on first read and kept; `continuation` itself
    makes none.
    """

    path: ControlPath = field(repr=False)
    alphas: np.ndarray
    det_gaps: np.ndarray
    margins: np.ndarray
    points: np.ndarray
    norms: np.ndarray
    kernel_angles: np.ndarray
    refined: np.ndarray
    solutions: np.ndarray = field(repr=False)
    crossings: list = field(default_factory=list)

    @cached_property
    def records(self) -> list:
        x0 = self.points.copy()  # the Unique solutions do not share the column
        return [ContinuationRecord(alpha, self.path, det_gap, margin,
                                   Unique(x) if sol is None else sol, nx, angle, refined)
                for alpha, det_gap, margin, sol, x, nx, angle, refined in zip(
                    self.alphas.tolist(), self.det_gaps.tolist(), self.margins.tolist(),
                    self.solutions.tolist(), x0, self.norms.tolist(),
                    self.kernel_angles.tolist(), self.refined.tolist())]


def _kernel_size(sv: np.ndarray, eig_tol: float) -> np.ndarray:
    """How many of the descending singular values sv (or rows of them) sit
    at the smallest: those within max(10 sv_min, eig_tol max(1, sv_max))."""
    cutoff = np.maximum(10.0 * sv[..., -1:], eig_tol * np.maximum(1.0, sv[..., :1]))
    return np.sum(sv <= cutoff, axis=-1)


def _near_kernel(M: np.ndarray, eig_tol: float) -> np.ndarray:
    """Right singular vectors of M = I - phi at the smallest singular value."""
    _, sv, vt = np.linalg.svd(M)
    return vt[M.shape[0] - _kernel_size(sv, eig_tol):].T.copy()


def _evaluate_path_points(sys, path, alphas, tolerances, refined=False
                          ) -> ContinuationResult:
    """The columns of the continuation records at the alphas, as a result
    without crossings, from one batch of augmented period maps.

    Solutions, norms and kernel angles come from stacked array calls over
    the batch, bit for bit the values that `np.linalg.norm` and
    `_near_kernel` give one record at a time; only the rare non-Unique rows
    of `_solutions` take a loop, and no record object is made.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    phi, b = _period_maps(sys, *path.segments(alphas))
    M = np.eye(sys.n) - phi
    margins = _spectrum(phi)[1]
    points, solutions = _solutions(M, b, margins, tolerances)
    norm_x = _row_norms(points)
    # kernel angles: the distance of x/|x| to the unit sphere of the span of
    # the right singular vectors of M at its smallest singular values, a
    # trailing block of vt; rows keeping k of them share one (n, k) basis
    # shape, so their products take the BLAS calls of the one-record form
    kernel_angle = np.full(margins.size, np.nan)
    window = np.flatnonzero((norm_x > 0.0) & (margins <= tolerances.kernel_window))
    _, sv, vt = np.linalg.svd(M[window])
    kept = _kernel_size(sv, tolerances.eig_tol)
    xhat = points[window] / norm_x[window, None]
    for k in np.unique(kept):
        rows = np.flatnonzero(kept == k)
        basis = np.ascontiguousarray(vt[rows, sys.n - k:].transpose(0, 2, 1))
        p = (basis @ (basis.transpose(0, 2, 1) @ xhat[rows, :, None]))[..., 0]
        norm_p = _row_norms(p)
        with np.errstate(invalid="ignore", divide="ignore"):
            kernel_angle[window[rows]] = np.where(
                norm_p == 0.0, np.sqrt(2.0), _row_norms(xhat[rows] - p / norm_p[:, None]))
    return ContinuationResult(path, alphas, np.linalg.det(M), margins, points, norm_x,
                              kernel_angle, np.full(alphas.size, refined), solutions)


def _merged(a: ContinuationResult, b: ContinuationResult) -> ContinuationResult:
    """The rows of a and b in alpha order, a's first among equal alphas."""
    order = np.argsort(np.concatenate([a.alphas, b.alphas]), kind="stable")
    return ContinuationResult(a.path, **{name: np.concatenate(
        [getattr(a, name), getattr(b, name)])[order] for name in _COLUMNS})


def _bisect_crossing(sys, path, lo, hi, gap_lo, tolerances):
    """Zero of the det gap in [lo, hi], whose sign at lo is that of gap_lo.

    Halves until the midpoint no longer splits [lo, hi] in floating point,
    so a crossing on a mesh node (lo == hi) takes no step.  A step reads
    only the monodromy (`_monodromies`); the crossing gets its augmented map.
    """
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        phi = _monodromies(sys, *path.segments([mid]))
        gap = float(np.linalg.det(np.eye(sys.n) - phi[0]))
        if gap == 0.0:
            lo = hi = mid
        elif np.sign(gap) == np.sign(gap_lo):
            lo, gap_lo = mid, gap
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    ctrl = path.at(alpha)
    phi, b = _period_maps(sys, *_flatten([ctrl]))
    M = np.eye(sys.n) - phi
    margins = _spectrum(phi)[1]
    return Crossing(alpha=float(alpha), tau=ctrl.period, control=ctrl,
                    margin=float(margins[0]), det_gap=float(np.linalg.det(M[0])),
                    kernel=_near_kernel(M[0], tolerances.eig_tol),
                    solution=_solution(*_solutions(M, b, margins, tolerances), 0))


def continuation(sys: AffineSystem, path: ControlPath, steps: int,
                 tolerances: Tolerances = DEFAULT_TOLERANCES) -> ContinuationResult:
    """Track the periodic-solution problem along a control path.

    Walks a uniform alpha-mesh recording the det gap det(I - Phi), the
    solution trichotomy, the solution norm, and (near unit multipliers)
    the alignment of the solution direction with the near-kernel, mapping the
    whole mesh in one batch.  Sign changes of the det gap are located by
    bisection until the midpoint no longer splits the bracket in floating
    point (no step for a crossing on a node); one more batch adds the
    records at alpha +- 0.5 spacing 10^-j around each crossing, j = 0..5,
    that lie in (0, 1), flagged `refined` and merged in alpha order.  That
    ladder is where blow-up of the solution norms becomes visible.

    The result holds the records as columns; its `records` list is made on
    first read.  `steps` is a whole number (41.0 is taken as 41): ValueError
    for 40.5 or NaN, TypeError for None.
    """
    steps = int(_whole(steps, "steps"))
    if steps < 2:
        raise ValueError("steps must be >= 2")
    mesh = np.linspace(0.0, 1.0, steps)
    spacing = 1.0 / (steps - 1)
    result = _evaluate_path_points(sys, path, mesh, tolerances)
    crossings = []
    if not path.constant:
        gaps = result.det_gaps
        # nodes already sitting on a zero of the det gap, and strict sign
        # changes between two nodes that are not; event 2i is node i, event
        # 2i + 1 the pair (i, i + 1), so event order is alpha order
        events = np.zeros(2 * gaps.size - 1, dtype=bool)
        events[::2] = np.abs(gaps) <= tolerances.cross_tol * (np.abs(gaps).max() or 1.0)
        events[1::2] = ((np.sign(gaps[:-1]) != np.sign(gaps[1:]))
                        & ~events[:-1:2] & ~events[2::2])
        for i, pair in zip(*np.divmod(np.flatnonzero(events), 2)):
            crossings.append(_bisect_crossing(
                sys, path, float(mesh[i]), float(mesh[i + pair]), float(gaps[i]),
                tolerances))
    if crossings:
        ladder = [a for crossing in crossings for j in range(_LADDER_DECADES + 1)
                  for a in (crossing.alpha - 0.5 * spacing * 10.0 ** (-j),
                            crossing.alpha + 0.5 * spacing * 10.0 ** (-j))
                  if 0.0 < a < 1.0]
        if ladder:
            result = _merged(result, _evaluate_path_points(
                sys, path, ladder, tolerances, refined=True))
    return replace(result, crossings=crossings)

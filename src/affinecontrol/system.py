"""Affine control systems with box-bounded controls and exact simulation.

The model class is

    dx/dt = A(u) x + C u + d,      A(u) = A + sum_i u_i B_i,

with piecewise-constant controls taking values in an axis-aligned box
containing 0.  Because controls are constant on segments, trajectories are
propagated exactly: each segment map is read off the exponential of the
augmented (n+1) x (n+1) matrix [[A(u), Cu+d], [0, 0]].
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import factorial

import numpy as np

from .config import DEFAULT_TOLERANCES, DEFAULT_MEMORY_CAP

__all__ = [
    "AffineSystem",
    "PiecewiseControl",
    "AffineVectorField",
    "Trajectory",
    "BlowUpError",
    "lie_bracket",
    "larc_rank",
    "simulate",
    "segment_map",
    "equilibrium",
]

# Relative slack when testing containment of control values in the box.
_OMEGA_SLACK = 1e-12
# [13/13] Pade coefficients (26 - k)! / (k! (13 - k)!) of exp, and the largest
# 1-norm at which that approximant is accurate to double precision (Higham 2005).
_PADE13 = [float(factorial(26 - k) // factorial(k) // factorial(13 - k)) for k in range(14)]
_THETA13 = 5.371920351148152
# entries per slab of `_expm` (2048 slices of 2 x 2), bounding its entry-major
# temporaries; the largest, a product's terms, holds p times a slab
_EXPM_SLAB = 8192


class BlowUpError(RuntimeError):
    """State left the representable range during simulation.

    Carries the last finite state and the time at which it was recorded.
    """

    def __init__(self, message: str, last_state: np.ndarray, time: float):
        super().__init__(message)
        self.last_state = np.asarray(last_state, dtype=float)
        self.time = float(time)


def _whole(value, name: str) -> np.ndarray:
    """`value` as int64, or ValueError naming `name` unless every entry is a
    whole number that fits in int64; TypeError for None.  Signed integers
    skip the check, and int64 input comes back uncopied."""
    raw = np.asarray(value)  # an int in 2**63..2**64 - 1 is uint64, a larger one object
    if raw.dtype.kind == "i":
        return raw.astype(np.int64, copy=False)
    try:
        with np.errstate(invalid="ignore"):  # NaN, inf and the out-of-range cast to garbage
            whole = raw.astype(np.int64)
    except OverflowError:  # an object array's Python int outside int64
        whole = None
    if whole is None or not np.array_equal(whole, raw):
        if all(isinstance(x, int) or isinstance(x, float) and x.is_integer()
               for x in raw.ravel().tolist()):
            raise ValueError(f"{name} must fit in int64, got {value!r}")
        raise ValueError(f"{name} must be whole, got {value!r}")
    return whole


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X, each bit for bit `np.linalg.norm(row)`."""
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """System data: matrices A, B_1..B_m, columns c_1..c_m, drift d, control box.

    Attributes
    ----------
    A : (n, n) array
    B : (m, n, n) array, one matrix per control channel
    C : (n, m) array whose columns multiply the control linearly
    d : (n,) array, constant drift
    omega_lo, omega_hi : (m,) arrays, per-channel control bounds with
        omega_lo <= 0 <= omega_hi
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    d: np.ndarray
    omega_lo: np.ndarray
    omega_hi: np.ndarray

    def __post_init__(self):
        A = _readonly(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        B = np.array(self.B, dtype=float)
        if B.ndim == 2:
            B = B[None, :, :]
        if B.ndim != 3 or B.shape[1:] != (n, n):
            raise ValueError(f"B must have shape (m, {n}, {n}), got {B.shape}")
        m = B.shape[0]
        C = np.array(self.C, dtype=float).reshape(n, m)
        d = np.array(self.d, dtype=float).reshape(n)
        lo = np.array(self.omega_lo, dtype=float).reshape(m)
        hi = np.array(self.omega_hi, dtype=float).reshape(m)
        for name, arr in (("A", A), ("B", B), ("C", C), ("d", d),
                          ("omega_lo", lo), ("omega_hi", hi)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(lo > 0.0) or np.any(hi < 0.0):
            raise ValueError("control box must contain 0 (omega_lo <= 0 <= omega_hi)")
        if np.any(lo >= hi) and not np.allclose(lo, hi):
            raise ValueError("control box must satisfy omega_lo < omega_hi")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", _readonly(B))
        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "d", _readonly(d))
        object.__setattr__(self, "omega_lo", _readonly(lo))
        object.__setattr__(self, "omega_hi", _readonly(hi))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]

    def system_matrix(self, u) -> np.ndarray:
        """A(u) = A + sum_i u_i B_i."""
        u = self._check_u(u)
        return self.A + np.tensordot(u, self.B, axes=(0, 0))

    def forcing(self, u) -> np.ndarray:
        """Inhomogeneous term C u + d."""
        u = self._check_u(u)
        return self.C @ u + self.d

    def rhs(self, x, u) -> np.ndarray:
        """Right-hand side A(u) x + C u + d."""
        x = np.asarray(x, dtype=float).reshape(self.n)
        return self.system_matrix(u) @ x + self.forcing(u)

    def generators(self) -> list["AffineVectorField"]:
        """Vector fields f_0(x) = Ax + d and f_i(x) = B_i x + c_i."""
        fields = [AffineVectorField(self.A, self.d)]
        for i in range(self.m):
            fields.append(AffineVectorField(self.B[i], self.C[:, i]))
        return fields

    def homogeneous(self) -> "AffineSystem":
        """The bilinear part: same A, B, omega, with C and d zeroed."""
        return AffineSystem(self.A, self.B, np.zeros((self.n, self.m)),
                            np.zeros(self.n), self.omega_lo, self.omega_hi)

    def _check_u(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float).reshape(-1)
        _check_values(self, u[None, :])
        return u


@dataclass(frozen=True, eq=False)
class PiecewiseControl:
    """Piecewise-constant control, extended periodically.

    `values` is (k, m), `durations` is (k,) with positive entries; the
    period is the total duration, which must be finite, and evaluation at
    time t uses t modulo the period.  `==` and `hash` go by identity;
    `same_as` compares values.
    """

    values: np.ndarray
    durations: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        durations = np.array(self.durations, dtype=float).reshape(-1)
        if values.shape[0] != durations.shape[0] or values.shape[0] == 0:
            raise ValueError("need one value per duration, and at least one segment")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(durations)):
            raise ValueError("control segments must be finite")
        if np.any(durations <= 0.0):
            raise ValueError("segment durations must be positive")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, raised on below
            if not np.sum(durations) < np.inf:
                raise ValueError("the period, the sum of the durations, overflows")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "durations", _readonly(durations))

    @classmethod
    def constant(cls, u, period: float = 1.0) -> "PiecewiseControl":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(u[None, :], np.array([float(period)]))

    @classmethod
    def from_segments(cls, segments) -> "PiecewiseControl":
        vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v, _ in segments]
        durs = [float(t) for _, t in segments]
        return cls(np.stack(vals), np.array(durs))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def num_segments(self) -> int:
        return self.values.shape[0]

    @cached_property
    def period(self) -> float:
        return float(np.sum(self.durations))

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.durations)

    def value_at(self, t: float) -> np.ndarray:
        """The value at time t; ValueError unless t is finite."""
        if not np.isfinite(t):
            raise ValueError("control times must be finite")
        phase = float(t) % self.period
        idx = int(np.searchsorted(self._cumulative, phase, side="right"))
        idx = min(idx, self.num_segments - 1)
        return self.values[idx]

    def pieces(self, s: float, t: float):
        """Maximal constant pieces of the periodic extension covering [s, t].

        Yields (value, duration) in time order; requires s <= t.  Slivers
        shorter than 1e-14 * period (rounding at boundaries) are dropped.
        """
        if t < s:
            raise ValueError("pieces requires s <= t")
        segment, take, kept = self._cuts(s, [float(t - s)])
        for j in np.flatnonzero(kept[0]):
            yield self.values[segment[j]], float(take[0, j])

    def _cuts(self, s: float, lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`pieces(s, s + L)` for all L of lengths (a,) at once: the segment of each
        slot (J,), and the slot durations and kept (not sliver) flags (a, J).
        Raises ValueError unless s and every length are finite, and, before
        the first slot, when a bound on a × J from the longest length passes
        `DEFAULT_MEMORY_CAP` words."""
        remaining = np.array(lengths, dtype=float)
        if not (np.isfinite(s) and np.all(np.isfinite(remaining))):
            raise ValueError("control times must be finite")
        # a partial period, then at most L / period + 1 periods of num_segments slots
        with np.errstate(over="ignore"):
            slots = (remaining.max(initial=0.0) / self.period + 2.0) * self.num_segments
        if remaining.size * slots > DEFAULT_MEMORY_CAP:
            raise ValueError(f"{remaining.size} time span(s) of up to {remaining.max():g} "
                             f"at period {self.period:g} take about {slots:.3g} control pieces "
                             f"each, past the cap of {DEFAULT_MEMORY_CAP} words")
        tiny = 1e-14 * self.period
        phase = float(s) % self.period
        first = min(int(np.searchsorted(self._cumulative, phase, side="right")),
                    self.num_segments - 1)
        left = self._cumulative[first] - phase
        takes, kept = [], []
        while np.any(active := remaining > tiny):
            take = np.minimum(left, remaining)
            takes.append(take)
            kept.append(active & (take > tiny))
            remaining = np.where(active, remaining - take, remaining)
            left = self.durations[(first + len(takes)) % self.num_segments]
        shape = (len(takes), remaining.size)
        return ((first + np.arange(len(takes))) % self.num_segments,
                np.array(takes, dtype=float).reshape(shape).T,
                np.array(kept, dtype=bool).reshape(shape).T)

    def shifted(self, s: float) -> "PiecewiseControl":
        """The control t -> u(t + s), again as a periodic segment list."""
        segs = list(self.pieces(s, s + self.period))
        return PiecewiseControl.from_segments(segs)

    def same_as(self, other: "PiecewiseControl") -> bool:
        return (self.values.shape == other.values.shape
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.durations, other.durations))


@dataclass(frozen=True, eq=False)
class AffineVectorField:
    """The vector field x -> M x + a."""

    M: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        M = _readonly(self.M)
        a = _readonly(np.asarray(self.a, dtype=float).reshape(-1))
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != a.shape[0]:
            raise ValueError("matrix and offset dimensions are inconsistent")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.n)
        return self.M @ x + self.a

    def coefficients(self) -> np.ndarray:
        """Flattened (matrix, offset) coordinates; brackets are linear in these."""
        return np.concatenate([self.M.ravel(), self.a])

    def flow(self, x, t: float) -> np.ndarray:
        """Exact time-t flow map, via the augmented exponential (`_augmented_expm`)."""
        aug = np.block([[self.M, self.a[:, None]], [np.zeros(self.n + 1)]])
        E = _augmented_expm(float(t) * aug[None])[0]
        x = np.asarray(x, dtype=float).reshape(self.n)
        return E[:-1, :-1] @ x + E[:-1, -1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: strictly increasing times and the states at them."""

    times: np.ndarray
    states: np.ndarray
    control: PiecewiseControl = field(repr=False, default=None)

    def __post_init__(self):
        times = _readonly(np.asarray(self.times, dtype=float).reshape(-1))
        states = _readonly(np.atleast_2d(np.asarray(self.states, dtype=float)))
        if times.shape[0] != states.shape[0]:
            raise ValueError("one state per sample time required")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def lie_bracket(X: AffineVectorField, Y: AffineVectorField) -> AffineVectorField:
    """Bracket of affine fields: [X, Y](x) = -(MN - NM) x - (M b - N a).

    Here X(x) = M x + a and Y(x) = N x + b.
    """
    if X.n != Y.n:
        raise ValueError("fields live in different dimensions")
    M, a = X.M, X.a
    N, b = Y.M, Y.a
    return AffineVectorField(-(M @ N - N @ M), -(M @ b - N @ a))


def equilibrium(sys: AffineSystem, u) -> np.ndarray:
    """Solve A(u) x = -(C u + d); requires A(u) invertible."""
    return np.linalg.solve(sys.system_matrix(u), -sys.forcing(u))


def larc_rank(sys: AffineSystem, x, max_depth: int | None = None,
              rank_tol: float = DEFAULT_TOLERANCES.rank_tol) -> int:
    """Rank at x of the bracket closure of the system's vector fields.

    Fields are generated by repeatedly bracketing the generators with the
    current span (left-normed brackets), stopping at `max_depth` nesting
    or once the span of field coefficients saturates.  The returned value
    is the numerical rank of the stacked evaluations at x.
    """
    max_depth = 2 * sys.n if max_depth is None else int(_whole(max_depth, "max_depth"))
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    generators = sys.generators()
    # Orthonormal basis of field-coefficient space tracks saturation.
    basis: list[np.ndarray] = []

    def try_add(f: AffineVectorField) -> bool:
        w = f.coefficients()
        scale = np.linalg.norm(w)
        if scale == 0.0:
            return False
        for b in basis:
            w = w - np.dot(b, w) * b
        if np.linalg.norm(w) <= 1e-10 * scale:
            return False
        basis.append(w / np.linalg.norm(w))
        return True

    fields: list[AffineVectorField] = []
    current: list[AffineVectorField] = []
    for depth in range(max_depth):  # the generators, then brackets with the last survivors
        candidates = ([lie_bracket(g, h) for g in generators for h in current]
                      if depth else generators)
        current = [f for f in candidates if try_add(f)]
        if not current:
            break
        fields += current

    if not fields:
        return 0
    x = np.asarray(x, dtype=float).reshape(sys.n)
    evals = np.stack([f(x) for f in fields])
    sv = np.linalg.svd(evals, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def _solve_stack(W: np.ndarray) -> np.ndarray:
    """Solutions X (p, r, k) of A X = B for the k slices of a working array
    W = [A | B] (p, p + r, k), in the entry-major layout of `_expm`: slice i
    is W[:, :, i].

    Gaussian elimination with partial pivoting, each step one multiply and
    one subtract on whole rows of all slices.  Each slice takes its own
    pivot, the first entry of largest modulus in its column (the tie rule of
    LAPACK's idamax), and every operation is elementwise across the stack,
    so slice i ignores the rest of the stack, bit for bit.  W is overwritten
    and X is a view of it; a singular or non-finite slice gives inf or NaN
    there alone, with no warning.
    """
    p = W.shape[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(p - 1):
            # row j trades places with each later row whose entry is larger
            # in modulus than all before it, so it ends up with the first largest
            size = np.abs(W[j:, j])
            best = size[0]
            for i in range(1, p - j):
                larger = size[i] > best
                pair = W[j:j + i + 1:i, j:]  # rows j and j + i
                pair[...] = np.where(larger, pair[::-1], pair)
                best = np.where(larger, size[i], best)
            W[j + 1:, j + 1:] -= (W[j + 1:, j] / W[j, j])[:, None] * W[j, j + 1:]
        X = W[:, p:]
        for j in range(p - 1, 0, -1):  # back substitution, column by column
            X[j] /= W[j, j]
            X[:j] -= W[:j, j, None] * X[j]
        X[0] /= W[0, 0]
    return X


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Products A_i B_i (p, r, k) of stacks A (p, q, k) and B (q, r, k) in the
    entry-major layout of `_expm`, slice i at [:, :, i]: one multiply of the
    terms A[a, l] B[l, b] (p, q, r, k), then their sum over l, added in order
    l = 0, ..., q - 1, so each slice ignores the rest of the stack, bit for bit."""
    terms = A[:, :, None] * B
    product = terms[:, 0].copy()  # not a view, which would hold all the terms
    for l in range(1, A.shape[1]):
        product += terms[:, l]
    return product


def _one_norms(A: np.ndarray) -> np.ndarray:
    """1-norms (k,) of an entry-major stack A (p, q, k), slice i at A[:, :, i]:
    the bits of `np.abs(A).sum(axis=0).max(axis=0)` from adds of rows and
    `np.maximum` of columns, with no reduction over a short axis."""
    with np.errstate(over="ignore"):
        column = reduce(np.add, np.abs(A))
    return reduce(np.maximum, column)


def _log2_ceil(x: np.ndarray) -> np.ndarray:
    """max(0, ceil(log2(x))) of x >= 0, exactly; 0 where x is not finite."""
    frac, exp = np.frexp(np.where(np.isfinite(x), x, 0.0))
    return np.maximum(exp - (frac == 0.5), 0)


def _scaled(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scaling step of `_expm` for an entry-major stack A (p, p, k), slice i
    at A[:, :, i]: (A_i 2**-s_i, s, bad), laid out as A,
    s_i = max(0, ceil(log2(||A_i||_1 / theta_13))) (`_one_norms`) and bad
    marking the slices of non-finite 1-norm, which get s = 0 and NaN in place
    of A_i.  2**-s is a normal number for every finite norm (s <= 1022), so
    the one multiply by it rounds as `np.ldexp(A, -s)` does, bit for bit.
    """
    norm = _one_norms(A)
    bad = ~np.isfinite(norm)
    s = _log2_ceil(norm / _THETA13)
    return A * np.where(bad, np.nan, np.exp2(-s)), s, bad


def _expm(X: np.ndarray) -> np.ndarray:
    """Exponentials of a stack X (k, p, p): scaling and squaring with the [13/13]
    Pade approximant (Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179), in slabs.

    A slab is transposed once on the way in and once on the way out; in
    between it is entry-major, (p, p, k) with slice i at [:, :, i], so every
    entry is one contiguous array over the slab.  Slice i is scaled by
    2**-s_i, s_i from its own 1-norm (`_scaled`), and squared s_i times, so
    it ignores the rest of the stack.  The scaling, the products
    (`_matmul`), the Pade polynomial, the quotient (`_solve_stack`) and the
    squarings are elementwise across the slab, with no LAPACK or BLAS call
    per slice.  Slabs of about `_EXPM_SLAB` entries (at least one
    slice) bound the temporaries.  A non-finite slice gives NaN and an
    overflowing one inf or NaN, with no warning or exception.
    """
    b, out, p = _PADE13, np.empty(X.shape), X.shape[-1]
    eye = np.eye(p)[:, :, None]
    slab = max(1, _EXPM_SLAB // p ** 2)
    for lo in range(0, X.shape[0], slab):
        A, s, bad = _scaled(np.ascontiguousarray(X[lo:lo + slab].transpose(1, 2, 0)))
        W = np.empty((p, 2 * p, A.shape[-1]))
        with np.errstate(over="ignore", invalid="ignore"):
            A2 = _matmul(A, A)
            A4 = _matmul(A2, A2)
            A6 = _matmul(A4, A2)
            U = _matmul(A, _matmul(A6, b[13] * A6 + b[11] * A4 + b[9] * A2)
                        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
            V = (_matmul(A6, b[12] * A6 + b[10] * A4 + b[8] * A2)
                 + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
            np.subtract(V, U, out=W[:, :p])
            np.add(V, U, out=W[:, p:])
            R = _solve_stack(W)
            for j in range(s.max()):
                squared = np.flatnonzero(s > j)
                Rj = R.take(squared, axis=2)
                R[:, :, squared] = _matmul(Rj, Rj)
        R[:, :, bad] = np.nan
        out[lo:lo + slab] = R.transpose(2, 0, 1)
    return out


def _system_matrices(sys: AffineSystem, values) -> np.ndarray:
    """A(u) = A + sum_i u_i B_i (k, n, n) of control values (k, m)."""
    return sys.A + np.einsum("ki,ijl->kjl", values, sys.B)


def _augmented_expm(aug: np.ndarray) -> np.ndarray:
    """`_expm` of a stack aug (k, n+1, n+1) of generators [[X_i, f_i], [0, 0]],
    written to: f_i enters as f_i 2**-k_i, k_i the least k >= 0 with
    |f_i|_1 2**-k <= max(||X_i||_1, theta_13), and the last column, linear in
    f_i, is multiplied by 2**k_i after.  The generator then scales as X_i and
    its zero last row adds only zeros, so the G block is `_expm(X)` bit for
    bit at any f.  An entry of f_i far below its largest one loses bits in
    f_i 2**-k_i (it may underflow to 0); on the rows where one does, the
    last column of an unscaled `_expm` of [[X_i, lost_i], [0, 0]] is added,
    lost_i = f_i - (f_i 2**-k_i) 2**k_i exactly, which the linearity in f_i
    allows.  A last column past the float range is inf, with no warning.
    """
    n = aug.shape[-1] - 1
    size = _one_norms(aug[:, :n, n:].transpose(1, 2, 0))
    big = np.flatnonzero(size > _THETA13)  # k_i = 0 elsewhere
    if big.size == 0:
        return _expm(aug)
    matrix = _one_norms(aug[big, :n, :n].transpose(1, 2, 0))
    power = np.exp2(_log2_ceil(size[big] / np.maximum(matrix, _THETA13)))
    forcing = aug[big, :n, n]
    aug[big, :n, n] = forcing / power[:, None]
    # f 2**-k times 2**k is exact, so the difference is the lost part
    # exactly; an infinite f, whose k is 0, loses nothing
    with np.errstate(invalid="ignore"):
        lost = np.where(np.isfinite(forcing), forcing - aug[big, :n, n] * power[:, None], 0.0)
    E = _expm(aug)
    with np.errstate(over="ignore"):
        E[big, :n, n] *= power[:, None]
    lossy = np.any(lost != 0.0, axis=1)
    if lossy.any():
        rest = aug[big[lossy]]
        rest[:, :n, n] = lost[lossy]
        E[big[lossy], :n, n] += _expm(rest)[:, :n, n]
    return E


def _segment_maps(sys: AffineSystem, values, durations) -> np.ndarray:
    """Augmented segment maps [[G, h], [0, 1]] (k, n+1, n+1) of values (k, m), durations (k,).

    `_augmented_expm` of the generators [[A(u), Cu+d], [0, 0]] dt, so G is
    `_homogeneous_maps` bit for bit; it treats every slice on its own, so a
    row's map ignores the other rows.  A generator that overflows gives a
    non-finite map, with no warning.
    """
    n = sys.n
    aug = np.zeros((values.shape[0], n + 1, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        aug[:, :n, :n] = _system_matrices(sys, values)
        aug[:, :n, n] = np.einsum("ki,ji->kj", values, sys.C) + sys.d
        aug *= np.asarray(durations, dtype=float).reshape(-1, 1, 1)
    return _augmented_expm(aug)


def _homogeneous_maps(sys: AffineSystem, values, durations) -> np.ndarray:
    """The linear parts G (k, n, n) of the segment maps: one `_expm` of the
    generators A(u) dt, without the forcing column of `_segment_maps`."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = _system_matrices(sys, values) * np.asarray(durations, dtype=float).reshape(-1, 1, 1)
    return _expm(X)


def segment_map(sys: AffineSystem, u, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine flow map over a constant-control segment.

    Returns (G, h) with x(dt) = G x(0) + h, read off the exponential of
    the augmented matrix [[A(u), Cu+d], [0, 0]].  dt may be negative.
    """
    E = _segment_maps(sys, sys._check_u(u)[None, :], float(dt))[0]
    return E[:-1, :-1], E[:-1, -1]


def _check_values(sys: AffineSystem, values: np.ndarray):
    """Raise ValueError unless every row of the (k, m) control values has the
    system's control dimension and lies in the control box, up to a slack."""
    if values.shape[-1] != sys.m:
        raise ValueError(
            f"control dimension {values.shape[-1]} does not match system ({sys.m})")
    width = np.maximum(1.0, sys.omega_hi - sys.omega_lo)
    inside = np.all((values >= sys.omega_lo - _OMEGA_SLACK * width)
                    & (values <= sys.omega_hi + _OMEGA_SLACK * width), axis=-1)
    if not np.all(inside):
        raise ValueError(
            f"control value {values[np.argmin(inside)]} lies outside the control box")


def simulate(sys: AffineSystem, ctrl: PiecewiseControl, x0, t: float,
             sample_step: float | None = None) -> Trajectory:
    """Exact trajectory of the affine system from x0 over [0, t] (or [t, 0]).

    Per-segment propagation through the augmented exponentials of all
    pieces, from one `_segment_maps` call; samples are placed at segment
    boundaries plus, when `sample_step` is given, at interior points at most
    that far apart.  `sample_step` must be positive; None or inf places no
    interior samples; ValueError, before any exponential, when the states
    and times of the samples would pass `DEFAULT_MEMORY_CAP` words.  Negative
    t runs time in reverse through the inverses of the segment maps; the
    returned sample times are always increasing, so the state at time t sits
    at index -1 for t > 0 and at index 0 for t < 0.

    Raises BlowUpError when the state stops being finite; the error
    carries the last finite state.
    """
    _check_values(sys, ctrl.values)
    if sample_step is not None and not sample_step > 0:  # True for NaN
        raise ValueError("sample_step must be positive or None")
    x = np.asarray(x0, dtype=float).reshape(sys.n)
    t = float(t)
    if t == 0.0:
        return Trajectory(np.array([0.0]), x[None, :], ctrl)

    backward = t < 0.0
    horizon = abs(t)
    if backward:
        # Walk the pieces of [t, 0] in reverse order with negated durations.
        piece_list = [(u, -dt) for u, dt in ctrl.pieces(t, 0.0)][::-1]
    else:
        piece_list = list(ctrl.pieces(0.0, t))

    subs = np.ones(len(piece_list))
    if sample_step is not None:
        with np.errstate(over="ignore"):  # an inf count is caught below
            subs = np.maximum(1.0, np.ceil(np.abs([dt for _, dt in piece_list]) / sample_step))
    samples = 1.0 + subs.sum()
    if samples * (sys.n + 1) > DEFAULT_MEMORY_CAP:
        raise ValueError(f"sample_step {sample_step} over {horizon:g} makes {samples:.3g} "
                         f"samples of {sys.n} states and a time, past the cap of "
                         f"{DEFAULT_MEMORY_CAP} words")
    subs = subs.astype(np.int64).tolist()
    # one stacked exponential maps every piece, each as its own segment_map would
    maps = _segment_maps(sys, np.array([u for u, _ in piece_list]).reshape(-1, sys.m),
                         [dt / n_sub for (_, dt), n_sub in zip(piece_list, subs)])
    times = [0.0]
    states = [x.copy()]
    clock = 0.0
    for (_, dt), n_sub, E in zip(piece_list, subs, maps):
        G, h = E[:-1, :-1], E[:-1, -1]
        for _ in range(n_sub):
            with np.errstate(over="ignore", invalid="ignore"):
                x = G @ x + h
            clock += dt / n_sub
            if not np.all(np.isfinite(x)):
                raise BlowUpError(
                    f"state overflowed at time {clock:+.6g}",
                    states[-1], times[-1])
            times.append(clock)
            states.append(x.copy())
    times = np.array(times)
    states = np.stack(states)
    # Accumulated clock may differ from t in the last ulp; pin the endpoint.
    times[-1] = -horizon if backward else horizon
    if backward:
        times = times[::-1]
        states = states[::-1]
    return Trajectory(times, states, ctrl)

"""Flat control batches against the one-control code they replace.

The scan's sampler and a path's controls are filled as flat (values,
durations, counts) arrays, and continuation records and periodic solutions
are computed from stacked arrays.  The references below build one control
or one record at a time: the sampler's bulk stream (four draws per batch)
split control by control, the sequential-subtraction `pieces` loop,
`ControlPath.at` assembled from those pieces, the one-system trichotomy
`_solve` and its `_solution_point`, and the per-record continuation loop
with its `_near_kernel`/`_sphere_distance` helpers, kept here verbatim as
`reference_*` functions.
Every comparison is bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinecontrol import floquet
from affinecontrol.config import DEFAULT_TOLERANCES, Tolerances
from affinecontrol.floquet import (
    AffineFamily,
    ContinuationRecord,
    ControlSampler,
    Obstructed,
    Unique,
    _evaluate_path_points,
    _period_maps,
    _spectrum,
    concat_path,
    continuation,
    hyperbolicity_scan,
    periodic_solution,
)
from affinecontrol.system import AffineSystem, PiecewiseControl

from conftest import damped_oscillator_system, random_control, symmetric_coupling_system


def reference_batch(sampler, rng, sys, count, start=0):
    """The bulk stream, one control at a time: the batch's four draws, then
    each control from its own share of them, its weights summed in order."""
    (lo, hi), (k0, k1) = sampler.period_range, sampler.segments_range
    uniform = rng.random(count)
    counts = rng.integers(k0, k1 + 1, count)
    gammas = rng.standard_exponential(int(np.sum(counts)))
    draws = rng.random((int(np.sum(counts)), sys.m))
    controls, first = [], 0
    for i, k in enumerate(counts):
        weights, picks = gammas[first:first + k], draws[first:first + k]
        first += k
        total = 0.0
        for w in weights:
            total += w
        durations = weights * (1.0 / total) * (lo + (hi - lo) * uniform[i])
        index = start + i
        if sampler.kind == "bang" or (sampler.kind == "mixed" and index % 2 == 0):
            values = np.where(picks < 0.5, sys.omega_lo, sys.omega_hi)
        else:
            values = sys.omega_lo + (sys.omega_hi - sys.omega_lo) * picks
        controls.append(PiecewiseControl(values, durations))
    return controls


def reference_pieces(ctrl, s, t):
    tau = ctrl.period
    tiny = 1e-14 * tau
    remaining = float(t - s)
    if remaining <= tiny:
        return
    phase = float(s) % tau
    cum = np.cumsum(ctrl.durations)
    idx = min(int(np.searchsorted(cum, phase, side="right")), ctrl.num_segments - 1)
    left_in_seg = cum[idx] - phase
    while remaining > tiny:
        take = min(left_in_seg, remaining)
        if take > tiny:
            yield ctrl.values[idx], float(take)
        remaining -= take
        idx = (idx + 1) % ctrl.num_segments
        left_in_seg = ctrl.durations[idx]


def reference_at(path, alpha):
    if path.constant:
        return path.u
    sigma, tau = path.u.period, path.v.period
    if alpha <= 0.5:
        segments = (list(reference_pieces(path.u, 0.0, sigma))
                    + list(reference_pieces(path.v, 0.0, 2.0 * alpha * tau)))
    else:
        segments = (list(reference_pieces(path.u, 0.0, (2.0 - 2.0 * alpha) * sigma))
                    + list(reference_pieces(path.v, 0.0, tau)))
    return PiecewiseControl.from_segments(segments)


def assert_same(ctrl, values, durations):
    assert ctrl.values.dtype == values.dtype and ctrl.durations.dtype == durations.dtype
    assert np.array_equal(ctrl.values, values)
    assert np.array_equal(ctrl.durations, durations)


def split(values, durations, counts):
    ends = np.cumsum(counts)
    return [(values[e - k:e], durations[e - k:e]) for k, e in zip(counts, ends)]


# ------------------------------------------------------------------ sampler

def box_system(m, seed):
    box = np.random.default_rng(1000 + seed)
    lo, hi = -box.uniform(0.0, 2.0, size=m), box.uniform(0.1, 2.0, size=m)
    return AffineSystem(np.eye(2), np.zeros((m, 2, 2)), np.zeros((2, m)), np.zeros(2),
                        lo, hi)


@pytest.mark.parametrize("kind", ["bang", "levels", "mixed"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sample_batch_is_the_one_control_draws(kind, m):
    # each control of a batch is the reference's control built on its own
    # from its share of the batch's bulk draws
    for seed in range(51):
        sys = box_system(m, seed)
        sampler = ControlSampler(kind=kind, period_range=(0.3, 2.9), segments_range=(1, 5))
        start = seed % 3
        batch = sampler.sample_batch(np.random.default_rng(seed), sys, 9, start=start)
        assert batch[2].dtype.kind == "i"
        expected = reference_batch(sampler, np.random.default_rng(seed), sys, 9, start)
        assert len(expected) == batch[2].size
        for ctrl, (values, durations) in zip(expected, split(*batch)):
            assert_same(ctrl, values, durations)
        values, durations, _ = sampler.sample_batch(np.random.default_rng(seed), sys, 1,
                                                    start=start)
        (one,) = reference_batch(sampler, np.random.default_rng(seed), sys, 1, start)
        assert_same(one, values, durations)


def test_scan_controls_are_the_one_control_draws():
    sys = damped_oscillator_system()
    sampler = ControlSampler()
    report = hyperbolicity_scan(sys, sampler, 300, seed=5)
    controls = reference_batch(sampler, np.random.default_rng(5), sys, 300)
    best = int(np.argmin(report.margins))
    assert_same(controls[best], report.argmin_control.values,
                report.argmin_control.durations)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["bang", "levels", "mixed"]), st.integers(1, 3),
       st.integers(0, 40), st.integers(0, 5), st.integers(0, 2**32 - 1),
       st.floats(0.05, 4.0), st.floats(0.0, 4.0), st.integers(1, 4), st.integers(0, 6))
def test_sample_batch_properties(kind, m, count, start, seed, p0, dp, k0, dk):
    sys = box_system(m, seed % 97)
    sampler = ControlSampler(kind=kind, period_range=(p0, p0 + dp),
                             segments_range=(k0, k0 + dk))
    values, durations, counts = sampler.sample_batch(
        np.random.default_rng(seed), sys, count, start=start)
    assert counts.shape == (count,) and np.all((counts >= k0) & (counts <= k0 + dk))
    assert values.shape == (np.sum(counts), m) and durations.shape == (np.sum(counts),)
    assert np.all(durations > 0.0)
    # the periods are the batch's first draw, in range up to the rounding
    # of lo + (hi - lo) * u
    lo, hi = sampler.period_range
    periods = lo + (hi - lo) * np.random.default_rng(seed).random(count)
    assert np.all((periods >= lo) & (periods <= hi + np.spacing(hi)))
    for i, (v, d) in enumerate(split(values, durations, counts)):
        # k weights over their rounded sum, times the period, then summed:
        # at most about 2k + 3 roundings of the period's size
        assert abs(np.sum(d) - periods[i]) <= (2 * d.size + 3) * np.spacing(periods[i])
        assert np.all((v >= sys.omega_lo) & (v <= sys.omega_hi))
        if kind == "bang" or (kind == "mixed" and (start + i) % 2 == 0):
            assert np.all((v == sys.omega_lo) | (v == sys.omega_hi))


class CountingRng:
    """A Generator whose method calls are counted."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_sample_batch_draws_per_batch_not_per_control():
    sys, sampler = damped_oscillator_system(), ControlSampler()
    calls = []
    for count in (10, 4000):
        rng = CountingRng(np.random.default_rng(0))
        sampler.sample_batch(rng, sys, count)
        calls.append(rng.calls)
    assert calls[0] == calls[1] > 0


def test_scan_and_continuation_build_few_controls(monkeypatch):
    built = []
    post_init = PiecewiseControl.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    sys, sampler = damped_oscillator_system(), ControlSampler()
    path = concat_path(PiecewiseControl.constant([-0.8], 1.0),
                       PiecewiseControl.from_segments([([0.3], 0.4), ([0.9], 0.5)]))
    monkeypatch.setattr(PiecewiseControl, "__post_init__", counting)
    hyperbolicity_scan(sys, sampler, 500, seed=0)
    assert len(built) <= 2
    built.clear()
    result = continuation(sys, path, steps=101)
    assert len(result.records) == 101 and not result.crossings
    assert len(built) <= 1


# ------------------------------------------------------------------ paths

@st.composite
def controls(draw, m):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_control(rng, m=m, segments=draw(st.integers(1, 5)),
                          period_range=(0.1, 5.0))


def near(x, ulps=3):
    """x and its neighbours up to `ulps` floating-point steps away."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def sliver_alphas(path):
    """Alphas whose cut lands on a segment boundary of an endpoint, or one
    sliver tolerance past it, and their floating-point neighbours."""
    u, v = path.u, path.v
    cuts = []
    for boundary in np.cumsum(v.durations)[:-1]:
        for length in (boundary, boundary + 1e-14 * v.period):
            cuts += near(length / (2.0 * v.period))
    for boundary in np.cumsum(u.durations)[:-1]:
        for length in (boundary, boundary + 1e-14 * u.period):
            cuts += near(1.0 - length / (2.0 * u.period))
    return [a for a in cuts if 0.0 <= a <= 1.0]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(controls(m), controls(m))),
       st.lists(st.floats(0.0, 1.0), max_size=5))
def test_path_segments_are_the_pieces_of_at(pair, alphas):
    path = concat_path(*pair)
    alphas = [0.0, 0.5, 1.0] + near(0.5) + alphas + sliver_alphas(path)
    alphas = [a for a in alphas if 0.0 <= a <= 1.0]
    batch = path.segments(alphas)
    assert batch[2].size == len(alphas)
    for alpha, (values, durations) in zip(alphas, split(*batch)):
        expected = reference_at(path, alpha)
        assert_same(expected, values, durations)
        assert_same(expected, path.at(alpha).values, path.at(alpha).durations)
        assert path.at(alpha).period == expected.period


@settings(max_examples=80, deadline=None)
@given(controls(2), st.floats(-10.0, 10.0), st.floats(0.0, 12.0))
def test_pieces_is_the_sequential_subtraction(ctrl, s, length):
    cum = np.concatenate([[0.0], np.cumsum(ctrl.durations)])
    for t in [s + length, s + ctrl.period, s] + [s + c for c in cum]:
        got = list(ctrl.pieces(s, t))
        expected = list(reference_pieces(ctrl, s, t))
        assert len(got) == len(expected)
        for (gv, gd), (ev, ed) in zip(got, expected):
            assert np.array_equal(gv, ev) and gd == ed and type(gd) is float


def test_constant_path_segments_repeat_the_control():
    u = PiecewiseControl.from_segments([([0.3], 0.4), ([-0.2], 0.7)])
    path = concat_path(u, u)
    values, durations, counts = path.segments([0.0, 0.3, 1.0])
    assert counts.tolist() == [2, 2, 2]
    assert np.array_equal(values, np.tile(u.values, (3, 1)))
    assert np.array_equal(durations, np.tile(u.durations, 3))
    assert path.at(0.3) is u
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        path.segments([0.2, 1.5])


def test_path_coupling_crossing_controls_unchanged():
    # the benchmark's coupling path: every record's control is the pieces one
    sys = symmetric_coupling_system()
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    result = continuation(sys, path, steps=41)
    assert [c.alpha for c in result.crossings] == [0.75]
    for record in result.records:
        expected = reference_at(path, record.alpha)
        assert_same(expected, record.control.values, record.control.durations)
        assert record.tau == expected.period


def test_records_make_their_control_on_first_read():
    # the coupling path with its ladder records, and a path of three-segment
    # controls: no record holds a control until one is read, and the one it
    # makes is path.at(alpha) bit for bit, kept for later reads
    u = PiecewiseControl.from_segments([([-1.1], 0.6), ([0.4], 0.9)])
    v = PiecewiseControl.from_segments([([-0.95], 0.8), ([1.1], 0.3), ([-1.1], 0.5)])
    refined = 0
    for sys, path in [(symmetric_coupling_system(),
                       concat_path(PiecewiseControl.constant([-0.7], 1.0),
                                   PiecewiseControl.constant([-0.4], 1.0))),
                      (damped_oscillator_system(), concat_path(u, v))]:
        records = continuation(sys, path, steps=41).records
        assert not any("control" in vars(r) for r in records)
        for r in records:
            expected = path.at(r.alpha)
            assert_same(expected, r.control.values, r.control.durations)
            assert r.tau == expected.period
            assert vars(r)["control"] is r.control
        refined += sum(r.refined for r in records)
    assert refined > 0
    # the control made is a validated, read-only PiecewiseControl
    ctrl = records[-1].control
    assert not ctrl.values.flags.writeable and not ctrl.durations.flags.writeable
    with pytest.raises(AttributeError):
        ctrl.values = None


# ------------------------------------------------------------ records

def reference_near_kernel(M, eig_tol):
    """Right singular vectors of M = I - phi at the smallest singular value."""
    _, sv, vt = np.linalg.svd(M)
    if sv.size == 0:
        return np.zeros((M.shape[0], 0))
    cutoff = max(10.0 * sv[-1], eig_tol * max(1.0, sv[0]))
    keep = sv <= cutoff
    return vt[keep].T.copy()


def reference_sphere_distance(x, basis):
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


def reference_solve(M: np.ndarray, b: np.ndarray, margin: float, tolerances: Tolerances):
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


def reference_solution_point(sol):
    """x0 of a Unique, y0 of an AffineFamily, None when obstructed."""
    return getattr(sol, "x0", getattr(sol, "y0", None))


def reference_records(sys, path, alphas, tolerances, refined=False):
    phi, b = _period_maps(sys, *path.segments(alphas))
    M = np.eye(sys.n) - phi
    margins = _spectrum(phi)[1]
    unique = margins > tolerances.unit_tol  # reference_solve's Unique case, in one batch
    x0 = iter(np.linalg.solve(M[unique], b[unique][..., None])[..., 0])
    records = []
    for alpha, Mi, bi, det_gap, margin, is_unique in zip(
            alphas, M, b, np.linalg.det(M), margins, unique):
        sol = Unique(next(x0)) if is_unique else reference_solve(Mi, bi, margin, tolerances)
        point = reference_solution_point(sol)
        norm_x = float(np.linalg.norm(point)) if point is not None else float("nan")
        kernel_angle = float("nan")
        if point is not None and margin <= tolerances.kernel_window:
            kernel_angle = reference_sphere_distance(
                point, reference_near_kernel(Mi, tolerances.eig_tol))
        records.append(ContinuationRecord(
            alpha=float(alpha), path=path, det_gap=float(det_gap),
            margin=float(margin), solution=sol, norm_x=norm_x,
            kernel_angle=kernel_angle, refined=refined))
    return records


def same_number(a, b):
    return type(a) is type(b) and (a == b or (np.isnan(a) and np.isnan(b)))


def assert_same_records(got, expected):
    assert len(got) == len(expected)
    for r, e in zip(got, expected):
        for name in ("alpha", "tau", "det_gap", "margin", "norm_x", "kernel_angle"):
            assert same_number(getattr(r, name), getattr(e, name)), name
        assert r.refined is e.refined
        assert r.tau == float(np.sum(r.control.durations))
        assert_same(e.control, r.control.values, r.control.durations)
        assert type(r.solution) is type(e.solution)
        for name, value in vars(e.solution).items():
            got_value = getattr(r.solution, name)
            assert np.asarray(got_value).dtype == np.asarray(value).dtype
            assert np.array_equal(got_value, value), name


@st.composite
def systems(draw):
    """Random systems of dimension 1-4, with the all-zero system (Phi = I, an
    affine family everywhere) and forcing-only systems (obstructed) among them."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    A, B = scale * rng.normal(size=(n, n)), scale * rng.normal(size=(m, n, n))
    forcing = draw(st.sampled_from([0.0, 1.0]))
    C, d = forcing * rng.normal(size=(n, m)), forcing * rng.normal(size=n)
    return AffineSystem(A, B, C, d, -np.ones(m), np.ones(m))


@settings(max_examples=80, deadline=None)
@given(systems(), st.data())
def test_records_are_the_per_record_loop(sys, data):
    pair = data.draw(st.tuples(controls(sys.m), controls(sys.m)))
    path = concat_path(*pair)
    alphas = np.linspace(0.0, 1.0, 41)
    expected = reference_records(sys, path, alphas, DEFAULT_TOLERANCES, refined=True)
    assert_same_records(
        _evaluate_path_points(sys, path, alphas, DEFAULT_TOLERANCES, refined=True).records,
        expected)


def test_records_cover_every_solution_kind_and_the_kernel_window():
    # the coupling path around its crossing at 3/4: Unique rows inside and
    # outside the kernel window, and the Obstructed row at the crossing
    sys = symmetric_coupling_system()
    path = concat_path(PiecewiseControl.constant([-0.7], 1.0),
                       PiecewiseControl.constant([-0.4], 1.0))
    alphas = np.concatenate([np.linspace(0.0, 1.0, 41), 0.75 + np.logspace(-9, -1, 9),
                             0.75 - np.logspace(-9, -1, 9)])
    records = _evaluate_path_points(sys, path, alphas, DEFAULT_TOLERANCES).records
    assert_same_records(records, reference_records(sys, path, alphas, DEFAULT_TOLERANCES))
    kinds = {type(r.solution).__name__ for r in records}
    assert {"Unique", "Obstructed"} <= kinds
    assert sum(np.isfinite(r.kernel_angle) for r in records) >= 10
    # Phi = I everywhere: affine families through 0, so norm 0 and no angle
    zero = AffineSystem(np.zeros((3, 3)), np.zeros((1, 3, 3)), np.zeros((3, 1)),
                        np.zeros(3), [-1.0], [1.0])
    records = _evaluate_path_points(zero, path, alphas, DEFAULT_TOLERANCES).records
    assert_same_records(records, reference_records(zero, path, alphas, DEFAULT_TOLERANCES))
    assert all(type(r.solution).__name__ == "AffineFamily" and r.norm_x == 0.0
               for r in records)


def reference_solution(sys, ctrl, tolerances=DEFAULT_TOLERANCES):
    """reference_solve of the control's fixed-point system, as the one-control
    `periodic_solution` posed it."""
    phi, b = _period_maps(sys, ctrl.values, ctrl.durations, [ctrl.num_segments])
    return reference_solve(np.eye(sys.n) - phi[0], b[0], float(_spectrum(phi)[1][0]),
                           tolerances)


def assert_same_solution(got, expected):
    assert type(got) is type(expected)
    for name, value in vars(expected).items():
        got_value = getattr(got, name)
        assert np.asarray(got_value).dtype == np.asarray(value).dtype
        assert np.array_equal(got_value, value), name


def unforced(sys):
    return AffineSystem(sys.A, sys.B, np.zeros_like(sys.C), np.zeros(sys.n),
                        sys.omega_lo, sys.omega_hi)


COUPLING_PATH = (PiecewiseControl.constant([-0.7], 1.0),
                 PiecewiseControl.constant([-0.4], 1.0))


@pytest.mark.parametrize("sys, ctrl, kind", [
    (damped_oscillator_system(), PiecewiseControl.from_segments([(-1.1, 0.6), (0.4, 0.9)]),
     Unique),
    (symmetric_coupling_system(), PiecewiseControl.constant([0.3], 1.3), Unique),
    # Phi = I and b = 0: every point is periodic
    (AffineSystem(np.zeros((3, 3)), np.zeros((1, 3, 3)), np.zeros((3, 1)), np.zeros(3),
                  [-1.0], [1.0]), PiecewiseControl.constant([0.5], 2.0), AffineFamily),
    # Phi = I and b = tau d != 0: no periodic point
    (AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)), [1.0, -2.0],
                  [-1.0], [1.0]), PiecewiseControl.constant([0.5], 2.0), Obstructed),
    # the coupling at u = -1/2, where a multiplier is 1: a line of periodic
    # points without forcing, none with it
    (unforced(symmetric_coupling_system()), PiecewiseControl.constant([-0.5], 1.0),
     AffineFamily),
    (symmetric_coupling_system(), PiecewiseControl.constant([-0.5], 1.0), Obstructed),
])
def test_one_control_solutions_are_the_one_system_trichotomy(monkeypatch, sys, ctrl, kind):
    expected = reference_solution(sys, ctrl)
    assert type(expected) is kind
    assert_same_solution(periodic_solution(sys, ctrl), expected)
    # the scan's bracket-rank proxy is taken at the reference's point
    seen = []
    larc_rank = floquet.larc_rank
    monkeypatch.setattr(floquet, "larc_rank",
                        lambda s, x, **kw: seen.append(x) or larc_rank(s, x, **kw))
    hyperbolicity_scan(sys, ControlSampler(include=(ctrl,)), 0, seed=0)
    point = reference_solution_point(expected)
    if point is None or not np.all(np.isfinite(point)):
        assert seen == []
    else:
        assert len(seen) == 1 and np.array_equal(seen[0], point)


@pytest.mark.parametrize("sys, kind", [(symmetric_coupling_system(), Obstructed),
                                       (unforced(symmetric_coupling_system()), AffineFamily)])
@pytest.mark.parametrize("steps", [41, 40])  # the crossing on a mesh node, and between
def test_crossing_solutions_are_the_one_system_trichotomy(sys, kind, steps):
    crossings = continuation(sys, concat_path(*COUPLING_PATH), steps).crossings
    assert len(crossings) == 1
    expected = reference_solution(sys, crossings[0].control)
    assert type(expected) is kind
    assert_same_solution(crossings[0].solution, expected)

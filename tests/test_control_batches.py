"""Flat control batches against the one-control code they replace.

The scan's sampler and a path's controls are filled as flat (values,
durations, counts) arrays.  The references below are the per-control
implementations, kept here verbatim: one `uniform`/`integers`/`dirichlet`
draw sequence per sample, the sequential-subtraction `pieces` loop, and
`ControlPath.at` assembled from those pieces.  Every comparison is bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinecontrol.floquet import (
    ControlSampler,
    concat_path,
    continuation,
    hyperbolicity_scan,
)
from affinecontrol.system import AffineSystem, PiecewiseControl

from conftest import damped_oscillator_system, random_control, symmetric_coupling_system


def reference_sample(sampler, rng, sys, index):
    tau = rng.uniform(*sampler.period_range)
    k = int(rng.integers(sampler.segments_range[0], sampler.segments_range[1] + 1))
    durations = rng.dirichlet(np.ones(k)) * tau
    bang = sampler.kind == "bang" or (sampler.kind == "mixed" and index % 2 == 0)
    if bang:
        pick = rng.integers(0, 2, size=(k, sys.m))
        values = np.where(pick == 0, sys.omega_lo, sys.omega_hi)
    else:
        values = rng.uniform(sys.omega_lo, sys.omega_hi, size=(k, sys.m))
    return PiecewiseControl(values, durations)


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

@pytest.mark.parametrize("kind", ["bang", "levels", "mixed"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sample_batch_is_the_one_control_draws(kind, m):
    for seed in range(51):
        box = np.random.default_rng(1000 + seed)
        lo, hi = -box.uniform(0.0, 2.0, size=m), box.uniform(0.1, 2.0, size=m)
        sys = AffineSystem(np.eye(2), np.zeros((m, 2, 2)), np.zeros((2, m)), np.zeros(2),
                           lo, hi)
        sampler = ControlSampler(kind=kind, period_range=(0.3, 2.9), segments_range=(1, 5))
        start = seed % 3
        batch = sampler.sample_batch(np.random.default_rng(seed), sys, 9, start=start)
        assert batch[2].dtype.kind == "i"
        rng = np.random.default_rng(seed)
        for i, (values, durations) in enumerate(split(*batch)):
            assert_same(reference_sample(sampler, rng, sys, start + i), values, durations)
        ctrl = sampler.sample(np.random.default_rng(seed), sys, start)
        assert_same(reference_sample(sampler, np.random.default_rng(seed), sys, start),
                    ctrl.values, ctrl.durations)


def test_scan_controls_are_the_one_control_draws():
    sys = damped_oscillator_system()
    sampler = ControlSampler()
    report = hyperbolicity_scan(sys, sampler, 300, seed=5)
    rng = np.random.default_rng(5)
    controls = [reference_sample(sampler, rng, sys, i) for i in range(300)]
    best = int(np.argmin(report.margins))
    assert_same(controls[best], report.argmin_control.values,
                report.argmin_control.durations)


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
    records = PiecewiseControl._batch(*batch)
    for alpha, (values, durations), ctrl in zip(alphas, split(*batch), records):
        expected = reference_at(path, alpha)
        assert_same(expected, values, durations)
        assert_same(expected, ctrl.values, ctrl.durations)
        assert_same(expected, path.at(alpha).values, path.at(alpha).durations)
        assert ctrl.period == expected.period


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


def test_batch_controls_are_validated_once():
    with pytest.raises(ValueError, match="durations must be positive"):
        PiecewiseControl._batch(np.zeros((3, 1)), [0.5, -0.1, 0.2], [1, 2])
    a, b = PiecewiseControl._batch(np.arange(3.0)[:, None], [0.5, 0.1, 0.2], [1, 2])
    assert a.period == 0.5 and b.num_segments == 2 and not b.values.flags.writeable
    with pytest.raises(AttributeError):
        b.values = None


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

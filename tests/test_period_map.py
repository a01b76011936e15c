"""Property tests of the batched period map behind every Floquet entry point.

Random systems (n <= 4, m <= 2) and lists of periodic controls with mixed
segment counts; the batched maps are compared with the ordered product of
single-segment maps, with themselves in smaller batches, and with a
simulation over one period.  The monodromies made without the forcing
column (`_monodromies`) are compared with the Phi of the augmented maps, also
on systems whose large C and d make the forcing column set the 1-norm.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol.floquet import (
    ControlSampler,
    Unique,
    _flatten,
    _monodromies,
    _period_maps,
    _solutions,
    _spectrum,
    floquet_of,
    hyperbolicity_scan,
    periodic_solution,
)
from affinecontrol import floquet
from affinecontrol.config import DEFAULT_TOLERANCES
from affinecontrol.system import AffineSystem, PiecewiseControl, segment_map, simulate

from conftest import random_system


@st.composite
def systems_and_controls(draw, forcing=st.just(1.0)):
    """A random system, its C and d scaled by `forcing`, and controls for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    segments = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    sys = random_system(rng, n=n, m=m)
    scale = draw(forcing)
    sys = AffineSystem(sys.A, sys.B, scale * sys.C, scale * sys.d, sys.omega_lo, sys.omega_hi)
    controls = [PiecewiseControl(rng.uniform(-1.0, 1.0, size=(k, m)),
                                 rng.dirichlet(np.ones(k)) * rng.uniform(0.3, 2.0))
                for k in segments]
    return sys, controls


def product_of_segment_maps(sys, ctrl):
    G, h = np.eye(sys.n), np.zeros(sys.n)
    for u, dt in zip(ctrl.values, ctrl.durations):
        Gj, hj = segment_map(sys, u, dt)
        G, h = Gj @ G, Gj @ h + hj
    return G, h


@settings(max_examples=60, deadline=None)
@given(systems_and_controls())
def test_batch_invariance(case):
    sys, controls = case
    phi, b = _period_maps(sys, *_flatten(controls))
    for i, ctrl in enumerate(controls):
        phi_i, b_i = _period_maps(sys, *_flatten([ctrl]))
        assert np.array_equal(phi[i], phi_i[0])
        assert np.array_equal(b[i], b_i[0])


@settings(max_examples=60, deadline=None)
@given(systems_and_controls())
def test_scan_margins_equal_floquet_of(case):
    sys, controls = case
    report = hyperbolicity_scan(sys, ControlSampler(include=tuple(controls)), 0, seed=0)
    for margin, ctrl in zip(report.margins, controls):
        assert margin == floquet_of(sys, ctrl)[1].margin


@settings(max_examples=60, deadline=None)
@given(systems_and_controls())
def test_period_map_is_ordered_product_of_segment_maps(case):
    sys, controls = case
    phi, b = _period_maps(sys, *_flatten(controls))
    for i, ctrl in enumerate(controls):
        G, h = product_of_segment_maps(sys, ctrl)
        assert np.linalg.norm(phi[i] - G) <= 1e-12 * max(1.0, np.linalg.norm(G))
        assert np.linalg.norm(b[i] - h) <= 1e-12 * max(1.0, np.linalg.norm(h))


@settings(max_examples=60, deadline=None)
@given(systems_and_controls())
def test_unique_solution_returns_after_one_period(case):
    sys, controls = case
    for ctrl in controls:
        if floquet_of(sys, ctrl)[1].margin <= 1e-3:
            continue
        sol = periodic_solution(sys, ctrl)
        assert isinstance(sol, Unique)
        end = simulate(sys, ctrl, sol.x0, ctrl.period).states[-1]
        assert np.linalg.norm(end - sol.x0) <= 1e-8 * (1.0 + np.linalg.norm(sol.x0))


# large C and d: the forcing column sets the augmented 1-norm of many segments
FORCING = st.sampled_from([1.0, 30.0, 1e3])


def forcing_sets_the_norm(sys, ctrl):
    """Whether some segment's forcing column |Cu + d|_1 dt exceeds the largest
    column sum of A(u) dt, so the augmented generator has the larger 1-norm."""
    for u, dt in zip(ctrl.values, ctrl.durations):
        G = (sys.A + np.tensordot(u, sys.B, axes=(0, 0))) * dt
        if np.abs((sys.C @ u + sys.d) * dt).sum() > np.abs(G).sum(axis=0).max():
            return True
    return False


@settings(max_examples=80, deadline=None)
@given(systems_and_controls(FORCING))
def test_monodromies_are_the_phi_of_the_augmented_maps(case):
    sys, controls = case
    phi = _monodromies(sys, *_flatten(controls))
    augmented, _ = _period_maps(sys, *_flatten(controls))
    for i, ctrl in enumerate(controls):
        assert np.array_equal(phi[i], _monodromies(sys, *_flatten([ctrl]))[0])
        if not forcing_sets_the_norm(sys, ctrl):
            assert np.array_equal(phi[i], augmented[i])
        else:
            size = np.linalg.norm(augmented[i])
            assert np.linalg.norm(phi[i] - augmented[i]) <= 1e-12 * max(1.0, size)


@settings(max_examples=40, deadline=None)
@given(systems_and_controls(st.sampled_from([1e5, 1e8, 1e300])))
def test_monodromies_ignore_the_forcing_scale(case):
    # the augmented map of a segment is scaled and squared by the 1-norm its
    # forcing column sets, so at large forcing its Phi block loses digits
    # (2.7e-12 relative at C, d ~ 5e4; all of them, Phi = I, near overflow);
    # the monodromies never see the forcing
    sys, controls = case
    phi = _monodromies(sys, *_flatten(controls))
    for i, ctrl in enumerate(controls):
        G = np.eye(sys.n)
        for u, dt in zip(ctrl.values, ctrl.durations):
            G = expm((sys.A + np.tensordot(u, sys.B, axes=(0, 0))) * dt) @ G
        assert np.linalg.norm(phi[i] - G) <= 1e-12 * max(1.0, np.linalg.norm(G))


@settings(max_examples=60, deadline=None)
@given(systems_and_controls(FORCING))
def test_forced_scan_margins_equal_floquet_of(case):
    sys, controls = case
    report = hyperbolicity_scan(sys, ControlSampler(include=tuple(controls)), 0, seed=0)
    for margin, ctrl in zip(report.margins, controls):
        assert margin == floquet_of(sys, ctrl)[1].margin


@settings(max_examples=60, deadline=None)
@given(systems_and_controls(FORCING), st.integers(0, 4))
def test_scan_proxy_point_is_the_augmented_batch_point(case, count):
    # the scan maps only its argmin control with the forcing column; the point
    # it passes to larc_rank is the one from the augmented map of the batch
    sys, controls = case
    sampler = ControlSampler(include=tuple(controls))
    seen = []
    larc_rank = floquet.larc_rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "larc_rank",
                   lambda s, x, **kw: seen.append(x) or larc_rank(s, x, **kw))
        report = hyperbolicity_scan(sys, sampler, count, seed=1)
    batch = sampler.sample_batch(np.random.default_rng(1), sys, count)
    batch = [np.concatenate(p) for p in zip(_flatten(controls), batch)]
    phi, b = _period_maps(sys, *batch)
    best = int(np.argmin(report.margins))
    point = _solutions(np.eye(sys.n) - phi[best:best + 1], b[best:best + 1],
                       report.margins[best:best + 1], DEFAULT_TOLERANCES)[0][0]
    if np.all(np.isfinite(point)):
        assert len(seen) == 1 and np.array_equal(seen[0], point)
        assert report.rank_proxy is not None
    else:
        assert seen == [] and report.rank_proxy is None
    if not any(forcing_sets_the_norm(sys, c) for c in controls):
        assert np.array_equal(report.margins[:len(controls)],
                              _spectrum(phi[:len(controls)])[1])

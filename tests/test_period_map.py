"""Property tests of the batched period map behind every Floquet entry point.

Random systems (n <= 4, m <= 2) and lists of periodic controls with mixed
segment counts; the batched maps are compared with the ordered product of
single-segment maps, with themselves in smaller batches, and with a
simulation over one period.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from affinecontrol.floquet import (
    ControlSampler,
    Unique,
    _period_maps,
    floquet_of,
    hyperbolicity_scan,
    periodic_solution,
)
from affinecontrol.system import PiecewiseControl, segment_map, simulate

from conftest import random_system


@st.composite
def systems_and_controls(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    segments = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    sys = random_system(rng, n=n, m=m)
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
    phi, b = _period_maps(sys, controls)
    for i, ctrl in enumerate(controls):
        phi_i, b_i = _period_maps(sys, [ctrl])
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
    phi, b = _period_maps(sys, controls)
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

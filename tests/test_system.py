"""Tests for the system model: matrices, brackets, ranks, exact simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from affinecontrol.floquet import principal_matrix
from affinecontrol.projective import (SphereGrid, build_sphere_graph, embed_system,
                                      lyapunov_estimate)
from affinecontrol.system import (
    AffineSystem,
    AffineVectorField,
    BlowUpError,
    PiecewiseControl,
    equilibrium,
    larc_rank,
    lie_bracket,
    segment_map,
    simulate,
)

from conftest import (
    planar_saddle_system,
    symmetric_coupling_system,
    damped_oscillator_system,
    random_system,
    random_control,
    run_isolated,
)


# ---------------------------------------------------------------- system_matrix

def test_system_matrix_planar_saddle_at_one():
    sys = planar_saddle_system()
    assert np.array_equal(sys.system_matrix([1.0]), np.diag([3.0, -1.0]))


def test_system_matrix_zero_control_returns_A():
    sys = random_system(np.random.default_rng(0), n=3, m=2)
    assert np.array_equal(sys.system_matrix(np.zeros(2)), sys.A)


def test_system_matrix_symmetric_coupling_half():
    sys = symmetric_coupling_system()
    assert np.allclose(sys.system_matrix([0.5]), np.ones((2, 2)), atol=0.0)


def test_system_matrix_dimension_mismatch():
    sys = planar_saddle_system()
    with pytest.raises(ValueError):
        sys.system_matrix([1.0, 2.0])


# ------------------------------------------------------------------------- rhs

@pytest.mark.parametrize("u", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_vector_field_vanishes_at_planar_equilibria(u):
    # closed-form equilibria: x_u = -(3u+3)/(2+u), y_u = 3u/(2-u)
    sys = planar_saddle_system()
    x_u = -(3 * u + 3) / (2 + u)
    y_u = 3 * u / (2 - u)
    assert np.allclose(sys.rhs([x_u, y_u], [u]), 0.0, atol=1e-13)


def test_vector_field_zero_system():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    assert np.array_equal(sys.rhs([4.0, -7.0], [0.3]), np.zeros(2))


def test_vector_field_oscillator_equilibrium():
    # at u=0 the state (x, 0) is an equilibrium iff -x + d = 0
    sys = damped_oscillator_system(rho=1.1, d=0.5)
    assert np.allclose(sys.rhs([0.5, 0.0], [0.0]), 0.0, atol=1e-15)
    assert not np.allclose(sys.rhs([0.7, 0.0], [0.0]), 0.0)


def test_equilibrium_solver_matches_formulas():
    sys = planar_saddle_system()
    for u in (-1.0, -0.5, 0.0, 0.5, 1.0):
        expected = [-(3 * u + 3) / (2 + u), 3 * u / (2 - u)]
        assert np.allclose(equilibrium(sys, [u]), expected, atol=1e-12)


# ---------------------------------------------------------------- lie_bracket

def test_bracket_of_field_with_itself_vanishes():
    X = AffineVectorField([[1.0, 2.0], [0.0, -1.0]], [3.0, 4.0])
    Z = lie_bracket(X, X)
    assert np.array_equal(Z.M, np.zeros((2, 2)))
    assert np.array_equal(Z.a, np.zeros(2))


def test_bracket_hand_computed_example():
    # X = (a=(3,0), M=diag(2,-2)), Y = (b=(3,3), N=I):
    # matrix part -(MN - NM) = 0, offset -(M b - N a) = -((6,-6)-(3,0)) = (-3,6)
    X = AffineVectorField(np.diag([2.0, -2.0]), [3.0, 0.0])
    Y = AffineVectorField(np.eye(2), [3.0, 3.0])
    Z = lie_bracket(X, Y)
    assert np.array_equal(Z.M, np.zeros((2, 2)))
    assert np.array_equal(Z.a, [-3.0, 6.0])


def test_bracket_of_linear_fields_is_linear():
    rng = np.random.default_rng(3)
    M, N = rng.normal(size=(2, 3, 3))
    Z = lie_bracket(AffineVectorField(M, np.zeros(3)), AffineVectorField(N, np.zeros(3)))
    assert np.array_equal(Z.a, np.zeros(3))
    assert np.allclose(Z.M, -(M @ N - N @ M))


def test_bracket_matches_flow_commutator():
    # commutator of flows: X, then Y, then X reversed, then Y reversed
    # moves by h^2 [X, Y](x) + O(h^3), so the h^2-normalized defect
    # converges to the bracket at first order in h
    rng = np.random.default_rng(7)
    X = AffineVectorField(rng.normal(size=(3, 3)), rng.normal(size=3))
    Y = AffineVectorField(rng.normal(size=(3, 3)), rng.normal(size=3))
    x = rng.normal(size=3)
    target = lie_bracket(X, Y)(x)

    def defect(h):
        z = X.flow(x, h)
        z = Y.flow(z, h)
        z = X.flow(z, -h)
        z = Y.flow(z, -h)
        return (z - x) / h**2 - target

    errs = [np.linalg.norm(defect(h)) for h in (1e-2, 5e-3, 2.5e-3)]
    assert errs[1] <= 0.6 * errs[0]
    assert errs[2] <= 0.6 * errs[1]


def test_bracket_dimension_mismatch():
    X = AffineVectorField(np.eye(2), np.zeros(2))
    Y = AffineVectorField(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        lie_bracket(X, Y)


# ---------------------------------------------------------------- larc_rank

def brute_force_rank(sys, x, depth):
    """Independent oracle: enumerate all brackets up to `depth` and take the rank."""
    gens = sys.generators()
    levels = [list(gens)]
    for _ in range(depth - 1):
        new = []
        for g in gens:
            for h in levels[-1]:
                new.append(lie_bracket(g, h))
        levels.append(new)
    fields = [f for level in levels for f in level]
    evals = np.stack([f(np.asarray(x, dtype=float)) for f in fields])
    sv = np.linalg.svd(evals, compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0])) if sv[0] > 0 else 0


def test_larc_rank_zero_system():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    assert larc_rank(sys, [0.3, -0.4]) == 0


def test_larc_rank_planar_saddle():
    sys = planar_saddle_system()
    assert brute_force_rank(sys, [1.0, 1.0], 3) == 2
    assert larc_rank(sys, [1.0, 1.0]) == 2


def test_larc_rank_oscillator_origin():
    sys = damped_oscillator_system(rho=1.1, d=0.5)
    assert brute_force_rank(sys, [0.0, 0.0], 3) == 2
    assert larc_rank(sys, [0.0, 0.0]) == 2


def test_larc_rank_monotone_and_saturating():
    rng = np.random.default_rng(11)
    for _ in range(5):
        sys = random_system(rng, n=3, m=1)
        x = rng.normal(size=3)
        ranks = [larc_rank(sys, x, max_depth=d) for d in range(1, 8)]
        assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))
        # saturation: once the closure stops growing the rank is constant
        assert ranks[-1] == ranks[-2]


# ---------------------------------------------------------------- simulate

def test_simulate_scalar_closed_form():
    # dx/dt = -x + u, u = 1, x(0) = 0: x(1) = 1 - exp(-1)
    sys = AffineSystem([[-1.0]], [[[0.0]]], [[1.0]], [0.0], [-2.0], [2.0])
    ctrl = PiecewiseControl.constant([1.0], period=1.0)
    traj = simulate(sys, ctrl, [0.0], 1.0)
    assert abs(traj.states[-1][0] - (1.0 - np.exp(-1.0))) < 1e-14
    assert abs(traj.states[-1][0] - 0.6321205588285577) < 1e-14


def test_simulate_fixed_point_stays_put():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([0.0], period=1.0)
    x_eq = equilibrium(sys, [0.0])
    assert np.allclose(x_eq, [-1.5, 0.0], atol=1e-14)
    traj = simulate(sys, ctrl, x_eq, 7.3, sample_step=0.5)
    assert np.allclose(traj.states, x_eq, atol=1e-9)


@pytest.mark.parametrize("step", [np.nan, 0.0, -0.5])
def test_simulate_rejects_a_sample_step_that_is_not_positive(step):
    # unchecked, these gave the two-sample trajectory without complaint
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([0.0], period=1.0)
    with pytest.raises(ValueError, match="sample_step"):
        simulate(sys, ctrl, [1.0, 0.0], 1.0, sample_step=step)


def test_simulate_refuses_samples_past_the_memory_cap():
    # unchecked, 1e-12 appended about 1e12 states and 5e-324 raised a bare
    # OverflowError from int(inf); both now raise before any exponential
    result = run_isolated("""
from unittest import mock
import pytest
from affinecontrol import system
from affinecontrol.system import AffineSystem, PiecewiseControl, simulate
sys = AffineSystem([[-1.0]], [[[1.0]]], [[1.0]], [0.0], [-1.0], [1.0])
ctrl = PiecewiseControl.constant([0.0])
match = "samples of 1 states and a time, past the cap"
with pytest.raises(ValueError, match=match):
    simulate(sys, ctrl, [1.0], 1.0, sample_step=1e-12)
with mock.patch.object(system, "_segment_maps", side_effect=AssertionError("exponential")):
    for step in (1e-12, 5e-324):
        for t in (1.0, -1.0):
            with pytest.raises(ValueError, match=match):
                simulate(sys, ctrl, [1.0], t, sample_step=step)
""", timeout=10)
    assert result.returncode == 0, (result.returncode, result.stderr)
    # a step within the cap keeps its samples
    sys = planar_saddle_system()
    traj = simulate(sys, PiecewiseControl.constant([0.0]), [1.0, 0.0], 1.0, sample_step=1e-4)
    assert traj.times.size == 10_001


def test_simulate_without_interior_samples():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([0.0], period=1.0)
    for step in (None, np.inf):
        traj = simulate(sys, ctrl, [1.0, 0.0], 1.0, sample_step=step)
        assert traj.times.tolist() == [0.0, 1.0]


def test_simulate_flow_property():
    rng = np.random.default_rng(23)
    for _ in range(5):
        sys = random_system(rng, n=3, m=2)
        ctrl = random_control(rng, m=2, segments=3)
        x0 = rng.normal(size=3)
        s, t = 0.7, 1.9
        direct = simulate(sys, ctrl, x0, s + t).states[-1]
        mid = simulate(sys, ctrl, x0, s).states[-1]
        two_step = simulate(sys, ctrl.shifted(s), mid, t).states[-1]
        scale = max(1.0, np.linalg.norm(direct))
        assert np.linalg.norm(direct - two_step) <= 1e-12 * scale


def test_simulate_backward_inverts_forward():
    rng = np.random.default_rng(31)
    sys = random_system(rng, n=2, m=1)
    ctrl = random_control(rng, m=1, segments=2)
    x0 = rng.normal(size=2)
    xf = simulate(sys, ctrl, x0, 1.3).states[-1]
    # reversing from the endpoint under the time-shifted control returns to x0
    back = simulate(sys, ctrl.shifted(1.3), xf, -1.3).states[0]
    assert np.allclose(back, x0, atol=1e-11)
    traj = simulate(sys, ctrl, x0, -0.8)
    assert traj.times[0] == -0.8 and traj.times[-1] == 0.0
    assert np.allclose(traj.states[-1], x0)


def test_simulate_matches_ode_oracle():
    # high-order adaptive integration, segment by segment, as the oracle
    rng = np.random.default_rng(5)
    for _ in range(4):
        sys = random_system(rng, n=4, m=2)
        ctrl = random_control(rng, m=2, segments=3)
        x0 = rng.normal(size=4)
        t_end = min(10.0, 2.5 * ctrl.period)
        x = x0.copy()
        for u, dt in ctrl.pieces(0.0, t_end):
            sol = solve_ivp(lambda _, y, uu=u: sys.rhs(y, uu), (0.0, dt), x,
                            method="DOP853", rtol=1e-12, atol=1e-12)
            x = sol.y[:, -1]
        ours = simulate(sys, ctrl, x0, t_end).states[-1]
        assert np.linalg.norm(ours - x) <= 1e-8 * max(1.0, np.linalg.norm(x))


def per_piece_trajectory(sys, ctrl, x0, t, sample_step):
    """Times and states of `simulate` with one `segment_map` per piece, as
    it mapped them before one stacked call mapped every piece."""
    pieces = ([(u, -dt) for u, dt in ctrl.pieces(t, 0.0)][::-1] if t < 0.0
              else list(ctrl.pieces(0.0, t)))
    x = np.asarray(x0, dtype=float)
    times, states, clock = [0.0], [x.copy()], 0.0
    for u, dt in pieces:
        n_sub = 1 if sample_step is None else max(1, int(np.ceil(abs(dt) / sample_step)))
        G, h = segment_map(sys, u, dt / n_sub)
        for _ in range(n_sub):
            x = G @ x + h
            clock += dt / n_sub
            times.append(clock)
            states.append(x.copy())
    times[-1] = t
    order = slice(None, None, -1) if t < 0.0 else slice(None)
    return np.array(times)[order], np.stack(states)[order]


@pytest.mark.parametrize("t, sample_step", [(2.3, None), (-1.7, None), (2.3, 0.3),
                                            (-1.7, 0.25), (0.9, np.inf)])
def test_simulate_is_the_per_piece_segment_map_loop(t, sample_step):
    rng = np.random.default_rng(41)
    for n, m in ((1, 1), (2, 1), (3, 2)):
        sys = random_system(rng, n=n, m=m)
        ctrl = random_control(rng, m=m, segments=3)
        x0 = rng.normal(size=n)
        traj = simulate(sys, ctrl, x0, t, sample_step=sample_step)
        times, states = per_piece_trajectory(sys, ctrl, x0, t, sample_step)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)  # bit for bit


def test_simulate_blowup_reports_last_finite_state():
    sys = AffineSystem([[200.0]], [[[0.0]]], [[0.0]], [0.0], [-1.0], [1.0])
    ctrl = PiecewiseControl.constant([0.0], period=1.0)
    with pytest.raises(BlowUpError) as exc:
        simulate(sys, ctrl, [1.0], 100.0)
    assert np.all(np.isfinite(exc.value.last_state))


def test_segment_map_matches_series_expm():
    # scaling-and-squaring backend cross-checked against plain series summation
    rng = np.random.default_rng(13)
    for _ in range(5):
        sys = random_system(rng, n=4, m=1)
        u = rng.uniform(-0.5, 0.5, size=1)
        dt = 0.37
        M = np.zeros((5, 5))
        M[:4, :4] = sys.system_matrix(u)
        M[:4, 4] = sys.forcing(u)
        term = np.eye(5)
        series = np.eye(5)
        for k in range(1, 40):
            term = term @ (dt * M) / k
            series = series + term
        G, h = segment_map(sys, u, dt)
        assert np.allclose(G, series[:4, :4], atol=1e-12)
        assert np.allclose(h, series[:4, 4], atol=1e-12)


# ---------------------------------------------------------------- types

def test_control_value_lookup_and_periodicity():
    ctrl = PiecewiseControl.from_segments([([1.0], 0.5), ([-1.0], 1.5)])
    assert ctrl.period == 2.0
    assert ctrl.value_at(0.0)[0] == 1.0
    assert ctrl.value_at(0.5)[0] == -1.0
    assert ctrl.value_at(2.25)[0] == 1.0
    assert ctrl.value_at(-0.25)[0] == -1.0


def test_control_pieces_cover_interval():
    ctrl = PiecewiseControl.from_segments([([1.0], 0.5), ([-1.0], 1.5)])
    pieces = list(ctrl.pieces(0.25, 4.0))
    assert abs(sum(dt for _, dt in pieces) - 3.75) < 1e-12
    assert pieces[0][0][0] == 1.0 and abs(pieces[0][1] - 0.25) < 1e-12


def test_control_pieces_refuse_a_table_past_the_memory_cap():
    # unchecked, each call looped once per piece, 2e12 to 2e15 times
    result = run_isolated("""
import pytest
from affinecontrol.floquet import principal_matrix
from affinecontrol.projective import lyapunov_estimate
from affinecontrol.system import AffineSystem, PiecewiseControl, simulate
sys = AffineSystem([[-1.0]], [[[1.0]]], [[1.0]], [0.0], [-1.0], [1.0])
ctrl = PiecewiseControl([[0.5], [0.1]], [5e-4, 5e-4])
for call in (lambda: list(ctrl.pieces(0.0, 1e12)),
             lambda: principal_matrix(sys, ctrl, 1e9, 0.0),
             lambda: simulate(sys, ctrl, [1.0], 1e12),
             lambda: lyapunov_estimate(sys, ctrl, [1.0], 1e12)):
    with pytest.raises(ValueError, match="control pieces each, past the cap"):
        call()
""", timeout=10)
    assert result.returncode == 0, (result.returncode, result.stderr)
    ctrl = PiecewiseControl([[0.5], [0.1]], [5e-4, 5e-4])
    # the cap counts the slots of all lengths: 1e5 spans of 2004 slots each
    with pytest.raises(ValueError, match="past the cap"):
        ctrl._cuts(0.0, np.ones(10**5))
    segment, take, kept = ctrl._cuts(0.0, np.ones(10**4))
    assert take.shape == kept.shape == (10**4, segment.size)
    assert np.allclose(take.sum(axis=1), 1.0, rtol=1e-12, atol=0)


def test_control_rejects_bad_segments():
    with pytest.raises(ValueError):
        PiecewiseControl(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        PiecewiseControl(np.empty((0, 1)), np.empty(0))


def test_control_rejects_a_period_that_overflows():
    # finite durations whose sum is inf: pieces(0, 1) yielded nothing and
    # simulate kept x(1) = x(0)
    with pytest.raises(ValueError, match="period"):
        PiecewiseControl([[0.5], [0.5]], [1e308, 1e308])
    assert PiecewiseControl([[0.5], [0.5]], [1e308, 7e307]).period == 1.7e308


def test_system_rejects_omega_without_zero():
    with pytest.raises(ValueError):
        AffineSystem(np.eye(2), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                     np.zeros(2), [0.5], [1.0])


def test_simulate_rejects_control_outside_box():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.constant([2.0], period=1.0)
    with pytest.raises(ValueError):
        simulate(sys, ctrl, [0.0, 0.0], 1.0)


@pytest.mark.parametrize("t", [np.inf, np.nan])
@pytest.mark.parametrize("entry", [
    lambda sys, ctrl, t: simulate(sys, ctrl, [1.0, 0.0], t),
    lambda sys, ctrl, t: simulate(sys, ctrl, [1.0, 0.0], -t),
    lambda sys, ctrl, t: list(ctrl.pieces(0.0, t)),
    lambda sys, ctrl, t: list(ctrl.pieces(t, t)),
    lambda sys, ctrl, t: principal_matrix(sys, ctrl, t, 0.0),
    lambda sys, ctrl, t: principal_matrix(sys, ctrl, 0.0, -t),
    lambda sys, ctrl, t: lyapunov_estimate(sys, ctrl, [1.0, 0.0], t),
    lambda sys, ctrl, t: ctrl.value_at(t),
    lambda sys, ctrl, t: ctrl.value_at(-t),
])
def test_non_finite_control_times_raise(entry, t):
    # unchecked, an infinite length cuts pieces without end and NaN passes
    # through as a silent wrong answer
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.from_segments([([0.5], 0.4), ([-0.5], 0.6)])
    with pytest.raises(ValueError, match="control times must be finite"):
        entry(sys, ctrl, t)


@pytest.mark.parametrize("entry", [
    lambda sys, u: sys.system_matrix(u),
    lambda sys, u: sys.forcing(u),
    lambda sys, u: sys.rhs([0.0, 0.0], u),
    lambda sys, u: segment_map(sys, u, 0.1),
    lambda sys, u: equilibrium(sys, u),
    lambda sys, u: build_sphere_graph(embed_system(sys), SphereGrid(3, 2), [u], 0.1),
    lambda sys, u: lyapunov_estimate(sys, PiecewiseControl.constant(u, 1.0),
                                     [1.0, 0.0], 1.0),
], ids=["system_matrix", "forcing", "rhs", "segment_map", "equilibrium", "build_sphere_graph",
        "lyapunov_estimate"])
def test_entry_points_reject_control_outside_box(entry):
    sys = planar_saddle_system()
    entry(sys, [1.0])  # the box edge is admissible
    with pytest.raises(ValueError, match="outside the control box"):
        entry(sys, [50.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_flow_property_random_times(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n=2, m=1)
    ctrl = random_control(rng, m=1, segments=2)
    x0 = rng.normal(size=2)
    s = float(rng.uniform(0.05, 2.0))
    t = float(rng.uniform(0.05, 2.0))
    direct = simulate(sys, ctrl, x0, s + t).states[-1]
    two_step = simulate(sys, ctrl.shifted(s), simulate(sys, ctrl, x0, s).states[-1],
                        t).states[-1]
    assert np.linalg.norm(direct - two_step) <= 1e-11 * max(1.0, np.linalg.norm(direct))

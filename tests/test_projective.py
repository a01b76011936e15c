"""Tests for the embedding, projective points, sphere grids, and estimators."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol import projective
from affinecontrol.config import MAX_EXP_GROWTH, Tolerances
from affinecontrol.floquet import (ContinuationRecord, Unique, concat_path, continuation,
                                   floquet_of)
from affinecontrol.projective import (
    ProjPoint,
    SphereGraph,
    SphereGrid,
    _canonical_sign,
    _flow_rows,
    _flow_step,
    _proj_points,
    build_sphere_graph,
    embed_point,
    embed_system,
    infinity_boundary_chain,
    infinity_boundary_directions,
    lyapunov_estimate,
    proj_dist_vectors,
    proj_metric,
    proj_step,
    sphere_chain_components,
    unembed_point,
)
from affinecontrol.reach import (BoxGrid, BoxSet, TransitionGraph, _halton_offsets,
                                 chain_components, closure, control_set_approx)
from affinecontrol.system import AffineSystem, PiecewiseControl, simulate

from conftest import (
    damped_oscillator_system,
    planar_saddle_system,
    random_control,
    random_system,
    symmetric_coupling_system,
)


# ------------------------------------------------------------------ embedding

def test_embedding_blocks_have_zero_last_row():
    sys = damped_oscillator_system()
    emb = embed_system(sys)
    assert np.array_equal(emb.A[-1], np.zeros(3))
    assert np.array_equal(emb.B[:, -1, :], np.zeros((1, 3)))
    assert np.array_equal(emb.A[:2, :2], sys.A)
    assert np.array_equal(emb.A[:2, 2], sys.d)
    # the embedding is drift-free, with the same control box
    assert not emb.C.any() and not emb.d.any()
    assert np.array_equal(emb.omega_lo, sys.omega_lo)
    assert np.array_equal(emb.omega_hi, sys.omega_hi)


def test_embedding_zero_system():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    emb = embed_system(sys)
    assert np.array_equal(emb.A, np.zeros((3, 3)))
    assert np.array_equal(emb.B, np.zeros((1, 3, 3)))


def test_embedded_level_one_reproduces_affine_trajectories():
    rng = np.random.default_rng(3)
    sys = random_system(rng, n=3, m=2)
    emb = embed_system(sys)
    ctrl = random_control(rng, m=2, segments=3)
    x0 = rng.normal(size=3)
    lifted = simulate(emb, ctrl, np.concatenate([x0, [1.0]]), 2.1).states[-1]
    plain = simulate(sys, ctrl, x0, 2.1).states[-1]
    assert abs(lifted[-1] - 1.0) < 1e-12
    assert np.linalg.norm(lifted[:3] - plain) <= 1e-10 * (1 + np.linalg.norm(plain))


def test_embedded_level_zero_reproduces_homogeneous_trajectories():
    rng = np.random.default_rng(5)
    sys = random_system(rng, n=3, m=1)
    emb = embed_system(sys)
    ctrl = random_control(rng, m=1, segments=2)
    x0 = rng.normal(size=3)
    lifted = simulate(emb, ctrl, np.concatenate([x0, [0.0]]), 1.7).states[-1]
    hom = simulate(sys.homogeneous(), ctrl, x0, 1.7).states[-1]
    assert lifted[-1] == 0.0
    assert np.linalg.norm(lifted[:3] - hom) <= 1e-10 * (1 + np.linalg.norm(hom))


# ------------------------------------------------------------------ ProjPoint

def test_proj_point_canonical_sign_and_level():
    p = ProjPoint.from_vector([-1.0, 2.0, 0.0])
    assert p.vec[0] > 0  # sign flipped
    assert p.level == 0
    assert abs(np.linalg.norm(p.vec) - 1.0) < 1e-12
    q = ProjPoint.from_vector([0.0, 0.0, -3.0])
    assert q.level == 1 and q.vec[2] == 1.0


def test_proj_point_rejects_zero():
    with pytest.raises(ValueError):
        ProjPoint.from_vector([0.0, 0.0])


def reference_from_vector(x, level_tol):
    """The one-vector constructor's body, verbatim: (vec, level)."""
    v = np.asarray(x, dtype=float).reshape(-1).copy()
    norm = np.linalg.norm(v)
    if norm == 0.0 or not np.all(np.isfinite(v)):
        raise ValueError("projective point needs a nonzero finite representative")
    v /= norm
    level = 1
    if abs(v[-1]) <= level_tol:
        v[-1] = 0.0
        v /= np.linalg.norm(v)
        level = 0
    v = _canonical_sign(v)
    v.setflags(write=False)
    return v, level


@st.composite
def representatives(draw, level_tol):
    """Rows of dimension 2-11 scaled by 1e-8 to 1e8, with signed zeros, zero
    or negative leading entries, and last entries at and around `level_tol`
    times the norm of the rest."""
    d = draw(st.integers(2, 11))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** draw(st.floats(-8.0, 8.0))
        v = scale * rng.standard_normal(d)
        for j in range(d):
            v[j] = draw(st.sampled_from([v[j], v[j], 0.0, -0.0]))
        if draw(st.booleans()):  # a negative first nonzero entry
            lead = np.flatnonzero(np.abs(v) > 1e-12)
            if lead.size:
                v[lead[0]] = -abs(v[lead[0]])
        rest = np.linalg.norm(v[:-1])
        t = draw(st.sampled_from([None, 1.0, 0.5, 2.0, 1.0 - 1e-12, 1.0 + 1e-12]))
        if t is not None and rest > 0.0:
            # |last| / norm at t * level_tol, then a few ulps either way
            v[-1] = (draw(st.sampled_from([1.0, -1.0])) * t * level_tol * rest
                     / np.sqrt(1.0 - (t * level_tol) ** 2))
            ulps = draw(st.integers(-2, 2))
            for _ in range(abs(ulps)):
                v[-1] = np.nextafter(v[-1], np.inf if ulps > 0 else -np.inf)
        if not np.any(v):
            v[0] = -scale
        rows.append(v)
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1e-6, 1e-3, 0.25]).flatmap(
    lambda tol: st.tuples(st.just(tol), representatives(tol))))
def test_proj_points_are_the_one_vector_constructor(case):
    level_tol, V = case
    points = _proj_points(V, level_tol)
    assert len(points) == V.shape[0]
    for row, p in zip(V, points):
        vec, level = reference_from_vector(row, level_tol)
        assert p.vec.dtype == vec.dtype and p.vec.tobytes() == vec.tobytes()
        assert p.level == level and type(p.level) is int
        assert not p.vec.flags.writeable
        one = ProjPoint.from_vector(row, level_tol)
        assert one.vec.tobytes() == vec.tobytes() and one.level == level


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [np.nan, 1.0, 0.0],
                                 [1.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
def test_proj_points_reject_zero_and_non_finite_rows(bad):
    for V in (np.array([bad]), np.array([[1.0, 2.0, 3.0], bad])):
        with pytest.raises(ValueError, match="nonzero finite"):
            _proj_points(V, 1e-6)
    with pytest.raises(ValueError, match="nonzero finite"):
        ProjPoint.from_vector(bad)


def test_proj_points_scale_rows_whose_squares_leave_the_normal_range():
    # squared unscaled, [1e200, 0] overflowed to [nan, nan] and the norm of
    # [1e-170, 1e-170] underflowed to zero
    big = ProjPoint.from_vector([1e200, 0.0])
    assert big.vec.tolist() == [1.0, 0.0] and big.level == 0
    small = ProjPoint.from_vector([1e-170, 1e-170])
    assert small.level == 1 and np.allclose(small.vec, [0.5 ** 0.5] * 2, rtol=1e-15, atol=0)
    V = np.array([[3.0, -4.0, 1.0], [-1e300, 1e300, 5.0], [1e-200, 2e-200, 2e-200],
                  [0.5, 0.25, 1e-9], [1e154, 1e154, 1e154]])
    points = _proj_points(V, 1e-6)
    assert points[1].level == 0
    assert np.allclose(points[1].vec, [0.5 ** 0.5, -(0.5 ** 0.5), 0.0], rtol=1e-15, atol=0)
    assert points[2].level == 1
    assert np.allclose(points[2].vec, [1 / 3, 2 / 3, 2 / 3], rtol=1e-15, atol=0)
    assert np.allclose(points[4].vec, [3 ** -0.5] * 3, rtol=1e-15, atol=0)
    for row in (0, 3):  # rows inside the range keep the bits of the unscaled path
        vec, level = reference_from_vector(V[row], 1e-6)
        assert points[row].vec.tobytes() == vec.tobytes() and points[row].level == level


def test_proj_metric_basics():
    p = ProjPoint.from_vector([1.0, 1.0])
    q = ProjPoint.from_vector([-1.0, -1.0])
    assert proj_metric(p, q) == 0.0
    e1 = ProjPoint.from_vector([1.0, 0.0])
    e2 = ProjPoint.from_vector([0.0, 1.0])
    assert abs(proj_metric(e1, e2) - np.sqrt(2.0)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_proj_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    x, y, z = rng.normal(size=(3, 4))
    p = ProjPoint.from_vector(x)
    q = ProjPoint.from_vector(y)
    r = ProjPoint.from_vector(z)
    dpq = proj_metric(p, q)
    assert abs(dpq - proj_metric(q, p)) <= 1e-12
    assert proj_metric(p, ProjPoint.from_vector(-2.5 * x)) <= 1e-12
    assert dpq <= proj_metric(p, r) + proj_metric(r, q) + 1e-12


# ------------------------------------------------------------------ proj_step

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_proj_dist_vectors_ignores_memory_layout(d, r, s, seed):
    # the same rows in C order, in Fortran order and as transposed views, and
    # stacks of one-row blocks in either order, give the same distances
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((r, d)) * 10.0 ** rng.integers(-3, 4, size=(r, 1))
    Y = rng.standard_normal((s, d))
    expected = proj_dist_vectors(X, Y)
    for X_layout in (X, np.asfortranarray(X), np.ascontiguousarray(X.T).T):
        for Y_layout in (Y, np.asfortranarray(Y), np.ascontiguousarray(Y.T).T):
            assert np.array_equal(proj_dist_vectors(X_layout, Y_layout), expected)
    stacked = proj_dist_vectors(X[:, None, :], Y)
    for blocks in (np.asfortranarray(X[:, None, :]), np.asfortranarray(X)[:, None, :],
                   np.ascontiguousarray(X.T).T[:, None, :]):
        assert np.array_equal(proj_dist_vectors(blocks, Y), stacked)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_proj_dist_vectors_is_proj_metric_up_to_rounding_noise(d, s, seed):
    # both sum the squares of the unit rows' differences and sums, so they
    # agree to a few ulps even for rows equal to, antipodal to and nearly
    # equal to the rows of Y, where a cosine formula would cancel
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((s, d)) * 10.0 ** rng.integers(-3, 4, size=(s, 1))
    nudge = 10.0 ** rng.uniform(-12, -6, size=(s, 1)) * rng.standard_normal((s, d))
    X = np.concatenate([rng.standard_normal((s, d)), Y, -2.5 * Y, Y * (1.0 + nudge)])
    points = [[ProjPoint.from_vector(v, level_tol=0.0) for v in M] for M in (X, Y)]
    exact = np.array([[proj_metric(p, q) for q in points[1]] for p in points[0]])
    assert np.max(np.abs(proj_dist_vectors(X, Y) - exact)) <= 4 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_proj_dist_vectors_is_zero_on_one_projective_point(d, r, seed):
    # sqrt(2 - 2|cos|) gave about 3e-8 here, as |cos| rounds just below 1
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((r, d)) * 10.0 ** rng.integers(-3, 4, size=(r, 1))
    assert np.all(np.diag(proj_dist_vectors(X, X)) == 0.0)
    assert np.all(np.diag(proj_dist_vectors(X, -2.5 * X)) <= 1e-15)


def test_proj_dist_vectors_scale_rows_whose_squares_leave_the_normal_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert proj_dist_vectors([[1e200, 1e200]], [[1.0, 1.0]]).tolist() == [[0.0]]
        X = np.array([[1e-170, 3e-170], [-1e300, 2e300], [3.0, -1.0]])
        Y = np.array([[1e200, -1e-200], [2e-160, 1e-160]])
        dist = proj_dist_vectors(X, Y)
    exact = [[proj_metric(ProjPoint.from_vector(x), ProjPoint.from_vector(y)) for y in Y]
             for x in X]
    assert dist.tolist() == exact


def reference_flow_rows(M, dt, W):
    """The row-major flow: W @ E.T per chunk, kept verbatim as the reference."""
    n_sub = max(1, int(np.ceil(abs(dt) * np.linalg.norm(M) / MAX_EXP_GROWTH)))
    E = expm((dt / n_sub) * M)
    logs = np.zeros(W.shape[:-1])
    for _ in range(n_sub - 1):
        W = W @ E.T
        norms = np.linalg.norm(W, axis=-1)
        W = W / norms[..., None]
        logs += np.log(norms)
    return W @ E.T, logs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.sampled_from(["vector", "rows", "stack", "columns"]),
       st.sampled_from([0.3, 3.5]), st.integers(0, 2**32 - 1))
def test_flow_rows_is_the_row_major_loop(d, shape, growth, seed):
    # growth 3.5: |dt| ||M||_F = 3.5 MAX_EXP_GROWTH, four renormalised chunks
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    dt = growth * MAX_EXP_GROWTH / np.linalg.norm(M) if growth > 1 else growth
    P, N = rng.integers(1, 4), rng.integers(1, 200)
    W = {"vector": lambda: rng.standard_normal(d),
         "rows": lambda: rng.standard_normal((N, d)),
         "stack": lambda: rng.standard_normal((P, N, d)),
         # as SphereGrid.cell_points gives them: each point set's transpose
         # is contiguous
         "columns": lambda: rng.standard_normal((P, d, N)).transpose(0, 2, 1)}[shape]()
    expected, expected_logs = reference_flow_rows(M, dt, np.ascontiguousarray(W))
    if shape == "vector":  # one row, as proj_step and lyapunov_estimate pass it
        rows, logs = _flow_rows(_flow_step(M, dt), W[None])
        rows, logs = rows[0], logs[0]
    else:
        rows, logs = _flow_rows(_flow_step(M, dt), W)
    assert rows.shape == expected.shape and logs.shape == expected_logs.shape
    assert np.array_equal(rows, expected) and np.array_equal(logs, expected_logs)
    if growth > 1:
        assert np.any(expected_logs != 0.0)
    if shape != "vector":  # every coordinate of a block is a contiguous column
        assert all(block.T.flags.c_contiguous for block in rows.reshape(-1, *rows.shape[-2:]))


@pytest.mark.parametrize("seed", range(6))
def test_proj_step_and_lyapunov_are_the_row_major_flow(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n=3)
    emb = embed_system(sys)
    p = ProjPoint.from_vector(rng.standard_normal(4))
    for u, dt in ((rng.uniform(-1, 1, 1), 0.2), (rng.uniform(-1, 1, 1), 40.0)):
        M = emb.system_matrix(u)
        expected = ProjPoint.from_vector(reference_flow_rows(M, dt, p.vec)[0])
        got = proj_step(emb, p, u, dt)
        assert got.vec.tobytes() == expected.vec.tobytes() and got.level == expected.level
    ctrl = random_control(rng, segments=4, period_range=(2.0, 30.0))
    x = rng.standard_normal(3)
    for T in (0.7 * ctrl.period, 3.0 * ctrl.period):
        w, total = x / np.linalg.norm(x), 0.0
        for u, dt in ctrl.pieces(0.0, T):
            w, logs = reference_flow_rows(sys.system_matrix(u), dt, w)
            norm = np.linalg.norm(w)
            total += logs + np.log(norm)
            w = w / norm
        assert lyapunov_estimate(sys, ctrl, x, T) == float(total / T)


def test_proj_step_preserves_level_zero():
    sys = damped_oscillator_system()
    emb = embed_system(sys)
    p = ProjPoint.from_vector([0.6, -0.8, 0.0])
    for u in (-1.0, 0.0, 1.0):
        q = proj_step(emb, p, [u], 0.7)
        assert q.level == 0 and q.vec[-1] == 0.0
        back = proj_step(emb, q, [u], 0.3)
        assert back.level == 0


def test_proj_step_rejects_bad_dt():
    emb = embed_system(damped_oscillator_system())
    p = ProjPoint.from_vector([0.6, -0.8, 1.0])
    for dt in (0.0, -0.3, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            proj_step(emb, p, [0.0], dt)


def test_proj_step_saddle_attracts_to_expanding_axis():
    # homogeneous flow diag(2, -2) on directions: (1,1)/sqrt(2) slides to (1,0)
    emb = AffineSystem(np.diag([2.0, -2.0]), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    p = ProjPoint.from_vector([1.0, 1.0])
    target = ProjPoint.from_vector([1.0, 0.0])
    dists = [proj_metric(p, target)]
    for _ in range(4):
        p = proj_step(emb, p, [0.0], 0.5)
        dists.append(proj_metric(p, target))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 0.03


def test_proj_step_fixes_eigendirections():
    sys = damped_oscillator_system()
    emb = embed_system(sys)
    # (1, 0, 0) spans the kernel eigendirection of the embedded matrix at u = -1
    p = ProjPoint.from_vector([1.0, 0.0, 0.0])
    q = proj_step(emb, p, [-1.0], 1.3)
    assert proj_metric(p, q) < 1e-12


# ------------------------------------------------------------------- embed map

def test_embed_point_and_inverse():
    p = ProjPoint.from_vector([1.0, 0.0])
    e = embed_point(p)
    assert e.level == 0
    assert np.allclose(e.vec, [1.0, 0.0, 0.0])
    rng = np.random.default_rng(9)
    for _ in range(10):
        q = ProjPoint.from_vector(rng.normal(size=2))
        r = unembed_point(embed_point(q))
        assert proj_metric(q, r) < 1e-12


def test_embed_point_preserves_metric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = ProjPoint.from_vector(rng.normal(size=3))
        q = ProjPoint.from_vector(rng.normal(size=3))
        assert abs(proj_metric(p, q)
                   - proj_metric(embed_point(p), embed_point(q))) < 1e-12


def test_unembed_rejects_level_one():
    with pytest.raises(ValueError):
        unembed_point(ProjPoint.from_vector([0.0, 0.0, 1.0]))


# ------------------------------------------------------------------- lyapunov

def test_lyapunov_constant_control_eigenvector():
    sys = planar_saddle_system()
    for u, x, mu in [(0.3, [1.0, 0.0], 2.3), (-0.5, [0.0, 1.0], -2.5)]:
        ctrl = PiecewiseControl.constant([u], 1.0)
        for T in (1.0, 7.0, 30.0):
            lam = lyapunov_estimate(sys, ctrl, x, T)
            assert abs(lam - mu) < 1e-10


def test_lyapunov_planar_saddle_axis():
    sys = planar_saddle_system()
    lam = lyapunov_estimate(sys, PiecewiseControl.constant([0.0], 1.0), [1.0, 0.0], 10.0)
    assert abs(lam - 2.0) < 1e-10


def test_lyapunov_zero_matrix():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    assert abs(lyapunov_estimate(sys, PiecewiseControl.constant([0.5], 1.0),
                                 [0.3, 0.1], 5.0)) < 1e-15


def test_lyapunov_scales_vectors_whose_squares_leave_the_normal_range():
    sys = planar_saddle_system()
    ctrl = PiecewiseControl.from_segments([([0.5], 0.4), ([-0.5], 0.6)])
    rate = lyapunov_estimate(sys, ctrl, [1.0, 1.0], 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e200, 1e200], [1e-170, 1e-170]):
            assert lyapunov_estimate(sys, ctrl, x, 3.0) == rate


def test_lyapunov_rejects_zero_vector():
    sys = planar_saddle_system()
    with pytest.raises(ValueError):
        lyapunov_estimate(sys, PiecewiseControl.constant([0.0], 1.0), [0.0, 0.0], 1.0)


def test_lyapunov_converges_to_floquet_exponent():
    # exact at a Floquet eigenvector for any whole number of periods;
    # O(1/T) decay once non-dominant components contaminate the start vector
    sys = symmetric_coupling_system()
    ctrl = PiecewiseControl.from_segments([([0.8], 0.6), ([-0.2], 0.7)])
    mono, _ = floquet_of(sys, ctrl)
    eigvals, eigvecs = np.linalg.eig(mono.phi)
    order = np.argsort(-np.abs(eigvals))
    v_top = np.real(eigvecs[:, order[0]])
    v_top /= np.linalg.norm(v_top)
    v_low = np.real(eigvecs[:, order[1]])
    v_low /= np.linalg.norm(v_low)
    lam_top = np.log(abs(eigvals[order[0]])) / ctrl.period
    for k in (2, 8, 32):
        lam = lyapunov_estimate(sys, ctrl, v_top, k * ctrl.period)
        assert abs(lam - lam_top) < 1e-9
    mixed = v_top + 0.4 * v_low
    errs = []
    for k in (2, 8, 32):
        lam = lyapunov_estimate(sys, ctrl, mixed, k * ctrl.period)
        errs.append(abs(lam - lam_top))
    assert errs[0] > errs[1] > errs[2]
    # roughly 1/T decay: quadrupling T cuts the error by at least half
    assert errs[2] <= errs[0] / 4.0


def test_lyapunov_no_overflow_for_strong_expansion():
    sys = AffineSystem(np.diag([80.0, -80.0]), np.zeros((1, 2, 2)),
                       np.zeros((2, 1)), np.zeros(2), [-1.0], [1.0])
    lam = lyapunov_estimate(sys, PiecewiseControl.constant([0.0], 5.0),
                            [1.0, 0.0], 50.0)
    assert abs(lam - 80.0) < 1e-8


# ---------------------------------------------------------------- sphere grid

def test_sphere_grid_quotient_counts():
    for ambient, subs in ((2, 8), (3, 16)):
        grid = SphereGrid(ambient, subs)
        assert grid.size == ambient * subs ** (ambient - 1)


def test_sphere_grid_point_lookup_roundtrip():
    grid = SphereGrid(3, 16)
    ids = np.arange(grid.size)
    centers = grid.centers(ids)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
    looked = grid.box_of(centers)
    assert np.array_equal(looked, ids)
    # antipodal points land in the same quotient box
    assert np.array_equal(grid.box_of(-centers[:50]), ids[:50])


def test_sphere_grid_level_zero_touching():
    grid = SphereGrid(3, 16)
    ids = np.arange(grid.size)
    touching = ids[grid.level_zero_touching(ids)]
    z = grid.centers(touching)[:, -1]
    width = 2.0 / 16
    assert np.all(np.abs(z) <= width)  # touching boxes have near-zero centers
    assert touching.size > 0


def test_degenerate_rows_are_rejected():
    grid = SphereGrid(3, 4)
    # zero rows, and NaN or inf on the anchor or off it
    for row in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [np.nan, 1.0, 0.0], [1.0, np.nan, 0.0],
                [np.inf, 0.0, 1.0], [0.5, -3.0, np.nan], [-3.0, np.inf, 0.5],
                [2.0, 0.5, -np.inf]):
        pts = np.array([[1.0, 2.0, 3.0], row])
        for layout in (pts, np.ascontiguousarray(pts.T).T):
            with pytest.raises(ValueError):
                grid.box_of(layout)
        with pytest.raises(ValueError):
            proj_dist_vectors(np.array([row]), np.eye(3))
        with pytest.raises(ValueError):
            proj_dist_vectors(np.eye(3), np.array([row]))


def reference_sphere_box(grid: SphereGrid, x) -> int:
    """Id of one point's box via the face split: anchor axis (the first
    largest modulus), and the row-major cell of the per-axis bins of
    x / anchor on that axis's positive face."""
    axis = int(np.argmax(np.abs(x)))
    coords = np.delete(x, axis) / x[axis]
    bins = np.clip(((coords + 1.0) * 0.5 * grid.subdivisions).astype(np.int64),
                   0, grid.subdivisions - 1)
    cell = np.ravel_multi_index(tuple(bins), (grid.subdivisions,) * grid.face_dims)
    return axis * grid.cells_per_face + int(cell)


def reference_box_diameter(grid: SphereGrid) -> float:
    """Largest corner-to-corner projective distance over all boxes."""
    corners = grid.corners(np.arange(grid.size))
    best = 0.0
    for i in range(corners.shape[0]):
        for j in range(i + 1, corners.shape[0]):
            dots = np.clip(np.abs(np.sum(corners[i] * corners[j], axis=1)), 0, 1)
            best = max(best, float(np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots)).max()))
    return best


@st.composite
def sphere_points(draw):
    """A sphere grid and nonzero points with ties |x_i| == |x_j| and zeros."""
    grid = SphereGrid(draw(st.integers(2, 5)), draw(st.integers(1, 9)))
    coord = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]),
                      st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) > 1e-200))
    rows = draw(st.lists(st.lists(coord, min_size=grid.ambient, max_size=grid.ambient)
                         .filter(any), min_size=1, max_size=12))
    return grid, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(sphere_points(), st.integers(-8, 8))
def test_sphere_box_of_properties(case, k):
    grid, pts = case
    ids = grid.box_of(pts)
    assert ids.tolist() == [reference_sphere_box(grid, x) for x in pts]
    # with each coordinate a contiguous column, as the sphere graph's images
    # are, and in Fortran order
    for layout in (np.ascontiguousarray(pts.T).T, np.asfortranarray(pts)):
        assert ids.dtype == grid.box_of(layout).dtype == np.int64
        assert np.array_equal(grid.box_of(layout), ids)
    assert np.array_equal(grid.box_of(2.0 ** k * pts), ids)
    assert np.array_equal(grid.box_of(-pts), ids)
    boxes = np.arange(grid.size)
    assert np.array_equal(grid.box_of(grid.centers(boxes)), boxes)


def test_sphere_box_of_antipodes_on_bin_edges():
    grid = SphereGrid(2, 2)
    pts = np.array([[1.0, 0.0], [0.6, 0.0]])
    assert np.array_equal(grid.box_of(-pts), grid.box_of(pts))


def reference_sphere_cell_points(grid: SphereGrid, ids, offsets) -> np.ndarray:
    """The row-major mask scatter, kept verbatim as the reference."""
    axis, cell = np.divmod(np.asarray(ids, dtype=np.int64), grid.cells_per_face)
    bins = np.stack(np.unravel_index(cell, (grid.subdivisions,) * grid.face_dims), axis=-1)
    pts = np.ones((offsets.shape[0], bins.shape[0], grid.ambient))
    coords = -1.0 + (bins + offsets[:, None, :]) * (2.0 / grid.subdivisions)
    pts[:, np.arange(grid.ambient) != axis[:, None]] = coords.reshape(
        offsets.shape[0], bins.size)
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**16),
       st.data())
def test_sphere_cell_points_are_the_row_major_mask_scatter(ambient, subdivisions, count,
                                                            seed, data):
    grid = SphereGrid(ambient, subdivisions)
    every = np.arange(grid.size)
    some = np.array(data.draw(st.lists(st.integers(0, grid.size - 1), max_size=20)),
                    dtype=np.int64)
    offsets = np.vstack([np.full((1, grid.face_dims), 0.5),
                         _halton_offsets(grid.face_dims, count, seed)])
    combos = np.array(list(np.ndindex((2,) * grid.face_dims)), dtype=float)
    for ids in (every, some):
        points = grid.cell_points(ids, offsets)
        expected = reference_sphere_cell_points(grid, ids, offsets)
        assert points.shape == expected.shape
        assert np.array_equal(points, expected)  # bit for bit
        assert all(pts.T.flags.c_contiguous for pts in points)
        assert np.array_equal(grid.corners(ids),
                              reference_sphere_cell_points(grid, ids, combos))
        centers = grid.centers(ids)
        assert centers.flags.c_contiguous and np.array_equal(centers, expected[0])


def test_sphere_box_diameter_matches_all_boxes():
    # the faces are congruent, but sqrt(2 - 2 |dot|) turns a last-bit
    # rounding of the dot product into about eps / d in the diameter d, so
    # another face's maximum can differ in a few ulps (6 at ambient 4, 9 bins)
    for ambient in range(2, 6):
        for subdivisions in range(1, 10):
            grid = SphereGrid(ambient, subdivisions)
            reference = reference_box_diameter(grid)
            assert (abs(grid.box_diameter() - reference)
                    <= 2.0 * np.finfo(float).eps / reference), (ambient, subdivisions)


def test_sphere_box_diameter_bit_identical_on_benchmark_grids():
    for ambient in (3, 4):
        grid = SphereGrid(ambient, 24)
        assert grid.box_diameter() == reference_box_diameter(grid)


def test_sphere_box_diameter_is_the_face_zero_pair_loop():
    # the row-major loop over face 0's corner pairs, kept verbatim, bit for bit:
    # box_diameter visits only the cells at the face centre
    small = [(ambient, subdivisions) for ambient in range(2, 6)
             for subdivisions in range(1, 13)]
    for ambient, subdivisions in small + [(3, 25), (4, 24), (4, 25), (3, 48), (2, 1001)]:
        grid = SphereGrid(ambient, subdivisions)
        combos = np.array(list(np.ndindex((2,) * grid.face_dims)), dtype=float)
        corners = reference_sphere_cell_points(grid, np.arange(grid.cells_per_face), combos)
        best = 0.0
        for i in range(corners.shape[0]):
            for j in range(i + 1, corners.shape[0]):
                dots = np.clip(np.abs(np.sum(corners[i] * corners[j], axis=1)), 0, 1)
                d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))
                best = max(best, float(d.max()))
        assert grid.box_diameter() == best, (ambient, subdivisions)


def linear(A) -> AffineSystem:
    """The linear system dx/dt = A x, with one idle control in [-1, 1]."""
    n = len(A)
    return AffineSystem(A, np.zeros((1, n, n)), np.zeros((n, 1)), np.zeros(n),
                        [-1.0], [1.0])


def test_sphere_graph_saddle_components():
    # flow diag(2, -2): the circle dynamics has exactly the two axis
    # directions as chain-recurrent points; the surviving box components
    # hug them within a couple of box diameters
    grid = SphereGrid(2, 64)
    graph = build_sphere_graph(linear(np.diag([2.0, -2.0])), grid, [[0.0]], dt=0.25,
                               pts_per_box=6, seed=0)
    analysis = sphere_chain_components(graph)
    assert analysis.components
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])
    for target in targets:
        best = min(min(min(np.linalg.norm(d - target), np.linalg.norm(d + target))
                       for d in grid.centers(c))
                   for c in analysis.components)
        assert best <= 2 * analysis.box_diameter
    # no spurious recurrence away from the axes
    for c in analysis.components:
        for d in grid.centers(c):
            dist = min(min(np.linalg.norm(d - t), np.linalg.norm(d + t))
                       for t in targets)
            assert dist <= 2 * analysis.box_diameter


def test_sphere_graph_chunks_long_steps():
    # exp(800) overflows, so dt = 2 is taken in 23 renormalised chunks; the
    # e1 direction attracts everything and is the one chain component
    A = np.diag([400.0, -400.0, 0.0])
    grid = SphereGrid(3, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = build_sphere_graph(linear(A), grid, [[0.0]], 2.0)
    components = sphere_chain_components(graph).components
    assert [c.tolist() for c in components] == [grid.box_of([[1.0, 0.0, 0.0]]).tolist()]
    graph = build_sphere_graph(linear(A), grid, [[0.0]], 0.01)
    assert len(sphere_chain_components(graph).components) == 4
    # exp(80) is still finite: the 3 chunks give the targets of one exponential
    A = np.diag([40.0, -40.0, 0.0])
    graph = build_sphere_graph(linear(A), grid, [[0.0]], 2.0, pts_per_box=3)
    offsets = np.vstack([np.full((1, 2), 0.5), _halton_offsets(2, 2, 0)])
    images = grid.cell_points(graph.boxes, offsets) @ expm(2.0 * A).T
    rows = [sorted({int(np.searchsorted(graph.boxes, grid.box_of(images[:, j])[k]))
                    for k in range(images.shape[0])})
            for j in range(graph.num_boxes)]
    assert graph.indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert graph.targets.tolist() == [t for r in rows for t in r]


def test_sphere_graph_rejects_nonpositive_pts_per_box():
    # checked before the memory cap, which zero or negative work would pass
    grid = SphereGrid(2, 4)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="pts_per_box must be >= 1"):
            build_sphere_graph(linear(np.diag([1.0, -1.0])), grid, [[0.0]], 0.1,
                               pts_per_box=bad, memory_cap=1)


def test_sphere_graph_rejects_affine_systems():
    grid = SphereGrid(2, 4)
    for C, d in ((np.ones((2, 1)), np.zeros(2)), (np.zeros((2, 1)), [0.0, 1e-300])):
        sys = AffineSystem(np.eye(2), np.zeros((1, 2, 2)), C, d, [-1.0], [1.0])
        with pytest.raises(ValueError, match="C and d must be zero"):
            build_sphere_graph(sys, grid, [[0.0]], 0.1)


# ------------------------------------------------------- estimator (a) basics

def test_sphere_graph_is_a_transition_graph_with_one_scc_labelling(monkeypatch):
    from affinecontrol import reach
    calls = []
    connected = reach.csgraph.connected_components
    monkeypatch.setattr(reach.csgraph, "connected_components",
                        lambda *a, **k: calls.append(1) or connected(*a, **k))
    sphere = SphereGrid(3, 6)
    graph = build_sphere_graph(linear(np.diag([1.0, -1.0, -2.0])), sphere, [[0.0]], 0.1,
                               pts_per_box=3, seed=1)
    assert type(graph) is SphereGraph and isinstance(graph, TransitionGraph)
    assert graph.sphere is graph.grid is sphere
    ids = np.arange(sphere.size)
    assert np.array_equal(graph.boxes, ids) and graph.num_boxes == ids.size
    assert graph.sink.shape == ids.shape and not graph.sink.any()
    # positions are box ids
    order = np.random.default_rng(0).permutation(ids)
    assert np.array_equal(graph.position_of(order), order)
    assert graph.position_of([ids.size, -1]).tolist() == [-1, -1]
    for p in ids:
        succ = graph.successors(p)
        assert np.array_equal(succ, graph.targets[graph.indptr[p]:graph.indptr[p + 1]])
        assert np.array_equal(graph.boxes[succ], succ)
    # the SCC labelling is computed on first use, then read from the graph
    assert graph._scc is None and not calls
    first = sphere_chain_components(graph)
    assert len(calls) == 1 and graph._scc is not None
    labels, kept = graph.scc()
    second = sphere_chain_components(graph)
    assert len(calls) == 1 and graph.scc()[0] is labels
    assert [c.tolist() for c in second.components] == [c.tolist() for c in first.components]
    assert sum(c.size for c in first.components) == np.count_nonzero(kept[labels])


def test_reach_queries_take_sphere_graphs():
    # a rotation in the x1-x2 plane attracting to it: one 16-box component
    # around the circle x3 = 0, the repelling x3 axis, and wandering boxes
    sphere = SphereGrid(3, 4)
    A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    graph = build_sphere_graph(linear(A), sphere, [[0.0]], 0.5, pts_per_box=3, seed=1)
    analysis = sphere_chain_components(graph)
    components = chain_components(graph)
    assert [c.indices.tolist() for c in components] == [
        c.tolist() for c in analysis.components]
    assert all(c.grid is sphere for c in components) and len(components[0]) == 16
    assert np.array_equal(components[0].centers(), sphere.centers(components[0].indices))
    owner = {int(b): k for k, c in enumerate(analysis.components) for b in c}
    assert 0 < len(owner) < sphere.size
    for box in range(sphere.size):
        cs = control_set_approx(graph, box)
        one = BoxSet(sphere, [box])
        strict = closure(graph, one, "forward", include_start=False).intersection(
            closure(graph, one, "backward", include_start=False))
        assert cs.grid is sphere and cs.equals(strict)
        expected = analysis.components[owner[box]] if box in owner else []
        assert cs.indices.tolist() == list(expected)
        assert box in closure(graph, one, "forward") and box in closure(graph, one, "backward")


@pytest.mark.parametrize("max_points", [0, -5])
def test_infinity_directions_reject_nonpositive_max_points(max_points):
    grid = BoxGrid([-100.0, -100.0], [100.0, 100.0], [40, 40])
    with pytest.raises(ValueError, match="max_points"):
        infinity_boundary_directions(BoxSet(grid, np.arange(grid.size)), norm_floor=60.0,
                                     max_points=max_points)


@pytest.mark.parametrize("norm_floor", [np.nan, np.inf, 0.0, -1.0])
def test_infinity_directions_reject_a_floor_that_is_not_positive_and_finite(norm_floor):
    # unchecked, NaN and inf kept no center: the empty report of a bounded set
    grid = BoxGrid([-100.0, -100.0], [100.0, 100.0], [40, 40])
    with pytest.raises(ValueError, match="norm_floor"):
        infinity_boundary_directions(BoxSet(grid, np.arange(grid.size)),
                                     norm_floor=norm_floor)


def test_infinity_directions_bounded_set_is_empty():
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [32, 32])
    # all boxes with centers of norm < 5 in this window -> nothing beyond floor 10
    box_set = BoxSet(grid, np.arange(grid.size))
    report = infinity_boundary_directions(box_set, norm_floor=10.0)
    assert report.empty


def test_infinity_directions_two_clusters_for_coupling_equilibria():
    # equilibria of the symmetric-coupling system near the loss of
    # hyperbolicity: directions approach (-+1, 1)/sqrt(2)
    grid = BoxGrid([-200.0, -200.0], [200.0, 200.0], [400, 400])
    pts = []
    for u in (0.499, -0.499, 0.4985, -0.4985):
        x = -u / (1.0 - 4.0 * u * u)
        y = 2.0 * u * u / (1.0 - 4.0 * u * u)
        pts.append([x, y])
    box_set = BoxSet(grid, grid.box_of(np.array(pts)))
    report = infinity_boundary_directions(box_set, norm_floor=10.0)
    assert len(report.directions) == 2
    targets = [ProjPoint.from_vector([1.0, 1.0, 0.0]),
               ProjPoint.from_vector([-1.0, 1.0, 0.0])]
    for t in targets:
        assert min(proj_metric(t, d) for d in report.directions) < 0.05
    assert all(d.level == 0 for d in report.directions)


def union_find_directions(centers, norm_floor, tol):
    """Box-center estimator by loops: per-row sign, union-find single
    linkage, clusters by (-size, first member), sign-aligned means."""
    pts = centers[np.linalg.norm(centers, axis=1) >= norm_floor]
    dirs = np.hstack([pts / np.linalg.norm(pts, axis=1, keepdims=True),
                      np.zeros((pts.shape[0], 1))])
    for i, v in enumerate(dirs):
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            dirs[i] = -v
    parent = list(range(dirs.shape[0]))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(proj_dist_vectors(dirs, dirs) <= tol)):
        ri, rj = find(i), find(j)
        parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(dirs.shape[0])])
    clusters = sorted((np.flatnonzero(roots == r) for r in np.unique(roots)),
                      key=lambda c: (-c.size, int(c[0])))
    reps = []
    for members in clusters:
        block = dirs[members]
        signs = np.where(block @ block[0] >= 0, 1.0, -1.0)
        reps.append(ProjPoint.from_vector((block * signs[:, None]).mean(axis=0)).vec)
    return reps, [int(c.size) for c in clusters]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.02, 0.1, 0.3]))
def test_infinity_directions_match_union_find_reference(seed, tol):
    rng = np.random.default_rng(seed)
    grid = BoxGrid([-50.0, -50.0], [50.0, 50.0], [60, 60])
    box_set = BoxSet(grid, rng.choice(grid.size, int(rng.integers(1, 300)), replace=False))
    reps, sizes = union_find_directions(box_set.centers(), 30.0, tol)
    for pairs in (projective._PAIRS, 64):  # one batch of candidate pairs, and many
        with mock.patch.object(projective, "_PAIRS", pairs):
            report = infinity_boundary_directions(box_set, norm_floor=30.0,
                                                  tolerances=Tolerances(cluster_tol=tol))
        assert report.cluster_sizes == sizes
        assert all(np.array_equal(p.vec, r) for p, r in zip(report.directions, reps))
        assert len(report.directions) == len(reps)


def test_infinity_directions_join_antipodal_centers_at_any_radius():
    # (-0.75, 147.75) and (0.75, -147.75) name one projective point; the
    # distance sqrt(2 - 2 |cos|) of their unit rows rounds to 1.49e-8
    grid = BoxGrid([-150.0, -150.0], [150.0, 150.0], [200, 200])
    pair = grid.box_of(np.array([[-0.75, 147.75], [0.75, -147.75]]))
    report = infinity_boundary_directions(BoxSet(grid, pair), norm_floor=60.0,
                                          tolerances=Tolerances(cluster_tol=1e-9))
    assert report.cluster_sizes == [2]


def test_infinity_directions_of_centers_whose_squares_overflow():
    # centers of modulus 2.5e199 and 7.5e199: np.linalg.norm overflowed to
    # inf, and every direction came out zero
    huge = BoxGrid([-1e200, -1e200], [1e200, 1e200], [4, 4])
    unit = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    report = infinity_boundary_directions(BoxSet(huge, np.arange(16)), norm_floor=1.0)
    expected = infinity_boundary_directions(BoxSet(unit, np.arange(16)), norm_floor=0.1)
    assert report.cluster_sizes == expected.cluster_sizes == [4, 4, 2, 2, 2, 2]
    for got, want in zip(report.directions, expected.directions):
        assert got.level == 0 and proj_metric(got, want) < 1e-15


def test_scaled_norms_keep_the_bits_of_rows_in_range():
    V = np.array([[3.0, 4.0], [1e200, -1e200], [1e-200, 3e-200], [0.0, 0.0], [0.1, 0.7],
                  [1.7e308, 1.7e308]])
    scales, norms = projective._scaled_norms(V)
    kept = [0, 4]
    assert np.array_equal(norms[kept], np.linalg.norm(V[kept], axis=1))
    assert np.all(scales[kept] == 1.0)
    assert scales[3] == 1.0 and norms[3] == 0.0
    assert scales[1] * norms[1] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert scales[2] * norms[2] == pytest.approx(np.sqrt(10.0) * 1e-200, rel=1e-15)
    unit = V[[1, 2, 5]] / scales[[1, 2, 5], None] / norms[[1, 2, 5], None]
    assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=1e-15, atol=0.0)


def test_infinity_directions_memory_stays_below_one_distance_matrix():
    # every box of the window: about 3500 directions around the circle,
    # chained into one cluster, so the threshold graph is dense as well
    grid = BoxGrid([-150.0, -150.0], [150.0, 150.0], [60, 60])
    box_set = BoxSet(grid, np.arange(grid.size))
    k = int(np.count_nonzero(np.linalg.norm(box_set.centers(), axis=1) >= 30.0))
    assert k >= 3000
    tracemalloc.start()
    try:
        report = infinity_boundary_directions(box_set, norm_floor=30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cluster_sizes == [k]
    assert peak < k * k * np.dtype(float).itemsize


def test_infinity_directions_ingests_blowup_records():
    sys = symmetric_coupling_system()
    u = PiecewiseControl.constant([-0.7], 1.0)
    v = PiecewiseControl.constant([-0.4], 1.0)
    result = continuation(sys, concat_path(u, v), steps=21)
    grid = BoxGrid([-10.0, -10.0], [10.0, 10.0], [16, 16])
    empty = BoxSet(grid, np.empty(0, dtype=np.int64))
    report = infinity_boundary_directions(
        empty, norm_floor=100.0,
        blowup_records=[r for r in result.records if np.isfinite(r.norm_x)])
    assert not report.empty
    diag = ProjPoint.from_vector([1.0, 1.0, 0.0])
    assert min(proj_metric(diag, d) for d in report.directions) < 0.02


@pytest.mark.parametrize("max_points", [10**5, 48, 47, 5, 1])
def test_infinity_directions_keep_blowup_records_past_max_points(max_points):
    # 48 far boxes around the e1 axis, and one blown-up solution along e2
    grid = BoxGrid([-100.0, -100.0], [100.0, 100.0], [40, 40])
    centers = grid.centers(np.arange(grid.size))
    far = np.flatnonzero((centers[:, 0] > 70.0) & (np.abs(centers[:, 1]) < 20.0))
    assert far.size == 48
    record = ContinuationRecord(alpha=0.5, path=None, det_gap=0.0, margin=1.0,
                                solution=Unique(np.array([0.0, 1e6])), norm_x=1e6,
                                kernel_angle=float("nan"))
    report = infinity_boundary_directions(BoxSet(grid, far), norm_floor=60.0,
                                          blowup_records=[record], max_points=max_points)
    e2 = ProjPoint.from_vector([0.0, 1.0, 0.0])
    assert any(proj_metric(e2, d) == 0.0 for d in report.directions)
    # the centers are strided to at most max_points; the record is one more
    stride = -(-far.size // max_points)
    assert sum(report.cluster_sizes) == len(range(0, far.size, stride)) + 1


def test_chain_matches_ignore_cluster_tol():
    # cluster_tol is the box-center estimator's radius; the chain estimator
    # matches within 2 embedded-sphere box diameters
    emb = embed_system(planar_saddle_system())
    controls = [[-1.0], [0.0], [1.0]]
    base = infinity_boundary_chain(emb, 8, controls, 0.1)
    tight = infinity_boundary_chain(emb, 8, controls, 0.1,
                                    tolerances=Tolerances(cluster_tol=1e-9))
    assert any(d > 1e-9 for _, _, d in base.matches)
    assert tight.matches == base.matches
    assert all(d <= 2.0 * base.details[0].box_diameter for _, _, d in base.matches)


def reference_chain_matches(big, hom, match_tol, level_tol):
    """The per-slice loop: one distance call per nonempty level-0 slice."""
    sizes = np.array([c.size for c in hom.components])
    starts = np.cumsum(sizes) - sizes
    hom_boxes = np.concatenate(hom.components)
    hom_dirs = np.hstack([hom.graph.sphere.centers(hom_boxes),
                          np.zeros((hom_boxes.size, 1))])
    matches = []
    directions = []
    for i, slice_boxes in enumerate(big.level_zero):
        if slice_boxes.size == 0:
            continue
        dirs = big.graph.sphere.centers(slice_boxes)
        dirs[:, -1] = 0.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        directions.extend(ProjPoint.from_vector(v, level_tol) for v in dirs)
        dmin = np.minimum.reduceat(proj_dist_vectors(dirs, hom_dirs).min(axis=0), starts)
        matches.extend((i, int(j), float(dmin[j]))
                       for j in np.flatnonzero(dmin <= match_tol))
    return directions, matches


@pytest.mark.parametrize("seed", range(4))
def test_chain_matches_are_the_per_slice_loop(seed, monkeypatch):
    import affinecontrol.projective as projective
    calls = []
    dist = projective.proj_dist_vectors

    def counted(X, Y):
        calls.append(X.shape)
        return dist(X, Y)

    sys = (planar_saddle_system() if seed == 0
           else random_system(np.random.default_rng(seed), n=3))
    emb, controls = embed_system(sys), [[-0.5], [0.0], [0.5]]
    monkeypatch.setattr(projective, "proj_dist_vectors", counted)
    report = infinity_boundary_chain(emb, 6 + 2 * seed, controls, 0.1, seed=seed)
    assert len(calls) <= 1
    big, hom = report.details
    directions, matches = reference_chain_matches(
        big, hom, 2.0 * big.box_diameter, Tolerances().level_tol)
    assert [p.vec.tobytes() for p in report.directions] == [
        p.vec.tobytes() for p in directions]
    assert [p.level for p in report.directions] == [p.level for p in directions]
    # each distance is its own pair's, whatever rows share the call
    assert report.matches == matches


def test_infinity_boundary_chain_rejects_a_system_that_is_no_embedding():
    # the flow of this linear system leaves z = 0, so that level is not the
    # one at infinity; unchecked, it gave 12 directions and 84 matches
    sys = AffineSystem([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.5]],
                       np.eye(3)[None], np.zeros((3, 1)), np.zeros(3), [-1.0], [1.0])
    with pytest.raises(ValueError, match="embedding"):
        infinity_boundary_chain(sys, 6, [[0.0]], 0.1)
    emb = embed_system(planar_saddle_system())
    B = emb.B.copy()
    B[0, -1, 0] = 1e-300
    with pytest.raises(ValueError, match="embedding"):
        infinity_boundary_chain(AffineSystem(emb.A, B, emb.C, emb.d, emb.omega_lo,
                                             emb.omega_hi), 4, [[0.0]], 0.1)


def test_infinity_boundary_chain_rejects_controls_outside_the_box():
    emb = embed_system(planar_saddle_system())  # controls in [-1, 1]
    with pytest.raises(ValueError, match="outside the control box"):
        infinity_boundary_chain(emb, 4, [[0.0], [5.0]], 0.1)

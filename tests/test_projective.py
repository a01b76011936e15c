"""Tests for the embedding, projective points, sphere grids, and estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinecontrol.floquet import concat_path, continuation, floquet_of
from affinecontrol.projective import (
    HomEmbedding,
    ProjPoint,
    SphereGrid,
    build_sphere_graph,
    embed_point,
    embed_system,
    infinity_boundary_chain,
    infinity_boundary_directions,
    lyapunov_estimate,
    proj_metric,
    proj_step,
    sphere_chain_components,
    unembed_point,
)
from affinecontrol.reach import BoxGrid, BoxSet
from affinecontrol.system import AffineSystem, PiecewiseControl, propagate, simulate

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
    assert np.array_equal(emb.A_hat[-1], np.zeros(3))
    assert np.array_equal(emb.B_hat[:, -1, :], np.zeros((1, 3)))
    assert np.array_equal(emb.A_hat[:2, :2], sys.A)
    assert np.array_equal(emb.A_hat[:2, 2], sys.d)


def test_embedding_zero_system():
    sys = AffineSystem(np.zeros((2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    emb = embed_system(sys)
    assert np.array_equal(emb.A_hat, np.zeros((3, 3)))
    assert np.array_equal(emb.B_hat, np.zeros((1, 3, 3)))


def test_embedded_level_one_reproduces_affine_trajectories():
    rng = np.random.default_rng(3)
    sys = random_system(rng, n=3, m=2)
    emb = embed_system(sys).as_affine_system()
    ctrl = random_control(rng, m=2, segments=3)
    x0 = rng.normal(size=3)
    lifted = propagate(emb, ctrl, np.concatenate([x0, [1.0]]), 2.1)
    plain = propagate(sys, ctrl, x0, 2.1)
    assert abs(lifted[-1] - 1.0) < 1e-12
    assert np.linalg.norm(lifted[:3] - plain) <= 1e-10 * (1 + np.linalg.norm(plain))


def test_embedded_level_zero_reproduces_homogeneous_trajectories():
    rng = np.random.default_rng(5)
    sys = random_system(rng, n=3, m=1)
    emb = embed_system(sys).as_affine_system()
    ctrl = random_control(rng, m=1, segments=2)
    x0 = rng.normal(size=3)
    lifted = propagate(emb, ctrl, np.concatenate([x0, [0.0]]), 1.7)
    hom = propagate(sys.homogeneous(), ctrl, x0, 1.7)
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

def test_proj_step_preserves_level_zero():
    sys = damped_oscillator_system()
    emb = embed_system(sys)
    p = ProjPoint.from_vector([0.6, -0.8, 0.0])
    for u in (-1.0, 0.0, 1.0):
        q = proj_step(emb, p, [u], 0.7)
        assert q.level == 0 and q.vec[-1] == 0.0
        back = proj_step(emb, q, [u], 0.3)
        assert back.level == 0


def test_proj_step_saddle_attracts_to_expanding_axis():
    # homogeneous flow diag(2, -2) on directions: (1,1)/sqrt(2) slides to (1,0)
    emb = HomEmbedding(np.diag([2.0, -2.0]), np.zeros((1, 2, 2)), [-1.0], [1.0])
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
        ids = grid.canonical_ids()
        assert ids.size == (ambient) * subs ** (ambient - 1)
        anti = grid.antipode(ids)
        assert np.all(grid.canonical(anti) == ids)


def test_sphere_grid_point_lookup_roundtrip():
    grid = SphereGrid(3, 16)
    ids = grid.canonical_ids()
    centers = grid.centers(ids)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
    looked = grid.box_of(centers)
    assert np.array_equal(looked, ids)
    # antipodal points land in the same quotient box
    assert np.array_equal(grid.box_of(-centers[:50]), ids[:50])


def test_sphere_grid_level_zero_touching():
    grid = SphereGrid(3, 16)
    ids = grid.canonical_ids()
    touching = ids[grid.level_zero_touching(ids)]
    z = grid.centers(touching)[:, -1]
    width = 2.0 / 16
    assert np.all(np.abs(z) <= width)  # touching boxes have near-zero centers
    assert touching.size > 0


def test_sphere_graph_saddle_components():
    # flow diag(2, -2): the circle dynamics has exactly the two axis
    # directions as chain-recurrent points; the surviving box components
    # hug them within a couple of box diameters
    grid = SphereGrid(2, 64)
    matrix_of = lambda u: np.diag([2.0, -2.0])
    graph = build_sphere_graph(matrix_of, None, grid, [[0.0]], dt=0.25,
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


# ------------------------------------------------------- estimator (a) basics

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


def test_infinity_boundary_chain_rejects_controls_outside_the_box():
    emb = embed_system(planar_saddle_system())  # controls in [-1, 1]
    with pytest.raises(ValueError, match="outside the control box"):
        infinity_boundary_chain(emb, 4, [[0.0], [5.0]], 0.1)

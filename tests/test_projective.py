"""Tests for the embedding, projective points, sphere grids, and estimators."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol.config import Tolerances
from affinecontrol.floquet import concat_path, continuation, floquet_of
from affinecontrol.projective import (
    ProjPoint,
    SphereGrid,
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
from affinecontrol.reach import BoxGrid, BoxSet, _halton_offsets
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
        assert grid.num_boxes == ambient * subs ** (ambient - 1)


def test_sphere_grid_point_lookup_roundtrip():
    grid = SphereGrid(3, 16)
    ids = np.arange(grid.num_boxes)
    centers = grid.centers(ids)
    assert np.allclose(np.linalg.norm(centers, axis=1), 1.0)
    looked = grid.box_of(centers)
    assert np.array_equal(looked, ids)
    # antipodal points land in the same quotient box
    assert np.array_equal(grid.box_of(-centers[:50]), ids[:50])


def test_sphere_grid_level_zero_touching():
    grid = SphereGrid(3, 16)
    ids = np.arange(grid.num_boxes)
    touching = ids[grid.level_zero_touching(ids)]
    z = grid.centers(touching)[:, -1]
    width = 2.0 / 16
    assert np.all(np.abs(z) <= width)  # touching boxes have near-zero centers
    assert touching.size > 0


def test_degenerate_rows_are_rejected():
    grid = SphereGrid(3, 4)
    for row in ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1.0, np.nan, 0.0],
                [np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError):
            grid.box_of(np.array([[1.0, 2.0, 3.0], row]))
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
    corners = grid.corners(np.arange(grid.num_boxes))
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
    assert np.array_equal(grid.box_of(2.0 ** k * pts), ids)
    assert np.array_equal(grid.box_of(-pts), ids)
    boxes = np.arange(grid.num_boxes)
    assert np.array_equal(grid.box_of(grid.centers(boxes)), boxes)


def test_sphere_box_of_antipodes_on_bin_edges():
    grid = SphereGrid(2, 2)
    pts = np.array([[1.0, 0.0], [0.6, 0.0]])
    assert np.array_equal(grid.box_of(-pts), grid.box_of(pts))


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
    images = grid.cube_points(graph.boxes, offsets) @ expm(2.0 * A).T
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
    report = infinity_boundary_directions(box_set, norm_floor=30.0,
                                          tolerances=Tolerances(cluster_tol=tol))
    reps, sizes = union_find_directions(box_set.centers(), 30.0, tol)
    assert report.cluster_sizes == sizes
    assert all(np.array_equal(p.vec, r) for p, r in zip(report.directions, reps))
    assert len(report.directions) == len(reps)


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


def test_chain_matches_ignore_cluster_tol():
    # cluster_tol is the box-center estimator's radius; the chain estimator
    # matches within its own match_tol (None: 2 embedded-sphere box diameters)
    emb = embed_system(planar_saddle_system())
    controls = [[-1.0], [0.0], [1.0]]
    base = infinity_boundary_chain(emb, 8, controls, 0.1)
    tight = infinity_boundary_chain(emb, 8, controls, 0.1,
                                    tolerances=Tolerances(cluster_tol=1e-9))
    assert any(d > 1e-9 for _, _, d in base.matches)
    assert tight.matches == base.matches
    assert all(d <= 2.0 * base.details[0].box_diameter for _, _, d in base.matches)


def test_infinity_boundary_chain_rejects_controls_outside_the_box():
    emb = embed_system(planar_saddle_system())  # controls in [-1, 1]
    with pytest.raises(ValueError, match="outside the control box"):
        infinity_boundary_chain(emb, 4, [[0.0], [5.0]], 0.1)

"""Reference tests of the row-wise box-graph kernel.

`BoxGrid.box_of`, `build_transition_graph`, `build_sphere_graph` and
`BoxSet.dilate` are compared with brute-force versions written here point
by point and box by box: a scalar floor lookup per point, Python sets of
(source, target) pairs, and a Chebyshev-distance mask over all boxes.  Both
graph builders share one sampling path, so they reject the same inputs.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol.config import MAX_EXP_GROWTH
from affinecontrol.projective import SphereGrid, build_sphere_graph
from affinecontrol.reach import (
    BoxGrid,
    BoxSet,
    MemoryBudgetError,
    _halton_offsets,
    _test_points,
    build_transition_graph,
    refine,
)
from affinecontrol.system import AffineSystem, segment_map


def scalar_box(grid: BoxGrid, x) -> int:
    """Flat box index of one point, or -1 outside the half-open window
    lo <= x < hi; per axis the floor, clipped to the last box."""
    flat = 0
    for k in range(grid.dim):
        xk = float(x[k])
        if not float(grid.lo[k]) <= xk < float(grid.hi[k]):  # False for NaN
            return -1
        sub = int(grid.subdivisions[k])
        r = math.floor((xk - float(grid.lo[k])) / float(grid.widths[k]))
        flat = flat * sub + min(r, sub - 1)
    return flat


@st.composite
def grids(draw, max_sub=6):
    dim = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-3.0, 1.0), min_size=dim, max_size=dim)))
    span = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim)))
    subs = draw(st.lists(st.integers(1, max_sub), min_size=dim, max_size=dim))
    return BoxGrid(lo, lo + span, subs)


SPECIAL = [np.nan, np.inf, -np.inf, 1e300, -1e300]


@settings(max_examples=200, deadline=None)
@given(grids(), st.data())
def test_box_of_matches_scalar_lookup(grid, data):
    n = data.draw(st.integers(0, 30))
    coord = st.one_of(st.floats(-6.0, 6.0), st.sampled_from(SPECIAL),
                      st.floats(allow_nan=True, allow_infinity=True))
    pts = np.array(data.draw(st.lists(st.lists(coord, min_size=grid.dim,
                                               max_size=grid.dim),
                                      min_size=n, max_size=n)),
                   dtype=float).reshape(n, grid.dim)
    # window corners: lo on an axis is box 0 there; hi is outside
    pts = np.concatenate([pts, grid.lo[None, :], grid.hi[None, :]])
    expected = [scalar_box(grid, x) for x in pts]
    # row-major points, and the layout build_transition_graph passes: the
    # transpose of a (dim, n) array, whose columns are contiguous
    for layout in (pts, np.ascontiguousarray(pts.T).T):
        got = grid.box_of(layout)
        assert got.dtype == np.int64
        assert got.tolist() == expected


def test_box_of_window_edges_and_nonfinite_points():
    grid = BoxGrid([0.0, -1.0, 2.0], [1.0, 1.0, 4.0], [4, 2, 8])  # exact widths
    pts = np.array([
        [0.0, -1.0, 2.0],       # lo: box (0, 0, 0)
        [0.5, 0.0, 3.0],        # interior: box (2, 1, 4)
        [1.0, 0.0, 3.0],        # on hi of axis 0
        [0.5, 1.0, 3.0],        # on hi of axis 1
        [0.5, 0.0, 4.0],        # on hi of axis 2
        [np.nan, 0.0, 3.0],
        [0.5, np.inf, 3.0],
        [0.5, 0.0, -np.inf],
        [1e300, 0.0, 3.0],
        [0.5, -1e300, 3.0],
    ])
    expected = [0, grid.flat_index([[2, 1, 4]])[0]] + [-1] * 8
    assert grid.box_of(pts).tolist() == expected


def test_box_of_upper_edge_on_inexact_widths():
    # whichever way (hi - lo) / width rounds, hi itself is outside and the
    # float just below it is in the last box
    rng = np.random.default_rng(0)
    for lo, span in zip(rng.uniform(-5.0, 5.0, 200), rng.uniform(0.1, 10.0, 200)):
        for sub in range(1, 50):
            grid = BoxGrid([lo], [lo + span], [sub])
            hi = grid.hi[0]
            below = np.nextafter(hi, grid.lo[0])
            assert grid.box_of([[hi], [below]]).tolist() == [-1, sub - 1], (lo, span, sub)


@pytest.mark.parametrize("grid, points", [
    (BoxGrid([0.0], [1.0], [10]), [0.15, 0.65]),  # one 2-D point, not two 1-D ones
    (BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4]), [[0.6, 0.1, 5.0]]),
    (BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4]), [[0.6], [0.1]]),
    (SphereGrid(3, 4), [[1.0, 0.2, 0.1, 99.0]]),
    (SphereGrid(3, 4), [[1.0, 0.2], [0.3, 0.4]]),
])
def test_box_of_rejects_points_of_another_dimension(grid, points):
    pts = np.array(points, dtype=float)
    for layout in (pts, np.ascontiguousarray(pts.T).T):
        with pytest.raises(ValueError, match="coordinates"):
            grid.box_of(layout)
    if isinstance(grid, BoxGrid) and pts.ndim == 2:
        with pytest.raises(ValueError, match="coordinates"):
            grid.box_containing(pts[0])


def test_box_of_reads_every_coordinate():
    assert BoxGrid([0.0], [1.0], [10]).box_of([[0.15], [0.65]]).tolist() == [1, 6]
    assert BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4]).box_containing([0.6, 0.1]) == 8
    assert SphereGrid(3, 4).box_of([[1.0, 0.2, 0.1]]).tolist() == [10]


def affine_systems(n):
    entry = st.floats(-2.0, 2.0)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    vector = st.lists(entry, min_size=n, max_size=n)
    return st.builds(
        lambda A, B, c, d: AffineSystem(A, [B], np.array(c)[:, None], d, [-1.0], [1.0]),
        square, square, vector, vector)


@st.composite
def graph_cases(draw):
    grid = draw(grids())
    sys = draw(affine_systems(grid.dim))
    controls = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                      max_size=3)))[:, None]
    dt = draw(st.floats(0.05, 1.0))
    pts_per_box = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    active = None
    if draw(st.booleans()):
        active = BoxSet(grid, draw(st.lists(st.integers(0, grid.size - 1),
                                            unique=True)))
    return sys, grid, controls, dt, pts_per_box, seed, active


def reference_graph(sys, grid, controls, dt, pts_per_box, seed, active):
    """(indptr, targets, sink) from a set of (source, target) position pairs."""
    boxes = active.indices if active is not None else np.arange(grid.size)
    position = {int(b): p for p, b in enumerate(boxes)}
    points = _test_points(grid, boxes, pts_per_box, seed)
    edges, sink = set(), set()
    for u in controls:
        G, h = segment_map(sys, u, dt)
        for pts in points:
            with np.errstate(over="ignore", invalid="ignore"):
                images = pts @ G.T + h
            for src, x in enumerate(images):
                tgt = position.get(scalar_box(grid, x), -1)
                if tgt < 0:
                    sink.add(src)
                else:
                    edges.add((src, tgt))
    n = boxes.size
    rows = [sorted(t for s, t in edges if s == src) for src in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, [t for r in rows for t in r], [src in sink for src in range(n)]


@settings(max_examples=150, deadline=None)
@given(graph_cases())
def test_transition_graph_matches_pairwise_reference(case):
    graph = build_transition_graph(*case[:6], active=case[6])
    indptr, targets, sink = reference_graph(*case)
    assert graph.indptr.dtype == graph.targets.dtype == np.int64
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.targets.tolist() == targets
    assert graph.sink.tolist() == sink


@st.composite
def sphere_graph_cases(draw):
    """A linear system on a sphere grid, with |dt| ||A(u)||_F <= 16 < MAX_EXP_GROWTH."""
    ambient = draw(st.integers(2, 4))
    sphere = SphereGrid(ambient, draw(st.integers(1, 6)))
    square = st.lists(st.lists(st.floats(-2.0, 2.0), min_size=ambient, max_size=ambient),
                      min_size=ambient, max_size=ambient)
    sys = AffineSystem(draw(square), [draw(square)], np.zeros((ambient, 1)),
                       np.zeros(ambient), [-1.0], [1.0])
    controls = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                      max_size=3)))[:, None]
    return (sys, sphere, controls, draw(st.floats(0.05, 1.0)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**16)))


def reference_sphere_graph(sys, sphere, controls, dt, pts_per_box, seed):
    """(indptr, targets) from a set of (source, target) position pairs, with
    one exponential per control."""
    boxes = np.arange(sphere.num_boxes)
    position = {int(b): p for p, b in enumerate(boxes)}
    offsets = np.vstack([np.full((1, sphere.face_dims), 0.5),
                         _halton_offsets(sphere.face_dims, pts_per_box - 1, seed)])
    points = sphere.cube_points(boxes, offsets)
    edges = set()
    for u in controls:
        M = sys.system_matrix(u)
        assert dt * np.linalg.norm(M) < MAX_EXP_GROWTH  # so the builder takes one step
        for images in points @ expm(dt * M).T:
            for src, tgt in enumerate(sphere.box_of(images)):
                edges.add((src, position[int(tgt)]))  # KeyError: not a box id
    rows = [sorted(t for s, t in edges if s == src) for src in range(boxes.size)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, [t for r in rows for t in r]


@settings(max_examples=100, deadline=None)
@given(sphere_graph_cases())
def test_sphere_graph_matches_pairwise_reference(case):
    graph = build_sphere_graph(*case)
    indptr, targets = reference_sphere_graph(*case)
    assert graph.indptr.dtype == graph.targets.dtype == np.int64
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.targets.tolist() == targets


@settings(max_examples=100, deadline=None)
@given(grids(), st.integers(1, 5), st.integers(0, 2**16), st.data())
def test_test_points_are_centers_and_offset_lower_corners(grid, pts_per_box, seed, data):
    boxes = np.array(data.draw(st.lists(st.integers(0, grid.size - 1), unique=True)),
                     dtype=np.int64)
    offsets = _halton_offsets(grid.dim, pts_per_box - 1, seed)
    lower = grid.lower_corners(boxes)
    expected = np.stack([grid.centers(boxes)]
                        + [lower + off * grid.widths for off in offsets])
    points = _test_points(grid, boxes, pts_per_box, seed)
    assert points.shape == expected.shape
    assert np.array_equal(points, expected)  # bit for bit
    assert all(pts.T.flags.c_contiguous for pts in points)


def assert_matches_reference(graph, *case):
    indptr, targets, sink = reference_graph(*case)
    assert graph.indptr.dtype == graph.targets.dtype == np.int64
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.targets.tolist() == targets
    assert graph.sink.tolist() == sink


def test_refined_graph_of_a_non_normal_flow_matches_pairwise_reference():
    # a shear with rotation: G = exp(dt A(u)) is neither diagonal nor normal
    A = np.array([[0.4, 2.5], [-0.3, -0.6]])
    B = np.array([[[0.0, 0.5], [0.0, 0.2]]])
    sys = AffineSystem(A, B, [[0.5], [1.0]], [0.2, -0.1], [-1.0], [1.0])
    controls = np.array([[-1.0], [0.0], [0.6]])
    dt, pts_per_box, seed = 0.3, 3, 11
    G, _ = segment_map(sys, controls[2], dt)
    assert np.count_nonzero(G - np.diag(np.diag(G))) == 2
    assert not np.allclose(G @ G.T, G.T @ G)

    grid = BoxGrid([-3.0, -2.5], [3.0, 3.5], [48, 48])
    graph = build_transition_graph(sys, grid, controls, dt, pts_per_box, seed)
    assert_matches_reference(graph, sys, grid, controls, dt, pts_per_box, seed, None)
    disc = np.flatnonzero(np.hypot(*grid.centers(np.arange(grid.size)).T) < 1.5)
    active = BoxSet(grid, disc)
    subset = build_transition_graph(sys, grid, controls, dt, pts_per_box, seed,
                                    active=active)
    assert_matches_reference(subset, sys, grid, controls, dt, pts_per_box, seed, active)

    fine, refined = refine(sys, graph, active, 2)
    assert 0 < refined.num_boxes < fine.size and refined.sink.any()
    assert_matches_reference(refined, sys, fine, controls, dt, pts_per_box, seed,
                             BoxSet(fine, refined.boxes))


def build_on_box_grid(sys, controls, dt, pts_per_box, memory_cap):
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    return build_transition_graph(sys, grid, controls, dt, pts_per_box, 0,
                                  memory_cap=memory_cap)


def build_on_sphere(sys, controls, dt, pts_per_box, memory_cap):
    return build_sphere_graph(sys, SphereGrid(2, 4), controls, dt, pts_per_box, 0,
                              memory_cap)


@pytest.mark.parametrize("build, boxes", [(build_on_box_grid, 16), (build_on_sphere, 8)])
def test_graph_builders_reject_bad_input(build, boxes):
    sys = AffineSystem(np.diag([1.0, -1.0]), np.eye(2)[None, :, :], np.zeros((2, 1)),
                       np.zeros(2), [-1.0], [1.0])
    good = {"controls": [[-1.0], [1.0]], "dt": 0.1, "pts_per_box": 2,
            "memory_cap": boxes * 2 * 2}  # exactly the work of the good input
    build(sys, **good)
    for bad, error, message in [
            ({"dt": 0.0}, ValueError, "dt must be positive"),
            ({"dt": -0.1}, ValueError, "dt must be positive"),
            ({"pts_per_box": 0, "memory_cap": 1}, ValueError, "pts_per_box must be >= 1"),
            ({"pts_per_box": -3}, ValueError, "pts_per_box must be >= 1"),
            ({"controls": [[0.0, 0.0]]}, ValueError, "control dimension 2"),
            ({"controls": [[0.0], [1.5]]}, ValueError, "outside the control box"),
            ({"memory_cap": boxes * 2 * 2 - 1}, MemoryBudgetError, "exceed the cap")]:
        with pytest.raises(error, match=message):
            build(sys, **{**good, **bad})
    sys3 = AffineSystem(np.eye(3), np.zeros((1, 3, 3)), np.zeros((3, 1)), np.zeros(3),
                        [-1.0], [1.0])
    with pytest.raises(ValueError, match=r"system dimension 3 does not match the grid \(2\)"):
        build(sys3, **{**good, "memory_cap": 1})  # checked before the cap


def test_transition_graph_without_controls_is_empty():
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [3, 4])
    sys = AffineSystem(np.eye(2), np.zeros((1, 2, 2)), np.ones((2, 1)), np.zeros(2),
                       [-1.0], [1.0])
    graph = build_transition_graph(sys, grid, np.zeros((0, 1)), 0.1, 2, seed=0)
    assert graph.indptr.tolist() == [0] * (grid.size + 1)
    assert graph.targets.size == 0
    assert graph.sink.tolist() == [False] * grid.size


@settings(max_examples=200, deadline=None)
@given(grids(), st.one_of(st.integers(0, 3), st.just(7)), st.data())
def test_dilate_matches_chebyshev_mask(grid, radius, data):
    chosen = data.draw(st.lists(st.integers(0, grid.size - 1), unique=True))
    box_set = BoxSet(grid, chosen)
    every = np.array(list(itertools.product(*map(range, grid.subdivisions))))
    multi = grid.multi_index(box_set.indices)
    if multi.size:
        dist = np.abs(every[:, None, :] - multi[None, :, :]).max(axis=2).min(axis=1)
        expected = grid.flat_index(every[dist <= radius])
    else:
        expected = np.empty(0, dtype=np.int64)
    assert box_set.dilate(radius).indices.tolist() == sorted(expected.tolist())


def test_dilate_rejects_negative_radius():
    grid = BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4])
    for box_set in (BoxSet(grid, [5]), BoxSet(grid, [])):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            box_set.dilate(-1)

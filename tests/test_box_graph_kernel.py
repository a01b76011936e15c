"""Reference tests of the row-wise box-graph kernel.

`BoxGrid.box_of`, `build_transition_graph`, `build_sphere_graph` and
`BoxSet.dilate` are compared with brute-force versions written here point
by point and box by box: a scalar floor lookup per point, Python sets of
(source, target) pairs, and a Chebyshev-distance mask over all boxes.  Both
graph builders share one sampling path, so they reject the same inputs.
That path builds its tiles on the calling thread and a thread pool; its
graphs are compared bit for bit with a serial build in one tile.
"""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from affinecontrol import projective, reach
from affinecontrol.config import MAX_EXP_GROWTH
from affinecontrol.projective import SphereGrid, build_sphere_graph
from affinecontrol.reach import (
    BoxGrid,
    BoxSet,
    MemoryBudgetError,
    _test_offsets,
    build_transition_graph,
    closure,
    refine,
)
from affinecontrol.system import AffineSystem, segment_map

SRC = Path(__file__).resolve().parents[1] / "src"


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


def edge_values(lo, hi):
    """Coordinates at and next to the window edges of one axis, and extremes."""
    tiny = 5e-324  # the least subnormal
    return [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
            np.nextafter(hi, -np.inf), lo + tiny, lo - tiny, (lo + hi) / 2,
            np.inf, -np.inf, np.nan, 1e308, -1e308]


@pytest.mark.parametrize("grid", [
    BoxGrid([-3.0, 0.3], [1.7, 2.2], [7, 9]),  # negative and positive lo, inexact widths
    BoxGrid([0.0, -1e308], [0.1, 5e307], [3, 4]),  # subnormal neighbours of lo; x - lo overflows
    BoxGrid([-1e308, -0.7], [5e307, -0.1], [4, 6]),
])
def test_box_of_edge_points_match_scalar_lookup(grid):
    # pins the lower-edge test on x - lo >= 0 against the scalar lo <= x,
    # on the first axis (cast straight into the flat index) and the second
    axes = [edge_values(grid.lo[k], grid.hi[k]) for k in range(grid.dim)]
    pts = np.array(list(itertools.product(*axes)))
    expected = [scalar_box(grid, x) for x in pts]
    assert 0 in expected and -1 in expected
    for layout in (pts, np.ascontiguousarray(pts.T).T):
        assert grid.box_of(layout).tolist() == expected


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


def scalar_sphere_box(grid: SphereGrid, x) -> int:
    """Sphere box id of one point with Python ints: anchor axis times the
    cells per face plus the Horner sum of the clipped bins of x / anchor."""
    axis = max(range(grid.ambient), key=lambda k: (abs(x[k]), -k))
    sub = grid.subdivisions
    cell = 0
    for k in range(grid.ambient):
        if k != axis:
            c = float(x[k]) / float(x[axis])
            cell = cell * sub + min(math.floor((c + 1.0) * 0.5 * sub), sub - 1)
    return axis * grid.cells_per_face + cell


def test_box_ids_are_exact_past_2_to_the_53():
    # neighbouring ids past 2**53 are closer than a float64 step there, so a
    # Horner sum in float would merge them
    sub = 2**27 + 1
    grid = BoxGrid([0.0, 0.0], [1.0, 1.0], [sub, sub])
    last = (np.arange(sub - 3, sub) + 0.5) / sub
    pts = np.array(list(itertools.product(last, last)))
    sphere = SphereGrid(5, 2**14 + 1)
    face = -1.0 + (np.arange(sphere.subdivisions - 2, sphere.subdivisions) + 0.5) * (
        2.0 / sphere.subdivisions)
    rays = np.array([c + (1.0,) for c in itertools.product(face, repeat=4)])
    for g, points, reference in ((grid, pts, scalar_box), (sphere, rays, scalar_sphere_box)):
        expected = [reference(g, x) for x in points]
        assert g.size > 2**53 and min(expected) > 2**53
        assert len(set(expected)) == len(expected)
        assert g.box_of(points).tolist() == expected
        assert g.box_of(np.ascontiguousarray(points.T).T).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.one_of(grids(), st.builds(SphereGrid, st.integers(2, 4), st.integers(1, 6))),
       st.lists(st.integers(0, 4), min_size=1, max_size=3), st.data())
def test_stacked_box_of_equals_the_row_by_row_call(grid, shape, data):
    # points of any leading shape, as the sampled build passes a (P, n, dim)
    # stack, get the ids of a call per row
    shape = tuple(shape)
    on_box_grid = isinstance(grid, BoxGrid)
    dim = grid.dim if on_box_grid else grid.ambient
    if on_box_grid:  # window edges, NaN, +-inf and points outside
        coords = [st.sampled_from(edge_values(grid.lo[k], grid.hi[k])) | st.floats(-6.0, 6.0)
                  for k in range(dim)]
    else:  # ties of the anchor modulus, and the extremes of a finite point
        coords = [st.sampled_from([1.0, -1.0, 0.5, 5e-324, -1e308]) | st.floats(-3.0, 3.0)] * dim
    count = math.prod(shape)
    rows = np.array(data.draw(st.lists(st.tuples(*coords), min_size=count, max_size=count)),
                    dtype=float).reshape(count, dim)
    if not on_box_grid:
        rows[np.all(rows == 0.0, axis=1)] = 1.0  # a zero point names no box
    expected = np.array([grid.box_of(row)[0] for row in rows], dtype=np.int64).reshape(shape)
    pts = rows.reshape(shape + (dim,))
    coordinate_major = np.ascontiguousarray(np.moveaxis(pts, -1, -2))
    for layout in (pts, np.moveaxis(coordinate_major, -1, -2)):
        got = grid.box_of(layout)
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, expected)
    if on_box_grid or count == 0:
        return
    # a zero or non-finite point in any row fails the whole stack
    bad = data.draw(st.integers(0, count - 1))
    value = data.draw(st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
    if value == 0.0:
        rows[bad] = 0.0
    else:
        rows[bad, data.draw(st.integers(0, dim - 1))] = value
    with pytest.raises(ValueError, match="zero or non-finite"):
        grid.box_of(rows.reshape(pts.shape))


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
    points = grid.cell_points(boxes, _test_offsets(grid.dim, pts_per_box, seed))
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


def assert_one_int32_index(graph):
    """indptr, targets and both reverse() arrays share one index dtype,
    int32 under the default cap."""
    arrays = (graph.indptr, graph.targets) + graph.reverse()
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


@settings(max_examples=150, deadline=None)
@given(graph_cases())
def test_transition_graph_matches_pairwise_reference(case):
    graph = build_transition_graph(*case[:6], active=case[6])
    indptr, targets, sink = reference_graph(*case)
    assert_one_int32_index(graph)
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
    boxes = np.arange(sphere.size)
    position = {int(b): p for p, b in enumerate(boxes)}
    points = sphere.cell_points(boxes, _test_offsets(sphere.face_dims, pts_per_box, seed))
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
    assert_one_int32_index(graph)
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.targets.tolist() == targets


@settings(max_examples=150, deadline=None)
@given(st.one_of(grids(), st.builds(SphereGrid, st.integers(2, 4), st.integers(1, 6))),
       st.integers(1, 5), st.integers(0, 2**16), st.data())
def test_cell_points_of_both_grids(grid, pts_per_box, seed, data):
    # the one cell contract of BoxGrid and SphereGrid: the test points of
    # both graph builders, the centers, and box_of inverting them
    boxes = np.array(data.draw(st.lists(st.integers(0, grid.size - 1), unique=True)),
                     dtype=np.int64)
    on_box_grid = isinstance(grid, BoxGrid)
    cell_dims = grid.dim if on_box_grid else grid.face_dims
    offsets = _test_offsets(cell_dims, pts_per_box, seed)
    assert offsets.shape == (pts_per_box, cell_dims) and np.all(offsets[0] == 0.5)
    points = grid.cell_points(boxes, offsets)
    assert points.shape == (pts_per_box, boxes.size, grid.dim if on_box_grid else grid.ambient)
    assert all(pts.T.flags.c_contiguous for pts in points)
    centers = grid.centers(boxes)
    assert centers.flags.c_contiguous and np.array_equal(points[0], centers)  # bit for bit
    if on_box_grid:  # the sphere's rows are pinned in test_projective
        expected = [grid.lo + (grid.multi_index(boxes) + off) * grid.widths for off in offsets]
        assert np.array_equal(points, np.stack(expected))
        assert np.array_equal(grid.lower_corners(boxes),
                              grid.lo + grid.multi_index(boxes) * grid.widths)
    interior = data.draw(st.lists(st.lists(st.floats(0.01, 0.99), min_size=cell_dims,
                                           max_size=cell_dims), min_size=1, max_size=4))
    for pts in grid.cell_points(boxes, np.array(interior)):
        assert np.array_equal(grid.box_of(pts), boxes)


def reference_dilate(box_set: BoxSet, radius: int) -> np.ndarray:
    """The per-axis index dilation that `BoxSet.dilate` used before its
    boolean mask, kept as the reference: one shifted copy of the indices per
    axis and step, made unique after each axis."""
    idx = box_set.indices
    stride = 1
    for sub in box_set.grid.subdivisions[::-1]:
        coord = idx // stride % sub
        steps = range(1, min(radius, sub - 1) + 1)
        idx = np.unique(np.concatenate(
            [idx] + [idx[coord >= r] - r * stride for r in steps]
            + [idx[coord < sub - r] + r * stride for r in steps]))
        stride *= sub
    return idx


def reference_refined_boxes(grid: BoxGrid, keep: BoxSet, factor: int) -> np.ndarray:
    """The active subset `refine` used to build from the children's
    multi-indices, kept as the reference: every child of a kept box, then a
    one-box collar on the fine grid."""
    fine = BoxGrid(grid.lo, grid.hi, grid.subdivisions * factor)
    offsets = np.stack(np.meshgrid(*([np.arange(factor)] * grid.dim), indexing="ij"),
                       axis=-1).reshape(-1, grid.dim)
    children = (grid.multi_index(keep.indices)[:, None, :] * factor
                + offsets[None, :, :]).reshape(-1, grid.dim)
    return reference_dilate(BoxSet(fine, fine.flat_index(children)), 1)


@settings(max_examples=100, deadline=None)
@given(grids(max_sub=5), st.integers(2, 3), st.integers(0, 3), st.data())
def test_refine_and_dilate_match_the_index_construction(grid, factor, radius, data):
    keep = BoxSet(grid, data.draw(st.lists(st.integers(0, grid.size - 1), unique=True)))
    dilated = keep.dilate(radius)
    assert dilated.grid is grid
    assert np.array_equal(dilated.indices, reference_dilate(keep, radius))
    n = grid.dim
    still = AffineSystem(np.zeros((n, n)), np.zeros((1, n, n)), np.zeros((n, 1)), np.zeros(n),
                         [-1.0], [1.0])
    graph = build_transition_graph(still, grid, [[0.0]], 0.1, 1, 0)
    fine, refined = refine(still, graph, keep, factor)
    assert np.array_equal(fine.subdivisions, grid.subdivisions * factor)
    assert refined.boxes.dtype == np.int64
    assert np.array_equal(refined.boxes, reference_refined_boxes(grid, keep, factor))


def assert_matches_reference(graph, *case):
    indptr, targets, sink = reference_graph(*case)
    assert_one_int32_index(graph)
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


def built_per_tile_size(monkeypatch, build, module, name):
    """The graphs `build()` makes in tiles of 64 boxes on the default thread
    count and serially in one tile, and how often each build called
    `module.name`, read through the module."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
    graphs, counts = [], []
    for tile, workers in ((64, reach._WORKERS), (2**30, 1)):
        monkeypatch.setattr(reach, "_TILE", tile)
        monkeypatch.setattr(reach, "_WORKERS", workers)
        calls.clear()
        graphs.append(build())
        counts.append(len(calls))
    return graphs, counts


def assert_same_bits(graph, other):
    for name in ("boxes", "indptr", "targets", "sink"):
        a, b = getattr(graph, name), getattr(other, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


SHEAR = AffineSystem([[0.4, 2.5], [-0.3, -0.6]], [[[0.0, 0.5], [0.0, 0.2]]],
                     [[0.5], [1.0]], [0.2, -0.1], [-1.0], [1.0])
SHEAR_3D = AffineSystem([[0.3, 1.7, -0.4], [-1.1, -0.5, 0.6], [0.2, -0.8, -0.2]],
                        [np.diag([0.5, -0.3, 0.2])], [[0.5], [1.0], [-0.4]],
                        [0.2, -0.1, 0.3], [-1.0], [1.0])


def box_graph_build(case):
    """A builder of the case's graph and its number of controls: every box
    of a 2-D grid or of an 11^3 grid, or a refined graph, whose active
    subset takes the position table.  Each has more than 8 tiles of 64
    boxes, the last partial."""
    controls = np.array([[-1.0], [0.0], [0.6]])
    if case == "37x29":
        grid = BoxGrid([-3.0, -2.5], [3.0, 3.5], [37, 29])
        return lambda: build_transition_graph(SHEAR, grid, controls, 0.3, 3, 11), 3
    if case == "11^3":
        cube = BoxGrid([-2.0] * 3, [2.0] * 3, [11] * 3)
        return lambda: build_transition_graph(SHEAR_3D, cube, controls[1:], 0.4, 2, 5), 2
    coarse = build_transition_graph(SHEAR, BoxGrid([-3.0, -2.5], [3.0, 3.5], [24, 24]),
                                    controls, 0.3, 3, 11)
    disc = np.flatnonzero(np.hypot(*coarse.grid.centers(np.arange(coarse.grid.size)).T) < 1.5)
    return lambda: refine(SHEAR, coarse, BoxSet(coarse.grid, disc), 2)[1], 3


@pytest.mark.parametrize("case", ["37x29", "refined", "11^3"])
def test_box_graph_is_the_same_in_tiles(monkeypatch, case):
    build, controls = box_graph_build(case)
    (tiled, whole), counts = built_per_tile_size(monkeypatch, build, reach, "segment_map")
    assert counts == [controls, controls]  # one dt-map per control, not per tile
    assert tiled.num_boxes > 8 * 64 and tiled.num_boxes % 64 != 0
    assert tiled.num_edges > 0 and tiled.sink.any()
    if case == "refined":
        assert tiled.num_boxes < tiled.grid.size
    assert_same_bits(tiled, whole)


@pytest.mark.parametrize("ambient, subdivisions", [(3, 13), (4, 6)])
@pytest.mark.parametrize("dt", [0.3, 40.0])
def test_sphere_graph_is_the_same_in_tiles(monkeypatch, ambient, subdivisions, dt):
    rng = np.random.default_rng(ambient)
    sys = AffineSystem(rng.standard_normal((ambient, ambient)),
                       rng.standard_normal((1, ambient, ambient)), np.zeros((ambient, 1)),
                       np.zeros(ambient), [-1.0], [1.0])
    controls = np.array([[-1.0], [0.2], [1.0]])
    sphere = SphereGrid(ambient, subdivisions)
    growth = [dt * np.linalg.norm(sys.system_matrix(u)) for u in controls]
    # dt 40: every exponential is taken in chunks
    assert (min(growth) > MAX_EXP_GROWTH) == (dt > 1.0)
    (tiled, whole), counts = built_per_tile_size(
        monkeypatch, lambda: build_sphere_graph(sys, sphere, controls, dt, 3, 2),
        projective, "expm")
    assert counts == [3, 3]  # one exponential per control, not per tile
    assert sphere.size > 6 * 64 and sphere.size % 64 != 0
    assert_same_bits(tiled, whole)


def sphere_graph_build():
    """A builder of a graph on the 4 x 6^3 sphere grid, 864 boxes, with
    chunked exponentials."""
    rng = np.random.default_rng(4)
    sys = AffineSystem(rng.standard_normal((4, 4)), rng.standard_normal((1, 4, 4)),
                       np.zeros((4, 1)), np.zeros(4), [-1.0], [1.0])
    return lambda: build_sphere_graph(sys, SphereGrid(4, 6), [[-1.0], [0.2], [1.0]],
                                      40.0, 3, 2)


def graph_build(case):
    return sphere_graph_build() if case == "sphere" else box_graph_build(case)[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["37x29", "refined", "11^3", "sphere"])
def test_graphs_are_the_same_on_any_number_of_threads(monkeypatch, case, workers):
    # tiles of 64 boxes on 1, 2 or 3 threads against one tile on one, so the
    # pool path runs whatever the CPUs of the machine
    build = graph_build(case)
    monkeypatch.setattr(reach, "_TILE", 2**30)
    monkeypatch.setattr(reach, "_WORKERS", 1)
    serial = build()
    monkeypatch.setattr(reach, "_TILE", 64)
    monkeypatch.setattr(reach, "_WORKERS", workers)
    starts = reach._tile_starts(serial.num_boxes)
    assert starts.step == 64 and len(starts) > 2 * workers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # thread switches inside every tile
    try:
        threaded = build()
    finally:
        sys.setswitchinterval(interval)
    assert_same_bits(threaded, serial)


def test_concurrent_callers_share_the_tile_pool(monkeypatch):
    # more callers than CPUs, each caller's tiles queued on the one pool
    build = graph_build("refined")
    monkeypatch.setattr(reach, "_TILE", 2**30)
    monkeypatch.setattr(reach, "_WORKERS", 1)
    serial = build()
    monkeypatch.setattr(reach, "_TILE", 64)
    monkeypatch.setattr(reach, "_WORKERS", 3)
    graphs = [None] * 4

    def call(k):
        graphs[k] = build()

    callers = [threading.Thread(target=call, args=(k,)) for k in range(len(graphs))]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
        assert not caller.is_alive()
    for graph in graphs:
        assert_same_bits(graph, serial)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("tile", [64, 16384])
def test_tiles_are_cut_at_multiples_of_64(monkeypatch, tile, workers):
    monkeypatch.setattr(reach, "_TILE", tile)
    monkeypatch.setattr(reach, "_WORKERS", workers)
    for n in (0, 1, 64, 65, 1000, 1073, 16385, 33256, 55296, 262144):
        starts = reach._tile_starts(n)
        tiles = -(-n // tile)
        tiles += -tiles % workers  # ceil(n / _TILE), up to a multiple of the workers
        assert len(starts) <= tiles and starts.step % 64 == 0
        if n:  # the least multiple of 64 that covers n in `tiles` tiles
            assert starts.step * tiles >= n > (starts.step - 64) * tiles
        if n <= 64:
            assert list(starts) == ([0] if n else [])


@pytest.mark.parametrize("grid_class, case", [(BoxGrid, "37x29"), (SphereGrid, "sphere")])
def test_every_tile_runs_in_the_callers_errstate(monkeypatch, grid_class, case):
    # a thread starts in numpy's default state (divide="warn"); the pool
    # tiles run in a copy of the caller's context
    seen = []
    original = grid_class.cell_points
    monkeypatch.setattr(grid_class, "cell_points", lambda self, *args: seen.append(
        (threading.get_ident(), np.geterr()["divide"])) or original(self, *args))
    monkeypatch.setattr(reach, "_TILE", 64)
    monkeypatch.setattr(reach, "_WORKERS", 3)
    build = graph_build(case)
    with np.errstate(divide="raise"):
        build()
    assert len(seen) > 6
    assert {state for _, state in seen} == {"raise"}
    threads = {ident for ident, _ in seen}
    assert threading.get_ident() in threads and len(threads) > 1


class TileFailure(Exception):
    pass


@pytest.mark.parametrize("failing, raised", [
    ({1}, 1),      # a pool tile
    ({1, 2}, 1),   # a pool tile before a failing tile of the caller's
    ({0, 1}, 0),   # the caller's first tile before a failing pool tile
    ({2, 3}, 2),   # the caller's; the pool tile after it is not read
])
def test_a_failing_tile_fails_the_build_once_every_tile_is_done(monkeypatch, failing,
                                                                raised):
    lock = threading.Lock()
    running = [0]
    errors = {}
    original = BoxGrid.cell_points

    def cell_points(self, indices, offsets):
        tile = int(indices[0]) // 64
        with lock:
            running[0] += 1
        try:
            if tile in failing:
                raise errors.setdefault(tile, TileFailure(tile))
            # the last pool tile outlasts the caller's tiles
            time.sleep(0.3 if tile == 15 else 0.01)
            return original(self, indices, offsets)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(BoxGrid, "cell_points", cell_points)
    monkeypatch.setattr(reach, "_TILE", 64)
    monkeypatch.setattr(reach, "_WORKERS", 2)
    build = graph_build("37x29")
    assert len(reach._tile_starts(37 * 29)) == 17
    with pytest.raises(TileFailure) as error:
        build()
    assert error.value is errors[raised]
    assert running[0] == 0  # no tile of the call is still running


FORK = """
import os, signal
import numpy as np
from affinecontrol import reach

reach._TILE, reach._WORKERS = 64, 2
system = reach.AffineSystem(np.diag([1.0, -1.0]), np.eye(2)[None], np.zeros((2, 1)),
                            np.zeros(2), [-1.0], [1.0])
grid = reach.BoxGrid([-1.0, -1.0], [1.0, 1.0], [16, 16])
build = lambda: reach.build_transition_graph(system, grid, [[-1.0], [1.0]], 0.1, 2, 0)
parent = build()  # starts the tile pool
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child waiting on the parent's pool threads dies
    child = build()
    os._exit(0 if np.array_equal(child.targets, parent.targets) else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_on_a_pool_of_its_own():
    # pool threads do not survive a fork; a child that submitted tiles to
    # the parent's pool would wait for them for ever
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", FORK], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def built_graphs():
    """A full-grid, an `active`, a refined and a sphere graph, with a start
    set for closures on each."""
    controls = np.array([[-1.0], [0.0], [0.6]])
    grid = BoxGrid([-3.0, -2.5], [3.0, 3.5], [24, 24])
    full = build_transition_graph(SHEAR, grid, controls, 0.3, 3, 11)
    disc = BoxSet(grid, np.flatnonzero(np.hypot(*grid.centers(np.arange(grid.size)).T) < 1.5))
    linear = AffineSystem(np.diag([1.0, -1.0, -2.0]), np.eye(3)[None, :, :],
                          np.zeros((3, 1)), np.zeros(3), [-0.5], [0.5])
    graphs = [full, build_transition_graph(SHEAR, grid, controls, 0.3, 3, 11, active=disc),
              refine(SHEAR, full, disc, 2)[1],
              build_sphere_graph(linear, SphereGrid(3, 6), [[-0.5], [0.5]], 0.2, 3, 1)]
    return [(graph, BoxSet(graph.grid, graph.boxes[::7])) for graph in graphs]


def test_built_graphs_hand_csgraph_their_own_arrays():
    # one index dtype from the build on: to_sparse copies no index array
    for graph, _ in built_graphs():
        assert graph.num_edges > 0
        assert_one_int32_index(graph)
        matrix = graph.to_sparse()
        assert np.shares_memory(matrix.indices, graph.targets)
        assert np.shares_memory(matrix.indptr, graph.indptr)


def test_int64_index_dtype_gives_the_same_graphs(monkeypatch):
    # the wide branch, which no graph under the default cap reaches
    narrow = built_graphs()
    monkeypatch.setattr(reach, "_index_dtype", lambda count: np.int64)
    for (graph, starts), (wide, wide_starts) in zip(narrow, built_graphs()):
        assert wide.indptr.dtype == wide.targets.dtype == np.int64
        for name in ("boxes", "indptr", "targets", "sink"):
            assert np.array_equal(getattr(wide, name), getattr(graph, name)), name
        for got, want in zip(wide.reverse() + wide.scc(), graph.reverse() + graph.scc()):
            assert np.array_equal(got, want)
        for direction in ("forward", "backward"):
            for include_start in (True, False):
                got = closure(wide, wide_starts, direction, include_start)
                want = closure(graph, starts, direction, include_start)
                assert got.equals(want) and len(want) > 0


def test_wide_block_stores_the_narrow_graph(monkeypatch):
    # an int64 id block whose kept graph fits int32 is stored as int32, so
    # scipy narrows no copy of it and reverse() keeps the graph's dtype
    real = reach._index_dtype
    for index, (graph, _) in enumerate(built_graphs()):
        block = graph.grid.size + graph.num_boxes * len(graph.controls) * graph.pts_per_box
        seen = []

        def index_dtype(count, block=block):
            seen.append(count)
            return np.int64 if count >= block else real(count)

        monkeypatch.setattr(reach, "_index_dtype", index_dtype)
        wide = built_graphs()[index][0]
        assert block in seen  # the block was int64
        assert wide.indptr.dtype == wide.targets.dtype == np.int32
        for name in ("boxes", "indptr", "targets", "sink"):
            assert np.array_equal(getattr(wide, name), getattr(graph, name)), name
        matrix = wide.to_sparse()
        assert np.shares_memory(matrix.indices, wide.targets)
        assert np.shares_memory(matrix.indptr, wide.indptr)
        assert {a.dtype for a in wide.reverse()} == {wide.targets.dtype}


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
            ({"dt": np.nan}, ValueError, "dt must be positive and finite"),
            ({"dt": np.inf}, ValueError, "dt must be positive and finite"),
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

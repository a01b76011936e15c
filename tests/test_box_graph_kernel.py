"""Reference tests of the row-wise box-graph kernel.

`BoxGrid.box_of`, `build_transition_graph`, `build_sphere_graph` and
`BoxSet.dilate` are compared with brute-force versions written here point
by point and box by box: a scalar floor lookup per point, Python sets of
(source, target) pairs, and a Chebyshev-distance mask over all boxes.  A
box-grid sample's box is floor(Q m + R) in bin coordinates, computed here
in Python floats in the kernel's order, and checked against exact Fraction
arithmetic away from the box faces.  Both
graph builders share one sampling path, so they reject the same inputs.
That path builds its tiles in order on the calling thread; its graphs are
compared bit for bit with a build in one tile.
"""

import itertools
import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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


@pytest.mark.parametrize("point", [[[0.5, 0.5], [0.9, 0.9]], [[0.5, 0.5]], 0.5, []],
                         ids=["two points", "one row", "scalar", "empty"])
def test_box_containing_takes_one_point(point):
    # box_of reads (k, dim) arrays as k points; box_containing names one box
    grid = BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4])
    with pytest.raises(ValueError, match="one point of 2 coordinates"):
        grid.box_containing(point)
    assert grid.box_containing([0.5, 0.5]) == 10


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
    # row-major, coordinate-major, and a view with a negative stride
    for layout, want in ((pts, expected), (np.moveaxis(coordinate_major, -1, -2), expected),
                         (pts[::-1], expected[::-1])):
        got = grid.box_of(layout)
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, want)
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


def scalar_bin_map(grid: BoxGrid, G, h, offsets) -> tuple[list, list]:
    """(Q, R) of a dt-map (G, h) in the grid's bin coordinates, in Python
    floats with the operations in order: Q[k][j] = (G_kj w_j) / w_k and
    R[p][k] = (sum_j G_kj x_pj + h_k - lo_k) / w_k, x_pj = lo_j + o_pj w_j."""
    d = grid.dim
    w, lo = grid.widths.tolist(), grid.lo.tolist()
    G, h = np.asarray(G).tolist(), np.asarray(h).tolist()
    Q = [[G[k][j] * w[j] / w[k] for j in range(d)] for k in range(d)]
    R = []
    for o in np.asarray(offsets).tolist():
        x = [lo[j] + o[j] * w[j] for j in range(d)]
        row = []
        for k in range(d):
            acc = G[k][0] * x[0]
            for j in range(1, d):
                acc += G[k][j] * x[j]
            row.append((acc + h[k] - lo[k]) / w[k])
        R.append(row)
    return Q, R


def scalar_sample_box(grid: BoxGrid, Q, R_p, m) -> int:
    """Box id of the sample at row R_p of box m (multi-index), or -1: per
    axis q = sum_j Q_kj m_j + R_p[k], inside when 0 <= q < subdivisions,
    the bin floor(q)."""
    flat = 0
    for k, sub in enumerate(grid.subdivisions.tolist()):
        base = Q[k][0] * m[0]
        for j in range(1, grid.dim):
            base += Q[k][j] * m[j]
        q = base + R_p[k]
        if not 0.0 <= q < sub:  # False for NaN
            return -1
        flat = flat * sub + math.floor(q)
    return flat


def reference_graph(sys, grid, controls, dt, pts_per_box, seed, active):
    """(indptr, targets, sink) from a set of (source, target) position pairs,
    each sample's box from `scalar_bin_map` and `scalar_sample_box`."""
    boxes = active.indices if active is not None else np.arange(grid.size)
    position = {int(b): p for p, b in enumerate(boxes)}
    multi = grid.multi_index(boxes).tolist()
    offsets = _test_offsets(grid.dim, pts_per_box, seed)
    edges, sink = set(), set()
    for u in controls:
        Q, R = scalar_bin_map(grid, *segment_map(sys, u, dt), offsets)
        for R_p in R:
            for src, m in enumerate(multi):
                tgt = position.get(scalar_sample_box(grid, Q, R_p, m), -1)
                if tgt < 0:
                    sink.add(src)
                else:
                    edges.add((src, tgt))
    n = boxes.size
    rows = [sorted(t for s, t in edges if s == src) for src in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, [t for r in rows for t in r], [src in sink for src in range(n)]


def exact_coordinates(grid: BoxGrid, G, h, offset, m) -> list[tuple[Fraction, Fraction]]:
    """Per axis, the exact bin coordinate (G x + h - lo) / w of the point
    x = lo + (m + o) w, in Fractions of the float inputs, and a bound on the
    kernel's rounding error in it.

    The kernel rounds lo + o w (2 roundings), each product and partial sum
    of R and its quotient (d + 3), Q (2) and the sum Q m (d), and base + R
    (1): at most 2d + 8 relative errors of 2**-53 on terms whose moduli sum
    to S = (sum_j |G_kj| (|lo_j| + (m_j + o_j) w_j) + |h_k| + |lo_k|) / w_k,
    and underflow adds less than 2**-1075 per product or quotient.  The
    bound takes twice both."""
    d = grid.dim
    w = [Fraction(x) for x in grid.widths.tolist()]
    lo = [Fraction(x) for x in grid.lo.tolist()]
    G = [[Fraction(x) for x in row] for row in np.asarray(G).tolist()]
    h = [Fraction(x) for x in np.asarray(h).tolist()]
    o = [Fraction(x) for x in np.asarray(offset).tolist()]
    x = [lo[j] + (m[j] + o[j]) * w[j] for j in range(d)]
    out = []
    for k in range(d):
        q = (sum(G[k][j] * x[j] for j in range(d)) + h[k] - lo[k]) / w[k]
        size = (sum(abs(G[k][j]) * (abs(lo[j]) + (m[j] + o[j]) * w[j]) for j in range(d))
                + abs(h[k]) + abs(lo[k])) / w[k]
        tiny = Fraction(3 * d + 3, 2**1075) * (1 + sum(m) + 4 * d) / min(w[k], Fraction(1))
        out.append((q, 2 * ((2 * d + 8) * size / 2**53 * Fraction(101, 100) + tiny)))
    return out


def near_an_integer(q: Fraction, bound: Fraction) -> bool:
    return abs(q - round(q)) <= bound


def assert_one_int32_index(graph):
    """indptr, targets and both reverse() arrays share one index dtype,
    int32 under the default cap."""
    arrays = (graph.indptr, graph.targets) + graph.reverse()
    assert {a.dtype for a in arrays} == {np.dtype(np.int32)}


def scalar_system(A, B, C, d) -> AffineSystem:
    return AffineSystem([[A]], [[[B]]], [[C]], [d], [-1.0], [1.0])


# Two cases with samples whose image lies on a box face, where floor(Q m + R)
# and the box_of of the mapped point G p + h round to different sides.
FACE_CASES = [
    (scalar_system(0.0, -1.0, -2.0, -0.5), BoxGrid([-3.0], [-2.7], [6]),
     np.array([[0.0], [1.0]]), 0.25, 1, 95, None),
    (scalar_system(-0.5, 0.5, 0.25, -0.5), BoxGrid([0.1], [0.4], [6]),
     np.array([[1.0]]), 0.1, 2, 16, None),
]


@settings(max_examples=150, deadline=None)
@given(graph_cases())
@example(FACE_CASES[0])
@example(FACE_CASES[1])
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
    # the centers of both grids, the sphere's test points, and box_of
    # inverting points inside the boxes
    boxes = np.array(data.draw(st.lists(st.integers(0, grid.size - 1), unique=True)),
                     dtype=np.int64)
    on_box_grid = isinstance(grid, BoxGrid)
    cell_dims = grid.dim if on_box_grid else grid.face_dims
    interior = np.array(data.draw(st.lists(st.lists(st.floats(0.01, 0.99), min_size=cell_dims,
                                                    max_size=cell_dims), min_size=1,
                                           max_size=4)))
    centers = grid.centers(boxes)
    assert centers.flags.c_contiguous
    if on_box_grid:
        # coordinate k is (index_k + offset) * width_k + lo_k, bit for bit
        def at(offset):
            return grid.lo + (grid.multi_index(boxes) + offset) * grid.widths

        assert centers.shape == (boxes.size, grid.dim)
        assert np.array_equal(centers, at(0.5))
        assert np.array_equal(grid.lower_corners(boxes), at(0.0))
        for offset in interior:
            assert np.array_equal(grid.box_of(at(offset)), boxes)
        return
    offsets = _test_offsets(cell_dims, pts_per_box, seed)
    assert offsets.shape == (pts_per_box, cell_dims) and np.all(offsets[0] == 0.5)
    points = grid.cell_points(boxes, offsets)
    assert points.shape == (pts_per_box, boxes.size, grid.ambient)
    assert all(pts.T.flags.c_contiguous for pts in points)
    assert np.array_equal(points[0], centers)  # bit for bit
    for pts in grid.cell_points(boxes, interior):
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


@pytest.mark.parametrize("case", FACE_CASES)
def test_face_cases_differ_from_box_of_only_on_a_face(case):
    # the sample's box is floor(Q m + R), which can differ from
    # box_of(G p + h) where the exact image lies within rounding of a face
    sys, grid, controls, dt, pts_per_box, seed, _ = case
    offsets = _test_offsets(grid.dim, pts_per_box, seed)
    boxes = np.arange(grid.size)
    points = [grid.lo + (grid.multi_index(boxes) + offset) * grid.widths for offset in offsets]
    multi = grid.multi_index(boxes).tolist()
    differ = 0
    for u in controls:
        G, h = segment_map(sys, u, dt)
        Q, R = scalar_bin_map(grid, G, h, offsets)
        for p, (R_p, pts) in enumerate(zip(R, points)):
            old = grid.box_of(pts @ G.T + h)
            for i, m in enumerate(multi):
                if scalar_sample_box(grid, Q, R_p, m) != old[i]:
                    differ += 1
                    assert all(near_an_integer(q, bound) for q, bound in
                               exact_coordinates(grid, G, h, offsets[p], m))
    assert differ > 0


@settings(max_examples=150, deadline=None)
@given(grids(), st.data())
def test_sample_bins_are_the_exact_floor_away_from_faces(grid, data):
    # against exact arithmetic of the float inputs: a bin may round to
    # either side only where the exact coordinate is within the kernel's
    # rounding bound of an integer (a box face or the window's edge)
    d = grid.dim
    entry = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-4.0, 4.0)
    shift = st.floats(-8.0, 8.0) | st.integers(-24, 24).map(lambda i: i / 8)
    G = np.array(data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                    min_size=d, max_size=d))).reshape(d, d)
    h = np.array(data.draw(st.lists(shift, min_size=d, max_size=d)))
    offsets = _test_offsets(d, data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**16)))
    boxes = np.arange(grid.size)
    multi = grid.multi_index(boxes)
    block = np.empty((offsets.shape[0], boxes.size), dtype=np.int64)
    reach._lattice_block(multi, [reach._bin_map(grid, offsets, (G, h))],
                         grid.subdivisions, block)
    subs = grid.subdivisions.tolist()
    for p, offset in enumerate(offsets):
        for i, m in enumerate(multi.tolist()):
            got = int(block[p, i])
            certain = {}  # axis -> exact bin, or None outside the window
            for k, (q, bound) in enumerate(exact_coordinates(grid, G, h, offset, m)):
                if not near_an_integer(q, bound):
                    certain[k] = math.floor(q) if 0 <= q < subs[k] else None
            if None in certain.values():
                assert got == -1
            elif len(certain) == d:
                assert got == int(np.ravel_multi_index(list(certain.values()), subs))
            elif got >= 0:
                bins = np.unravel_index(got, subs)
                assert all(bins[k] == b for k, b in certain.items())


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_lattice_window_is_half_open_on_every_axis(dtype):
    # with Q = 0 every box's sample p has q = R[p]: at and next to 0 and
    # subdivisions on each axis, and non-finite; with Q = I and R = 0 each
    # box is its own image
    grid = BoxGrid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [4, 3, 2])
    multi = grid.multi_index(np.arange(grid.size))
    axes = [[0.0, -0.0, -5e-324, 0.5, sub - 0.5, np.nextafter(sub, 0.0), float(sub),
             np.nan, np.inf, -np.inf, 1e300] for sub in grid.subdivisions.tolist()]
    R = np.array(list(itertools.product(*axes)))
    P = R.shape[0]
    block = np.empty((2 * P, grid.size), dtype=dtype)
    reach._lattice_block(multi, [(np.zeros((3, 3)), R), (np.eye(3), np.zeros_like(R))],
                         grid.subdivisions, block)
    expected = [scalar_sample_box(grid, np.zeros((3, 3)).tolist(), R_p, [0, 0, 0])
                for R_p in R.tolist()]
    assert 0 in expected and grid.size - 1 in expected and -1 in expected
    assert np.array_equal(block[:P], np.repeat(np.array(expected)[:, None], grid.size, axis=1))
    assert np.array_equal(block[P:], np.broadcast_to(np.arange(grid.size), (P, grid.size)))


def overflowing_system(A) -> AffineSystem:
    return AffineSystem(A, [np.zeros((2, 2))], np.zeros((2, 1)), [0.5, 0.0], [-1.0], [1.0])


@pytest.mark.parametrize("grid", [
    BoxGrid([0.0, -1e-150], [4e150, 2e-150], [4, 3]),  # widths 1e150 and 1e-150
    BoxGrid([-1e-150, -3e150], [3e-150, 3e150], [5, 6]),
    BoxGrid([-2.0, -2.0], [2.0, 2.0], [6, 5]),
])
def test_extreme_widths_and_overflowing_maps_go_to_the_sink(grid):
    # Q = (G_kj w_j) / w_k spans 1e+-300 on the extreme grids; a shear there
    # sends every sample out of the window, an inf entry of Q times a zero
    # index is NaN, and a map that overflows in the exponential is inf or
    # NaN: each such sample goes to the sink, with no RuntimeWarning
    controls = np.array([[-1.0], [0.0], [0.6]])
    saddle = AffineSystem(np.diag([0.5, -0.5]), [np.eye(2)], [[0.2], [0.1]], [0.0, 0.0],
                          [-1.0], [1.0])
    overflowing = [
        overflowing_system([[1000.0, 0.0], [0.0, -1.0]]),  # G has an inf entry
        overflowing_system([[0.0, 0.0], [1e9, 0.0]]),  # G_10 w_0 / w_1 overflows
        overflowing_system([[1e308, 0.0], [0.0, -1.0]]),  # a NaN map: A dt is inf
    ]
    extreme = grid.widths.max() / grid.widths.min() > 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for system, dt in [(saddle, 0.3), (SHEAR, 0.3)] + [(s, 10.0) for s in overflowing]:
            graph = build_transition_graph(system, grid, controls, dt, 3, 11)
            assert_matches_reference(graph, system, grid, controls, dt, 3, 11, None)
            G, _ = segment_map(system, [0.0], dt)
            if system is saddle or (system is SHEAR and not extreme):
                assert graph.num_edges > 0
            elif extreme or not np.all(np.isfinite(G)):
                assert graph.num_edges == 0 and graph.sink.all()
        G = np.full((2, 2), np.nan)
        block = np.empty((3, grid.size), dtype=np.int32)
        reach._lattice_block(grid.multi_index(np.arange(grid.size)),
                             [reach._bin_map(grid, _test_offsets(2, 3, 0), (G, np.zeros(2)))],
                             grid.subdivisions, block)
        assert np.all(block == -1)


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
    """The graphs `build()` makes in tiles of 64 boxes and in one tile, and
    how often each build called `module.name`, read through the module."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or original(*args))
    graphs, counts = [], []
    for tile in (64, 2**30):
        monkeypatch.setattr(reach, "_TILE", tile)
        calls.clear()
        graphs.append(build())
        counts.append(len(calls))
    return graphs, counts


def assert_same_bits(graph, other):
    for name in ("boxes", "indptr", "targets", "sink", "has_self_loop"):
        a, b = getattr(graph, name), getattr(other, name)
        if callable(a):
            a, b = a(), b()
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_loops_of_the_csr(graph):
    """The flags the build stored are the diagonal of the graph's CSR."""
    assert graph._loops is not None  # stored by the build, not computed on the query
    assert np.array_equal(graph.has_self_loop(), reach._self_loops(graph.indptr, graph.targets))


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
    (tiled, whole), counts = built_per_tile_size(monkeypatch, build, reach, "_segment_maps")
    assert counts == [1, 1]  # one batch of the dt-maps per build, not per tile or control
    assert tiled.controls.shape[0] == controls
    assert tiled.num_boxes > 8 * 64 and tiled.num_boxes % 64 != 0
    assert tiled.num_edges > 0 and tiled.sink.any()
    if case == "refined":
        assert tiled.num_boxes < tiled.grid.size
    for graph in (tiled, whole):
        assert_loops_of_the_csr(graph)
    assert tiled.has_self_loop().any() and not tiled.has_self_loop().all()
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
    # default-size tiles, too, are cut at multiples of 64, where the product keeps its bits
    assert reach._TILE % 64 == 0
    for graph in (tiled, whole):
        assert_loops_of_the_csr(graph)
    assert tiled.has_self_loop().any() and not tiled.has_self_loop().all()
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


def test_concurrent_callers_each_get_the_serial_bits(monkeypatch):
    # callers on threads of their own, each building in tiles of 64
    build = graph_build("refined")
    monkeypatch.setattr(reach, "_TILE", 2**30)
    serial = build()
    monkeypatch.setattr(reach, "_TILE", 64)
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


def test_a_graph_build_starts_no_thread(monkeypatch):
    # every tile of a box graph and of a sphere graph on the caller
    def start(self):
        raise AssertionError(f"a graph build started the thread {self.name}")

    monkeypatch.setattr(reach, "_TILE", 64)
    monkeypatch.setattr(threading.Thread, "start", start)
    for case in ("37x29", "sphere"):
        graph = graph_build(case)()
        assert graph.num_boxes > 8 * 64 and graph.num_edges > 0


# The grid method each tile of a build calls first: a box grid's tile takes
# the multi-indices of its boxes, a sphere's makes its test points.
FIRST_CALL = {BoxGrid: "multi_index", SphereGrid: "cell_points"}


@pytest.mark.parametrize("grid_class, case", [(BoxGrid, "37x29"), (SphereGrid, "sphere")])
def test_every_tile_runs_in_the_callers_errstate(monkeypatch, grid_class, case):
    # every tile runs on the calling thread, so in its np.errstate, not in
    # numpy's default (divide="warn")
    seen = []
    name = FIRST_CALL[grid_class]
    original = getattr(grid_class, name)
    monkeypatch.setattr(grid_class, name, lambda self, *args: seen.append(
        (threading.get_ident(), np.geterr()["divide"])) or original(self, *args))
    monkeypatch.setattr(reach, "_TILE", 64)
    build = graph_build(case)
    with np.errstate(divide="raise"):
        build()
    assert len(seen) > 6
    assert set(seen) == {(threading.get_ident(), "raise")}


class TileFailure(Exception):
    pass


@pytest.mark.parametrize("failing, raised", [
    ({1}, 1),
    ({1, 2}, 1),
    ({0, 1}, 0),
    ({2, 3}, 2),
])
def test_a_failing_tile_fails_the_build_once_every_tile_is_done(monkeypatch, failing,
                                                                raised):
    # 17 tiles of 64 boxes, in order on the caller: the first failing tile's
    # error is raised, and no tile after it starts
    started = []
    errors = {}
    original = BoxGrid.multi_index

    def multi_index(self, indices):
        tile = int(indices[0]) // 64
        started.append(tile)
        if tile in failing:
            raise errors.setdefault(tile, TileFailure(tile))
        return original(self, indices)

    monkeypatch.setattr(BoxGrid, FIRST_CALL[BoxGrid], multi_index)
    monkeypatch.setattr(reach, "_TILE", 64)
    build = graph_build("37x29")
    with pytest.raises(TileFailure) as error:
        build()
    assert error.value is errors[raised]
    assert started == list(range(raised + 1))


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


def test_dilate_takes_a_whole_radius_of_any_type():
    grid = BoxGrid([0.0, 0.0], [1.0, 1.0], [8, 8])
    box_set = BoxSet(grid, [27])
    assert box_set.dilate(2.0).equals(box_set.dilate(2))
    for radius in (1.5, np.nan):
        with pytest.raises(ValueError, match="radius must be whole"):
            box_set.dilate(radius)

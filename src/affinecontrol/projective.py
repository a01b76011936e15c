"""Projective compactification and the boundary at infinity.

The affine system embeds into a bilinear system one dimension up, itself a
drift-free `AffineSystem` with generators [[A, d], [0, 0]] and
[[B_i, c_i], [0, 0]]; level z = 1 carries the affine dynamics, level z = 0
the homogeneous ones.  Projective space is represented by unit vectors with
canonical sign (first nonzero coordinate positive).  `SphereGrid` covers it
by cube-face boxes of the sphere modulo +-, numbered directly on the
quotient: one id per antipodal pair, 0..size-1, so a sphere graph's
box ids are its node positions.  Directions at infinity of a control set
are estimated either from far-out box centers or from chain components of
the sphere dynamics.  Points are rows: every normalisation (`_unit_rows`),
distance (`_proj_dist`, `proj_dist_vectors`) and projectivised flow
(`_flow_rows`, under `lyapunov_estimate` and `build_sphere_graph`) works on
arrays of representatives, and the flow applies the exponential in
renormalised chunks, so a long step of a strongly expanding generator does
not overflow.  A report's directions are rows as well: one read-only record
array (`_proj_points`) of unit representatives and their levels.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse import csgraph

from .config import (Tolerances, DEFAULT_TOLERANCES, DEFAULT_MEMORY_CAP, MAX_EXP_GROWTH,
                     _MAX_EXP_CHUNKS)
from .reach import (BoxSet, TransitionGraph, _label_order, _ranges,
                    _sampled_controls, _sampled_csr, _test_offsets)
from .system import AffineSystem, PiecewiseControl, _row_norms, _whole

__all__ = [
    "SphereGrid",
    "SphereGraph",
    "SphereChainAnalysis",
    "InfinityBoundaryReport",
    "embed_system",
    "proj_dist_vectors",
    "lyapunov_estimate",
    "build_sphere_graph",
    "sphere_chain_components",
    "infinity_boundary_directions",
    "infinity_boundary_chain",
]


def embed_system(sys: AffineSystem) -> AffineSystem:
    """The embedding one dimension up: the drift-free system with generators
    [[A, d], [0, 0]] and [[B_i, c_i], [0, 0]] and the same control box."""
    n, m = sys.n, sys.m
    A_hat = np.zeros((n + 1, n + 1))
    A_hat[:n, :n] = sys.A
    A_hat[:n, n] = sys.d
    B_hat = np.zeros((m, n + 1, n + 1))
    for i in range(m):
        B_hat[i, :n, :n] = sys.B[i]
        B_hat[i, :n, n] = sys.C[:, i]
    return AffineSystem(A_hat, B_hat, np.zeros((n + 1, m)), np.zeros(n + 1),
                        sys.omega_lo, sys.omega_hi)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """The rows of v (or v, one row) negated where the first entry above 1e-12
    in modulus is negative."""
    big = np.abs(v) > 1e-12
    first = np.argmax(big, axis=-1)[..., None]
    return np.where(np.take_along_axis(big & (v < 0), first, axis=-1), -v, v)


def _scaled_norms(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(scales, norms) of the rows of V, a C-ordered float array (`_row_norms`
    rounds differently on other layouts): row i over scales[i] has the norm
    norms[i].  A row whose sum of squares is in the normal range has scale 1
    and its `_row_norms` bits; any other row has its largest modulus as its
    scale, so that V[i] / scales[i] / norms[i] is its unit row and
    scales[i] * norms[i] its norm, neither of which overflows or underflows
    on the way (Blue's scaled norm).  A zero row has scale 1 and norm 0."""
    with np.errstate(over="ignore"):
        norms = _row_norms(V)
    rescale = ~((norms >= np.sqrt(np.finfo(float).tiny)) & (norms < np.inf))
    peaks = np.abs(V[rescale]).max(axis=1, initial=0.0)
    peaks[peaks == 0.0] = 1.0
    scales = np.ones_like(norms)
    scales[rescale] = peaks
    norms[rescale] = _row_norms(V[rescale] / peaks[:, None])
    return scales, norms


def _unit_rows(V) -> np.ndarray:
    """The rows of V over their `_scaled_norms`, in a C-ordered float copy.
    Raises ValueError for a zero or non-finite row."""
    V = np.array(V, dtype=float, order="C")
    if not (np.all(np.isfinite(V)) and np.all(V.any(axis=1))):
        raise ValueError("projective point needs a nonzero finite representative")
    scales, norms = _scaled_norms(V)
    V /= scales[:, None]
    V /= norms[:, None]
    return V


def _proj_points(V: np.ndarray, level_tol: float) -> np.recarray:
    """The points of the rows of V, as a report's `directions` hold them (see
    `InfinityBoundaryReport`): a row's last coordinate is snapped to 0 and the
    row renormalised where it is within `level_tol`.  Raises ValueError for a
    zero or non-finite row."""
    V = _unit_rows(V)
    low = np.abs(V[:, -1]) <= level_tol
    V[low, -1] = 0.0
    V[low] /= _row_norms(V[low])[:, None]
    points = np.recarray(V.shape[0], dtype=[("vec", float, V.shape[1:]), ("level", np.int64)])
    points.vec = _canonical_sign(V)
    points.level = ~low
    points.setflags(write=False)
    return points


def _proj_dist(x, y) -> np.ndarray:
    """min(|x - y|, |x + y|) of unit vectors x and y, given as their
    coordinates in order, arrays that broadcast against each other.  The
    squares are summed a coordinate at a time, so each distance is exact to
    rounding and 0 for a vector against itself or its negative."""
    minus = plus = 0.0
    for a, b in zip(x, y):
        minus = minus + np.square(a - b)
        plus = plus + np.square(a + b)
    return np.sqrt(np.minimum(minus, plus))


def proj_dist_vectors(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise projective distances between rows of X and Y (any scaling).

    X may be a stack (..., r, d) of row blocks; the result is then
    (..., r, len(Y)).  Each distance is `_proj_dist` of the two unit rows,
    exact to rounding and independent of the other rows and of the memory
    layout: 0 for a row against itself, a few ulps against a multiple.
    Raises ValueError for a zero or non-finite row, which names no point,
    and for rows of X and Y of different lengths.
    """
    X = np.asarray(X, dtype=float)
    Y = _unit_rows(Y)
    if X.shape[-1] != Y.shape[-1]:
        raise ValueError("points live in different projective spaces")
    X = _unit_rows(X.reshape(-1, X.shape[-1])).reshape(X.shape)
    return _proj_dist(np.moveaxis(X, -1, 0)[..., None], Y.T)


def _flow_step(sys: AffineSystem, u, dt: float) -> tuple[np.ndarray, int]:
    """(E, n_sub) for `_flow_rows` of the generator M = sys.system_matrix(u):
    one `expm` of (dt / n_sub) M, with n_sub = ceil(|dt| ||M||_F /
    MAX_EXP_GROWTH), so E^n_sub = exp(dt M).  Raises ValueError, naming u,
    when |dt| ||M||_F overflows or n_sub would pass `config._MAX_EXP_CHUNKS`
    (2**16), which bounds the work of `_flow_rows`."""
    M = sys.system_matrix(u)
    with np.errstate(over="ignore"):  # an overflow gives inf, raised on below
        growth = abs(dt) * np.linalg.norm(M)
    if not growth < np.inf:
        raise ValueError(f"dt * ||A(u)||_F overflows at the control u = {u}")
    n_sub = max(1, int(np.ceil(growth / MAX_EXP_GROWTH)))
    if n_sub > _MAX_EXP_CHUNKS:
        raise ValueError(f"dt * ||A(u)||_F = {growth:.3g} needs more than {_MAX_EXP_CHUNKS} "
                         f"chunks of {MAX_EXP_GROWTH} at the control u = {u}")
    return expm((dt / n_sub) * M), n_sub


def _flow_rows(step: tuple[np.ndarray, int], W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(dt M) applied to the rows of W, a stack (..., r, d) of row blocks,
    in n_sub chunks of E, where (E, n_sub) is `_flow_step`'s for M and dt: (rows, logs).
    The one projectivised flow: `build_sphere_graph` passes it stacks of test
    points, `lyapunov_estimate` one row.

    Each chunk multiplies as E @ Wᵀ per block and hands back the transpose
    view of that (..., d, r) array, so every coordinate of a block is a
    contiguous column (and Wᵀ is contiguous when W is such a view).  Below
    d = 8 the rows and logs have the bits of the row-major W @ E.T loop.
    Rows are renormalised between chunks, not after the last one, and `logs`
    sums the log of the norms divided out: log ||exp(dt M) w|| is
    logs + log ||rows||.
    """
    E, n_sub = step
    logs = np.zeros(W.shape[:-1])
    for _ in range(n_sub - 1):
        W = np.swapaxes(E @ np.swapaxes(W, -1, -2), -1, -2)
        norms = np.linalg.norm(W, axis=-1)
        W = W / norms[..., None]
        logs += np.log(norms)
    return np.swapaxes(E @ np.swapaxes(W, -1, -2), -1, -2), logs


def lyapunov_estimate(sys: AffineSystem, ctrl: PiecewiseControl, x, T: float) -> float:
    """Finite-time exponential growth rate of the homogeneous flow of `sys`.

    Computes log(||Phi(T, 0) x|| / ||x||) / T by summing the log-norms that
    the chunked, renormalised flow of each segment divides out, so no
    overflow occurs even for strongly expanding dynamics.  Only A(u) acts;
    pass `embed_system(sys)` for the rate of the embedded flow.  Raises
    ValueError for a segment whose dt ||A(u)||_F overflows or needs more
    than 2**16 chunks (`_flow_step`).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    w = _unit_rows(np.asarray(x, dtype=float).reshape(1, -1))
    total = 0.0
    for u, dt in ctrl.pieces(0.0, T):
        w, logs = _flow_rows(_flow_step(sys, u, dt), w)
        norm = np.linalg.norm(w)
        total += logs[0] + np.log(norm)
        w = w / norm
    return float(total / T)


# --------------------------------------------------------------- sphere grid

@dataclass(frozen=True)
class SphereGrid:
    """Cube-face box covering of projective space, the sphere modulo +-.

    The sphere in ambient dimension `ambient` is covered by the 2*ambient
    cube faces, each subdivided into `subdivisions` bins per axis.  A box
    and its antipode are one box of the quotient, numbered on the positive
    face of its anchor axis: id = axis * cells_per_face + cell, with `cell`
    the row-major bin on that face, so the ids run 0..size-1.  It shares
    the cell contract of `reach.BoxGrid`, `size` and `centers`, so
    `BoxSet`s hold its ids.  Its own `cell_points` and `box_of` serve the
    sphere graph's build, which reads their coordinate-major layout.  Box
    ids are int64, so a grid has fewer than 2**63 boxes; ValueError
    otherwise.
    """

    ambient: int
    subdivisions: int

    def __post_init__(self):
        for name in ("ambient", "subdivisions"):
            object.__setattr__(self, name, int(_whole(getattr(self, name), name)))
        if self.ambient < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.subdivisions < 1:
            raise ValueError("need at least one bin per face axis")
        if self.size >= 2**63:  # a Python int, which does not wrap
            raise ValueError(f"{self.size} boxes; box ids are int64, so a sphere grid "
                             f"has fewer than 2**63")

    @property
    def face_dims(self) -> int:
        return self.ambient - 1

    @property
    def cells_per_face(self) -> int:
        return self.subdivisions ** self.face_dims

    @property
    def size(self) -> int:
        return self.ambient * self.cells_per_face

    def _split(self, ids: np.ndarray):
        """Anchor axis and the face_dims per-axis bins of each id, the ids
        whole numbers as `_whole` checks in 0..size-1."""
        ids = _whole(ids, "ids")
        if ids.size and (ids.min() < 0 or ids.max() >= self.size):
            raise ValueError(f"sphere box ids must lie in 0..{self.size - 1}")
        axis, cell = np.divmod(ids, self.cells_per_face)
        return axis, np.unravel_index(cell, (self.subdivisions,) * self.face_dims)

    def box_of(self, points: np.ndarray) -> np.ndarray:
        """Box id of each point; points need not be normalized.

        `points` has any leading shape, (..., ambient), and the ids have
        that shape; a single point (ambient,) is read as one row.  The
        anchor is the first largest coordinate in modulus; face
        coordinate j is coordinate j (j < axis) or j + 1 (j >= axis) over the
        anchor.  That is the positive-face point of the representative with
        positive anchor, so x and -x get the same id.  Raises ValueError for
        points without `ambient` coordinates, a zero point or one with a
        non-finite coordinate, which names no direction.  Works a coordinate
        slice pts[..., k] at a time in preallocated buffers, so points that
        are the transpose view of (..., ambient, n) are read from contiguous
        memory.  A face
        coordinate c becomes the bin floor(min((c + 1) * (subdivisions / 2),
        subdivisions - 1)), clipped in float before its one int64 cast;
        c + 1 lies in {0} and [2**-53, 2], so halving it never rounds and the
        product is (c + 1) / 2 * subdivisions to the bit.  The bins are
        combined by Horner in int64, so ids are exact below 2**63 boxes.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.ambient:
            raise ValueError(f"points with {pts.shape[-1]} coordinates on a sphere in "
                             f"R^{self.ambient}")
        shape = pts.shape[:-1]
        test = np.empty(shape, dtype=bool)
        axis = np.zeros(shape, dtype=np.int64)
        anchor = pts[..., 0].copy()
        best = np.abs(anchor)  # the largest modulus so far; NaN once any is NaN
        coord = np.empty(shape)  # the modulus of coordinate k here, face coordinates below
        for k in range(1, self.ambient):
            x = pts[..., k]
            np.abs(x, out=coord)
            np.greater(coord, best, out=test)  # ties keep the first axis
            np.copyto(anchor, x, where=test)
            np.copyto(axis, k, where=test)
            np.maximum(best, coord, out=best)
        if not np.all(np.isfinite(best) & (best != 0)):
            raise ValueError("sphere box of a zero or non-finite point")
        del best
        sub = self.subdivisions
        half, last = 0.5 * sub, float(sub - 1)
        bins = np.empty(shape, dtype=np.int64)
        cell = np.zeros(shape, dtype=np.int64)
        for j in range(self.face_dims):
            np.copyto(coord, pts[..., j + 1])
            np.greater(axis, j, out=test)
            np.copyto(coord, pts[..., j], where=test)
            coord /= anchor  # in [-1, 1], as the anchor has the largest modulus
            coord += 1.0
            coord *= half  # (coord * 0.5) * sub in one rounding, * 0.5 being exact
            np.minimum(coord, last, out=coord)
            np.copyto(bins, coord, casting="unsafe")  # the floor, coord being >= 0
            cell *= sub
            cell += bins
        axis *= self.cells_per_face
        cell += axis
        return cell

    def cell_points(self, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Sphere points at relative cell positions; offsets in [0, 1]^face_dims.

        Returns (num_offsets, N, ambient) unit vectors, anchor coordinate
        positive: the transpose view of a coordinate-major
        (num_offsets, ambient, N) array, so the transpose of each point set
        is contiguous.  Face coordinate j is -1 + (bin + offset) * 2 / subdivisions,
        and ambient coordinate k of a box anchored on `axis` is its face
        coordinate k (k < axis) or k - 1 (k > axis).  The norms add the
        squares in axis order, which below ambient 8 gives the bits of a
        row-wise `np.linalg.norm`.
        """
        axis, bins = self._split(ids)
        pts = np.ones((offsets.shape[0], self.ambient, axis.size))
        for j in range(self.face_dims):
            coord = -1.0 + (bins[j] + offsets[:, j, None]) * (2.0 / self.subdivisions)
            np.copyto(pts[:, j], coord, where=j < axis)
            np.copyto(pts[:, j + 1], coord, where=j >= axis)
        # the row norms, summed over the axes in order into (P, N) buffers
        norm = pts[:, 0] * pts[:, 0]
        square = np.empty_like(norm)
        for k in range(1, self.ambient):
            np.multiply(pts[:, k], pts[:, k], out=square)
            norm += square
        pts /= np.sqrt(norm, out=norm)[:, None]
        return pts.transpose(0, 2, 1)

    def centers(self, ids: np.ndarray) -> np.ndarray:
        """(N, ambient) unit box centers, C-contiguous."""
        return np.ascontiguousarray(
            self.cell_points(ids, np.full((1, self.face_dims), 0.5))[0])

    def corners(self, ids: np.ndarray) -> np.ndarray:
        """(2^face_dims, N, ambient) unit corner points."""
        return self.cell_points(ids, np.array(list(np.ndindex((2,) * self.face_dims)), float))

    def box_diameter(self) -> float:
        """Largest projective diameter of a box.

        All faces are congruent, so the maximum is taken on face 0:
        sqrt(2 - 2 |dot|) over corner pairs, from the least |dot| (capped at
        1), as that map is monotone.  Only the cells with bins
        (subdivisions - 1) // 2 or subdivisions // 2 per axis, whose closure
        holds the face centre, are visited (2**face_dims of them for an even
        count of bins, one for an odd count): the face point p stands for the
        direction (1, p), and that map shrinks a step dp by the factor
        1 / sqrt(1 + |p|^2) across the radius and 1 / (1 + |p|^2) along it,
        both falling as |p| grows, so a bin of fixed width subtends smaller
        corner-pair angles the farther it lies from the centre.  Each
        corner's bits do not depend on the other cells, so this is the pair
        loop over every cell of face 0 to the bit whenever its maximum lies
        in a centre cell (checked over a range of grids in the tests).
        """
        combos = np.array(list(np.ndindex((2,) * self.face_dims)))
        centre = np.ravel_multi_index(tuple(((self.subdivisions - 1 + combos) // 2).T),
                                      (self.subdivisions,) * self.face_dims)
        corners = self.corners(centre).transpose(0, 2, 1)
        c = corners.shape[0]  # (c, ambient, N), contiguous
        product = np.empty(corners.shape[1:])
        dots = np.empty(corners.shape[2])
        least = 1.0
        for i in range(c):
            for j in range(i + 1, c):
                np.multiply(corners[i], corners[j], out=product)
                np.add.reduce(product, axis=0, out=dots)
                least = min(least, float(np.abs(dots, out=dots).min()))
        return float(np.sqrt(2.0 - 2.0 * least))

    def level_zero_touching(self, ids: np.ndarray) -> np.ndarray:
        """Boxes whose closure meets the hyperplane last-coordinate = 0."""
        axis, bins = self._split(ids)
        width = 2.0 / self.subdivisions
        # off the z face, the z coordinate is the last cell coordinate
        z_lo = -1.0 + bins[-1] * width
        return (axis != self.ambient - 1) & (z_lo <= 0.0) & (z_lo + width >= 0.0)


class SphereGraph(TransitionGraph):
    """One-step transition graph on the projective quotient `grid`, a SphereGrid:
    every box is a node, so positions are box ids, and `sink` is all False.
    `reach.closure`, `control_set_approx` and `chain_components` take it."""

    @property
    def sphere(self) -> SphereGrid:
        return self.grid


def build_sphere_graph(sys: AffineSystem, sphere: SphereGrid, controls, dt: float,
                       pts_per_box: int = 3, seed: int = 0,
                       memory_cap: int = DEFAULT_MEMORY_CAP) -> SphereGraph:
    """Directed box graph of the projectivized flow of `sys` on the sphere quotient.

    Nodes are all `sphere.size` boxes, a box's id being its position.
    `sys` is linear (C and d zero, as for `embed_system`) and acts on the
    sphere of its own dimension through the generators `sys.system_matrix(u)`.
    The test points of a cube cell are those of `reach._test_offsets`, as on
    a box grid.  Deterministic for a fixed seed.  Each control's exponential
    is computed once (`_flow_step`); the tile callable that
    `reach._sampled_csr` calls applies it through `_flow_rows` to the
    (P, tile, ambient) test points of one tile of boxes at a time, in
    renormalised chunks when |dt| ||A(u)||_F exceeds MAX_EXP_GROWTH, so a
    long step of a strongly expanding generator is taken rather than
    overflowing; a control whose dt ||A(u)||_F itself overflows, or needs
    more than 2**16 chunks (`config._MAX_EXP_CHUNKS`), raises ValueError
    before any tile is built.  The points are coordinate-major
    throughout: `cell_points` and `_flow_rows` give the P point sets as the
    transpose view of a (P, ambient, tile) array, which one
    `SphereGrid.box_of` call reads a contiguous coordinate slice at a time.
    The tiles are built on the calling thread.  The system dimension,
    controls, dt, pts_per_box, seed and the memory cap are
    checked as in `build_transition_graph`: `memory_cap` counts one word of
    the graph's index dtype per point-control sample (size x pts_per_box x
    controls), 4 bytes when size + samples < 2**31; no position table is
    needed.
    """
    if np.any(sys.C) or np.any(sys.d):
        raise ValueError("the sphere graph needs a linear system: C and d must be zero")
    controls, pts_per_box, seed = _sampled_controls(sys, sphere.ambient, sphere,
                                                    sphere.size, controls, dt,
                                                    pts_per_box, seed, memory_cap)
    ids = np.arange(sphere.size, dtype=np.int64)
    offsets = _test_offsets(sphere.face_dims, pts_per_box, seed)
    steps = [_flow_step(sys, u, dt) for u in controls]

    def fill(nodes, block):
        points = sphere.cell_points(nodes, offsets)
        for c, step in enumerate(steps):
            block[c * pts_per_box:(c + 1) * pts_per_box] = sphere.box_of(
                _flow_rows(step, points)[0])

    indptr, targets, sink, loops = _sampled_csr(sphere, ids, len(steps) * pts_per_box, fill)
    return SphereGraph._built(loops, grid=sphere, boxes=ids, indptr=indptr, targets=targets,
                              sink=sink, dt=float(dt), controls=controls,
                              pts_per_box=pts_per_box, seed=seed)


@dataclass(frozen=True, eq=False)
class SphereChainAnalysis:
    """Chain components of a sphere graph plus level-at-infinity bookkeeping.

    Held as arrays: `boxes` are the box ids of all components, concatenated
    in output order; component k is boxes[bounds[k]:bounds[k + 1]], sorted;
    `touching` flags the boxes of `boxes` whose closure meets the level at
    infinity (`SphereGrid.level_zero_touching`).  The per-component lists
    `components` and `level_zero` are made from them on first read.  The
    arrays are read-only, and so are the lists' arrays, views of them or
    of one gather.
    """

    graph: SphereGraph
    boxes: np.ndarray
    bounds: np.ndarray
    touching: np.ndarray

    @cached_property
    def components(self) -> list:
        """The components' box arrays, size-descending (ties by smallest id)."""
        return [self.boxes[a:b] for a, b in zip(self.bounds[:-1].tolist(),
                                                self.bounds[1:].tolist())]

    @cached_property
    def level_zero(self) -> list:
        """Per component, its boxes that touch the level at infinity."""
        level = self.boxes[self.touching]
        level.setflags(write=False)
        cuts = self._level_cuts.tolist()
        return [level[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    @property
    def _level_cuts(self) -> np.ndarray:
        """Bounds of the components' level-0 slices in boxes[touching]."""
        return np.concatenate([[0], np.cumsum(self.touching)])[self.bounds]

    @cached_property
    def box_diameter(self) -> float:
        """The sphere grid's box diameter, computed on first read."""
        return self.graph.sphere.box_diameter()


def sphere_chain_components(graph: SphereGraph) -> SphereChainAnalysis:
    """The graph's cached SCCs with an internal edge, size-descending, as the
    arrays of a `SphereChainAnalysis`: one gather of the members' boxes and
    one level-0 test over them.  Its `components` and `level_zero` lists are
    made on first read."""
    members, bounds = _label_order(*graph._scc_sizes())
    boxes = graph.boxes[members]
    touching = graph.sphere.level_zero_touching(boxes)
    bounds = np.array(bounds, dtype=np.int64)
    for array in (boxes, bounds, touching):
        array.setflags(write=False)
    return SphereChainAnalysis(graph=graph, boxes=boxes, bounds=bounds, touching=touching)


# ------------------------------------------------------ boundary at infinity

@dataclass(frozen=True, eq=False)
class InfinityBoundaryReport:
    """Estimated directions at infinity of a control set.

    `directions` is one read-only recarray, the cluster representatives of
    the box-center estimator or the level-slice directions of the chain
    estimator: field `vec` their (k, n + 1) unit rows with canonical sign,
    field `level` their int levels.  Level 0, the copy of lower projective
    space at infinity, holds the rows whose last coordinate is within
    `level_tol`, snapped to exactly 0 and renormalised, which makes the
    level invariant under the projectivized dynamics; level 1 all others.
    Its records have `.vec` and `.level`.  `matches` are (component index,
    homogeneous component index, minimal projective distance) triples.  An
    empty report from the box-center estimator, directions of shape
    (0, n + 1), signals a bounded set within the window.
    """

    estimator: str
    directions: np.recarray
    cluster_sizes: list
    matches: list
    details: object = field(repr=False, default=None)

    @property
    def empty(self) -> bool:
        return len(self.directions) == 0


# Two unit rows sorted along one coordinate are compared only when that
# coordinate differs by at most the radius plus this, with or without a sign
# flip; it covers the rounding of their computed distance.
_WINDOW_SLACK = 1e-12
# Candidate pairs per batch of `_single_linkage`.
_PAIRS = 2**17


def _single_linkage(unit: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """(count, label per row) of the connected components of the graph that
    links the unit rows of `unit` at projective distance <= tol, the
    distance of `_proj_dist`: min(|x - y|, |x + y|) for rows x and y.  The
    rows are taken as they are, normalised by the caller (`_unit_rows`).

    Rows within tol differ by at most tol on every coordinate, or sum to at
    most tol in modulus.  Sorted on the coordinate that varies most, each
    row is compared only with the later rows in its window of either sign,
    `_PAIRS` pairs at a time.  After each batch the links so far shrink
    to one per row, to the first row of its component.
    """
    k = unit.shape[0]
    axis = int(np.argmax(unit.std(axis=0)))
    order = np.argsort(unit[:, axis], kind="stable")
    cols = np.ascontiguousarray(unit[order].T)  # sorted, a contiguous row per coordinate
    key = cols[axis]
    reach = tol + _WINDOW_SLACK
    # the windows as ranges of sorted positions, one per row and sign, each
    # after the row itself, so that a pair is compared once per sign
    after = np.arange(1, k + 1)
    firsts = np.concatenate([after, np.maximum(np.searchsorted(key, -key - reach), after)])
    ends = np.concatenate([np.searchsorted(key, key + reach, "right"),
                           np.maximum(np.searchsorted(key, reach - key, "right"), after)])
    counts = ends - firsts
    bounds = np.cumsum(counts)

    def components(src, dst):
        return csgraph.connected_components(sparse.coo_matrix(
            (np.ones(src.size, dtype=bool), (src, dst)), shape=(k, k)), directed=False)

    heads = np.arange(k)
    a = done = 0
    while a < counts.size:
        b = max(a + 1, int(np.searchsorted(bounds, done + _PAIRS, "right")))
        src = np.repeat(np.arange(a, b) % k, counts[a:b])
        dst = _ranges(firsts[a:b], counts[a:b])
        apart = heads[src] != heads[dst]  # pairs not yet in one component
        src, dst = src[apart], dst[apart]
        close = _proj_dist((col[src] for col in cols), (col[dst] for col in cols)) <= tol
        if close.any():
            _, labels = components(np.concatenate([np.arange(k), src[close]]),
                                   np.concatenate([heads, dst[close]]))
            heads = np.unique(labels, return_index=True)[1][labels]
        a, done = b, bounds[b - 1]
    n_clusters, labels = components(np.arange(k), heads)
    return n_clusters, labels[np.argsort(order)]


def infinity_boundary_directions(control_set: BoxSet, norm_floor: float,
                                 blowup_records=(),
                                 tolerances: Tolerances = DEFAULT_TOLERANCES,
                                 max_points: int = 20000) -> InfinityBoundaryReport:
    """Directions at infinity from far-out boxes of a control-set approximation.

    Box centers with norm at least `norm_floor` (their `_scaled_norms`, so
    the test neither overflows nor underflows) are mapped to directions on
    the level at infinity by `_unit_rows` and clustered by single linkage within
    `tolerances.cluster_tol` (projective distance) by `_single_linkage`:
    memory grows with the number of directions, not its square, and time
    with the pairs it compares, those close on one coordinate.  Past
    `max_points` centers, every ceil(count / max_points)-th is kept.  Every
    continuation record whose periodic solution blew up past the floor is
    ingested as an additional high-confidence direction.  An empty report
    signals a set that stays bounded inside the window.
    """
    if not 0 < norm_floor < np.inf or max_points < 1:  # NaN fails the first
        raise ValueError("norm_floor must be positive and finite and max_points >= 1")
    centers = control_set.centers()  # (0, dim) for an empty set
    scales, norms = _scaled_norms(centers)
    # norm >= floor, as norms >= floor / scales; a quotient that overflows to
    # inf is a floor above every norm of that scale
    with np.errstate(over="ignore"):
        far = centers[norms >= norm_floor / scales]
    if far.shape[0] > max_points:
        far = far[::int(np.ceil(far.shape[0] / max_points))]
    states = [far]
    for rec in blowup_records:
        sol = getattr(rec, "solution", None)
        x0 = getattr(sol, "x0", None)
        if x0 is not None and np.isfinite(rec.norm_x) and rec.norm_x >= norm_floor:
            states.append(np.asarray(x0, dtype=float)[None, :])
    pts = np.concatenate(states)
    if pts.shape[0] == 0:
        return InfinityBoundaryReport(
            "box-directions", _proj_points(np.empty((0, pts.shape[1] + 1)), tolerances.level_tol),
            [], [])
    dirs = _canonical_sign(np.hstack([_unit_rows(pts), np.zeros((pts.shape[0], 1))]))
    # the last coordinate, the level's, is 0 in every row
    n_clusters, labels = _single_linkage(dirs[:, :-1], tolerances.cluster_tol)
    members, bounds = _label_order(labels, np.ones(n_clusters, dtype=bool),
                                   np.bincount(labels, minlength=n_clusters))
    means = np.empty((n_clusters, dirs.shape[1]))
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = dirs[members[a:b]]  # sign-aligned mean, anchored at the first member
        signs = np.where(block @ block[0] >= 0, 1.0, -1.0)
        means[i] = (block * signs[:, None]).mean(axis=0)
    return InfinityBoundaryReport("box-directions", _proj_points(means, tolerances.level_tol),
                                  np.diff(bounds).tolist(), [])


def infinity_boundary_chain(emb: AffineSystem, subdivisions: int, controls,
                            dt: float, pts_per_box: int = 3, seed: int = 0,
                            tolerances: Tolerances = DEFAULT_TOLERANCES,
                            memory_cap: int = DEFAULT_MEMORY_CAP,
                            ) -> InfinityBoundaryReport:
    """Directions at infinity via chain components of the sphere dynamics.

    `emb` is the embedding `embed_system(sys)`.  Builds box graphs on the
    projective quotients of the spheres in the embedded dimension (`emb`)
    and in the original dimension (its leading block, the homogeneous part
    of `sys`), takes strongly connected components of both, and matches
    each embedded-space component touching the level at infinity against
    the homogeneous components embedded via the zero-append map.  A slice
    matches a component within two embedded-sphere box diameters.  The
    report's `details` are the two `SphereChainAnalysis`es (embedded,
    homogeneous); the matching reads their arrays, so neither has made its
    `components` or `level_zero` list.  For a scalar system the homogeneous
    sphere is P^0, a single point: no graph is built for it, `details` holds
    None in its place, and every nonempty level-0 slice, at the direction
    [1 : 0], matches its one component 0 at distance 0.  Raises
    ValueError unless the last row of emb.A and of every emb.B[i] is zero,
    as `embed_system` makes it: only then is the level z = 0 invariant.
    """
    if np.any(emb.A[-1]) or np.any(emb.B[:, -1]):
        raise ValueError("emb must be an embedding: the last row of A and of every "
                         "B[i] must be zero")
    ambient = emb.n
    big_sphere = SphereGrid(ambient, subdivisions)
    big = sphere_chain_components(build_sphere_graph(
        emb, big_sphere, controls, dt, pts_per_box, seed, memory_cap))

    if ambient > 2:
        hom_sys = AffineSystem(emb.A[:-1, :-1], emb.B[:, :-1, :-1], emb.C[:-1],
                               emb.d[:-1], emb.omega_lo, emb.omega_hi)
        hom_sphere = SphereGrid(ambient - 1, subdivisions)
        hom = sphere_chain_components(build_sphere_graph(
            hom_sys, hom_sphere, controls, dt, pts_per_box, seed, memory_cap))
        # the homogeneous component directions, component j from row starts[j];
        # every sphere box has a successor, so there is at least one component
        hom_dirs = np.hstack([hom_sphere.centers(hom.boxes),
                              np.zeros((hom.boxes.size, 1))])
        starts = hom.bounds[:-1]
    else:  # P^0: one box, the direction [1 : 0] of the embedded sphere
        hom, hom_dirs, starts = None, np.array([[1.0, 0.0]]), np.zeros(1, dtype=np.int64)
    # the level-0 slice directions of all components, exactly on the level
    cuts = big._level_cuts
    slice_sizes = np.diff(cuts)
    dirs = big_sphere.centers(big.boxes[big.touching])
    dirs[:, -1] = 0.0  # `_proj_points` and `proj_dist_vectors` take the unit rows
    directions = _proj_points(dirs, tolerances.level_tol)
    # least distance of each nonempty slice to each homogeneous component,
    # reduced over the slice's rows and then over the component's columns
    sliced = np.flatnonzero(slice_sizes)
    matches = []
    if sliced.size:
        dist = proj_dist_vectors(dirs, hom_dirs)
        dmin = np.minimum.reduceat(np.minimum.reduceat(dist, cuts[sliced], axis=0),
                                   starts, axis=1)
        r, j = np.nonzero(dmin <= 2.0 * big.box_diameter)
        matches = list(zip(sliced[r].tolist(), j.tolist(), dmin[r, j].tolist()))
    return InfinityBoundaryReport("sphere-chain", directions, slice_sizes.tolist(),
                                  matches, details=(big, hom))

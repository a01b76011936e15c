"""Box coverings, transition graphs, control-set and chain-set approximation.

A compact window is covered by an axis-aligned grid of boxes.  Sampled
controls applied for a fixed step define a directed graph on boxes; its
reachability closures approximate reachable sets, and its strongly
connected components (SCCs) approximate both control sets and chain
control sets (the box diameter plays the role of the chain jump size, the
step time the role of the minimal chain time).  The control set of a seed
box is the seed's SCC when the seed lies on a cycle, which is the
intersection of its strict forward and backward closures; the chain
components are all SCCs with an internal edge.  Both read one SCC
labelling, computed once per graph and cached on it.
Edges come from finitely many test points per box (`_test_offsets`), so
the approximations are not guaranteed to contain the true sets, and can be
strictly smaller.  Results are always relative to the window: transitions
leaving it go to an absorbing sink that closures exclude.  Box sets,
closures, control sets and chain components take the graphs of both
grids, `BoxGrid` and `projective.SphereGrid`, which share one cell contract.
"""

import contextvars
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .config import DEFAULT_MEMORY_CAP
from .system import AffineSystem, _check_values, _whole, segment_map

__all__ = [
    "BoxGrid",
    "BoxSet",
    "TransitionGraph",
    "MemoryBudgetError",
    "build_transition_graph",
    "closure",
    "control_set_approx",
    "chain_components",
    "refine",
    "is_invariant_in_window",
]


class MemoryBudgetError(RuntimeError):
    """Planned allocation exceeds the configured cap; raised before allocating."""


@dataclass(frozen=True, eq=False)
class BoxGrid:
    """Uniform axis-aligned box covering of a rectangular window.

    Two grids are equal when their lo, hi and subdivisions are; box sets,
    closures and refinements combine only boxes of equal grids.
    """

    lo: np.ndarray
    hi: np.ndarray
    subdivisions: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        subs = _whole(self.subdivisions, "subdivisions").reshape(-1)
        if lo.shape != hi.shape or lo.shape != subs.shape:
            raise ValueError("lo, hi, subdivisions must have equal lengths")
        if np.any(lo >= hi):
            raise ValueError("window must satisfy lo < hi per dimension")
        if np.any(subs < 1):
            raise ValueError("need at least one box per dimension")
        for arr, name in ((lo, "lo"), (hi, "hi")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        with np.errstate(over="ignore"):  # hi - lo may overflow, caught below
            widths = (hi - lo) / subs
        if not np.all((widths > 0.0) & (widths < np.inf)):
            raise ValueError("box widths (hi - lo) / subdivisions must be positive "
                             "and finite")
        lo.setflags(write=False)
        hi.setflags(write=False)
        subs.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "subdivisions", subs)

    def _key(self) -> tuple:
        return (tuple(self.lo.tolist()), tuple(self.hi.tolist()),
                tuple(self.subdivisions.tolist()))

    def __eq__(self, other):
        if not isinstance(other, BoxGrid):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def size(self) -> int:
        return int(np.prod(self.subdivisions))

    @property
    def widths(self) -> np.ndarray:
        return (self.hi - self.lo) / self.subdivisions

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.widths))

    def multi_index(self, indices) -> np.ndarray:
        """(k, dim) array of per-axis indices for flat box indices."""
        indices = np.asarray(indices, dtype=np.int64)
        return np.stack(np.unravel_index(indices, self.subdivisions), axis=-1)

    def flat_index(self, multi) -> np.ndarray:
        multi = np.asarray(multi, dtype=np.int64)
        return np.ravel_multi_index(tuple(multi.T), self.subdivisions)

    def cell_points(self, indices, offsets) -> np.ndarray:
        """(P, N, dim) points at the relative positions `offsets` (P, dim) in
        the boxes: coordinate k is lo + (index + offset) * width on axis k.
        The transpose view of a coordinate-major (P, dim, N) array, so the
        transpose of each point set is contiguous."""
        multi = self.multi_index(np.reshape(indices, -1)).T  # (dim, N)
        offsets = np.asarray(offsets, dtype=float)[:, :, None]  # (P, dim, 1)
        pts = np.add(multi, offsets, out=np.empty((offsets.shape[0],) + multi.shape))
        pts *= self.widths[:, None]
        pts += self.lo[:, None]
        return pts.transpose(0, 2, 1)

    def centers(self, indices) -> np.ndarray:
        """(N, dim) box centers, C-contiguous."""
        return np.ascontiguousarray(self.cell_points(indices, np.full((1, self.dim), 0.5))[0])

    def lower_corners(self, indices) -> np.ndarray:
        return self.cell_points(indices, np.zeros((1, self.dim)))[0]

    def box_of(self, points) -> np.ndarray:
        """Flat box index per point, or -1 for points outside the window.

        `points` has any leading shape, (..., dim), and the ids have that
        shape; a single point (dim,) is read as one row, (1, dim).  The
        window is half open, lo <= x < hi per axis; a point just below
        hi whose quotient rounds up to `subdivisions` stays in the last box.
        Raises ValueError for points that do not have `dim` coordinates.
        Per axis the float quotient (x - lo) / width is clipped to
        subdivisions - 1 (exact up to 2**53 boxes an axis) and cast once to
        its int64 bin; the bins are combined by Horner in int64, so ids are
        exact for every grid of fewer than 2**63 boxes (in float64 they
        would not be past 2**53).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points with {pts.shape[-1]} coordinates on a {self.dim}-D grid")
        shape = pts.shape[:-1]
        widths = self.widths
        last = (self.subdivisions - 1).astype(float)
        # one set of buffers for all axes; a slice pts[..., k] has a
        # contiguous inner axis when pts is the transpose view of (..., dim, n)
        flat = np.empty(shape, dtype=np.int64)
        inside = np.empty(shape, dtype=bool)
        test = np.empty(shape, dtype=bool)
        quotient = np.empty(shape)
        cell = np.empty(shape, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):  # those points are outside
            for k, sub in enumerate(self.subdivisions):
                x = pts[..., k]
                np.subtract(x, self.lo[k], out=quotient)
                # x - lo >= 0 is x >= lo for every double, NaN (False) and
                # +-inf too: a rounded difference of doubles has the sign of
                # the exact one, and is 0 only when they are equal
                np.greater_equal(quotient, 0.0, out=test if k else inside)
                if k:
                    inside &= test
                np.less(x, self.hi[k], out=test)
                inside &= test
                quotient /= widths[k]
                # inside, the clipped quotient is >= 0, so the cast is the floor
                np.minimum(quotient, last[k], out=quotient)
                axis_cell = cell if k else flat
                np.copyto(axis_cell, quotient, casting="unsafe")
                if k:
                    flat *= sub
                    flat += cell
        np.logical_not(inside, out=test)
        flat[test] = -1
        return flat

    def box_containing(self, point) -> int:
        idx = self.box_of(np.asarray(point, dtype=float)[None, :])[0]
        if idx < 0:
            raise ValueError(f"point {point} lies outside the window")
        return int(idx)


def _check_same_grid(grid: BoxGrid, other: BoxGrid) -> None:
    if grid != other:
        raise ValueError("the box sets or graphs lie on different grids")


def _check_box_grid(grid, operation: str) -> None:
    if not isinstance(grid, BoxGrid):
        raise TypeError(f"{operation} needs a BoxGrid, not a {type(grid).__name__}")


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Subset of a grid's boxes, stored as a sorted unique index array.

    The grid is a `BoxGrid` or a `projective.SphereGrid`, whose cell contract
    is ids 0..size-1, `cell_points`, `centers` and `box_of`; `volume`,
    `dilate`, `is_invariant_in_window` and `refine` raise TypeError on any
    grid but a `BoxGrid`.  `==` and `hash` go by identity; `equals`
    compares the boxes.
    """

    grid: "BoxGrid | SphereGrid"
    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)
        # one comparison pass spares the sort of the strictly increasing
        # arrays refine and the graph queries pass (np.unique hashes, slower)
        if not np.all(idx[1:] > idx[:-1]):
            idx.sort()
            idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
        if idx.size and (idx[0] < 0 or idx[-1] >= self.grid.size):
            raise ValueError("box index out of range")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __contains__(self, index) -> bool:
        pos = np.searchsorted(self.indices, index)
        return bool(pos < self.indices.size and self.indices[pos] == index)

    @property
    def volume(self) -> float:
        _check_box_grid(self.grid, "BoxSet.volume")
        return len(self) * self.grid.box_volume

    def centers(self) -> np.ndarray:
        return self.grid.centers(self.indices)

    def union(self, other: "BoxSet") -> "BoxSet":
        _check_same_grid(self.grid, other.grid)
        return BoxSet(self.grid, np.concatenate([self.indices, other.indices]))

    def intersection(self, other: "BoxSet") -> "BoxSet":
        _check_same_grid(self.grid, other.grid)
        return BoxSet(self.grid, np.intersect1d(self.indices, other.indices,
                                                assume_unique=True))

    def difference(self, other: "BoxSet") -> "BoxSet":
        _check_same_grid(self.grid, other.grid)
        return BoxSet(self.grid, np.setdiff1d(self.indices, other.indices,
                                              assume_unique=True))

    def equals(self, other: "BoxSet") -> bool:
        _check_same_grid(self.grid, other.grid)
        return np.array_equal(self.indices, other.indices)

    def _mask(self) -> np.ndarray:
        """The boxes as a boolean array shaped like the grid's subdivisions."""
        mask = np.zeros(self.grid.size, dtype=bool)
        mask[self.indices] = True
        return mask.reshape(self.grid.subdivisions)

    def dilate(self, radius: int = 1) -> "BoxSet":
        """Chebyshev dilation by `radius` boxes, clipped to the window, on a
        grid-sized boolean mask."""
        _check_box_grid(self.grid, "BoxSet.dilate")
        radius = int(_whole(radius, "radius"))
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return BoxSet(self.grid, np.flatnonzero(_dilated(self._mask(), radius)))

    def run_length_encoding(self) -> list:
        """Sorted indices as [start, length] runs (compact JSON form)."""
        if len(self) == 0:
            return []
        idx = self.indices
        breaks = np.where(np.diff(idx) != 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [idx.size - 1]])
        return [[int(idx[s]), int(e - s + 1)] for s, e in zip(starts, ends)]


def _dilated(mask: np.ndarray, radius: int) -> np.ndarray:
    """`mask` ORed in place with its shifts by 1..radius cells along each axis
    in turn, clipped to its shape: the Chebyshev dilation by `radius`."""
    for axis in range(mask.ndim):
        view = np.moveaxis(mask, axis, 0)
        before = view.copy(order="K")  # in the memory order of `mask`
        for r in range(1, min(radius, view.shape[0] - 1) + 1):
            view[r:] |= before[:-r]
            view[:-r] |= before[r:]
    return mask


# ------------------------------------------------------------- graph core
# Graphs on positions 0..n-1 as CSR (indptr, targets) with sorted, distinct
# rows, held by TransitionGraph and its subclass projective.SphereGraph.  Both
# builders take one sampling path: `_sampled_controls` checks the inputs and
# the cap, and `_sampled_csr` works through the nodes in tiles (`_tile_starts`).
# Per tile it makes the test points, maps all P of them under each control
# with one stacked kernel call and one `box_of`, filling the control's P rows
# of a (C * P, tile) block of target positions, a row per (control, test
# point) and a column per node; `_rows_to_csr` sorts each node's C * P
# samples in the block's transpose.  The tiles are independent: the calling
# thread builds every `_WORKERS`-th of them and a thread pool the rest
# (`_in_tiles`), and their rows are joined once, in order, so no whole-graph
# block or transpose exists and the graph has the bits of a serial build.  A
# graph of fewer than `_TILE` // 2 nodes is one tile, built on the caller
# alone: below that size the hand-offs of the interpreter lock between tile
# threads cost more than a second thread saves.
# Ids are positions when the graph has every box, else a table maps
# them.  `_sampled_csr` builds in int32 when grid.size plus the samples fit
# (always under DEFAULT_MEMORY_CAP), else int64, and stores the joined
# indptr and targets in int32 whenever the kept graph fits, so csgraph
# computes on the graph's own arrays and the matrices it gets carry no
# per-edge data (`_csr_matrix`).  On a BoxGrid the images come
# coordinate-major: a (P, dim, tile) array per control, whose transpose
# box_of reads a coordinate slice at a time from contiguous memory.

# Nodes per tile of the sampled build, at most, whose points, images and id
# block stay in cache; half of it is the least graph split over the tile
# pool.  Tiles are cut at multiples of 64 nodes: OpenBLAS gives a product
# G @ X cut at such columns the bits of the uncut one (cut at 1 or 7
# columns it need not).
_TILE = 16384
# Threads that build tiles: the CPUs this process may run on, the caller
# among them.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _tile_pool() -> ThreadPoolExecutor:
    """The module's pool of `_WORKERS` - 1 tile threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="affinecontrol-tile")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _tile_starts(n: int) -> range:
    """Starts of the tiles of n nodes: ceil(n / _TILE) tiles, rounded up to a
    multiple of `_WORKERS` when n is at least _TILE // 2 (8192 nodes), of
    one size, the least multiple of 64 that covers n in that many; the last
    tile takes the rest.  So fewer than _TILE // 2 nodes, or 64 or fewer,
    are one tile."""
    tiles = -(-n // _TILE)
    if n >= _TILE // 2:
        tiles += -tiles % _WORKERS
    size = -(-n // max(tiles, 1))
    size += -size % 64
    return range(0, n, max(size, 64))


def _in_tiles(build, count: int) -> list:
    """[build(i) for i in range(count)], tile i built by the calling thread
    when i % _WORKERS == 0 and by the tile pool otherwise, each pool tile in a
    copy of the caller's context (so it sees the caller's `np.errstate`).
    One tile, as `_tile_starts` makes of a graph under _TILE // 2 nodes, is
    built on the caller without the pool.
    Every tile started is finished before this returns or raises; the error
    raised is the one of the first tile in order that failed, as in a
    serial build, and pool tiles after a failed tile of the caller's are
    cancelled if they have not started."""
    futures = {}
    if count > 1 and _WORKERS > 1:
        pool = _tile_pool()
        futures = {i: pool.submit(contextvars.copy_context().run, build, i)
                   for i in range(count) if i % _WORKERS}
    parts = [None] * count
    failed, error = count, None
    try:
        for i in range(0, count, _WORKERS):
            parts[i] = build(i)
    except BaseException as exc:  # re-raised below, after the pool tiles
        failed, error = i, exc
    for i, future in futures.items():
        if i > failed:
            future.cancel()
    wait(futures.values())
    for i, future in futures.items():
        if i > failed:
            break
        parts[i] = future.result()  # raises the tile's error, earlier than the caller's
    if error is not None:
        raise error
    return parts


def _index_dtype(count: int) -> type:
    """int32 when `count` fits in it, else int64."""
    return np.int32 if count < 2**31 else np.int64


def _rows_to_csr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of a C-contiguous (n, C) array of target positions, row j holding
    the C samples of node j, -1 for the sink: (indptr, targets, sink).
    Sorts `rows` in place; rows may be int32 or int64, and indptr and
    targets have their dtype."""
    rows.sort(axis=1)
    # a sample is kept when it differs from its left neighbour, compared
    # across the flat array; a row's first sample is kept unless it is -1,
    # and the sorted row's other -1s equal their neighbours
    flat = rows.ravel()
    keep = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    keep = keep.reshape(rows.shape)
    np.greater_equal(rows[:, :1], 0, out=keep[:, :1])
    indptr = np.zeros(rows.shape[0] + 1, dtype=rows.dtype)
    # row counts as sums of the int8 flags in the narrowest dtype that holds
    # C, which numpy reduces along short rows faster than count_nonzero
    count = np.min_scalar_type(-rows.shape[1] - 1)
    np.cumsum(keep.view(np.int8).sum(axis=1, dtype=count), out=indptr[1:])
    return indptr, np.compress(keep.ravel(), flat), np.any(rows[:, :1] < 0, axis=1)


def _sampled_controls(sys: AffineSystem, dim: int, grid, count: int, controls,
                      dt: float, pts_per_box: int, seed: int,
                      memory_cap: int) -> tuple[np.ndarray, int, int]:
    """The controls as a (C, m) array and pts_per_box and seed as ints, once
    the system dimension against the grid's `dim`, dt, pts_per_box and seed
    (whole numbers, as `_whole` checks), every control value and the memory
    are checked; raises before anything is allocated for the graph.  The cap
    counts one word per point-control sample of the graph's `count` boxes,
    the most edges `_sampled_csr` can keep, plus grid.size + 1 for its
    position table when `count` < grid.size.  A word is one element
    of the graph's index dtype, 4 bytes when grid.size + samples < 2**31."""
    if sys.n != dim:
        raise ValueError(f"system dimension {sys.n} does not match the grid ({dim})")
    if not 0 < dt < math.inf:  # False for NaN
        raise ValueError("dt must be positive and finite")
    pts_per_box = int(_whole(pts_per_box, "pts_per_box"))
    if pts_per_box < 1:
        raise ValueError("pts_per_box must be >= 1")
    seed = int(_whole(seed, "seed"))
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    _check_values(sys, controls)
    samples = count * pts_per_box * controls.shape[0]
    table_words = grid.size + 1 if count < grid.size else 0
    if samples + table_words > memory_cap:
        raise MemoryBudgetError(
            f"{samples} point-control samples and {table_words} position-table words "
            f"exceed the cap of {memory_cap}; coarsen the grid, reduce samples, "
            f"or raise the cap")
    return controls, pts_per_box, seed


def _sampled_csr(grid, boxes: np.ndarray, offsets: np.ndarray, maps: list,
                 image_rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, targets, sink) of the graph on the sorted `boxes`, with the
    test points `grid.cell_points(..., offsets)` and one map per control.

    Works through `boxes` in the tiles of `_tile_starts`, built by `_in_tiles`
    on the calling thread and the tile pool, or on the caller alone when
    there are fewer than _TILE // 2 boxes.  For a tile's (P, n, dim) test
    points, `image_rows(maps[c], points)` returns the stacked (P, n, dim)
    images, whose `grid.box_of` fills rows c * P .. c * P + P - 1 of the
    tile's (C * P, n) block in one assignment; `_rows_to_csr` turns the
    block into the tile's rows.  When `boxes` leaves out some box of
    `grid`, the ids become positions in `boxes` by one `np.take` per
    control through a table of grid.size + 1 words, -1 for ids not in
    `boxes` and in the last entry, which id -1 (the sink) reads; otherwise
    every box is in `boxes` and the ids are positions already.  Every index
    of the build is at most grid.size + samples, so the block, table and
    tiles take its `_index_dtype`.  The tiles' rows are joined in order, so
    the graph does not depend on the tiling or the thread count.  The
    joined graph is stored in the `_index_dtype` of edges + nodes + 1, which
    bounds every index `_reachable` forms: int32 whenever the kept graph
    fits, the arrays csgraph computes on as they are.
    """
    P = offsets.shape[0]
    dtype = _index_dtype(grid.size + boxes.size * len(maps) * P)
    table = None
    if boxes.size < grid.size:
        table = np.full(grid.size + 1, -1, dtype=dtype)
        table[boxes] = np.arange(boxes.size)
    starts = _tile_starts(boxes.size)

    def tile(i):
        points = grid.cell_points(boxes[starts[i]:starts[i] + starts.step], offsets)
        block = np.empty((len(maps) * P, points.shape[1]), dtype=dtype)
        for c, m in enumerate(maps):
            ids = grid.box_of(image_rows(m, points))
            rows = block[c * P:(c + 1) * P]
            if table is None:
                rows[...] = ids
            else:  # ids lie in [-1, size), and "wrap" reads id -1 from the last entry
                np.take(table, ids, out=rows, mode="wrap")
        return _rows_to_csr(np.ascontiguousarray(block.T))

    indptr = np.zeros(boxes.size + 1, dtype=dtype)
    targets, sinks = [np.empty(0, dtype=dtype)], [np.empty(0, dtype=bool)]
    for start, (tile_indptr, tile_targets, tile_sink) in zip(
            starts, _in_tiles(tile, len(starts))):
        stop = start + tile_sink.size
        np.add(tile_indptr[1:], indptr[start], out=indptr[start + 1:stop + 1])
        targets.append(tile_targets)
        sinks.append(tile_sink)
    stored = _index_dtype(int(indptr[-1]) + boxes.size + 1)
    return (indptr.astype(stored, copy=False), np.concatenate(targets, dtype=stored),
            np.concatenate(sinks))


def _positions(boxes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id in the sorted array `boxes`, or -1 where absent."""
    if boxes.size == 0:
        return np.full(ids.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(boxes, ids), boxes.size - 1)
    return np.where(boxes[pos] == ids, pos, -1)


def _csr_matrix(indptr: np.ndarray, targets: np.ndarray,
                ones: type | None = None) -> sparse.csr_matrix:
    """The graph as a matrix of ones on `indptr` and `targets` themselves:
    a writable array of dtype `ones`, one entry per edge, or by default a
    read-only zero-stride view of one float64 1.0, 8 bytes in all.  csgraph's
    traversals read only the structure, so with the default and the
    builders' int32 index arrays neither scipy's constructor nor csgraph
    allocates, scans or copies anything per edge."""
    n = indptr.size - 1
    data = (np.broadcast_to(1.0, targets.shape) if ones is None
            else np.ones(targets.size, dtype=ones))
    return sparse.csr_matrix((data, targets, indptr), shape=(n, n))


def _self_loops(indptr: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per node, whether it has an edge to itself: the diagonal of the
    matrix of int8 ones (rows are distinct, so an entry is 0 or 1), which
    scipy reads in one pass with one byte per edge, not a source per edge."""
    return _csr_matrix(indptr, targets, np.int8).diagonal() != 0


def _scc_labels(indptr: np.ndarray, targets: np.ndarray,
                loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SCC label per position, and per label whether the SCC has an internal
    edge (two or more members, or a self-loop; `loops`: per-node flags)."""
    if indptr.size == 1:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=bool)
    n_comp, labels = csgraph.connected_components(
        _csr_matrix(indptr, targets), directed=True, connection="strong")
    kept = np.bincount(labels, minlength=n_comp) >= 2
    kept[labels[loops]] = True
    return labels, kept


def _label_order(labels: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Positions of the labels flagged in `kept`, grouped by label: the groups
    by size descending, then smallest position, each sorted; and the group
    bounds, group k being positions[bounds[k]:bounds[k + 1]]."""
    members = np.flatnonzero(kept[labels])
    members = members[np.argsort(labels[members], kind="stable")]
    sizes = np.bincount(labels, minlength=kept.size)[kept]
    starts = np.cumsum(sizes) - sizes
    order = np.lexsort((members[starts], -sizes))
    sizes = sizes[order]
    ends = np.cumsum(sizes)
    # each member moves by its group's shift from its label-order start
    members = members[np.repeat(starts[order] - (ends - sizes), sizes)
                      + np.arange(members.size)]
    return members, [0] + ends.tolist()


def _label_groups(labels: np.ndarray, kept: np.ndarray) -> list[np.ndarray]:
    """The groups of `_label_order` as sorted arrays, by size descending,
    then smallest position."""
    members, bounds = _label_order(labels, kept)
    return [members[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _ranges(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges firsts[i] .. firsts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.repeat(firsts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _reachable(indptr: np.ndarray, targets: np.ndarray, starts: np.ndarray,
               include_start: bool) -> np.ndarray:
    """Sorted positions reachable from `starts` (in zero or more steps with
    include_start, else in at least one step)."""
    n = indptr.size - 1
    if include_start:
        first = starts
    else:  # the successors of the starts, at most n distinct ones
        first = np.unique(targets[_ranges(indptr[starts], indptr[starts + 1] - indptr[starts])])
    # a virtual node n whose successors are the first positions to visit
    matrix = _csr_matrix(np.concatenate([indptr, [indptr[-1] + first.size]], dtype=indptr.dtype),
                         np.concatenate([targets, first], dtype=targets.dtype))
    order = csgraph.breadth_first_order(matrix, n, directed=True,
                                        return_predecessors=False)
    return np.sort(order[1:])


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Directed one-step transition graph over (a subset of) a grid's boxes.

    `boxes` lists the participating flat box indices (sorted); adjacency is
    CSR over positions into that list, int32 under DEFAULT_MEMORY_CAP.  `sink`
    marks boxes with a sampled transition leaving the window (or the active
    subset).  The reversed graph and the SCC labelling are computed on first
    use and cached; `chain_components` and `control_set_approx` share it.
    """

    grid: "BoxGrid | SphereGrid"
    boxes: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    sink: np.ndarray
    dt: float
    controls: np.ndarray
    pts_per_box: int
    seed: int
    _reverse: tuple = field(init=False, repr=False, default=None)
    _scc: tuple = field(init=False, repr=False, default=None)

    @property
    def num_boxes(self) -> int:
        return int(self.boxes.size)

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def position_of(self, box_indices) -> np.ndarray:
        """Positions of flat box indices inside `boxes` (-1 if absent)."""
        return _positions(self.boxes, np.asarray(box_indices, dtype=np.int64))

    def successors(self, position: int) -> np.ndarray:
        return self.targets[self.indptr[position]:self.indptr[position + 1]]

    def reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed graph (cached), int32 when the graph's arrays are."""
        if self._reverse is not None:
            return self._reverse
        # int8 ones: the transpose moves one byte of data per edge, not eight
        rmat = _csr_matrix(self.indptr, self.targets, np.int8).T.tocsr()
        rev = (rmat.indptr, rmat.indices)
        object.__setattr__(self, "_reverse", rev)
        return rev

    def scc(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, kept): SCC label per position, and per label whether the
        SCC has two or more members or a self-loop (cached)."""
        if self._scc is None:
            object.__setattr__(self, "_scc", _scc_labels(self.indptr, self.targets,
                                                         self.has_self_loop()))
        return self._scc

    def to_sparse(self) -> sparse.csr_matrix:
        """The graph as a scipy CSR matrix of float64 ones, whose indptr and
        indices are the graph's own arrays when they are int32.  Its data is
        a writable array of its own, unlike the zero-stride view in the
        matrices the graph queries hand csgraph."""
        return _csr_matrix(self.indptr, self.targets, np.float64)

    def has_self_loop(self) -> np.ndarray:
        return _self_loops(self.indptr, self.targets)


def _primes(count: int) -> list[int]:
    """The first `count` primes."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton_offsets(dim: int, count: int, seed: int) -> np.ndarray:
    """(count, dim) Owen-scrambled Halton points in [0, 1)^dim.

    Owen's randomized Halton (arXiv:1706.02808): axis i has the i-th prime
    base b and ceil(54/log2 b) - 1 digit permutations, shuffled rows of
    arange(b) drawn in axis order from `np.random.default_rng(seed)`; point
    j is sum_k perm_k[(j // b**k) % b] * scale_k with scale_k = 1/b**(k+1).
    Building scale_k by repeated division and adding the digits in order
    from the lowest gives bit for bit SciPy's
    `Halton(dim, scramble=True, seed=seed).random(count)` for an int seed.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(count, dtype=np.int64)
    out = np.empty((count, dim))
    for axis, base in enumerate(_primes(dim)):
        rows = math.ceil(54 / math.log2(base)) - 1
        perms = np.tile(np.arange(base), (rows, 1))
        for perm in perms:
            rng.shuffle(perm)
        scales = np.divide.accumulate(np.r_[1.0, np.full(rows, float(base))])[1:]
        digits = index // base ** np.arange(rows, dtype=np.int64)[:, None] % base
        terms = np.take_along_axis(perms, digits, axis=1) * scales[:, None]
        out[:, axis] = terms.cumsum(axis=0)[-1]  # sequential sum, lowest digit first
    return out


@functools.lru_cache(maxsize=64)
def _test_offsets(cell_dims: int, pts_per_box: int, seed: int) -> np.ndarray:
    """(pts_per_box, cell_dims) test-point positions for either grid's `cell_points`,
    the same in every cell: the center, then `pts_per_box - 1` Owen-scrambled
    Halton points of `_halton_offsets`, drawn from `np.random.default_rng(seed)`
    and identical to SciPy's `Halton(scramble=True)` sampler for an int seed.
    Memoised on the three ints: every graph built with them shares one
    array, which is read-only."""
    offsets = np.vstack([np.full((1, cell_dims), 0.5),
                         _halton_offsets(cell_dims, pts_per_box - 1, seed)])
    offsets.setflags(write=False)
    return offsets


def build_transition_graph(sys: AffineSystem, grid: BoxGrid, controls,
                           dt: float, pts_per_box: int, seed: int,
                           active: BoxSet | None = None,
                           memory_cap: int = DEFAULT_MEMORY_CAP) -> TransitionGraph:
    """Sample the dt-flow from every box under every control value.

    For each test point of `_test_offsets` and each control the exact
    dt-map is applied; an edge is added to the box containing the image, or
    the source is flagged as feeding the sink when the image leaves the
    window (or the active subset).  Each control's dt-map is computed once;
    `_sampled_csr`, the sampling path that `projective.build_sphere_graph`
    shares, applies it to all test points of a tile of boxes in one stacked
    product, so the test points, the images and the id block of the whole
    graph never exist at once.  The tiles are built on the calling thread
    and a pool of one thread per further CPU of the process's affinity, in
    the caller's `np.errstate`; a graph of fewer than 8192 boxes
    (`_TILE` // 2) is one tile, built on the calling thread alone.  The
    graph is the same for any thread count.
    Deterministic for a fixed seed, a whole number as `_whole` checks.

    `memory_cap` bounds words: one per point-control sample (boxes x
    pts_per_box x controls), plus grid.size + 1 for the position table when
    `active` leaves out a box.  A word is one element of the graph's index
    dtype, 4 bytes as DEFAULT_MEMORY_CAP keeps grid.size + samples < 2**31.
    Exceeding the cap raises `MemoryBudgetError` before any allocation.
    """
    if active is not None:
        _check_same_grid(grid, active.grid)
    count = grid.size if active is None else len(active)
    controls, pts_per_box, seed = _sampled_controls(sys, grid.dim, grid, count, controls,
                                                    dt, pts_per_box, seed, memory_cap)
    boxes = np.arange(grid.size, dtype=np.int64) if active is None else active.indices
    maps = [segment_map(sys, u, dt) for u in controls]

    def image_rows(segment, points):
        G, h = segment
        # coordinate-major (P, dim, n) from the contiguous transposes of the
        # P point sets: bit for bit pts @ G.T + h per set, and box_of reads
        # contiguous coordinate slices
        with np.errstate(over="ignore", invalid="ignore"):
            images = G @ points.transpose(0, 2, 1)
            images += h[:, None]
        return images.transpose(0, 2, 1)

    # outside the window (-1) or the active subset -> sink
    indptr, targets, sink = _sampled_csr(
        grid, boxes, _test_offsets(grid.dim, pts_per_box, seed), maps, image_rows)
    return TransitionGraph(grid=grid, boxes=boxes.copy(), indptr=indptr,
                           targets=targets, sink=sink, dt=float(dt),
                           controls=controls, pts_per_box=pts_per_box, seed=seed)


def closure(graph: TransitionGraph, from_set: BoxSet, direction: str = "forward",
            include_start: bool = True) -> BoxSet:
    """Reachability closure of a box set in the graph (sink excluded).

    direction "forward" follows edges, "backward" follows them reversed;
    with include_start=False only boxes reachable in at least one step are
    returned.  Monotone in `from_set`.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    _check_same_grid(graph.grid, from_set.grid)
    if len(from_set) == 0:
        raise ValueError("from_set must be nonempty")
    starts = graph.position_of(from_set.indices)
    starts = starts[starts >= 0]
    if direction == "forward":
        indptr, targets = graph.indptr, graph.targets
    else:
        indptr, targets = graph.reverse()
    return BoxSet(graph.grid, graph.boxes[_reachable(indptr, targets, starts,
                                                     include_start)])


def control_set_approx(graph: TransitionGraph, seed_box: int) -> BoxSet:
    """Approximate the control set whose interior contains the seed box.

    The boxes lying on a directed cycle through the seed: its strongly
    connected component when the seed lies on a cycle (two or more members,
    or a self-loop), which is the intersection of the strictly-forward and
    strictly-backward reachable sets of the seed box.  Seeds in the
    interior of the same control set give identical results; a wandering
    seed yields the empty set.  Reads the graph's cached SCC labelling,
    the one `chain_components` uses.
    """
    pos = graph.position_of(np.array([seed_box]))[0]
    if pos < 0:
        raise ValueError("seed box is not part of the graph")
    labels, kept = graph.scc()
    return BoxSet(graph.grid, graph.boxes[(labels == labels[pos]) & kept[labels[pos]]])


def chain_components(graph: TransitionGraph) -> list[BoxSet]:
    """Strongly connected components with at least one internal edge.

    Ordered by size descending (ties by smallest box index).  They
    approximate chain control sets and shrink as the grid refines, but they
    are not guaranteed outer approximations: a transition that no test
    point realises is missing from the graph, so a component can be
    smaller than the chain control set it approximates.  Groups the graph's
    cached SCC labelling, the one `control_set_approx` reads.
    """
    return [BoxSet(graph.grid, graph.boxes[members])
            for members in _label_groups(*graph.scc())]


def refine(sys: AffineSystem, graph: TransitionGraph, keep: BoxSet, factor: int,
           memory_cap: int = DEFAULT_MEMORY_CAP) -> tuple[BoxGrid, TransitionGraph]:
    """Subdivide the kept boxes by `factor` per axis and rebuild the graph.

    The refined graph is restricted to the children of the kept boxes plus
    a one-box collar in the fine grid; transitions leaving that covering
    go to the sink; the coarse graph's controls, dt, pts_per_box and seed
    sample it.  Intended loop: chain_components -> refine -> repeat.
    `memory_cap` counts words of the graph's index dtype as in
    `build_transition_graph`: one per sample of the active boxes, plus the
    fine grid's size + 1 for the position table when they leave out a fine box.
    A fine grid of more boxes than the cap raises before its mask is made:
    its position table or, when every fine box is active, its samples exceed it.
    """
    factor = int(_whole(factor, "factor"))
    if factor < 2:
        raise ValueError("factor must be >= 2")
    grid = graph.grid
    _check_same_grid(grid, keep.grid)
    _check_box_grid(grid, "refine")
    fine = BoxGrid(grid.lo, grid.hi, grid.subdivisions * factor)
    if fine.size > memory_cap:
        raise MemoryBudgetError(
            f"the fine grid's {fine.size + 1} position-table words, or its samples, "
            f"exceed the cap of {memory_cap}; refine by a smaller factor or raise the cap")
    children = keep._mask()
    for axis in range(grid.dim):
        children = np.repeat(children, factor, axis=axis)
    active = BoxSet(fine, np.flatnonzero(_dilated(children, 1)))
    return fine, build_transition_graph(sys, fine, graph.controls, graph.dt,
                                        graph.pts_per_box, graph.seed, active=active,
                                        memory_cap=memory_cap)


def is_invariant_in_window(graph: TransitionGraph, box_set: BoxSet) -> bool:
    """Whether the forward closure of the set stays within one box of it.

    Any sampled transition to the sink from the closure makes the answer
    False: invariance can only be certified relative to the window.
    """
    _check_same_grid(graph.grid, box_set.grid)
    _check_box_grid(graph.grid, "is_invariant_in_window")
    if len(box_set) == 0:
        return True
    fwd = closure(graph, box_set, "forward")
    positions = graph.position_of(fwd.indices)
    if np.any(graph.sink[positions[positions >= 0]]):
        return False
    return len(fwd.difference(box_set.dilate(1))) == 0

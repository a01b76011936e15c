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
grids, `BoxGrid` and `projective.SphereGrid`, and read only their cell
contract: ids 0..size-1 and `centers`.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .config import DEFAULT_MEMORY_CAP
from .system import AffineSystem, _check_values, _segment_maps, _whole

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
    closures and refinements combine only boxes of equal grids.  Box ids
    are int64, so a grid has fewer than 2**63 boxes; ValueError otherwise.
    """

    lo: np.ndarray
    hi: np.ndarray
    subdivisions: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        subs = _whole(self.subdivisions, "subdivisions").flatten()  # not the caller's array
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
        if self.size >= 2**63:
            raise ValueError(f"{self.size} boxes; box ids are int64, so a grid has fewer "
                             f"than 2**63")

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
        return math.prod(self.subdivisions.tolist())  # Python ints, which do not wrap

    @property
    def widths(self) -> np.ndarray:
        return (self.hi - self.lo) / self.subdivisions

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.widths))

    def multi_index(self, indices) -> np.ndarray:
        """(k, dim) array of per-axis indices for flat box indices, whole
        numbers as `_whole` checks."""
        indices = _whole(indices, "indices")
        return np.stack(np.unravel_index(indices, self.subdivisions), axis=-1)

    def flat_index(self, multi) -> np.ndarray:
        """Flat box indices of (k, dim) per-axis indices, whole numbers as
        `_whole` checks."""
        multi = _whole(multi, "multi")
        return np.ravel_multi_index(tuple(multi.T), self.subdivisions)

    def _box_points(self, indices, offset: float) -> np.ndarray:
        """(N, dim) points at the relative position `offset` in every box,
        C-contiguous: coordinate k is (index_k + offset) * width_k + lo_k.
        The ids are whole numbers, as `_whole` checks."""
        multi = np.unravel_index(_whole(indices, "indices").reshape(-1), self.subdivisions)
        return np.stack([(m + offset) * w + lo for m, w, lo in zip(multi, self.widths, self.lo)],
                        axis=-1)

    def centers(self, indices) -> np.ndarray:
        """(N, dim) box centers, C-contiguous."""
        return self._box_points(indices, 0.5)

    def lower_corners(self, indices) -> np.ndarray:
        return self._box_points(indices, 0.0)

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
        widths = self.widths
        flat = np.zeros(pts.shape[:-1], dtype=np.int64)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        # an axis at a time: numpy broadcasts over a short last axis slowly
        with np.errstate(over="ignore", invalid="ignore"):  # those points are outside
            for k, sub in enumerate(self.subdivisions.tolist()):
                x = pts[..., k]
                offset = x - self.lo[k]
                # x - lo >= 0 is x >= lo for every double, NaN (False) and
                # +-inf too: a rounded difference of doubles has the sign of
                # the exact one, and is 0 only when they are equal
                inside &= offset >= 0.0
                inside &= x < self.hi[k]
                offset /= widths[k]
                # inside, the clipped quotient is >= 0, so the cast is the floor
                flat *= sub
                flat += np.minimum(offset, sub - 1).astype(np.int64)
        return np.where(inside, flat, -1)

    def box_containing(self, point) -> int:
        """Flat index of the box holding one point of `dim` coordinates;
        ValueError for any other shape or a point outside the window."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"box_containing takes one point of {self.dim} coordinates, "
                             f"not an array of shape {pt.shape}")
        idx = self.box_of(pt[None, :])[0]
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
    is ids 0..size-1 and `centers`; `volume`, `dilate`,
    `is_invariant_in_window` and `refine` raise TypeError on any grid but a
    `BoxGrid`.  `==` and `hash` go by identity; `equals`
    compares the boxes.
    """

    grid: "BoxGrid | SphereGrid"
    indices: np.ndarray

    def __post_init__(self):
        idx = np.array(_whole(self.indices, "indices"))
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
# the cap, and `_sampled_csr` works through the nodes in tiles of `_TILE`.
# Per tile the grid's fill callable writes a (C * P, tile) block of box ids, a
# row per (control, test point) and a column per node; `_rows_to_csr` sorts
# each node's C * P samples in the block's transpose, and the nodes with a
# sample in their own position, the self-loops, are flagged from the block
# itself, so no graph query scans the CSR for them.  On a BoxGrid the fill
# works in bin coordinates: every dt-map is affine and the test points lie
# on a lattice, so the sample of test point p in box m has bin coordinate
# q = Q m + R[p] (`_bin_map`, once per control), and `_lattice_block` writes
# floor(q) inside 0 <= q < subdivisions and -1 elsewhere, without making a
# point or an image.  That box differs from box_of(G p + h) only within
# rounding of a box face.  On a SphereGrid the fill makes the test points,
# flows them under each control and calls `SphereGrid.box_of`.  The tiles
# are built in order on the calling thread, each writing its slice of the
# node arrays in place and keeping its targets to be joined once, so no
# whole-graph block or transpose exists.
# Ids are positions when the graph has every box, else a table maps
# them.  `_sampled_csr` builds in int32 when grid.size plus the samples fit
# (always under DEFAULT_MEMORY_CAP), else int64, and stores the joined
# indptr and targets in int32 whenever the kept graph fits, so csgraph
# computes on the graph's own arrays and the matrices it gets carry no
# per-edge data (`_csr_matrix`).

# Nodes per tile of the sampled build, whose samples and id block stay in
# cache.  A multiple of 64, which matters only for the sphere's BLAS
# product: OpenBLAS gives a product E @ X cut at such columns the bits of
# the uncut one (cut at 1 or 7 columns it need not).  The box grid's kernel
# is elementwise, the same under any cut.
_TILE = 16384


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
    controls = np.array(controls, dtype=float, ndmin=2)  # the graph's own, not the caller's
    _check_values(sys, controls)
    samples = count * pts_per_box * controls.shape[0]
    table_words = grid.size + 1 if count < grid.size else 0
    if samples + table_words > memory_cap:
        raise MemoryBudgetError(
            f"{samples} point-control samples and {table_words} position-table words "
            f"exceed the cap of {memory_cap}; coarsen the grid, reduce samples, "
            f"or raise the cap")
    return controls, pts_per_box, seed


def _sampled_csr(grid, boxes: np.ndarray, samples: int,
                 fill) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, targets, sink, loops) of the graph on the sorted `boxes`, each
    node with `samples` sampled targets (a row per control and test point),
    `loops` flagging the nodes with an edge to themselves.

    Works through `boxes` in tiles of `_TILE` nodes, in order, on the
    calling thread.  `fill(nodes, block)` is the grid's part: it writes the
    box id of every sample of the tile's `nodes` into the (samples, n)
    `block`, a row per sample and a column per node, -1 for a sample outside
    the window; `_rows_to_csr` turns the block into the tile's rows, and a
    node's self-loop flag is whether any sample in its column is its own
    position, read off the block.  When `boxes` leaves out some box of
    `grid`, the ids become positions in `boxes` by one `np.take` through a
    table of grid.size + 1 words, -1 for ids not in `boxes` and in the last
    entry, which id -1 (the sink) reads; otherwise every box is in `boxes`
    and the ids are positions already.  Every index of the build is at most
    grid.size + samples, so the block, table and tiles take its
    `_index_dtype`.  Each tile writes its slice of indptr, sink and loops,
    allocated for every node, in place; only the targets, counted once a
    tile's rows are sorted, are joined after the last tile.  So the graph
    does not depend on the tiling.  It is stored in the `_index_dtype` of
    edges + nodes + 1, which bounds every index `_reachable` forms: int32
    whenever the kept graph fits, the arrays csgraph computes on as they are.
    """
    dtype = _index_dtype(grid.size + boxes.size * samples)
    table = None
    if boxes.size < grid.size:
        table = np.full(grid.size + 1, -1, dtype=dtype)
        table[boxes] = np.arange(boxes.size)
    indptr = np.zeros(boxes.size + 1, dtype=dtype)
    sink = np.empty(boxes.size, dtype=bool)
    loops = np.empty(boxes.size, dtype=bool)
    targets = [np.empty(0, dtype=dtype)]
    for start in range(0, boxes.size, _TILE):
        nodes = boxes[start:start + _TILE]
        stop = start + nodes.size
        block = np.empty((samples, nodes.size), dtype=dtype)
        fill(nodes, block)
        if table is not None:  # ids lie in [-1, size), and "wrap" reads id -1 from the last entry
            np.take(table, block, out=block, mode="wrap")
        np.any(block == np.arange(start, stop, dtype=dtype), axis=0, out=loops[start:stop])
        tile_indptr, tile_targets, sink[start:stop] = _rows_to_csr(np.ascontiguousarray(block.T))
        np.add(tile_indptr[1:], indptr[start], out=indptr[start + 1:stop + 1])
        targets.append(tile_targets)
    stored = _index_dtype(int(indptr[-1]) + boxes.size + 1)
    return indptr.astype(stored, copy=False), np.concatenate(targets, dtype=stored), sink, loops


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
                loops: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SCC label per position, per label whether the SCC has an internal
    edge (two or more members, or a self-loop; `loops`: per-node flags), and
    per label the SCC's size."""
    if indptr.size == 1:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=bool), np.empty(0, dtype=np.intp)
    n_comp, labels = csgraph.connected_components(
        _csr_matrix(indptr, targets), directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=n_comp)
    kept = sizes >= 2
    kept[labels[loops]] = True
    return labels, kept, sizes


def _label_order(labels: np.ndarray, kept: np.ndarray,
                 counts: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Positions of the labels flagged in `kept`, grouped by label: the groups
    by size descending, then smallest position, each sorted; and the group
    bounds, group k being positions[bounds[k]:bounds[k + 1]].  `counts[l]`
    is the number of positions with label l, as `_scc_labels` returns it."""
    members = np.flatnonzero(kept[labels])
    members = members[np.argsort(labels[members], kind="stable")]
    sizes = counts[kept]
    starts = np.cumsum(sizes) - sizes
    order = np.lexsort((members[starts], -sizes))
    sizes = sizes[order]
    ends = np.cumsum(sizes)
    # each member moves by its group's shift from its label-order start
    members = members[np.repeat(starts[order] - (ends - sizes), sizes)
                      + np.arange(members.size)]
    return members, [0] + ends.tolist()


def _label_groups(labels: np.ndarray, kept: np.ndarray,
                  counts: np.ndarray) -> list[np.ndarray]:
    """The groups of `_label_order` as sorted arrays, by size descending,
    then smallest position."""
    members, bounds = _label_order(labels, kept, counts)
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
    subset).  The reversed graph, the self-loop flags and the SCC labelling
    with its component sizes are cached on the graph, none of them a
    constructor parameter.  The builders store the self-loop flags their
    tiles computed; the rest, and the flags of a graph made through the
    constructor, are computed on first use.  `chain_components` and
    `control_set_approx` share the labelling.
    So that the caches hold, every array field is read-only: the constructor
    takes array-likes through `np.asarray` and copies an array that is
    writable or a view, and the builders hand it their own arrays read-only.
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
    _loops: np.ndarray = field(init=False, repr=False, default=None)
    _scc: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        for name in ("boxes", "indptr", "targets", "sink", "controls"):
            array = np.asarray(getattr(self, name))
            if array.flags.writeable or not array.flags.owndata:  # the caller may write it
                array = array.copy()
                array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def _built(cls, loops: np.ndarray, **fields) -> "TransitionGraph":
        """The graph of `fields`, whose arrays are the build's own and are
        made read-only, not copied, with the self-loop flags `loops` of its
        build in the cache."""
        for array in (loops, *fields.values()):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        graph = cls(**fields)
        object.__setattr__(graph, "_loops", loops)
        return graph

    @property
    def num_boxes(self) -> int:
        return int(self.boxes.size)

    @property
    def num_edges(self) -> int:
        return int(self.targets.size)

    def position_of(self, box_indices) -> np.ndarray:
        """Positions of flat box indices inside `boxes` (-1 if absent)."""
        return _positions(self.boxes, _whole(box_indices, "box_indices"))

    def successors(self, position: int) -> np.ndarray:
        """Targets of the node at `position`, IndexError outside 0..num_boxes-1."""
        if not 0 <= position < self.num_boxes:
            raise IndexError(f"position {position} is not in 0..{self.num_boxes - 1}")
        return self.targets[self.indptr[position]:self.indptr[position + 1]]

    def reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed graph (cached), int32 when the graph's arrays are."""
        if self._reverse is not None:
            return self._reverse
        # int8 ones: the transpose moves one byte of data per edge, not eight
        rmat = _csr_matrix(self.indptr, self.targets, np.int8).T.tocsr()
        rev = (rmat.indptr, rmat.indices)
        rmat.indptr.setflags(write=False)
        rmat.indices.setflags(write=False)
        object.__setattr__(self, "_reverse", rev)
        return rev

    def scc(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, kept): SCC label per position, and per label whether the
        SCC has two or more members or a self-loop (cached)."""
        return self._scc_sizes()[:2]

    def _scc_sizes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(labels, kept, sizes): `scc()` and the size of each SCC, as
        `_scc_labels` counted them (cached)."""
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
        """Per position, whether the node has an edge to itself; read-only
        and cached.  A built graph holds the flags its tiles read off the
        samples; a graph made through the constructor reads the diagonal of
        its CSR (`_self_loops`) on first use."""
        if self._loops is None:
            loops = _self_loops(self.indptr, self.targets)
            loops.setflags(write=False)
            object.__setattr__(self, "_loops", loops)
        return self._loops


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
    """(pts_per_box, cell_dims) test-point positions, the same in every cell,
    for the sphere's `cell_points` and the box grid's `_bin_map`: the center,
    then `pts_per_box - 1` Owen-scrambled Halton points of `_halton_offsets`,
    drawn from `np.random.default_rng(seed)` and identical to SciPy's
    `Halton(scramble=True)` sampler for an int seed.
    Memoised on the three ints: every graph built with them shares one
    array, which is read-only."""
    offsets = np.vstack([np.full((1, cell_dims), 0.5),
                         _halton_offsets(cell_dims, pts_per_box - 1, seed)])
    offsets.setflags(write=False)
    return offsets


def _bin_map(grid: BoxGrid, offsets: np.ndarray,
             segment: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The dt-map `segment` = (G, h) in the bin coordinates of `grid`: (Q, R)
    such that the image of the test point at `offsets[p]` in box m has bin
    coordinate q = Q m + R[p], (G (lo + (m + o_p) w) + h - lo) / w per axis.
    Q (dim, dim) is (G_kj w_j) / w_k; R (P, dim) is
    (sum_j G_kj (lo_j + o_pj w_j) + h_k - lo_k) / w_k, summed over j in
    order.  An overflow gives inf or NaN entries, with no warning."""
    G, h = segment
    w, lo = grid.widths, grid.lo
    points = lo + offsets * w
    with np.errstate(over="ignore", invalid="ignore"):
        Q = G * w / w[:, None]
        R = points[:, :1] * G[:, 0]
        for j in range(1, grid.dim):
            R += points[:, j, None] * G[:, j]
        R += h
        R -= lo
        R /= w
    return Q, R


def _lattice_block(multi: np.ndarray, bin_maps: list, subdivisions: np.ndarray,
                   block: np.ndarray) -> None:
    """Fill `block` (C * P, n) with the box ids of the samples of the boxes
    with multi-indices `multi` (n, dim), rows c * P .. c * P + P - 1 from
    `bin_maps[c]` = (Q, R) of `_bin_map`: per axis k, base = sum_j Q_kj m_j
    (in order, once per box; a zero Q_kj is left out, which changes at most
    the sign of a zero) and q = base + R[p, k].  A sample is inside when
    0 <= q < subdivisions on every axis, and then its bin is floor(q),
    cast once into the block's dtype and combined by Horner there; every
    other sample, NaN and +-inf among them, is -1.  The bins are exact for
    fewer than 2**53 boxes an axis."""
    m = multi.T.astype(float)  # (dim, n), each axis contiguous
    P, n = block.shape[0] // max(len(bin_maps), 1), m.shape[1]
    base, term = np.empty(n), np.empty(n)
    q = np.empty((P, n))
    inside = np.empty((P, n), dtype=bool)
    test = np.empty((P, n), dtype=bool)
    bins = np.empty((P, n), dtype=block.dtype)
    subs = subdivisions.tolist()  # Python ints, so Horner runs in the block's dtype
    # the cast of a non-finite q is never read: that sample is outside
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (Q, R) in enumerate(bin_maps):
            rows = block[c * P:(c + 1) * P]
            for k, sub in enumerate(subs):
                terms = [j for j in range(m.shape[0]) if Q[k, j] != 0.0]
                if terms:
                    np.multiply(Q[k, terms[0]], m[terms[0]], out=base)
                else:
                    base.fill(0.0)
                for j in terms[1:]:
                    base += np.multiply(Q[k, j], m[j], out=term)
                np.add(base, R[:, k, None], out=q)
                np.greater_equal(q, 0.0, out=test if k else inside)
                if k:
                    inside &= test
                np.less(q, sub, out=test)
                inside &= test
                # inside, q >= 0, so the cast is the floor
                np.copyto(bins if k else rows, q, casting="unsafe")
                if k:
                    rows *= sub
                    rows += bins
            np.logical_not(inside, out=test)
            np.copyto(rows, -1, where=test)


def build_transition_graph(sys: AffineSystem, grid: BoxGrid, controls,
                           dt: float, pts_per_box: int, seed: int,
                           active: BoxSet | None = None,
                           memory_cap: int = DEFAULT_MEMORY_CAP) -> TransitionGraph:
    """Sample the dt-flow from every box under every control value.

    For each test point of `_test_offsets` and each control the exact
    dt-map is applied; an edge is added to the box containing the image, or
    the source is flagged as feeding the sink when the image leaves the
    window (or the active subset).  Each control's dt-map (G, h) is computed
    once and taken to bin coordinates (`_bin_map`): the image of test point
    p of box m has bin coordinate q = Q m + R[p], and its box is floor(q)
    in the half-open window 0 <= q < subdivisions (`_lattice_block`).  That
    box differs from `BoxGrid.box_of(G p + h)` only where the image lies
    within rounding of a box face.  `_sampled_csr`, the sampling path
    that `projective.build_sphere_graph` shares, works through the boxes in
    tiles on the calling thread, so the samples and the id block of the
    whole graph never exist at once; the graph is read-only.
    The C dt-maps come from one `system._segment_maps` call, which treats
    every control on its own, so they are those of `segment_map` to the bit.
    The tiles also flag the boxes with a sample in their own box, and the
    graph keeps those flags as its `has_self_loop()`.
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
    offsets = _test_offsets(grid.dim, pts_per_box, seed)
    maps = _segment_maps(sys, controls, np.full(controls.shape[0], float(dt)))
    bin_maps = [_bin_map(grid, offsets, (E[:-1, :-1], E[:-1, -1])) for E in maps]

    def fill(nodes, block):
        _lattice_block(grid.multi_index(nodes), bin_maps, grid.subdivisions, block)

    # outside the window (-1) or the active subset -> sink
    indptr, targets, sink, loops = _sampled_csr(grid, boxes, len(bin_maps) * pts_per_box,
                                                fill)
    return TransitionGraph._built(loops, grid=grid, boxes=boxes, indptr=indptr,
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
    pos = graph.position_of([int(_whole(seed_box, "seed_box"))])[0]
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
            for members in _label_groups(*graph._scc_sizes())]


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

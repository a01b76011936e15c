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
Edges come from finitely many test points per box: the center plus
Owen-scrambled Halton offsets drawn from `np.random.default_rng(seed)`,
identical to SciPy's `Halton(scramble=True)` sampler for an int seed.  A
transition that no test point realises is missing from the graph: the
approximations are not guaranteed to contain the true sets, and can be
strictly smaller.  Results are always relative to the window: transitions
leaving it go to an absorbing sink that closures exclude.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .config import DEFAULT_MEMORY_CAP
from .system import AffineSystem, _check_values, segment_map

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
        subs = np.asarray(self.subdivisions, dtype=np.int64).reshape(-1)
        if lo.shape != hi.shape or lo.shape != subs.shape:
            raise ValueError("lo, hi, subdivisions must have equal lengths")
        if np.any(lo >= hi):
            raise ValueError("window must satisfy lo < hi per dimension")
        if np.any(subs < 1):
            raise ValueError("need at least one box per dimension")
        for arr, name in ((lo, "lo"), (hi, "hi")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
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

    def centers(self, indices) -> np.ndarray:
        return self.lo + (self.multi_index(indices) + 0.5) * self.widths

    def lower_corners(self, indices) -> np.ndarray:
        return self.lo + self.multi_index(indices) * self.widths

    def box_of(self, points) -> np.ndarray:
        """Flat box index per point, or -1 for points outside the window.

        The window is half open, lo <= x < hi per axis; a point just below
        hi whose quotient rounds up to `subdivisions` stays in the last box.
        Raises ValueError for points that do not have `dim` coordinates.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError(f"points with {pts.shape[1]} coordinates on a {self.dim}-D grid")
        n = pts.shape[0]
        widths = self.widths
        flat = np.zeros(n, dtype=np.int64)
        inside = np.ones(n, dtype=bool)
        # one set of buffers for all axes; a column of pts is contiguous
        # when pts is the transpose of a (dim, n) array
        test = np.empty(n, dtype=bool)
        quotient = np.empty(n)
        cell = np.empty(n, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):  # those points are outside
            for k, sub in enumerate(self.subdivisions):
                x = pts[:, k]
                np.greater_equal(x, self.lo[k], out=test)  # False for NaN
                inside &= test
                np.less(x, self.hi[k], out=test)
                inside &= test
                np.subtract(x, self.lo[k], out=quotient)
                quotient /= widths[k]
                # inside, the quotient is >= 0, so the cast is the floor
                np.copyto(cell, quotient, casting="unsafe")
                np.minimum(cell, sub - 1, out=cell)
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


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Subset of a grid's boxes, stored as a sorted unique index array.

    `==` and `hash` go by identity; `equals` compares the boxes.
    """

    grid: BoxGrid
    indices: np.ndarray

    def __post_init__(self):
        idx = _sorted_unique(np.array(self.indices, dtype=np.int64))
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

    def dilate(self, radius: int = 1) -> "BoxSet":
        """Chebyshev dilation by `radius` boxes, clipped to the window."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if len(self) == 0 or radius == 0:
            return self
        # one 1-D dilation per axis; the last axis has stride 1
        idx = self.indices
        stride = 1
        for sub in self.grid.subdivisions[::-1]:
            coord = idx // stride % sub
            steps = range(1, min(radius, sub - 1) + 1)
            idx = _sorted_unique(np.concatenate(
                [idx] + [idx[coord >= r] - r * stride for r in steps]
                + [idx[coord < sub - r] + r * stride for r in steps]))
            stride *= sub
        return BoxSet(self.grid, idx)

    def run_length_encoding(self) -> list:
        """Sorted indices as [start, length] runs (compact JSON form)."""
        if len(self) == 0:
            return []
        idx = self.indices
        breaks = np.where(np.diff(idx) != 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [idx.size - 1]])
        return [[int(idx[s]), int(e - s + 1)] for s, e in zip(starts, ends)]


# ------------------------------------------------------------- graph core
# Graphs on positions 0..n-1 as CSR (indptr, targets) with sorted, distinct
# rows, held by TransitionGraph and its subclass projective.SphereGraph.  Both builders
# take one sampling path: `_sampled_controls` checks the inputs and the cap,
# `_sampled_csr` fills one (C, n) block of target positions, a row per
# (control, test point) and a column per node, and `_rows_to_csr` sorts each
# node's C samples in the block's transpose.  The block is int32 whenever
# every id fits (always under DEFAULT_MEMORY_CAP), else int64; indptr and
# targets are int64 either way.  On a BoxGrid the images come
# coordinate-major: a (dim, n) array per (control, test point), whose
# transpose box_of reads column by column from contiguous memory.

def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values, sorted; sorts `values` in place (np.unique hashes, slower)."""
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _rows_to_csr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of a C-contiguous (n, C) array of target positions, row j holding
    the C samples of node j, -1 for the sink: (indptr, targets, sink).
    Sorts `rows` in place; rows may be int32 or int64, indptr and targets
    are int64."""
    rows.sort(axis=1)
    # a sample is kept when it differs from its left neighbour, compared
    # across the flat array; a row's first sample is kept unless it is -1,
    # and the sorted row's other -1s equal their neighbours
    flat = rows.ravel()
    keep = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    keep = keep.reshape(rows.shape)
    np.greater_equal(rows[:, :1], 0, out=keep[:, :1])
    indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    targets = np.compress(keep.ravel(), flat).astype(np.int64)
    return indptr, targets, np.any(rows[:, :1] < 0, axis=1)


def _sampled_controls(sys: AffineSystem, dim: int, controls, dt: float,
                      pts_per_box: int, n_boxes: int, memory_cap: int,
                      table_words: int = 0) -> np.ndarray:
    """The controls as a (C, m) array, once the system dimension against the
    grid's `dim`, dt, pts_per_box, every control value and the memory are
    checked; raises before anything is allocated for the graph.  The cap
    counts words of `_sampled_csr`'s id block, one per point-control sample
    of the n_boxes boxes, plus `table_words` for its position table; a word
    is 4 bytes when the ids fit in int32, else 8."""
    if sys.n != dim:
        raise ValueError(f"system dimension {sys.n} does not match the grid ({dim})")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if pts_per_box < 1:
        raise ValueError("pts_per_box must be >= 1")
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    _check_values(sys, controls)
    samples = n_boxes * pts_per_box * controls.shape[0]
    if samples + table_words > memory_cap:
        raise MemoryBudgetError(
            f"{samples} point-control samples and {table_words} position-table words "
            f"exceed the cap of {memory_cap}; coarsen the grid, reduce samples, "
            f"or raise the cap")
    return controls


def _sampled_csr(grid, boxes: np.ndarray, P: int, controls: np.ndarray, image_rows,
                 positions: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, targets, sink) of the graph on `boxes` sampled by P test points.

    `image_rows(u)` yields the (N, dim) images of the k-th test points under
    u, k = 0..P-1; their `grid.box_of` fills row c * P + k of the (C * P, N)
    block.  With `positions`, each row's ids become positions in the sorted
    `boxes` as it is filled, through a table of grid.size + 1 words, -1 for
    ids not in `boxes` and in the last entry, which id -1 (the sink) reads;
    otherwise they are positions already.  Block and table are int32 when
    every id fits.
    """
    id_count = grid.size + 1 if positions else boxes.size
    dtype = np.int32 if id_count < 2**31 else np.int64
    table = None
    if positions:
        table = np.full(grid.size + 1, -1, dtype=dtype)
        table[boxes] = np.arange(boxes.size)
    block = np.empty((controls.shape[0] * P, boxes.size), dtype=dtype)
    for c, u in enumerate(controls):
        for k, images in enumerate(image_rows(u)):
            ids = grid.box_of(images)
            block[c * P + k] = ids if table is None else table[ids]
        del images  # its base, this control's images, is freed before the next are made
    rows = np.ascontiguousarray(block.T)
    del block, table  # freed before _rows_to_csr, which holds the peak
    return _rows_to_csr(rows)


def _positions(boxes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id in the sorted array `boxes`, or -1 where absent."""
    if boxes.size == 0:
        return np.full(ids.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(boxes, ids), boxes.size - 1)
    return np.where(boxes[pos] == ids, pos, -1)


def _csr_matrix(indptr: np.ndarray, targets: np.ndarray) -> sparse.csr_matrix:
    n = indptr.size - 1
    return sparse.csr_matrix(
        (np.ones(targets.size, dtype=np.int8), targets, indptr), shape=(n, n))


def _self_loops(indptr: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per node, whether it has an edge to itself."""
    n = indptr.size - 1
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    loops = np.zeros(n, dtype=bool)
    loops[targets[sources == targets]] = True
    return loops


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


def _reachable(indptr: np.ndarray, targets: np.ndarray, starts: np.ndarray,
               include_start: bool) -> np.ndarray:
    """Sorted positions reachable from `starts` (in zero or more steps with
    include_start, else in at least one step)."""
    n = indptr.size - 1
    if include_start:
        first = starts
    else:
        first = _csr_matrix(indptr, targets)[starts].indices
    # a virtual node n whose successors are the first positions to visit
    matrix = _csr_matrix(np.append(indptr, indptr[-1] + first.size),
                         np.concatenate([targets, first]))
    order = csgraph.breadth_first_order(matrix, n, directed=True,
                                        return_predecessors=False)
    return np.sort(order[1:])


@dataclass(frozen=True, eq=False)
class TransitionGraph:
    """Directed one-step transition graph over (a subset of) a grid's boxes.

    `boxes` lists the participating flat box indices (sorted); adjacency is
    CSR over positions into that list.  `sink` marks boxes with at least
    one sampled transition leaving the window (or the active subset).  The
    reversed graph and the SCC labelling are computed on first use and
    cached; `chain_components` and `control_set_approx` share the latter.
    """

    grid: BoxGrid
    boxes: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    sink: np.ndarray
    dt: float
    controls: np.ndarray
    pts_per_box: int
    seed: int
    _reverse: tuple = field(repr=False, default=None)
    _scc: tuple = field(repr=False, default=None)

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
        """CSR of the reversed graph (cached)."""
        if self._reverse is not None:
            return self._reverse
        rmat = self.to_sparse().T.tocsr()
        rev = (rmat.indptr.astype(np.int64), rmat.indices.astype(np.int64))
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
        return _csr_matrix(self.indptr, self.targets)

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
        scales = []
        scale = 1.0
        for _ in range(rows):
            scale /= base
            scales.append(scale)
        digits = index // base ** np.arange(rows, dtype=np.int64)[:, None] % base
        terms = np.take_along_axis(perms, digits, axis=1) * np.array(scales)[:, None]
        out[:, axis] = terms.cumsum(axis=0)[-1]  # sequential sum, lowest digit first
    return out


def _test_points(grid: BoxGrid, boxes: np.ndarray, pts_per_box: int,
                 seed: int) -> np.ndarray:
    """(P, N, dim) test points: box centers plus `pts_per_box - 1` offsets.

    The offsets are Owen-scrambled Halton points from `_halton_offsets`
    (drawn from `np.random.default_rng(seed)`, identical to SciPy's
    `Halton(scramble=True)` sampler for an int seed), at the same relative
    position in every box.  The array is a view of a coordinate-major
    (P, dim, N) one, so the transpose of each point set is contiguous.
    """
    offsets = _halton_offsets(grid.dim, pts_per_box - 1, seed)
    widths = grid.widths
    points = np.empty((pts_per_box, grid.dim, boxes.size))
    # per axis, the expressions of grid.centers and grid.lower_corners on
    # one unravel
    for k, m in enumerate(grid.multi_index(boxes).T):
        lo, w = grid.lo[k], widths[k]
        points[0, k] = lo + (m + 0.5) * w
        lower = lo + m * w
        for j, off in enumerate(offsets[:, k], 1):
            points[j, k] = lower + off * w
    return points.transpose(0, 2, 1)


def build_transition_graph(sys: AffineSystem, grid: BoxGrid, controls,
                           dt: float, pts_per_box: int, seed: int,
                           active: BoxSet | None = None,
                           memory_cap: int = DEFAULT_MEMORY_CAP) -> TransitionGraph:
    """Sample the dt-flow from every box under every control value.

    For each test point (the center plus `pts_per_box - 1` Owen-scrambled
    Halton offsets drawn from `np.random.default_rng(seed)`, identical to
    SciPy's `Halton(scramble=True)` for an int seed) and each control
    the exact dt-map is applied; an edge is added to the box
    containing the image, or the source is flagged as feeding the sink
    when the image leaves the window (or the active subset).  The graph
    comes from `_sampled_csr`, the sampling path that
    `projective.build_sphere_graph` shares.  Deterministic for a fixed seed.

    `memory_cap` bounds words: one per point-control sample (boxes x
    pts_per_box x controls), plus grid.size + 1 for the position table when
    `active` is given.  A word is 4 bytes (int32) when the ids fit, which
    DEFAULT_MEMORY_CAP guarantees, else 8.  Exceeding the cap raises
    `MemoryBudgetError` before any allocation.
    """
    if active is not None:
        _check_same_grid(grid, active.grid)
    boxes = active.indices if active is not None else np.arange(grid.size, dtype=np.int64)
    controls = _sampled_controls(sys, grid.dim, controls, dt, pts_per_box, boxes.size,
                                 memory_cap, 0 if active is None else grid.size + 1)
    points = _test_points(grid, boxes, pts_per_box, seed)  # (P, N, dim)

    def image_rows(u):
        G, h = segment_map(sys, u, dt)
        for pts in points:
            # coordinate-major (dim, N) from the contiguous pts.T: bit for
            # bit pts @ G.T + h, and box_of reads contiguous columns
            with np.errstate(over="ignore", invalid="ignore"):
                images = G @ pts.T
                images += h[:, None]
            yield images.T

    # on the full grid box index == position; outside the window (-1) or
    # the active subset -> sink
    indptr, targets, sink = _sampled_csr(grid, boxes, points.shape[0], controls,
                                         image_rows, active is not None)
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
    if starts.size == 0:
        return BoxSet(graph.grid, np.empty(0, dtype=np.int64))
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
    if not kept[labels[pos]]:
        return BoxSet(graph.grid, np.empty(0, dtype=np.int64))
    return BoxSet(graph.grid, graph.boxes[labels == labels[pos]])


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
           dt: float | None = None, pts_per_box: int | None = None,
           seed: int | None = None,
           memory_cap: int = DEFAULT_MEMORY_CAP) -> tuple[BoxGrid, TransitionGraph]:
    """Subdivide the kept boxes by `factor` per axis and rebuild the graph.

    The refined graph is restricted to the children of the kept boxes plus
    a one-box collar in the fine grid; transitions leaving that covering
    go to the sink.  Intended loop: chain_components -> refine -> repeat.
    `memory_cap` counts a word per sample of the active boxes plus the fine
    grid's size + 1 words of the position table, 4 or 8 bytes each, as in
    `build_transition_graph`.
    """
    if factor < 2:
        raise ValueError("factor must be >= 2")
    grid = graph.grid
    _check_same_grid(grid, keep.grid)
    fine = BoxGrid(grid.lo, grid.hi, grid.subdivisions * factor)
    coarse_multi = grid.multi_index(keep.indices)
    offsets = np.stack(np.meshgrid(*([np.arange(factor)] * grid.dim),
                                   indexing="ij"), axis=-1).reshape(-1, grid.dim)
    children = (coarse_multi[:, None, :] * factor + offsets[None, :, :]
                ).reshape(-1, grid.dim)
    active = BoxSet(fine, fine.flat_index(children)).dilate(1)
    return fine, build_transition_graph(
        sys, fine, graph.controls, graph.dt if dt is None else dt,
        graph.pts_per_box if pts_per_box is None else pts_per_box,
        graph.seed if seed is None else seed,
        active=active, memory_cap=memory_cap)


def is_invariant_in_window(graph: TransitionGraph, box_set: BoxSet,
                           collar: int = 1) -> bool:
    """Whether the forward closure of the set stays inside it (up to a collar).

    Any sampled transition to the sink from the closure makes the answer
    False: invariance can only be certified relative to the window.
    """
    _check_same_grid(graph.grid, box_set.grid)
    if len(box_set) == 0:
        return True
    fwd = closure(graph, box_set, "forward")
    positions = graph.position_of(fwd.indices)
    if np.any(graph.sink[positions[positions >= 0]]):
        return False
    allowed = box_set.dilate(collar)
    return len(fwd.difference(allowed)) == 0

"""Projective compactification and the boundary at infinity.

The affine system embeds into a bilinear system one dimension up via the
block matrices [[A, d], [0, 0]] and [[B_i, c_i], [0, 0]]; level z = 1
carries the affine dynamics, level z = 0 the homogeneous ones.  Projective
space is represented by unit vectors with canonical sign (first nonzero
coordinate positive), the sphere is covered by cube-face boxes with
antipodal identification, and directions at infinity of a control set are
estimated either from far-out box centers or from chain components of the
sphere dynamics.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.stats import qmc

from .config import Tolerances, DEFAULT_TOLERANCES, DEFAULT_MEMORY_CAP, MAX_EXP_GROWTH
from .reach import BoxSet, MemoryBudgetError, _chain_positions, _edges_to_csr, _self_loops
from .system import AffineSystem, PiecewiseControl

__all__ = [
    "HomEmbedding",
    "ProjPoint",
    "SphereGrid",
    "SphereGraph",
    "SphereChainAnalysis",
    "InfinityBoundaryReport",
    "embed_system",
    "proj_metric",
    "proj_dist_vectors",
    "proj_step",
    "embed_point",
    "unembed_point",
    "lyapunov_estimate",
    "build_sphere_graph",
    "sphere_chain_components",
    "infinity_boundary_directions",
    "infinity_boundary_chain",
]


@dataclass(frozen=True)
class HomEmbedding:
    """Bilinear embedding blocks; last row of every block is zero."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    omega_lo: np.ndarray
    omega_hi: np.ndarray

    @property
    def dim(self) -> int:
        return self.A_hat.shape[0]

    def system_matrix(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float).reshape(-1)
        return self.A_hat + np.tensordot(u, self.B_hat, axes=(0, 0))

    def as_affine_system(self) -> AffineSystem:
        """The embedding as a drift-free system one dimension up."""
        k = self.dim
        m = self.B_hat.shape[0]
        return AffineSystem(self.A_hat, self.B_hat, np.zeros((k, m)),
                            np.zeros(k), self.omega_lo, self.omega_hi)


def embed_system(sys: AffineSystem) -> HomEmbedding:
    """Blocks [[A, d], [0, 0]] and [[B_i, c_i], [0, 0]] of the embedding."""
    n, m = sys.n, sys.m
    A_hat = np.zeros((n + 1, n + 1))
    A_hat[:n, :n] = sys.A
    A_hat[:n, n] = sys.d
    B_hat = np.zeros((m, n + 1, n + 1))
    for i in range(m):
        B_hat[i, :n, :n] = sys.B[i]
        B_hat[i, :n, n] = sys.C[:, i]
    return HomEmbedding(A_hat, B_hat, sys.omega_lo.copy(), sys.omega_hi.copy())


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


@dataclass(frozen=True)
class ProjPoint:
    """Point of projective space: unit representative with canonical sign.

    `level` is 0 when the last coordinate of the representative vanishes
    (the copy of lower projective space at infinity) and 1 otherwise;
    representatives classified as level 0 have their last coordinate
    snapped to exactly zero, which makes the level invariant under the
    projectivized dynamics.
    """

    vec: np.ndarray
    level: int

    @classmethod
    def from_vector(cls, x, level_tol: float = DEFAULT_TOLERANCES.level_tol,
                    ) -> "ProjPoint":
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
        return cls(v, level)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


def proj_metric(p: ProjPoint, q: ProjPoint) -> float:
    """min(||p - q||, ||p + q||) over unit representatives."""
    if p.dim != q.dim:
        raise ValueError("points live in different projective spaces")
    return float(min(np.linalg.norm(p.vec - q.vec), np.linalg.norm(p.vec + q.vec)))


def proj_dist_vectors(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise projective distances between rows of X and Y (any scaling)."""
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Yn = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    dots = np.clip(np.abs(Xn @ Yn.T), 0.0, 1.0)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))


def _apply_chunked(M: np.ndarray, dt: float, W: np.ndarray) -> np.ndarray:
    """exp(dt M) applied to rows of W with renormalization between chunks."""
    scale = float(np.linalg.norm(M)) or 1.0
    n_sub = max(1, int(np.ceil(abs(dt) * scale / MAX_EXP_GROWTH)))
    E = expm((dt / n_sub) * M)
    out = W
    for _ in range(n_sub):
        out = out @ E.T
        norms = np.linalg.norm(out, axis=-1, keepdims=True)
        out = out / norms
    return out


def proj_step(emb: HomEmbedding, p: ProjPoint, u, dt: float,
              level_tol: float = DEFAULT_TOLERANCES.level_tol) -> ProjPoint:
    """Image of a projective point under the time-dt embedded linear flow.

    The representative is propagated by the segment exponential and
    renormalized eagerly (chunked for long steps), then re-canonicalized.
    Level 0 is invariant because the blocks' last row vanishes.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    w = _apply_chunked(emb.system_matrix(u), dt, p.vec[None, :])[0]
    return ProjPoint.from_vector(w, level_tol)


def embed_point(p: ProjPoint) -> ProjPoint:
    """Append a zero coordinate: the copy of the point on the level at infinity."""
    return ProjPoint.from_vector(np.concatenate([p.vec, [0.0]]))


def unembed_point(p: ProjPoint) -> ProjPoint:
    """Inverse of embed_point; only level-0 points have a preimage."""
    if p.level != 0:
        raise ValueError("only level-0 points can be pulled back")
    return ProjPoint.from_vector(p.vec[:-1])


def lyapunov_estimate(model, ctrl: PiecewiseControl, x, T: float) -> float:
    """Finite-time exponential growth rate of the homogeneous flow.

    Computes log(||Phi(T, 0) x|| / ||x||) / T by accumulating per-segment
    log-norms with running renormalization, so no overflow occurs even for
    strongly expanding dynamics.  `model` is an affine system (its
    homogeneous part is used) or an embedding.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    if np.linalg.norm(x) == 0.0:
        raise ValueError("the growth rate of the zero vector is undefined")
    matrix_of = model.system_matrix
    w = x / np.linalg.norm(x)
    total = 0.0
    for u, dt in ctrl.pieces(0.0, T):
        M = matrix_of(u)
        scale = float(np.linalg.norm(M)) or 1.0
        n_sub = max(1, int(np.ceil(dt * scale / MAX_EXP_GROWTH)))
        E = expm((dt / n_sub) * M)
        for _ in range(n_sub):
            w = E @ w
            nw = np.linalg.norm(w)
            total += np.log(nw)
            w = w / nw
    return float(total / T)


# --------------------------------------------------------------- sphere grid

@dataclass(frozen=True)
class SphereGrid:
    """Cube-face box covering of the unit sphere with antipodal identification.

    The sphere in ambient dimension `ambient` is covered by the 2*ambient
    cube faces, each subdivided into `subdivisions` bins per axis.  Boxes
    are identified with their antipodes, so the quotient covers projective
    space; `canonical` box ids are the smaller id of each antipodal pair.
    """

    ambient: int
    subdivisions: int

    def __post_init__(self):
        if self.ambient < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.subdivisions < 1:
            raise ValueError("need at least one bin per face axis")

    @property
    def face_dims(self) -> int:
        return self.ambient - 1

    @property
    def cells_per_face(self) -> int:
        return self.subdivisions ** self.face_dims

    @property
    def num_raw(self) -> int:
        return 2 * self.ambient * self.cells_per_face

    def _split(self, raw: np.ndarray):
        face, cell = np.divmod(np.asarray(raw, dtype=np.int64), self.cells_per_face)
        axis, neg = np.divmod(face, 2)
        bins = np.stack(np.unravel_index(cell, (self.subdivisions,) * self.face_dims),
                        axis=-1)
        return axis, neg, bins

    def _join(self, axis, neg, bins) -> np.ndarray:
        cell = np.ravel_multi_index(tuple(np.asarray(bins, dtype=np.int64).T),
                                    (self.subdivisions,) * self.face_dims)
        return (2 * np.asarray(axis) + np.asarray(neg)) * self.cells_per_face + cell

    def antipode(self, raw: np.ndarray) -> np.ndarray:
        axis, neg, bins = self._split(raw)
        return self._join(axis, 1 - neg, self.subdivisions - 1 - bins)

    def canonical(self, raw: np.ndarray) -> np.ndarray:
        return np.minimum(np.asarray(raw, dtype=np.int64), self.antipode(raw))

    def canonical_ids(self) -> np.ndarray:
        raw = np.arange(self.num_raw, dtype=np.int64)
        return raw[raw <= self.antipode(raw)]

    def box_of(self, points: np.ndarray) -> np.ndarray:
        """Canonical box id of each (row) point; points need not be normalized."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        axis = np.argmax(np.abs(pts), axis=1)
        anchor = pts[np.arange(pts.shape[0]), axis]
        neg = (anchor < 0).astype(np.int64)
        cube = pts / np.abs(anchor)[:, None]
        mask = np.ones(pts.shape, dtype=bool)
        mask[np.arange(pts.shape[0]), axis] = False
        coords = cube[mask].reshape(pts.shape[0], self.face_dims)
        bins = np.clip(((coords + 1.0) * 0.5 * self.subdivisions).astype(np.int64),
                       0, self.subdivisions - 1)
        return self.canonical(self._join(axis, neg, bins))

    def cube_points(self, raw: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Sphere points at relative cell positions; offsets in [0, 1]^face_dims.

        Returns (num_offsets, num_boxes, ambient) unit vectors.
        """
        raw = np.asarray(raw, dtype=np.int64)
        axis, neg, bins = self._split(raw)
        width = 2.0 / self.subdivisions
        out = np.empty((offsets.shape[0], raw.size, self.ambient))
        mask = np.ones((raw.size, self.ambient), dtype=bool)
        mask[np.arange(raw.size), axis] = False
        anchor_val = np.where(neg == 1, -1.0, 1.0)
        for k, off in enumerate(offsets):
            coords = -1.0 + (bins + off) * width
            pts = np.zeros((raw.size, self.ambient))
            pts[np.arange(raw.size), axis] = anchor_val
            pts[mask] = coords.ravel()
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            out[k] = pts
        return out

    def centers(self, raw: np.ndarray) -> np.ndarray:
        return self.cube_points(raw, np.full((1, self.face_dims), 0.5))[0]

    def corners(self, raw: np.ndarray) -> np.ndarray:
        """(2^face_dims, num_boxes, ambient) unit corner points."""
        combos = np.stack(np.meshgrid(*([np.array([0.0, 1.0])] * self.face_dims),
                                      indexing="ij"), axis=-1).reshape(-1, self.face_dims)
        return self.cube_points(raw, combos)

    def box_diameter(self) -> float:
        """Largest projective diameter of a box (max over all boxes)."""
        ids = self.canonical_ids()
        corners = self.corners(ids)  # (c, N, ambient)
        c = corners.shape[0]
        best = 0.0
        for i in range(c):
            for j in range(i + 1, c):
                dots = np.clip(np.abs(np.sum(corners[i] * corners[j], axis=1)), 0, 1)
                d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots))
                best = max(best, float(d.max()))
        return best

    def level_zero_touching(self, raw: np.ndarray) -> np.ndarray:
        """Boxes whose closure meets the hyperplane last-coordinate = 0."""
        raw = np.asarray(raw, dtype=np.int64)
        axis, neg, bins = self._split(raw)
        width = 2.0 / self.subdivisions
        z_axis = self.ambient - 1
        on_z_face = axis == z_axis
        # for other faces, the z coordinate is the last cell coordinate
        z_lo = -1.0 + bins[:, -1] * width
        z_hi = z_lo + width
        touches = (~on_z_face) & (z_lo <= 0.0) & (z_hi >= 0.0)
        return touches


@dataclass(frozen=True)
class SphereGraph:
    """One-step transition graph on the projective quotient of a sphere grid."""

    sphere: SphereGrid
    boxes: np.ndarray
    indptr: np.ndarray
    targets: np.ndarray
    dt: float
    controls: np.ndarray
    pts_per_box: int
    seed: int

    @property
    def num_boxes(self) -> int:
        return int(self.boxes.size)


def build_sphere_graph(matrix_of, omega_check, sphere: SphereGrid, controls,
                       dt: float, pts_per_box: int = 3, seed: int = 0,
                       memory_cap: int = DEFAULT_MEMORY_CAP) -> SphereGraph:
    """Directed box graph of the projectivized flow on the sphere quotient.

    `matrix_of(u)` supplies the ambient linear generator for control u.
    Test points per box are the center plus seeded Halton offsets inside
    the cube cell.  Deterministic for a fixed seed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    for u in controls:
        if omega_check is not None and not omega_check(u):
            raise ValueError(f"control sample {u} outside the control box")
    ids = sphere.canonical_ids()
    n_boxes = ids.size
    work = n_boxes * pts_per_box * controls.shape[0]
    if work > memory_cap:
        raise MemoryBudgetError(
            f"{work} point-control samples exceed the cap of {memory_cap}")
    offsets = [np.full((1, sphere.face_dims), 0.5)]
    if pts_per_box > 1:
        sampler = qmc.Halton(d=sphere.face_dims, scramble=True, seed=seed)
        offsets.append(sampler.random(pts_per_box - 1))
    offsets = np.concatenate(offsets)
    points = sphere.cube_points(ids, offsets)  # (P, N, ambient)

    src = np.tile(np.arange(n_boxes, dtype=np.int64), points.shape[0] * controls.shape[0])
    tgt_chunks = []
    for u in controls:
        E = expm(dt * matrix_of(u))
        for k in range(points.shape[0]):
            images = points[k] @ E.T
            tgt_chunks.append(sphere.box_of(images))
    tgt_ids = np.concatenate(tgt_chunks)
    tgt_pos = np.searchsorted(ids, tgt_ids)
    tgt_pos = np.clip(tgt_pos, 0, n_boxes - 1)
    indptr, targets = _edges_to_csr(src, tgt_pos, n_boxes)
    return SphereGraph(sphere=sphere, boxes=ids, indptr=indptr, targets=targets,
                       dt=float(dt), controls=controls, pts_per_box=pts_per_box,
                       seed=seed)


@dataclass(frozen=True)
class SphereChainAnalysis:
    """Chain components of a sphere graph plus level-at-infinity bookkeeping."""

    graph: SphereGraph
    components: list
    level_zero: list
    box_diameter: float


def sphere_chain_components(graph: SphereGraph) -> SphereChainAnalysis:
    """Strongly connected components (with an internal edge), size-descending."""
    chains = _chain_positions(graph.indptr, graph.targets,
                              _self_loops(graph.indptr, graph.targets))
    touches = graph.sphere.level_zero_touching(graph.boxes)
    comps = [graph.boxes[members] for members in chains]
    touching = [graph.boxes[members[touches[members]]] for members in chains]
    return SphereChainAnalysis(graph=graph, components=comps, level_zero=touching,
                               box_diameter=graph.sphere.box_diameter())


# ------------------------------------------------------ boundary at infinity

@dataclass(frozen=True)
class InfinityBoundaryReport:
    """Estimated directions at infinity of a control set.

    `directions` are level-0 projective points (cluster representatives
    for the box-center estimator, level-slice directions for the chain
    estimator); `matches` are (component index, homogeneous component
    index, minimal projective distance) triples.  An empty report from the
    box-center estimator signals a bounded set within the window.
    """

    estimator: str
    directions: list
    cluster_sizes: list
    matches: list
    details: object = field(repr=False, default=None)

    @property
    def empty(self) -> bool:
        return len(self.directions) == 0


def _single_linkage(points: np.ndarray, tol: float) -> list[np.ndarray]:
    """Union-find clustering of unit rows under the projective metric."""
    k = points.shape[0]
    parent = np.arange(k)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    dist = proj_dist_vectors(points, points)
    close = np.argwhere((dist <= tol) & (np.triu(np.ones((k, k), dtype=bool), 1)))
    for i, j in close:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(k)])
    clusters = [np.flatnonzero(roots == r) for r in np.unique(roots)]
    clusters.sort(key=lambda c: (-c.size, int(c[0])))
    return clusters


def infinity_boundary_directions(control_set: BoxSet, norm_floor: float,
                                 cluster_tol: float | None = None,
                                 blowup_records=(),
                                 tolerances: Tolerances = DEFAULT_TOLERANCES,
                                 max_points: int = 20000) -> InfinityBoundaryReport:
    """Directions at infinity from far-out boxes of a control-set approximation.

    Box centers with norm at least `norm_floor` are mapped to directions
    on the level at infinity and clustered by projective distance.
    Continuation records whose periodic solutions blew up past the floor
    are ingested as additional high-confidence directions.  An empty
    report signals a set that stays bounded inside the window.
    """
    if norm_floor <= 0:
        raise ValueError("norm_floor must be positive")
    if cluster_tol is None:
        cluster_tol = tolerances.cluster_tol if tolerances.cluster_tol is not None else 0.1
    centers = control_set.centers() if len(control_set) else np.empty((0, control_set.grid.dim))
    norms = np.linalg.norm(centers, axis=1) if centers.size else np.empty(0)
    states = [centers[norms >= norm_floor]]
    for rec in blowup_records:
        sol = getattr(rec, "solution", None)
        x0 = getattr(sol, "x0", None)
        if x0 is not None and np.isfinite(rec.norm_x) and rec.norm_x >= norm_floor:
            states.append(np.asarray(x0, dtype=float)[None, :])
    pts = np.concatenate([s for s in states if s.size > 0]) if any(
        s.size for s in states) else np.empty((0, control_set.grid.dim))
    if pts.shape[0] == 0:
        return InfinityBoundaryReport("box-directions", [], [], [])
    if pts.shape[0] > max_points:
        stride = int(np.ceil(pts.shape[0] / max_points))
        pts = pts[::stride]
    dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    dirs = np.hstack([dirs, np.zeros((dirs.shape[0], 1))])
    for i in range(dirs.shape[0]):
        dirs[i] = _canonical_sign(dirs[i])
    clusters = _single_linkage(dirs, cluster_tol)
    reps = []
    sizes = []
    for members in clusters:
        block = dirs[members]
        anchor = block[0]
        signs = np.where(block @ anchor >= 0, 1.0, -1.0)
        mean = (block * signs[:, None]).mean(axis=0)
        reps.append(ProjPoint.from_vector(mean, tolerances.level_tol))
        sizes.append(int(members.size))
    return InfinityBoundaryReport("box-directions", reps, sizes, [])


def infinity_boundary_chain(emb: HomEmbedding, subdivisions: int, controls,
                            dt: float, pts_per_box: int = 3, seed: int = 0,
                            match_tol: float | None = None,
                            tolerances: Tolerances = DEFAULT_TOLERANCES,
                            memory_cap: int = DEFAULT_MEMORY_CAP,
                            ) -> InfinityBoundaryReport:
    """Directions at infinity via chain components of the sphere dynamics.

    Builds box graphs on the projective quotients of the spheres in the
    embedded dimension and in the original dimension (the homogeneous
    part), takes strongly connected components of both, and matches each
    embedded-space component touching the level at infinity against the
    homogeneous components embedded via the zero-append map.  The match
    tolerance defaults to two embedded-sphere box diameters.
    """
    ambient = emb.dim
    omega_check = emb.as_affine_system().contains_control
    big_sphere = SphereGrid(ambient, subdivisions)
    big_graph = build_sphere_graph(emb.system_matrix, omega_check, big_sphere, controls,
                                   dt, pts_per_box, seed, memory_cap)
    big = sphere_chain_components(big_graph)

    hom_matrix = lambda u: emb.system_matrix(u)[:ambient - 1, :ambient - 1]
    hom_sphere = SphereGrid(ambient - 1, subdivisions)
    hom_graph = build_sphere_graph(hom_matrix, omega_check, hom_sphere, controls,
                                   dt, pts_per_box, seed, memory_cap)
    hom = sphere_chain_components(hom_graph)

    if match_tol is None:
        match_tol = (tolerances.cluster_tol if tolerances.cluster_tol is not None
                     else 2.0 * big.box_diameter)

    # level-0 slice directions per embedded component (exactly on the level)
    def slice_directions(boxes: np.ndarray) -> np.ndarray:
        if boxes.size == 0:
            return np.empty((0, ambient))
        centers = big_sphere.centers(boxes)
        centers[:, -1] = 0.0
        return centers / np.linalg.norm(centers, axis=1, keepdims=True)

    # All homogeneous component directions, component j from row starts[j];
    # every sphere box has a successor, so there is at least one component.
    sizes = np.array([c.size for c in hom.components])
    starts = np.cumsum(sizes) - sizes
    hom_boxes = np.concatenate(hom.components)
    hom_dirs = np.hstack([hom_sphere.centers(hom_boxes), np.zeros((hom_boxes.size, 1))])
    matches = []
    directions = []
    for i, slice_boxes in enumerate(big.level_zero):
        dirs = slice_directions(slice_boxes)
        if dirs.shape[0] == 0:
            continue
        directions.extend(
            ProjPoint.from_vector(v, tolerances.level_tol) for v in dirs)
        dmin = np.minimum.reduceat(proj_dist_vectors(dirs, hom_dirs).min(axis=0), starts)
        matches.extend((i, int(j), float(dmin[j]))
                       for j in np.flatnonzero(dmin <= match_tol))
    return InfinityBoundaryReport("sphere-chain", directions,
                                  [len(c) for c in big.level_zero],
                                  matches, details=(big, hom))

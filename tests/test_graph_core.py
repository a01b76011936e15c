"""Property tests of the box-graph core shared by reach and projective.

Random small digraphs (self-loops and duplicate edges included) are wrapped
as a TransitionGraph on a 1-D grid and as a SphereGraph, and every graph
query is compared with a brute-force Warshall reachability matrix.  The
sample rows are int32, as the graph builders make them; int64 rows give the
same CSR.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from affinecontrol.projective import SphereGraph, SphereGrid, sphere_chain_components
from affinecontrol.reach import (
    BoxGrid,
    BoxSet,
    TransitionGraph,
    _label_order,
    _rows_to_csr,
    _scc_labels,
    _self_loops,
    build_transition_graph,
    chain_components,
    closure,
    control_set_approx,
)

from conftest import planar_saddle_system


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    starts = draw(st.lists(node, min_size=1, max_size=n, unique=True))
    return n, edges, starts


def warshall(adj: np.ndarray) -> np.ndarray:
    """reach[i, j]: a path of at least one edge leads from i to j."""
    reach = adj.copy()
    for k in range(adj.shape[0]):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def expected_components(reach: np.ndarray) -> list:
    """Positions on a cycle, grouped by mutual reachability; (-size, first) order."""
    comps = {tuple(np.flatnonzero(reach[i] & reach[:, i]))
             for i in range(reach.shape[0]) if reach[i, i]}
    return sorted(comps, key=lambda c: (-len(c), c[0]))


def edge_csr(n, edges, dtype):
    """_rows_to_csr of one sample per edge and node: the edge's target at
    its source, -1 (the sink) at every other node."""
    rows = np.full((n, len(edges)), -1, dtype=dtype)
    for i, (src, tgt) in enumerate(edges):
        rows[src, i] = tgt
    return _rows_to_csr(rows)


def reference_rows_to_csr(rows):
    """Per row, np.unique of its samples other than -1, and whether it has a -1."""
    kept = [np.unique(r[r >= 0]) for r in rows]
    indptr = np.cumsum([0] + [k.size for k in kept])
    return indptr, [t for k in kept for t in k.tolist()], [bool(np.any(r < 0)) for r in rows]


def assert_rows_to_csr_is_reference(rows):
    expected = reference_rows_to_csr(rows.copy())
    indptr, targets, sink = _rows_to_csr(rows)
    assert indptr.dtype == targets.dtype == rows.dtype
    assert indptr.tolist() == expected[0].tolist()
    assert targets.tolist() == expected[1]
    assert sink.tolist() == expected[2]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 10), st.sampled_from([np.int32, np.int64]),
       st.data())
def test_rows_to_csr_is_the_per_row_unique(n, width, dtype, data):
    sample = st.integers(-1, 8)
    rows = data.draw(st.lists(st.lists(sample, min_size=width, max_size=width),
                              min_size=n, max_size=n))
    assert_rows_to_csr_is_reference(np.array(rows, dtype=dtype).reshape(n, width))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_rows_to_csr_sink_rows_no_controls_and_wide_rows(dtype):
    assert_rows_to_csr_is_reference(np.full((3, 5), -1, dtype=dtype))  # all sink
    assert_rows_to_csr_is_reference(np.empty((4, 0), dtype=dtype))  # C = 0: no controls
    # C * P >= 2**15 samples per row: a row of 40000 distinct targets
    # overflows an int16 count
    rng = np.random.default_rng(0)
    wide = rng.integers(-1, 50000, (3, 40000)).astype(dtype)
    wide[0] = rng.permutation(40000)
    wide[1] = 7
    assert_rows_to_csr_is_reference(wide)


def test_sparse_matrix_is_float64_ones_with_int32_indices():
    # the form csgraph computes on, so that it converts nothing
    edges = [(0, 1), (1, 1), (1, 2), (2, 0), (2, 0)]
    adj = np.zeros((3, 3), dtype=bool)
    adj[tuple(np.array(edges).T)] = True
    for graph in wrap(3, edges):
        matrix = graph.to_sparse()
        assert matrix.data.dtype == np.float64 and np.all(matrix.data == 1.0)
        assert matrix.data.flags.writeable
        assert np.shares_memory(matrix.indices, graph.targets)
        assert np.shares_memory(matrix.indptr, graph.indptr)
        assert np.array_equal(matrix.toarray() != 0, adj)
        indptr, targets = graph.reverse()
        assert indptr.dtype == targets.dtype == graph.targets.dtype == np.int32
        assert [targets[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == [
            np.flatnonzero(column).tolist() for column in adj.T]


def traced_peak(call) -> int:
    """Peak bytes numpy and Python allocate during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_queries_hand_csgraph_no_per_edge_data():
    # csgraph reads only the structure, so the matrices it gets carry a
    # zero-stride data view, and the self-loops come from a one-byte diagonal:
    # float64 ones alone would be 8 bytes per edge
    grid = BoxGrid([-4.0, -4.0], [4.0, 4.0], [256, 256])
    graph = build_transition_graph(planar_saddle_system(), grid,
                                   np.linspace(-1.0, 1.0, 5)[:, None], 0.1, 4, 3)
    assert graph.num_edges > 600_000
    assert traced_peak(graph.scc) < 3 * graph.num_edges  # cold: labels computed here
    cs = control_set_approx(graph, grid.box_containing((-1.0, 1.0)))
    assert traced_peak(lambda: closure(graph, cs, "forward")) < 8 * graph.num_edges


def wrap(n, edges):
    indptr, targets, sink = edge_csr(n, edges, np.int32)  # int32, as the builders make it
    assert sink.tolist() == [any(src != j for src, _ in edges) for j in range(n)]
    grid = BoxGrid([0.0], [1.0], [n])
    graph = TransitionGraph(grid=grid, boxes=np.arange(n, dtype=np.int64),
                            indptr=indptr, targets=targets,
                            sink=np.zeros(n, dtype=bool), dt=1.0,
                            controls=np.zeros((1, 1)), pts_per_box=1, seed=0)
    sphere = SphereGrid(2, 12)
    sphere_graph = SphereGraph(grid=sphere, boxes=np.arange(n),
                               indptr=indptr, targets=targets, sink=np.zeros(n, bool),
                               dt=1.0, controls=np.zeros((1, 1)), pts_per_box=1, seed=0)
    return graph, sphere_graph


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_graph_core_matches_warshall(case):
    n, edges, starts = case
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    graph, sphere_graph = wrap(n, edges)
    # int32 rows (wrap's) and int64 rows give the same CSR
    indptr, targets, _ = edge_csr(n, edges, np.int64)
    assert graph.indptr.dtype == graph.targets.dtype == np.int32
    assert indptr.dtype == targets.dtype == np.int64
    assert np.array_equal(graph.indptr, indptr) and np.array_equal(graph.targets, targets)

    # CSR: distinct, sorted rows holding exactly the edge set
    assert graph.indptr.tolist() == np.concatenate([[0], np.cumsum(adj.sum(1))]).tolist()
    for p in range(n):
        assert graph.successors(p).tolist() == np.flatnonzero(adj[p]).tolist()
    assert graph._loops is None  # a graph from the constructor reads its CSR on first use
    assert np.array_equal(graph.has_self_loop(), np.diag(adj))
    assert np.array_equal(sphere_graph.has_self_loop(), np.diag(adj))

    reach = warshall(adj)
    want = expected_components(reach)
    got = [tuple(c.indices.tolist()) for c in chain_components(graph)]
    assert got == want
    sphere_got = sphere_chain_components(sphere_graph).components
    assert [tuple(c.tolist()) for c in sphere_got] == [
        tuple(sphere_graph.boxes[list(c)].tolist()) for c in want]

    from_set = BoxSet(graph.grid, starts)
    start_mask = np.zeros(n, dtype=bool)
    start_mask[starts] = True
    for direction, r in (("forward", reach), ("backward", reach.T)):
        stepped = r[starts].any(axis=0)
        for include_start, expected in ((True, stepped | start_mask), (False, stepped)):
            result = closure(graph, from_set, direction, include_start)
            assert result.indices.tolist() == np.flatnonzero(expected).tolist()


def closure_intersection(graph, seed):
    """Control set by strict forward and backward closures (the reference)."""
    seed_set = BoxSet(graph.grid, [seed])
    fwd = closure(graph, seed_set, "forward", include_start=False)
    bwd = closure(graph, seed_set, "backward", include_start=False)
    return fwd.intersection(bwd).indices.tolist()


@settings(max_examples=150, deadline=None)
@given(digraphs())
@example((3, [(0, 1), (1, 2), (2, 1)], [0]))  # 0 wanders into the cycle {1, 2}
@example((3, [(0, 1), (1, 1), (1, 2)], [0]))  # 1's only cycle is its self-loop
def test_control_set_is_the_closure_intersection(case):
    n, edges, _ = case
    graph, _ = wrap(n, edges)
    got = [control_set_approx(graph, seed).indices.tolist() for seed in range(n)]
    assert graph._reverse is None  # the control sets never reversed the graph
    untouched, _ = wrap(n, edges)
    for seed in range(n):
        seed_set = BoxSet(graph.grid, [seed])
        assert (closure(graph, seed_set, "backward").indices.tolist()
                == closure(untouched, seed_set, "backward").indices.tolist())
    assert got == [closure_intersection(graph, seed) for seed in range(n)]
    assert [c.indices.tolist() for c in chain_components(graph)] == [
        c.indices.tolist() for c in chain_components(untouched)]


def test_control_set_of_wandering_and_self_loop_seeds():
    graph, _ = wrap(4, [(0, 1), (1, 1), (1, 2), (2, 3), (3, 2)])
    assert control_set_approx(graph, 0).indices.tolist() == []
    assert control_set_approx(graph, 1).indices.tolist() == [1]
    assert control_set_approx(graph, 3).indices.tolist() == [2, 3]


def reference_label_groups(labels, kept):
    """Groups by np.split of the label-sorted members, kept verbatim as the
    reference: size descending, then smallest position."""
    members = np.flatnonzero(kept[labels])
    members = members[np.argsort(labels[members], kind="stable")]
    sizes = np.bincount(labels, minlength=kept.size)[kept]
    ends = np.cumsum(sizes)
    groups = np.split(members, ends[:-1])
    return [groups[k] for k in np.lexsort((members[ends - sizes], -sizes))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_label_groups_are_the_split_groups(n_labels, data):
    labels = np.array(data.draw(st.lists(st.integers(0, n_labels - 1), max_size=40)),
                      dtype=np.int32)
    present = np.bincount(labels, minlength=n_labels) > 0
    kept = np.array(data.draw(st.lists(st.booleans(), min_size=n_labels,
                                       max_size=n_labels))) & present
    expected = reference_label_groups(labels, kept)
    counts = np.bincount(labels, minlength=n_labels)
    members, bounds = _label_order(labels, kept, counts)
    assert bounds == np.cumsum([0] + [g.size for g in expected]).tolist()
    assert members.tolist() == [p for g in expected for p in g.tolist()]
    assert all(members.dtype == e.dtype for e in expected)


def assert_sphere_analysis_per_component(analysis):
    """The lists of a `SphereChainAnalysis` against one gather and one
    level-0 filter per component of its graph."""
    graph = analysis.graph
    labels, kept, sizes = _scc_labels(graph.indptr, graph.targets,
                                      _self_loops(graph.indptr, graph.targets))
    assert np.array_equal(sizes, np.bincount(labels, minlength=kept.size))
    chains = reference_label_groups(labels, kept)
    touches = graph.sphere.level_zero_touching(graph.boxes)
    comps = [graph.boxes[members] for members in chains]
    level_zero = [graph.boxes[members[touches[members]]] for members in chains]
    for got, want in ((analysis.components, comps), (analysis.level_zero, level_zero)):
        assert [c.tolist() for c in got] == [c.tolist() for c in want]
        assert all(c.dtype == np.int64 for c in got)


def assert_sphere_components_per_component(n, edges, boxes):
    """sphere_chain_components of the digraph, its positions mapped to
    `boxes`, against one gather and one level-0 filter per component."""
    indptr, targets, _ = edge_csr(n, edges, np.int32)
    graph = SphereGraph(grid=SphereGrid(3, 4), boxes=np.asarray(boxes, dtype=np.int64),
                        indptr=indptr, targets=targets, sink=np.zeros(n, bool), dt=1.0,
                        controls=np.zeros((1, 1)), pts_per_box=1, seed=0)
    analysis = sphere_chain_components(graph)
    assert_sphere_analysis_per_component(analysis)
    return analysis


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.permutations(list(range(48))))
def test_sphere_chain_components_are_the_per_component_loop(case, order):
    n, edges, _ = case
    assert_sphere_components_per_component(n, edges, sorted(order[:n]))


@pytest.mark.parametrize("edges, some_touch, some_not", [
    ([(0, 1), (1, 2)], False, False),  # a path: no kept SCC
    ([(0, 0), (1, 2), (2, 1), (3, 3)], True, True),
    ([(0, 0), (3, 3), (1, 2)], False, True),  # only the non-touching boxes loop
])
def test_sphere_chain_components_with_and_without_level_zero(edges, some_touch, some_not):
    # SphereGrid(3, 4) boxes 0-3 lie on face 0, z bins 0-3: boxes 1 and 2
    # touch the level z = 0, boxes 0 and 3 do not
    analysis = assert_sphere_components_per_component(4, edges, [0, 1, 2, 3])
    sizes = [s.size for s in analysis.level_zero]
    assert any(sizes) == some_touch and (0 in sizes) == some_not
    assert len(analysis.components) == len(sizes)

"""Tests for box grids, transition graphs, closures, and chain components."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affinecontrol.projective import SphereGraph, SphereGrid, build_sphere_graph
from affinecontrol.reach import (
    BoxGrid,
    BoxSet,
    MemoryBudgetError,
    TransitionGraph,
    build_transition_graph,
    chain_components,
    closure,
    control_set_approx,
    is_invariant_in_window,
    refine,
)
from affinecontrol.system import AffineSystem, _whole, larc_rank

from conftest import planar_saddle_system, run_isolated


def contraction_1d() -> AffineSystem:
    # dx/dt = -x, no control influence
    return AffineSystem([[-1.0]], [[[0.0]]], [[0.0]], [0.0], [-1.0], [1.0])


def shift_1d() -> AffineSystem:
    # dx/dt = x + u, u in [-1, 1]
    return AffineSystem([[1.0]], [[[0.0]]], [[1.0]], [0.0], [-1.0], [1.0])


def zero_field(n=2) -> AffineSystem:
    return AffineSystem(np.zeros((n, n)), np.zeros((1, n, n)), np.zeros((n, 1)),
                        np.zeros(n), [-1.0], [1.0])


# ---------------------------------------------------------------------- grid

def test_grid_index_maps_are_inverse_bijections():
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [128, 128])
    assert grid.size == 128 * 128
    idx = np.arange(grid.size)
    assert np.array_equal(grid.flat_index(grid.multi_index(idx)), idx)
    centers = grid.centers(idx[:100])
    assert np.array_equal(grid.box_of(centers), idx[:100])


def test_grid_box_of_outside_window():
    grid = BoxGrid([0.0], [1.0], [4])
    assert np.array_equal(grid.box_of([[-0.1], [0.5], [1.5]]), [-1, 2, -1])


def test_grid_rejects_bad_window():
    with pytest.raises(ValueError):
        BoxGrid([0.0], [0.0], [4])
    with pytest.raises(ValueError):
        BoxGrid([0.0], [1.0], [0])
    # widths that are not positive finite doubles: hi - lo overflows, and
    # every center was inf; the width rounds to 0, and box_of read -2**63
    for lo, hi, subdivisions in (([-1.7e308] * 2, [1.7e308] * 2, [4, 4]),
                                 ([0.0], [5e-324], [2])):
        with pytest.raises(ValueError, match="widths"):
            BoxGrid(lo, hi, subdivisions)


def test_grids_of_2_to_the_63_boxes_or_more_are_rejected():
    # box ids are int64: the box count wrapped, to size 0 for 2**80 boxes,
    # so box_of read wrong ids and a graph build had no nodes
    for grid in (lambda: BoxGrid([0.0, 0.0], [1.0, 1.0], [2**40, 2**40]),
                 lambda: BoxGrid([0.0, 0.0], [1.0, 1.0], [2**62, 2]),
                 lambda: BoxGrid([0.0] * 3, [1.0] * 3, [2**21] * 3),
                 lambda: SphereGrid(3, 2**40),
                 lambda: SphereGrid(2, 2**62)):
        with pytest.raises(ValueError, match=r"\d+ boxes; box ids are int64"):
            grid()
    # fewer than 2**63 boxes is a grid, too large for any graph
    sys = zero_field()
    for grid, middle in ((BoxGrid([0.0, 0.0], [1.0, 1.0], [2**31, 2**31]), 2**61 + 2**30),
                         (BoxGrid([0.0, 0.0], [1.0, 1.0], [2**62, 1]), 2**61)):
        assert grid.box_containing([0.5, 0.5]) == middle
        with pytest.raises(MemoryBudgetError):
            build_transition_graph(sys, grid, [[0.0]], 0.1, 1, 0)
    assert SphereGrid(2, 2**62 - 1).size == 2**63 - 2


def test_boxset_operations_and_rle():
    grid = BoxGrid([0.0], [1.0], [10])
    a = BoxSet(grid, [1, 2, 3, 7])
    b = BoxSet(grid, [3, 4])
    assert len(a.union(b)) == 5
    assert a.intersection(b).indices.tolist() == [3]
    assert a.difference(b).indices.tolist() == [1, 2, 7]
    assert a.run_length_encoding() == [[1, 3], [7, 1]]
    assert 7 in a and 7.0 in a and np.int32(1) in a
    assert all(absent not in a for absent in (0, 5, 8, 10, -1, 7.5, 2**40))
    assert 0 not in BoxSet(grid, []) and 3.0 not in BoxSet(grid, [])
    assert abs(a.volume - 0.4) < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=40),
       st.sampled_from(["strictly increasing", "sorted with duplicates", "reversed",
                        "as drawn"]),
       st.sampled_from([np.int32, np.int64]))
def test_boxset_indices_are_the_unique_of_any_input(values, order, dtype):
    if order == "strictly increasing":
        values = sorted(set(values))
    elif order == "sorted with duplicates":
        values = sorted(values + values[:3])
    elif order == "reversed":
        values = sorted(values, reverse=True)
    given_array = np.array(values, dtype=dtype)
    before = given_array.copy()
    box_set = BoxSet(BoxGrid([0.0], [1.0], [64]), given_array)
    assert box_set.indices.dtype == np.int64
    assert box_set.indices.tolist() == np.unique(given_array).tolist()
    assert not box_set.indices.flags.writeable
    # the caller's array is neither sorted in place nor shared
    assert np.array_equal(given_array, before)
    assert not np.shares_memory(box_set.indices, given_array)


def test_grid_equality_is_by_value():
    grid = BoxGrid([0, 0], [1, 1], [4, 4])
    same = BoxGrid([0.0, -0.0], [1.0, 1.0], [4, 4])
    assert grid == same and hash(grid) == hash(same) and len({grid, same}) == 1
    for other in (BoxGrid([0, 0], [2, 2], [4, 4]), BoxGrid([0, 0], [1, 1], [4, 8]),
                  BoxGrid([0], [1], [4])):
        assert grid != other
    assert BoxSet(grid, [1, 2]).union(BoxSet(same, [3])).indices.tolist() == [1, 2, 3]
    # the grid holds its own subdivisions, not the caller's int64 array
    subs = np.array([4, 4])
    owned = BoxGrid([0, 0], [1, 1], subs)
    subs[0] = 8
    assert owned == grid and not np.shares_memory(owned.subdivisions, subs)


def test_mixed_grids_are_rejected():
    # same subdivisions, so the foreign indices are in range for the graph
    grid = BoxGrid([0.0, 0.0], [1.0, 1.0], [4, 4])
    other = BoxGrid([0.0, 0.0], [2.0, 2.0], [4, 4])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    foreign = BoxSet(other, [0, 5])
    mine = BoxSet(grid, [0, 5])
    calls = [lambda: closure(graph, foreign),
             lambda: refine(zero_field(), graph, foreign, 2),
             lambda: is_invariant_in_window(graph, foreign),
             lambda: is_invariant_in_window(graph, BoxSet(other, [])),
             lambda: build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0,
                                            active=foreign)]
    calls += [lambda op=op: op(foreign)
              for op in (mine.union, mine.intersection, mine.difference, mine.equals)]
    for call in calls:
        with pytest.raises(ValueError, match="different grids"):
            call()


@pytest.mark.parametrize("operation", ["BoxSet.volume", "BoxSet.dilate",
                                       "is_invariant_in_window", "refine"])
def test_box_grid_operations_name_themselves_on_sphere_sets(operation):
    sys = AffineSystem(np.diag([1.0, -1.0, -2.0]), np.eye(3)[None, :, :], np.zeros((3, 1)),
                       np.zeros(3), [-0.5], [0.5])
    graph = build_sphere_graph(sys, SphereGrid(3, 4), [[0.0]], 0.1)
    box_set = BoxSet(graph.grid, [1, 2])
    call = {"BoxSet.volume": lambda: box_set.volume,
            "BoxSet.dilate": lambda: box_set.dilate(1),
            "is_invariant_in_window": lambda: is_invariant_in_window(graph, box_set),
            "refine": lambda: refine(sys, graph, box_set, 2)}[operation]
    with pytest.raises(TypeError, match=f"^{re.escape(operation)} needs a BoxGrid"):
        call()


# --------------------------------------------------------------------- graphs

def test_zero_field_gives_only_self_loops():
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], dt=0.5,
                                   pts_per_box=2, seed=0)
    for p in range(graph.num_boxes):
        assert graph.successors(p).tolist() == [p]
    assert not graph.sink.any()


def test_contraction_edges_move_toward_origin():
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], dt=0.5,
                                   pts_per_box=3, seed=0)
    centers = grid.centers(np.arange(16))[:, 0]
    for p in range(16):
        for q in graph.successors(p):
            assert abs(centers[q]) <= abs(centers[p]) + 1e-12


def test_contraction_closure_matches_hand_enumeration():
    # independent oracle: BFS over the 16 boxes by direct arithmetic on the
    # center map x -> x e^{-1/2}
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], dt=0.5,
                                   pts_per_box=1, seed=0)
    seed = grid.box_containing([0.9])
    assert seed == 15

    def center(i):
        return -1.0 + (i + 0.5) * 0.125

    def box(x):
        return int(np.floor((x + 1.0) / 0.125))

    expected = {seed}
    frontier = [seed]
    while frontier:
        i = frontier.pop()
        j = box(center(i) * np.exp(-0.5))
        if j not in expected:
            expected.add(j)
            frontier.append(j)
    fwd = closure(graph, BoxSet(grid, [seed]), "forward")
    assert fwd.indices.tolist() == sorted(expected)
    # the orbit never crosses 0 and stays weakly inside the seed's box
    assert min(expected) >= 8 and max(expected) == seed


def test_closure_is_monotone_and_idempotent():
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], dt=0.5,
                                   pts_per_box=2, seed=0)
    all_boxes = BoxSet(grid, np.arange(16))
    assert closure(graph, all_boxes, "forward").equals(all_boxes)
    small = BoxSet(grid, [15])
    big = BoxSet(grid, [12, 15])
    c_small = closure(graph, small, "forward")
    c_big = closure(graph, big, "forward")
    assert len(c_small.difference(c_big)) == 0


def test_graph_determinism():
    grid = BoxGrid([-2.0, -2.0], [2.0, 2.0], [12, 12])
    sys = planar_saddle_system()
    g1 = build_transition_graph(sys, grid, [[-1.0], [0.0], [1.0]], 0.25, 3, seed=4)
    g2 = build_transition_graph(sys, grid, [[-1.0], [0.0], [1.0]], 0.25, 3, seed=4)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.targets, g2.targets)
    assert np.array_equal(g1.sink, g2.sink)


def test_memory_budget_checked_before_allocation():
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [100, 100])
    with pytest.raises(MemoryBudgetError):
        build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 5, seed=0,
                               memory_cap=1000)


def test_memory_budget_counts_the_position_table():
    # 3 active boxes x 2 points x 1 control = 6 samples, but an active
    # subset also needs a position table of grid.size + 1 words
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [100, 100])
    active = BoxSet(grid, [0, 1, 5050])
    need = 6 + grid.size + 1
    with pytest.raises(MemoryBudgetError, match="10001 position-table words"):
        build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 2, seed=0,
                               active=active, memory_cap=need - 1)
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 2, seed=0,
                                   active=active, memory_cap=need)
    assert graph.boxes.tolist() == [0, 1, 5050]
    assert graph.targets.tolist() == [0, 1, 2]
    coarse = build_transition_graph(zero_field(), BoxGrid([-1.0, -1.0], [1.0, 1.0],
                                                          [50, 50]), [[0.0]], 0.5, 2, seed=0)
    with pytest.raises(MemoryBudgetError, match="position-table"):
        refine(zero_field(), coarse, BoxSet(coarse.grid, [0]), 2, memory_cap=grid.size)
    # an active set of every box needs no table: its samples alone fit
    whole = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 2, seed=0,
                                   active=BoxSet(grid, np.arange(grid.size)),
                                   memory_cap=grid.size * 2)
    full = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 2, seed=0)
    for name in ("boxes", "indptr", "targets", "sink"):
        assert np.array_equal(getattr(whole, name), getattr(full, name))


@pytest.mark.parametrize("case", ["box_grid", "sphere_grid", "refine"])
def test_memory_cap_raises_before_grid_sized_allocations(case):
    saddle, controls = planar_saddle_system(), np.linspace(-1.0, 1.0, 5)[:, None]
    window = ([-3.0, -2.0], [1.0, 4.0])
    if case == "box_grid":  # 2048^2 boxes x 5 controls x 4 points, over the default cap
        grid = BoxGrid(*window, [2048, 2048])
        build = lambda: build_transition_graph(saddle, grid, controls, 0.1, 4, seed=3)
    elif case == "sphere_grid":  # 4 * 128^3 boxes x 5 controls x 3 points
        build = lambda: build_sphere_graph(zero_field(4), SphereGrid(4, 128), controls,
                                           0.1, 3, seed=0)
    else:  # one box of 64^2 refined to 2048^2: the fine grid alone exceeds the cap
        graph = build_transition_graph(saddle, BoxGrid(*window, [64, 64]), controls, 0.1,
                                       4, seed=3)
        build = lambda: refine(saddle, graph, BoxSet(graph.grid, [100]), 32,
                               memory_cap=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError, match="exceed the cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("make, name", [
    (lambda: BoxGrid([0.0], [1.0], [2.5]), "subdivisions"),
    (lambda: BoxGrid([0.0, 0.0], [1.0, 1.0], [4, np.nan]), "subdivisions"),
    (lambda: SphereGrid(3, 2.5), "subdivisions"),
    (lambda: SphereGrid(2.5, 3), "ambient"),
    (lambda: refine(zero_field(), build_transition_graph(
        zero_field(), BoxGrid([-1.0, -1.0], [1.0, 1.0], [8, 8]), [[0.0]], 0.5, 1, seed=0),
        BoxSet(BoxGrid([-1.0, -1.0], [1.0, 1.0], [8, 8]), [27]), 2.5), "factor"),
])
def test_sizes_that_are_not_whole_numbers_raise(make, name):
    with pytest.raises(ValueError, match=f"{name} must be whole"):
        make()


def test_whole_float_sizes_are_accepted():
    assert BoxGrid([0.0], [1.0], [2.0]).subdivisions.tolist() == [2]
    sphere = SphereGrid(3.0, 4.0)
    assert (sphere.ambient, sphere.subdivisions, sphere.size) == (3, 4, 48)
    assert type(sphere.size) is int
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [8, 8])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    fine, _ = refine(zero_field(), graph, BoxSet(grid, [27]), 2.0)
    assert fine.subdivisions.tolist() == [16, 16]


@pytest.mark.parametrize("make, name", [
    (lambda: BoxGrid([0.0], [1.0], [2**63]), "subdivisions"),
    (lambda: SphereGrid(2, 2**63), "subdivisions"),
    (lambda: BoxGrid([0.0], [1.0], [2**64]), "subdivisions"),
    (lambda: _whole(-2**63 - 1, "x"), "x"),
    (lambda: refine(zero_field(1), build_transition_graph(
        zero_field(1), BoxGrid([0.0], [1.0], [256]), [[0.0]], 0.5, 1, seed=0),
        BoxSet(BoxGrid([0.0], [1.0], [256]), [3]), 2**62, memory_cap=2**71), "subdivisions"),
])
def test_integers_outside_int64_raise(make, name):
    # numpy reads 2**63 as uint64, which an int64 cast wraps, and a larger
    # integer as an object that the cast overflows on
    with pytest.raises(ValueError, match=f"{name} must fit in int64"):
        make()


@pytest.mark.parametrize("build", [
    lambda k: build_transition_graph(zero_field(), BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4]),
                                     [[0.0]], 0.5, k, seed=0),
    lambda k: build_sphere_graph(zero_field(3), SphereGrid(3, 2), [[0.0]], 0.5, k),
], ids=["box", "sphere"])
def test_pts_per_box_must_be_whole(build):
    # unchecked, a float reached the Halton sampler as a TypeError
    graph = build(2.0)
    assert graph.pts_per_box == 2 and type(graph.pts_per_box) is int
    assert np.array_equal(graph.targets, build(2).targets)
    for bad in (2.5, np.nan):
        with pytest.raises(ValueError, match="pts_per_box must be whole"):
            build(bad)


@pytest.mark.parametrize("build", [
    lambda seed: build_transition_graph(
        zero_field(), BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4]), [[0.0]], 0.5, 3, seed=seed),
    lambda seed: build_sphere_graph(
        zero_field(3), SphereGrid(3, 2), [[0.0]], 0.5, 3, seed=seed),
], ids=["box", "sphere"])
def test_seed_must_be_whole(build):
    # the seed keys the memo of the test offsets, so it is an int there
    graph = build(np.float64(3.0))
    assert graph.seed == 3 and type(graph.seed) is int
    assert np.array_equal(graph.targets, build(3).targets)
    for bad in (2.5, np.nan):
        with pytest.raises(ValueError, match="seed must be whole"):
            build(bad)


@pytest.mark.parametrize("cls", [TransitionGraph, SphereGraph])
@pytest.mark.parametrize("cache", ["_scc", "_reverse", "_loops"])
def test_graph_caches_are_not_constructor_parameters(cls, cache):
    # a caller could pass a wrong SCC labelling that every query then read
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    fields = dict(grid=grid, boxes=graph.boxes, indptr=graph.indptr, targets=graph.targets,
                  sink=graph.sink, dt=graph.dt, controls=graph.controls,
                  pts_per_box=graph.pts_per_box, seed=graph.seed)
    with pytest.raises(TypeError):
        cls(**fields, **{cache: None})
    assert np.array_equal(cls(**fields).scc()[0], graph.scc()[0])


def test_self_loop_flags_are_read_only():
    # every SCC labelling reads the cached flags, so a write would change it
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    built = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    sphere = build_sphere_graph(zero_field(3), SphereGrid(3, 2), [[0.0]], 0.5, 3, seed=0)
    made = TransitionGraph(grid=grid, boxes=built.boxes, indptr=built.indptr,
                           targets=built.targets, sink=built.sink, dt=built.dt,
                           controls=built.controls, pts_per_box=1, seed=0)
    for graph in (built, sphere, made):
        loops = graph.has_self_loop()
        assert loops.all()  # the zero field keeps every box in itself
        assert graph.has_self_loop() is loops
        with pytest.raises(ValueError, match="read-only"):
            loops[0] = False


def two_cycle(indptr, targets):
    return TransitionGraph(grid=BoxGrid([0.0], [1.0], [2]), boxes=np.arange(2),
                           indptr=indptr, targets=targets, sink=np.zeros(2, dtype=bool),
                           dt=1.0, controls=np.zeros((1, 1)), pts_per_box=1, seed=0)


def test_graph_arrays_are_read_only():
    # the caches hold only for the arrays they were read from
    indptr, targets = np.array([0, 1, 2], dtype=np.int32), np.array([1, 0], dtype=np.int32)
    graph = two_cycle(indptr, targets)
    assert [c.indices.tolist() for c in chain_components(graph)] == [[0, 1]]
    targets[:] = [0, 0]  # the caller's array, not the graph's
    assert graph.successors(0).tolist() == [1]
    assert [c.indices.tolist() for c in chain_components(graph)] == [[0, 1]]
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    controls = np.array([[0.0]])
    built = build_transition_graph(zero_field(), grid, controls, 0.5, 1, seed=0)
    active = build_transition_graph(zero_field(), grid, controls, 0.5, 1, seed=0,
                                    active=BoxSet(grid, [1, 5, 6]))
    sphere = build_sphere_graph(zero_field(3), SphereGrid(3, 2), controls, 0.5, 3, seed=0)
    controls[0, 0] = 1.0  # the graphs keep the controls they were built with
    made = two_cycle(graph.indptr, graph.targets)
    assert made.indptr is graph.indptr and made.targets is graph.targets  # not copied again
    for g in (graph, built, active, sphere, made):
        assert not np.any(g.controls)
        for array in (g.boxes, g.indptr, g.targets, g.sink, g.controls, *g.reverse()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_graph_constructor_takes_array_likes():
    # lists become read-only arrays of their own, as arrays do
    grid = BoxGrid([0, 0], [1, 1], [2, 2])
    graph = TransitionGraph(grid, [0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4,
                            0.1, [[0.0]], 1, 0)
    for array in (graph.boxes, graph.indptr, graph.targets, graph.sink, graph.controls):
        assert isinstance(array, np.ndarray) and not array.flags.writeable
    assert graph.sink.dtype == bool and graph.controls.shape == (1, 1)
    assert [c.indices.tolist() for c in chain_components(graph)] == [[0, 1], [2, 3]]
    assert control_set_approx(graph, 3).indices.tolist() == [2, 3]
    assert not graph.has_self_loop().any()


@pytest.mark.parametrize("boxes, indptr, targets, sink, fault", [
    ([0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 0, 3, 7], [False] * 4, "targets"),
    ([0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 0, -1, 2], [False] * 4, "targets"),
    ([0, 1, 2, 3], [0, 1, 2, 3, 4], [[1, 0, 3, 2]], [False] * 4, "targets"),
    ([0, 1, 2, 3], [0, 2, 1, 3, 4], [1, 0, 3, 2], [False] * 4, "indptr"),
    ([0, 1, 2, 3], [1, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4, "indptr"),
    ([0, 1, 2, 3], [0, 1, 2, 3, 3], [1, 0, 3, 2], [False] * 4, "indptr"),
    ([0, 1, 2, 3], [0, 1, 2, 4], [1, 0, 3, 2], [False] * 4, "indptr"),
    ([0, 1, 2, 3], [[0, 1, 2, 3, 4]], [1, 0, 3, 2], [False] * 4, "indptr"),
    ([0, 2, 1, 3], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4, "boxes"),
    ([0, 1, 1, 3], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4, "boxes"),
    ([-1, 1, 2, 3], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4, "boxes"),
    ([0, 1, 2, 4], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 4, "boxes"),
    ([0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 0, 3, 2], [False] * 3, "sink"),
])
def test_graph_constructor_rejects_a_broken_csr(boxes, indptr, targets, sink, fault):
    # unchecked, csgraph read past the targets or chain_components grouped
    # nodes that no edge joins
    with pytest.raises(ValueError, match=f"^{fault} must"):
        TransitionGraph(BoxGrid([0.0], [1.0], [4]), boxes, indptr, targets, sink,
                        0.1, [[0.0]], 1, 0)


def test_graph_constructor_keeps_repeated_targets():
    graph = TransitionGraph(BoxGrid([0.0], [1.0], [4]), [0, 1, 2, 3], [0, 2, 2, 3, 4],
                            [1, 1, 3, 2], [False] * 4, 0.1, [[0.0]], 1, 0)
    assert graph.successors(0).tolist() == [1, 1] and graph.num_edges == 4


@pytest.mark.parametrize("position", [-1, 2, 3])
def test_successors_of_a_position_outside_the_graph_raise(position):
    # -1 is position_of's mark for an absent box, not the last node
    graph = two_cycle(np.array([0, 1, 2]), np.array([1, 0]))
    assert graph.successors(1).tolist() == [0]
    with pytest.raises(IndexError, match=r"not in 0\.\.1"):
        graph.successors(position)


# ----------------------------------------------------------- control sets

def test_control_set_zero_field_is_seed_box():
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [8, 8])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    seed = grid.box_containing([0.3, -0.2])
    approx = control_set_approx(graph, seed)
    assert approx.indices.tolist() == [seed]


def test_control_set_wandering_seed_is_empty():
    # pure drift downhill: no box returns to itself
    sys = AffineSystem([[0.0]], [[[0.0]]], [[0.0]], [-1.0], [-0.5], [0.5])
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(sys, grid, [[0.0]], 0.5, 1, seed=0)
    approx = control_set_approx(graph, grid.box_containing([0.4]))
    assert len(approx) == 0


def test_control_set_1d_interval_between_extreme_equilibria():
    # dx/dt = x + u: equilibria x = -u sweep [-1, 1]; phase-line reasoning
    # gives approximate controllability exactly on (-1, 1)
    grid = BoxGrid([-2.0], [2.0], [64])
    graph = build_transition_graph(shift_1d(), grid,
                                   [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
                                   dt=0.25, pts_per_box=3, seed=0)
    approx = control_set_approx(graph, grid.box_containing([0.0]))
    centers = approx.centers()[:, 0]
    box_w = grid.widths[0]
    assert centers.min() >= -1.0 - 2 * box_w
    assert centers.max() <= 1.0 + 2 * box_w
    # the interior is fully covered
    inner = grid.box_of(np.linspace(-0.9, 0.9, 30)[:, None])
    assert all(b in approx for b in inner)


def test_planar_saddle_control_set_coarse():
    # coarse run of the planar-saddle scenario: the control set fills
    # (-2, 0) x [-1, 3] up to a boundary layer
    sys = planar_saddle_system()
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [48, 48])
    controls = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    graph = build_transition_graph(sys, grid, controls, 0.25, 3, seed=0)
    seed = grid.box_containing([-1.0, 1.0])
    approx = control_set_approx(graph, seed)
    centers = approx.centers()
    wx, wy = grid.widths
    assert centers[:, 0].min() >= -2.0 - 2 * wx
    assert centers[:, 0].max() <= 0.0 + 2 * wx
    assert centers[:, 1].min() >= -1.0 - 2 * wy
    assert centers[:, 1].max() <= 3.0 + 2 * wy
    # interior points are covered
    probe = np.array([[-1.0, 1.0], [-0.5, 0.0], [-1.5, 2.5], [-1.0, -0.5]])
    for b in grid.box_of(probe):
        assert b in approx


def test_planar_saddle_seed_independence():
    sys = planar_saddle_system()
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [48, 48])
    controls = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    graph = build_transition_graph(sys, grid, controls, 0.25, 3, seed=0)
    seeds = [[-1.0, 1.0], [-0.5, 0.5], [-1.5, -0.5], [-0.3, -0.7], [-1.2, 1.9]]
    sets = [control_set_approx(graph, grid.box_containing(s)) for s in seeds]
    for s in sets[1:]:
        assert s.equals(sets[0])


def test_invariance_flag():
    # the contraction keeps everything inside; pure drift leaves the window
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], 0.5, 2, seed=0)
    whole = closure(graph, BoxSet(grid, [grid.box_containing([0.9])]), "forward")
    assert is_invariant_in_window(graph, whole)
    sys = AffineSystem([[0.0]], [[[0.0]]], [[0.0]], [1.0], [-0.5], [0.5])
    drift = build_transition_graph(sys, grid, [[0.0]], 0.5, 2, seed=0)
    assert not is_invariant_in_window(drift, BoxSet(grid, [8]))


# ------------------------------------------------------------------ SCC / refine

def test_chain_components_zero_field():
    grid = BoxGrid([-1.0, -1.0], [1.0, 1.0], [4, 4])
    graph = build_transition_graph(zero_field(), grid, [[0.0]], 0.5, 1, seed=0)
    comps = chain_components(graph)
    assert len(comps) == 16
    assert all(len(c) == 1 for c in comps)


def hand_scc(adj: dict) -> list[frozenset]:
    """Independent Kosaraju SCC on a dict-of-sets adjacency."""
    order = []
    seen = set()

    def dfs(node, graph, out):
        stack = [(node, iter(sorted(graph.get(node, ()))))]
        seen.add(node)
        while stack:
            cur, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                out.append(cur)

    nodes = sorted(adj)
    for v in nodes:
        if v not in seen:
            dfs(v, adj, order)
    radj = {v: set() for v in nodes}
    for v, targets in adj.items():
        for w in targets:
            radj[w].add(v)
    seen = set()
    comps = []
    for v in reversed(order):
        if v not in seen:
            comp = []
            dfs(v, radj, comp)
            comps.append(frozenset(comp))
    return comps


def test_chain_components_contraction_matches_hand_scc():
    # the chain-recurrent set of dx/dt = -x is {0}; at box resolution the
    # surviving components are self-looping boxes clustered at the origin
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], 0.5, 3, seed=0)
    adj = {p: set(graph.successors(p).tolist()) for p in range(graph.num_boxes)}
    expected = [c for c in hand_scc(adj)
                if len(c) >= 2 or next(iter(c)) in adj[next(iter(c))]]
    comps = chain_components(graph)
    got = [frozenset(graph.position_of(c.indices).tolist()) for c in comps]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
    # outer approximation: the box containing the origin survives, and all
    # surviving boxes hug the origin
    members = np.concatenate([c.indices for c in comps])
    assert grid.box_containing([0.0]) in members
    assert np.max(np.abs(grid.centers(members)[:, 0])) <= 3 * grid.widths[0]


def test_chain_components_disjoint_and_closed():
    sys = planar_saddle_system()
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [32, 32])
    graph = build_transition_graph(sys, grid, [[-1.0], [1.0]], 0.25, 2, seed=0)
    comps = chain_components(graph)
    for i, a in enumerate(comps):
        for b in comps[i + 1:]:
            assert len(a.intersection(b)) == 0
    # each component is both-direction closed within itself
    for comp in comps[:3]:
        fwd = closure(graph, comp, "forward", include_start=False)
        bwd = closure(graph, comp, "backward", include_start=False)
        assert len(comp.difference(fwd.intersection(bwd))) == 0


def test_chain_component_includes_control_set():
    sys = planar_saddle_system()
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [48, 48])
    controls = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    graph = build_transition_graph(sys, grid, controls, 0.25, 3, seed=0)
    approx = control_set_approx(graph, grid.box_containing([-1.0, 1.0]))
    comps = chain_components(graph)
    assert len(approx.difference(comps[0])) == 0


def test_refine_counts_huge_factors_without_wrapping():
    # grid.subdivisions * factor wrapped in int64: 256 * (2**56 + 1) made a
    # 256-box fine grid that passed the cap and crashed the interpreter in
    # np.repeat, and 2**55 and 2**62 raised "need at least one box per dimension"
    result = run_isolated("""
import pytest
from affinecontrol.reach import (BoxGrid, BoxSet, MemoryBudgetError,
                                 build_transition_graph, refine)
from affinecontrol.system import AffineSystem
line = AffineSystem([[-1.0]], [[[1.0]]], [[1.0]], [0.0], [-1.0], [1.0])
grid = BoxGrid([0.0], [1.0], [256])
graph = build_transition_graph(line, grid, [[0.0]], 0.1, 2, 0)
for factor in (2**56 + 1, 2**55, 2**62):
    with pytest.raises(MemoryBudgetError, match="exceed the cap"):
        refine(line, graph, BoxSet(grid, [3]), factor)
plane = AffineSystem([[-1.0, 0.0], [0.0, -1.0]], [[[1.0, 0.0], [0.0, 1.0]]], [[1.0], [1.0]],
                     [0.0, 0.0], [-1.0], [1.0])
square = BoxGrid([0.0, 0.0], [1.0, 1.0], [16, 16])
graph = build_transition_graph(plane, square, [[0.0]], 0.1, 2, 0)
with pytest.raises(ValueError, match="fewer than 2[*][*]63"):
    refine(plane, graph, BoxSet(square, [3]), 2**31, memory_cap=2**80)
""", timeout=60)
    assert result.returncode == 0, (result.returncode, result.stderr)


def test_refine_empty_keep_gives_empty_grid():
    grid = BoxGrid([-1.0], [1.0], [8])
    graph = build_transition_graph(contraction_1d(), grid, [[0.0]], 0.5, 1, seed=0)
    fine, fine_graph = refine(contraction_1d(), graph,
                              BoxSet(grid, np.empty(0, dtype=np.int64)), 2)
    assert fine.size == 16
    assert fine_graph.num_boxes == 0


def test_refine_shrinks_symmetric_difference():
    # refining the planar-saddle component tightens the match with the
    # closed-form control set (-2, 0) x [-1, 3]
    sys = planar_saddle_system()
    grid = BoxGrid([-4.0, -3.0], [2.0, 5.0], [24, 24])
    controls = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    graph = build_transition_graph(sys, grid, controls, 0.25, 3, seed=0)

    def sd_volume(box_set):
        g = box_set.grid
        lo_c = g.lower_corners(box_set.indices)
        hi_c = lo_c + g.widths
        inter_lo = np.maximum(lo_c, [-2.0, -1.0])
        inter_hi = np.minimum(hi_c, [0.0, 3.0])
        inter = np.prod(np.clip(inter_hi - inter_lo, 0.0, None), axis=1).sum()
        return (box_set.volume - inter) + (8.0 - inter)

    approx = control_set_approx(graph, grid.box_containing([-1.0, 1.0]))
    volumes = [sd_volume(approx)]
    for _ in range(2):
        grid, graph = refine(sys, graph, approx, 2)
        approx = control_set_approx(graph, grid.box_containing([-1.0, 1.0]))
        volumes.append(sd_volume(approx))
    assert volumes[1] < volumes[0]
    assert volumes[2] < volumes[1]


def test_refine_closure_commutes_up_to_collar():
    sys = contraction_1d()
    grid = BoxGrid([-1.0], [1.0], [16])
    graph = build_transition_graph(sys, grid, [[0.0]], 0.5, 2, seed=0)
    keep = closure(graph, BoxSet(grid, [grid.box_containing([0.9])]), "forward")
    fine, fine_graph = refine(sys, graph, keep, 2)
    seed_fine = fine.box_containing([0.9])
    fine_closure = closure(fine_graph, BoxSet(fine, [seed_fine]), "forward")
    # map fine boxes back to their coarse parents
    parents = grid.flat_index(fine.multi_index(fine_closure.indices) // 2)
    coarse_cover = keep.dilate(1)
    assert all(p in coarse_cover for p in np.unique(parents))


@pytest.mark.parametrize("value", [1.5, np.nan, np.inf])
@pytest.mark.parametrize("entry, name", [
    (lambda graph, v: BoxSet(graph.grid, [0, v]), "indices"),
    (lambda graph, v: graph.position_of([v]), "box_indices"),
    (lambda graph, v: control_set_approx(graph, v), "seed_box"),
    (lambda graph, v: larc_rank(planar_saddle_system(), [0.0, 0.0], max_depth=v), "max_depth"),
    (lambda graph, v: graph.grid.centers([v]), "indices"),
    (lambda graph, v: graph.grid.lower_corners([v]), "indices"),
    (lambda graph, v: graph.grid.multi_index([v]), "indices"),
    (lambda graph, v: graph.grid.flat_index([[v]]), "multi"),
    (lambda graph, v: SphereGrid(3, 4).centers([v]), "ids"),
    (lambda graph, v: SphereGrid(3, 4).corners([v]), "ids"),
    (lambda graph, v: SphereGrid(3, 4).level_zero_touching([v]), "ids"),
], ids=["BoxSet", "position_of", "control_set_approx", "larc_rank", "centers",
        "lower_corners", "multi_index", "flat_index", "sphere_centers", "sphere_corners",
        "level_zero_touching"])
def test_ids_and_depths_from_outside_must_be_whole(entry, name, value):
    # a cast would truncate them: 1.5 would name box 1
    grid = BoxGrid([-1.0], [1.0], [4])
    graph = build_transition_graph(shift_1d(), grid, [[-1.0], [1.0]], 0.1, 1, 0)
    entry(graph, 2.0)  # a whole float is taken
    with pytest.raises(ValueError, match=f"{name} must be whole"):
        entry(graph, value)

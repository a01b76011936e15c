"""Smoke test of the benchmark tracer: it installs on the library's names,
records spans, and restores every name it wrapped."""

import importlib.util
from pathlib import Path

import numpy as np

import affinecontrol as ac
from affinecontrol import projective, reach
from affinecontrol.system import AffineSystem

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(spans):
    """Every (owner, attribute) the tracer wraps, with its current value."""
    found = {}
    for original, _, _ in spans.FUNCTIONS:
        for module in spans.MODULES:
            for attr, value in vars(module).items():
                if value is original:
                    found[(module.__name__, attr)] = (module, value)
    for cls, attr, _ in spans.METHODS:
        found[(cls.__qualname__, attr)] = (cls, cls.__dict__[attr])
    owner, attr, _ = spans.SCC
    found[(owner.__name__, attr)] = (owner, getattr(owner, attr))
    return found


def test_tracer_installs_records_and_restores():
    spans = load_spans()
    before = bindings(spans)
    # every wrapped function is bound somewhere, every method exists
    assert len(before) >= len(spans.FUNCTIONS) + len(spans.METHODS) + 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (_, attr), (owner, value) in before.items():
            assert vars(owner)[attr] is not value, attr
        sys = AffineSystem([[-1.0]], [[[0.0]]], [[0.0]], [0.0], [-1.0], [1.0])
        with tracer.recording():
            # through the module, whose names the tracer replaced
            graph = reach.build_transition_graph(sys, reach.BoxGrid([-1.0], [1.0], [8]),
                                                 [[0.0]], 0.5, 1, seed=0)
            reach.chain_components(graph)
        layers, counts = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    for (_, attr), (owner, value) in before.items():
        assert vars(owner)[attr] is value, attr
    names = {s[0] for s in tracer.spans}
    assert {"reach.build_transition_graph", "reach.box_of", "reach.chain_components",
            "reach.has_self_loop", "scipy.scc"} <= names
    assert layers["reach.chain_components.s"] > 0.0
    assert counts["reach.edges"] == graph.num_edges
    assert 0.0 < counts["reach.scc.kept_ratio"] <= 1.0


def test_tracer_records_the_projective_names():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        emb = projective.embed_system(AffineSystem(
            np.diag([1.0, -1.0]), np.eye(2)[None, :, :], np.ones((2, 1)), [1.0, 0.0],
            [-0.5], [0.5]))
        with tracer.recording():
            report = projective.infinity_boundary_chain(emb, 4, [[-0.5], [0.5]], 0.1)
        _, counts = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"projective.infinity_boundary_chain", "projective.build_sphere_graph",
            "projective.sphere_box_of", "projective.box_diameter",
            "projective.sphere_chain_components", "projective.proj_dist_vectors",
            "system.expm"} <= names
    assert counts["system.expm.calls"] == 4  # one per control and sphere
    big, hom = report.details
    assert counts["projective.sphere_edges"] == big.graph.targets.size + hom.graph.targets.size


def test_tracer_records_calls_through_the_package_names():
    # the benchmark's workloads call the library as `ac.<name>`
    spans = load_spans()
    originals = {"build_transition_graph": reach.build_transition_graph,
                 "infinity_boundary_chain": projective.infinity_boundary_chain}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(ac, n) is not f for n, f in originals.items())
        sys = AffineSystem([[-1.0]], [[[0.0]]], [[0.0]], [0.0], [-1.0], [1.0])
        emb = ac.embed_system(AffineSystem(
            np.diag([1.0, -1.0]), np.eye(2)[None, :, :], np.ones((2, 1)), [1.0, 0.0],
            [-0.5], [0.5]))
        with tracer.recording():
            ac.build_transition_graph(sys, ac.BoxGrid([-1.0], [1.0], [8]), [[0.0]], 0.5, 1,
                                      seed=0)
            ac.infinity_boundary_chain(emb, 4, [[-0.5], [0.5]], 0.1)
    finally:
        tracer.uninstall()
    assert {"reach.build_transition_graph",
            "projective.infinity_boundary_chain"} <= {s[0] for s in tracer.spans}
    assert all(getattr(ac, n) is f for n, f in originals.items())
    # read from the module on every access, so no wrapper is left behind
    assert not set(originals) & set(vars(ac))

"""Spans around the calls into each layer of `affinecontrol`, and the
per-layer metrics derived from them.

The wrappers replace module-level names and class methods.  The library
looks these names up at call time, so internal calls (`refine` calling
`build_transition_graph`, `segment_map` calling `expm`, ...) are caught
too.  Every module binding of one function object gets the same wrapper:
`expm` is bound in `system`, `floquet` and `projective`, `segment_map` in
`system`, `reach` and `floquet`, and the package re-exports the public
names.  Spans stay in memory; `spans_record` gives them for writing out.
"""

import functools
import time
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csgraph
from scipy import linalg

import affinecontrol as ac
from affinecontrol import floquet, projective, reach, system

MODULES = (ac, system, reach, floquet, projective)

# (object bound in the modules, span name, keep the result for counts)
FUNCTIONS = [
    (linalg.expm, "system.expm", False),
    (system.segment_map, "system.segment_map", False),
    (reach.build_transition_graph, "reach.build_transition_graph", True),
    (reach.chain_components, "reach.chain_components", True),
    (reach.control_set_approx, "reach.control_set_approx", False),
    (reach.closure, "reach.closure", False),
    (reach.refine, "reach.refine", True),
    (floquet.hyperbolicity_scan, "floquet.hyperbolicity_scan", True),
    (floquet.continuation, "floquet.continuation", True),
    (floquet.floquet_of, "floquet.floquet_of", False),
    (floquet.periodic_solution, "floquet.periodic_solution", False),
    (floquet.forced_integral, "floquet.forced_integral", False),
    (floquet.principal_matrix, "floquet.principal_matrix", False),
    (projective.build_sphere_graph, "projective.build_sphere_graph", True),
    (projective.sphere_chain_components, "projective.sphere_chain_components", True),
    (projective.proj_dist_vectors, "projective.proj_dist_vectors", False),
    (projective.infinity_boundary_chain, "projective.infinity_boundary_chain", True),
]
METHODS = [
    (reach.BoxGrid, "box_of", "reach.box_of"),
    (reach.TransitionGraph, "has_self_loop", "reach.has_self_loop"),
    (projective.SphereGrid, "box_of", "projective.sphere_box_of"),
    (projective.SphereGrid, "box_diameter", "projective.box_diameter"),
]
# Both SCC filters call scipy through the `csgraph` module attribute; the
# component count is the denominator of the kept ratio.
SCC = (csgraph, "connected_components", "scipy.scc")


class Tracer:
    """Records one span per wrapped call while `enabled` is set.

    A span is [name, start, end, parent index]; parents come from the
    stack of open spans, so self time is a span's duration minus that of
    its direct children.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.results = []
        self._stack = []
        self._undo = []

    def _wrap(self, original, name, keep):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if keep:
                tracer.results.append((index, result))
            return result
        return traced

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for original, name, keep in FUNCTIONS:
            wrapper = self._wrap(original, name, keep)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for cls, attr, name in METHODS:
            self._replace(cls, attr, self._wrap(cls.__dict__[attr], name, False))
        owner, attr, name = SCC
        self._replace(owner, attr, self._wrap(getattr(owner, attr), name, True))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        """Trace one pass: clear the spans, enable, and disable afterwards."""
        self.spans, self.results, self._stack = [], [], []
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def spans_record(self):
        """The spans as compact rows [name id, start, end, parent], with names."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[ids[s[0]], s[1], s[2], s[3]] for s in self.spans]}


# Per-layer metrics and their units (BENCHMARK.json says which way is
# better).  Times are seconds summed over the spans of one pass; counts are
# summed over the pass and must repeat exactly for a seed.
TIMES = {
    "reach.build_transition_graph.s": ("reach.build_transition_graph", "s"),
    "reach.build_transition_graph.self_s": ("reach.build_transition_graph", "self_s"),
    "reach.box_of.s": ("reach.box_of", "s"),
    "reach.chain_components.s": ("reach.chain_components", "s"),
    "reach.has_self_loop.s": ("reach.has_self_loop", "s"),
    "reach.control_set_approx.s": ("reach.control_set_approx", "s"),
    "reach.closure.s": ("reach.closure", "s"),
    "reach.refine.s": ("reach.refine", "s"),
    "system.segment_map.s": ("system.segment_map", "s"),
    "system.expm.s": ("system.expm", "s"),
    "floquet.hyperbolicity_scan.s": ("floquet.hyperbolicity_scan", "s"),
    "floquet.continuation.s": ("floquet.continuation", "s"),
    "floquet.floquet_of.s": ("floquet.floquet_of", "s"),
    "floquet.periodic_solution.s": ("floquet.periodic_solution", "s"),
    "floquet.forced_integral.s": ("floquet.forced_integral", "s"),
    "projective.build_sphere_graph.s": ("projective.build_sphere_graph", "s"),
    "projective.build_sphere_graph.self_s": ("projective.build_sphere_graph", "self_s"),
    "projective.sphere_box_of.s": ("projective.sphere_box_of", "s"),
    "projective.sphere_chain_components.s": ("projective.sphere_chain_components", "s"),
    "projective.box_diameter.s": ("projective.box_diameter", "s"),
    "projective.match.self_s": ("projective.infinity_boundary_chain", "self_s"),
}
COUNTS = {
    "reach.closure.calls": "count",
    "reach.edges": "count",
    "reach.sink_boxes": "count",
    "reach.refine.active_boxes": "count",
    "reach.scc.kept_ratio": "ratio",
    "system.segment_map.calls": "count",
    "system.expm.calls": "count",
    "floquet.scan.expm_per_control": "calls/control",
    "floquet.continuation.records": "count",
    "floquet.continuation.expm_per_record": "calls/record",
    "floquet.floquet_of.calls_per_record": "calls/record",
    "floquet.crossings": "count",
    "floquet.bisect.evals": "count",
    "projective.sphere_edges": "count",
    "projective.proj_dist_vectors.calls": "count",
    "projective.directions": "count",
    "projective.matches": "count",
    "projective.scc.kept_ratio": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer times and counts of the pass held by the tracer."""
    spans = tracer.spans
    total = {}
    child = [0.0] * len(spans)
    calls = {}
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += end - start
    self_s = {}
    for (name, start, end, _), covered in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
    out = {metric: (total if kind == "s" else self_s).get(span, 0.0)
           for metric, (span, kind) in TIMES.items()}

    def ancestor(index, name):
        index = spans[index][3]
        while index >= 0 and spans[index][0] != name:
            index = spans[index][3]
        return index >= 0

    def count_under(span_name, ancestor_name):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == span_name and ancestor(i, ancestor_name))

    kept = {"reach.chain_components": 0, "projective.sphere_chain_components": 0}
    sccs = dict.fromkeys(kept, 0)
    records = crossings = controls = 0
    counts = dict.fromkeys(["reach.edges", "reach.sink_boxes", "reach.refine.active_boxes",
                            "projective.sphere_edges", "projective.directions",
                            "projective.matches"], 0)
    for index, result in tracer.results:
        name = spans[index][0]
        if name == "reach.build_transition_graph":
            counts["reach.edges"] += result.num_edges
            counts["reach.sink_boxes"] += int(np.count_nonzero(result.sink))
        elif name == "reach.refine":
            counts["reach.refine.active_boxes"] += result[1].num_boxes
        elif name == "reach.chain_components":
            kept[name] += len(result)
        elif name == "projective.sphere_chain_components":
            kept[name] += len(result.components)
        elif name == "projective.build_sphere_graph":
            counts["projective.sphere_edges"] += int(result.targets.size)
        elif name == "projective.infinity_boundary_chain":
            counts["projective.directions"] += len(result.directions)
            counts["projective.matches"] += len(result.matches)
        elif name == "floquet.hyperbolicity_scan":
            controls += result.count
        elif name == "floquet.continuation":
            records += len(result.records)
            crossings += len(result.crossings)
        elif name == "scipy.scc":
            parent = spans[index][3]
            if parent >= 0 and spans[parent][0] in sccs:
                sccs[spans[parent][0]] += int(result[0])

    counts.update({
        "reach.closure.calls": calls.get("reach.closure", 0),
        "reach.scc.kept_ratio": _ratio(kept["reach.chain_components"],
                                       sccs["reach.chain_components"]),
        "system.segment_map.calls": calls.get("system.segment_map", 0),
        "system.expm.calls": calls.get("system.expm", 0),
        "floquet.scan.expm_per_control": _ratio(
            count_under("system.expm", "floquet.hyperbolicity_scan"), controls),
        "floquet.continuation.records": records,
        "floquet.continuation.expm_per_record": _ratio(
            count_under("system.expm", "floquet.continuation"), records),
        "floquet.floquet_of.calls_per_record": _ratio(
            count_under("floquet.floquet_of", "floquet.continuation"), records),
        "floquet.crossings": crossings,
        "floquet.bisect.evals": sum(
            1 for s in spans if s[0] == "floquet.principal_matrix"
            and (s[3] < 0 or spans[s[3]][0] != "floquet.floquet_of")),
        "projective.proj_dist_vectors.calls": calls.get("projective.proj_dist_vectors", 0),
        "projective.scc.kept_ratio": _ratio(kept["projective.sphere_chain_components"],
                                            sccs["projective.sphere_chain_components"]),
    })
    return out, counts

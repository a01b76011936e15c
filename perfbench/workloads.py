"""The benchmark's workloads: fixed systems, one pipeline each, and its checks.

Each workload is built from the seed alone; the seed drives only the Halton
scramble of the box test points or the control sampler, so every seed does
the same amount of work on the same system.  Checks state properties that
any correct implementation has, never digests of one implementation's
arrays.
"""

import time
from contextlib import nullcontext

import numpy as np

import affinecontrol as ac

UNIT_TOL = ac.DEFAULT_TOLERANCES.unit_tol


class PassAborted(RuntimeError):
    """A library call raised, so the rest of the pass cannot run."""


class Operations:
    """Runs the public calls of one pipeline pass and checks their results.

    An operation is one library call together with its checks; it fails when
    the call raises or a check finds a problem.  Only the calls are timed.
    Checks run outside the timed region, inside `paused` (the tracer's
    switch), so they add neither time nor spans.  `after(seconds)` runs
    after each operation, outside the timed region, given the call's time.
    """

    def __init__(self, paused=nullcontext, after=None):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.call_s = 0.0
        self._paused = paused
        self._after = after

    def run(self, name, call, check=None):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc
        finally:
            elapsed = time.perf_counter() - start
            self.call_s += elapsed
            if self._after is not None:
                self._after(elapsed)
        if check is not None:
            with self._paused():
                try:
                    found = check(result)
                except Exception as exc:  # a check that cannot run is a failure
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                self.failed += 1
                self.problems.extend(f"{name}: {p}" for p in found)
        return result


def _problems(*conditions):
    return [message for ok, message in conditions if not ok]


# ------------------------------------------------------------- saddle_grid

SADDLE = ac.AffineSystem(
    A=np.diag([2.0, -2.0]), B=np.eye(2)[None, :, :], C=[[3.0], [3.0]],
    d=[3.0, 0.0], omega_lo=[-1.0], omega_hi=[1.0])
# The saddle's control set is exactly the box between the equilibria of
# u = -1 and u = +1 on each axis.
SADDLE_TRUE_LO = np.array([-2.0, -1.0])
SADDLE_TRUE_HI = np.array([0.0, 3.0])
SADDLE_SEED_POINT = (-1.0, 1.0)
SADDLE_PROBES = [(-1.0, 1.0), (-0.5, 0.0), (-1.5, 2.5), (-1.0, -0.5)]
SADDLE_COLLAR = 2


def _true_set_boxes(grid):
    """Flat indices of the boxes whose centre lies in the true control set."""
    axes = []
    for k in range(grid.dim):
        centers = grid.lo[k] + (np.arange(grid.subdivisions[k]) + 0.5) * grid.widths[k]
        axes.append(np.flatnonzero((centers > SADDLE_TRUE_LO[k])
                                   & (centers < SADDLE_TRUE_HI[k])))
    multi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    return grid.flat_index(multi)


class SaddleGrid:
    """Chain control sets of the planar saddle: full grid, then two refinements."""

    def __init__(self, seed):
        self.seed = seed
        self.grid = ac.BoxGrid([-4.0, -4.0], [4.0, 4.0], [256, 256])
        self.controls = np.linspace(-1.0, 1.0, 5)[:, None]
        self.dt = 0.1
        self.pts_per_box = 4

    def _level_check(self, graph, components):
        grid = graph.grid
        seed_box = grid.box_containing(SADDLE_SEED_POINT)

        def check(cs):
            found = _problems((len(cs) > 0, "empty control set"))
            if found:
                return found
            missing = [p for p in SADDLE_PROBES if grid.box_containing(p) not in cs]
            owner = [c for c in components if seed_box in c]
            lower = grid.lower_corners(cs.indices)
            reach = SADDLE_COLLAR * grid.widths + 1e-9
            inside = (np.all(lower >= SADDLE_TRUE_LO - reach)
                      and np.all(lower + grid.widths <= SADDLE_TRUE_HI + reach))
            return _problems(
                (not missing, f"probes {missing} not in the control set"),
                (len(owner) == 1 and owner[0].equals(cs),
                 "control set differs from the chain component of the seed box"),
                (inside, f"control set leaves the {SADDLE_COLLAR}-box collar "
                         "of the true set"))
        return check

    def _level(self, ops, graph, tag):
        components = ops.run(f"chain_components[{tag}]",
                             lambda: ac.chain_components(graph))
        seed_box = graph.grid.box_containing(SADDLE_SEED_POINT)
        cs = ops.run(f"control_set_approx[{tag}]",
                     lambda: ac.control_set_approx(graph, seed_box),
                     self._level_check(graph, components))
        return components, cs

    def run(self, ops):
        graph = ops.run("build_transition_graph[256]", lambda: ac.build_transition_graph(
            SADDLE, self.grid, self.controls, self.dt, self.pts_per_box, self.seed))
        components, cs = self._level(ops, graph, 256)
        summary = [graph.num_edges, len(components), len(cs)]
        for direction in ("forward", "backward"):
            ops.run(f"closure[{direction}]",
                    lambda: ac.closure(graph, cs, direction),
                    lambda c: _problems((len(cs.difference(c)) == 0,
                                         "closure misses part of the control set")))
        for level in (512, 1024):
            fine, graph = ops.run(f"refine[{level}]",
                                  lambda: ac.refine(SADDLE, graph, cs, 2))
            components, cs = self._level(ops, graph, level)
            summary += [graph.num_edges, len(components), len(cs)]
        truth = _true_set_boxes(fine)
        coverage = np.isin(truth, cs.indices).sum() / truth.size
        return summary, {"cs_coverage": float(coverage)}


# ------------------------------------------------------------ floquet_path

OSCILLATOR = ac.AffineSystem(
    A=[[0.0, 1.0], [-1.0, -3.0]], B=np.array([[0.0, 0.0], [-1.0, 0.0]])[None, :, :],
    C=[[0.0], [1.0]], d=[0.0, 0.5], omega_lo=[-1.1], omega_hi=[1.1])
COUPLING = ac.AffineSystem(
    A=[[0.0, 1.0], [1.0, 0.0]], B=(2.0 * np.eye(2))[None, :, :],
    C=[[0.0], [1.0]], d=[0.0, 0.0], omega_lo=[-1.0], omega_hi=[1.0])
# Along this path the monodromy is exp(0.2) * exp(-0.4 (2 - 2 alpha)) on
# the diagonal direction, so its multiplier passes 1 once, at alpha = 3/4.
COUPLING_CROSSING = 0.75
PERIODIC_STRIDE = 20


def _periodic_check(sys):
    """Simulating a sampled Unique record over one period returns to x0."""
    def check(result):
        bad = []
        for r in result.records[::PERIODIC_STRIDE]:
            if not isinstance(r.solution, ac.Unique):
                continue
            x0 = r.solution.x0
            end = ac.simulate(sys, r.control, x0, r.tau).states[-1]
            err = np.linalg.norm(end - x0) / max(np.linalg.norm(x0), 1e-300)
            if not err <= 1e-8:
                bad.append(f"alpha={r.alpha:.6f} relative error {err:.2e}")
        return [f"not periodic: {', '.join(bad)}"] if bad else []
    return check


class FloquetPath:
    """A hyperbolicity scan and two continuations; no box graph is built."""

    def __init__(self, seed):
        self.seed = seed
        self.sampler = ac.ControlSampler(kind="mixed")
        self.count = 4000
        self.steps = 801
        pc = ac.PiecewiseControl
        self.coupling_path = ac.concat_path(pc.constant(-0.7), pc.constant(-0.4))
        self.oscillator_path = ac.concat_path(
            pc.from_segments([(-1.1, 0.6), (0.4, 0.9)]),
            pc.from_segments([(-0.95, 0.8), (1.1, 0.3), (-1.1, 0.5)]))

    def _scan_check(self, scan):
        margins = np.asarray(scan.margins)
        verdict = "REFUTED" if scan.min_margin <= UNIT_TOL else "NOT-REFUTED"
        return _problems(
            (scan.count == self.count, f"scanned {scan.count} controls"),
            (bool(np.all(np.isfinite(margins))), "non-finite margins"),
            (scan.min_margin == margins.min(), "min_margin is not the least margin"),
            (scan.verdict == verdict, f"verdict {scan.verdict} disagrees with "
                                      f"min_margin {scan.min_margin:.3e}"))

    def _coupling_check(self, result):
        found = _problems((len(result.crossings) == 1,
                           f"{len(result.crossings)} crossings, expected 1"))
        if not found:
            c = result.crossings[0]
            found = _problems(
                (abs(c.alpha - COUPLING_CROSSING) <= 1e-6, f"crossing at {c.alpha!r}"),
                (c.margin <= UNIT_TOL, f"crossing margin {c.margin:.3e}"))
        return found + _periodic_check(COUPLING)(result)

    def run(self, ops):
        scan = ops.run("hyperbolicity_scan", lambda: ac.hyperbolicity_scan(
            OSCILLATOR, self.sampler, self.count, self.seed), self._scan_check)
        coupling = ops.run("continuation[coupling]", lambda: ac.continuation(
            COUPLING, self.coupling_path, self.steps), self._coupling_check)
        oscillator = ops.run("continuation[oscillator]", lambda: ac.continuation(
            OSCILLATOR, self.oscillator_path, self.steps), _periodic_check(OSCILLATOR))
        summary = [scan.min_margin, scan.verdict,
                   len(coupling.records), [c.alpha for c in coupling.crossings],
                   len(oscillator.records), len(oscillator.crossings)]
        return summary, {}


# --------------------------------------------------------- sphere_infinity

SYS3 = ac.AffineSystem(
    A=np.diag([1.0, -1.0, -2.0]), B=np.eye(3)[None, :, :], C=np.ones((3, 1)),
    d=[1.0, 0.0, 0.0], omega_lo=[-0.5], omega_hi=[0.5])


def _infinity_check(report):
    vecs = np.array([p.vec for p in report.directions])
    unit = bool(vecs.size) and bool(np.all(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)
                                           <= 1e-12))
    level0 = all(p.level == 0 and p.vec[-1] == 0.0 for p in report.directions)
    # A(u) = diag(1, -1, -2) + u I keeps every coordinate axis fixed, so each
    # axis is a rest point of the homogeneous projective flow.
    _, hom = report.details
    axes = hom.graph.sphere.box_of(np.eye(SYS3.n))
    members = np.concatenate(hom.components) if hom.components else np.empty(0)
    return _problems(
        (unit, "directions are missing or not unit vectors"),
        (level0, "a direction is not on the level at infinity"),
        (bool(np.all(np.isin(axes, members))),
         "an axis box lies in no homogeneous chain component"))


class SphereInfinity:
    """Boundary at infinity from chain components on the projective sphere."""

    def __init__(self, seed):
        self.seed = seed
        self.controls = np.linspace(-0.5, 0.5, 5)[:, None]

    def run(self, ops):
        report = ops.run("infinity_boundary_chain", lambda: ac.infinity_boundary_chain(
            ac.embed_system(SYS3), 24, self.controls, 0.1, pts_per_box=3,
            seed=self.seed), _infinity_check)
        big, hom = report.details
        summary = [len(report.directions), report.matches,
                   [c.size for c in big.components], [c.size for c in hom.components]]
        return summary, {}


WORKLOADS = {
    "saddle_grid": SaddleGrid,
    "floquet_path": FloquetPath,
    "sphere_infinity": SphereInfinity,
}

"""The package's export lists, and what importing the package loads.

Every name in a module's `__all__` resolves, and every name the package
re-exports from a module is listed in that module's `__all__`.  Every
dataclass of the package supports `==`, `in` and `hash`.
"""

import copy
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import affinecontrol

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(info.name for info in pkgutil.iter_modules(affinecontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"affinecontrol.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_are_listed():
    modules = [importlib.import_module(f"affinecontrol.{name}") for name in MODULES]
    unlisted = []
    for name in affinecontrol.__all__:
        value = getattr(affinecontrol, name)
        if isinstance(value, types.ModuleType):
            continue
        if not any(name in m.__all__ and getattr(m, name) is value for m in modules):
            unlisted.append(name)
    assert unlisted == []


FOOTPRINT = """
import sys
import numpy as np
import affinecontrol as ac

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

coupling = ac.AffineSystem([[0.0, 1.0], [1.0, 0.0]], [2.0 * np.eye(2)],
                           [[0.0], [1.0]], [0.0, 0.0], [-1.0], [1.0])
ac.hyperbolicity_scan(coupling, ac.ControlSampler(kind="mixed"), 20, 0)
pc = ac.PiecewiseControl
ac.continuation(coupling, ac.concat_path(pc.constant(-0.7), pc.constant(-0.4)), 21)
assert loaded("scipy") == [], loaded("scipy")
assert "affinecontrol.reach" not in sys.modules

ac.BoxGrid
assert "affinecontrol.reach" in sys.modules

names = {}
exec("from affinecontrol import *", names)
assert [n for n in ac.__all__ if n not in names] == []
assert loaded("scipy.stats") == [], loaded("scipy.stats")
"""


def test_import_footprint():
    # a fresh process: this one has imported every module already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def dataclass_instances():
    """One instance of each dataclass of the package, from small public calls."""
    ac = affinecontrol
    projective = importlib.import_module("affinecontrol.projective")
    coupling = ac.AffineSystem([[0.0, 1.0], [1.0, 0.0]], [2.0 * np.eye(2)],
                               [[0.0], [1.0]], [0.0, 0.0], [-1.0], [1.0])
    pc = ac.PiecewiseControl
    u = pc.from_segments([([0.3], 0.4), ([-0.9], 0.5)])
    path = ac.concat_path(pc.constant(-0.7), pc.constant(-0.4))
    result = ac.continuation(coupling, path, 21)
    monodromy, floquet = ac.floquet_of(coupling, u)
    grid = ac.BoxGrid([-2.0, -2.0], [2.0, 2.0], [4, 4])
    sphere = ac.SphereGrid(2, 3)
    sphere_graph = projective.build_sphere_graph(coupling.homogeneous(), sphere, [[0.0]], 0.1)
    report = ac.infinity_boundary_chain(ac.embed_system(coupling), 3, [[0.0]], 0.1)
    return [
        ac.DEFAULT_TOLERANCES, coupling, u, coupling.generators()[0],
        ac.simulate(coupling, u, [0.1, 0.2], 1.0),
        monodromy, floquet, ac.periodic_solution(coupling, u),
        ac.AffineFamily(np.zeros(2), np.eye(2)), ac.Obstructed(1.0),
        ac.ControlSampler(include=(u,)), ac.hyperbolicity_scan(coupling, ac.ControlSampler(), 5, 0),
        path, result.records[0], result.crossings[0], result,
        grid, ac.BoxSet(grid, [1, 2]),
        ac.build_transition_graph(coupling, grid, [[0.0]], 0.1, 2, 0),
        ac.infinity_boundary_directions(ac.BoxSet(grid, [0]), 1.0).directions[0],
        sphere, sphere_graph,
        projective.sphere_chain_components(sphere_graph), report,
    ]


def test_dataclasses_compare_and_hash():
    # a dataclass whose generated __eq__ compared ndarray fields raised on
    # ==, `in` and hash; those compare by identity now
    instances = dataclass_instances()
    package = [cls for name in MODULES
               for cls in vars(importlib.import_module(f"affinecontrol.{name}")).values()
               if dataclasses.is_dataclass(cls) and isinstance(cls, type)
               and cls.__module__ == f"affinecontrol.{name}"]
    assert {type(x) for x in instances} == set(package)
    for x in instances:
        twin = copy.copy(x)
        assert x == x and x in [twin, x] and hash(x) == hash(x) and x in {x}
        by_value = type(x).__dataclass_params__.eq or type(x).__eq__ is not object.__eq__
        assert (x == twin) is by_value and (twin in [x]) is by_value
        if by_value:
            assert hash(twin) == hash(x)

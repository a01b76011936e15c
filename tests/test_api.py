"""The package's export lists, and what importing the package loads.

Every name in a module's `__all__` resolves, and every name the package
re-exports from a module is listed in that module's `__all__`.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

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

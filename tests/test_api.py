"""The package's export lists.

Every name in a module's `__all__` resolves, and every name the package
re-exports from a module is listed in that module's `__all__`.
"""

import importlib
import pkgutil
import types

import pytest

import affinecontrol

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

"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import fracpoly

MODULES = ["fracpoly"] + [
    f"fracpoly.{info.name}" for info in pkgutil.iter_modules(fracpoly.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{module}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", [])) <= set(namespace)

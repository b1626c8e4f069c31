import importlib
import pkgutil

import pytest

import radsurf

MODULES = ["radsurf"] + [
    f"radsurf.{info.name}" for info in pkgutil.iter_modules(radsurf.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    assert not [name for name in exported if not hasattr(mod, name)]
    namespace = {}
    exec(f"from {modname} import *", namespace)
    assert set(exported) <= set(namespace)

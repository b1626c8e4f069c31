import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def _perfbench_tracing():
    """perfbench/tracing.py, loaded by file path (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_name_the_benchmark_pins_resolves():
    # the benchmark wraps these by name, so deleting or renaming one breaks
    # it; _targets() also reads the max_knots default of the table
    from radsurf import functionals
    from radsurf.certificates import CertificateReport

    tracing = _perfbench_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing._targets()
               if attr not in vars(owner)]
    assert not missing
    assert radsurf.BACKEND == "numpy"
    assert "quad" in vars(functionals)
    assert "grid_points" in {f.name for f in dataclasses.fields(CertificateReport)}
    assert tracing._potential_classes()
    with tracing.LayerPatch(tracing.Tracer()):
        pass

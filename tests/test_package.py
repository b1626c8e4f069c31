import ast
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


def _source_trees():
    """{module name: AST} for every module of the radsurf package."""
    src = Path(radsurf.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob("*.py"))}


def _all_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_unused_import():
    unused = []
    for modname, tree in _source_trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _all_names(tree)  # re-exports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{modname}: {a.asname or a.name.split('.')[0]}"
                           for a in node.names
                           if (a.asname or a.name.split(".")[0]) not in used]
    assert not unused


def test_no_unreferenced_private_helper():
    # a module-level _name that nothing in the package refers to is dead,
    # unless the benchmark wraps it by name
    trees = _source_trees()
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    pinned = {attr for _, attr, _, _ in _perfbench_tracing()._targets()}
    dead = [f"{modname}.{node.name}"
            for modname, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and node.name not in referenced | pinned]
    assert not dead

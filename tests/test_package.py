import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
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


def _perfbench(name):
    """perfbench/<name>.py, loaded by file path (perfbench is no package;
    importing its modules has no side effects)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_name_the_benchmark_pins_resolves():
    # the benchmark wraps these by name, so deleting or renaming one breaks
    # it; _targets() also reads the max_knots default of the table
    from radsurf import functionals
    from radsurf.certificates import CertificateReport

    tracing = _perfbench("tracing")
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


def test_the_benchmark_wrappers_read_what_facet_mc_returns(get_profile):
    # the tracer reads `_facet_values`' sampled flags (result[3]) and
    # samples_per_facet from its arguments, under both names that call it
    # (gp4 at d = 16 plans N_eff = 4 facets, which sample)
    tracing = _perfbench("tracing")
    tracer = tracing.Tracer()
    pr = get_profile("gp4", 16)
    with tracing.LayerPatch(tracer):
        radsurf.polytope_surface_mc(pr, radsurf.HyperRectangle(np.full(16, 1.5)),
                                    50, seed=1)
        assert tracer.counts["bodies._facet_values.samples"] == 50 * 32
        radsurf.expected_surface(pr, c_rho=1.0, trials=1,
                                 samples_per_facet=50, seed=2)
    assert tracer.counts["bodies._facet_values.samples"] > 50 * 32
    assert tracer.counts["construction.facets_evaluated"] > 0


def test_the_benchmark_fingerprints_every_result_type(get_profile):
    # the benchmark fingerprints each op's result and fails the run on a
    # field type it cannot read (a numpy scalar or a list, say)
    fingerprint = _perfbench("run").fingerprint
    pr = get_profile("gaussian", 16)
    box = radsurf.HyperRectangle(np.full(16, 1.5))
    results = [
        pr,
        radsurf.sphere_surface(pr, pr.t0),
        radsurf.polytope_surface_mc(pr, box, 100, seed=1),
        radsurf.minkowski_fd_surface(pr, box, 0.05, 1000, seed=2),
        radsurf.certificate_upper_bound(pr, box),
        radsurf.expected_surface(pr, c_rho=1.0, trials=2,
                                 samples_per_facet=100, seed=3),
    ]
    for result in results:
        assert isinstance(fingerprint(result), str), type(result).__name__


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


def _read_names(trees):
    """Every name the package reads: loaded names, attributes and the names
    imported from its own modules (a store, such as the assignment that
    defines a constant, is no read)."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_no_unreferenced_private_helper():
    # a module-level _name that nothing in the package refers to is dead,
    # unless the benchmark wraps it by name
    trees = _source_trees()
    referenced = _read_names(trees)
    pinned = {attr for _, attr, _, _ in _perfbench("tracing")._targets()}
    dead = [f"{modname}.{node.name}"
            for modname, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and node.name not in referenced | pinned]
    assert not dead


def test_no_unreferenced_private_constant():
    # a module-level _NAME = ... that nothing in the package reads is dead
    trees = _source_trees()
    read = _read_names(trees)
    dead = [f"{modname}.{target.id}"
            for modname, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name) and target.id.startswith("_")
            and not target.id.startswith("__") and target.id not in read]
    assert not dead


def test_no_potential_method_converts_its_argument():
    # potentials evaluate like numpy ufuncs: a float in is a float out, so
    # a method that wraps its argument in an array only to unwrap the
    # result again is a round trip on every scalar evaluation
    tree = _source_trees()["potential"]
    potentials = {"RadialPotential"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in potentials for b in node.bases):
            potentials.add(node.name)
    converts = []
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name in potentials):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            args = {a.arg for a in method.args.args[1:]}
            converts += [
                f"{node.name}.{method.name}"
                for call in ast.walk(method)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("asarray", "asanyarray", "array", "atleast_1d")
                and call.args and isinstance(call.args[0], ast.Name)
                and call.args[0].id in args
            ]
    assert len(potentials) > 5 and not converts


def _only_raises_not_implemented(func):
    """Whether a function's body, past its docstring, only raises
    NotImplementedError: an abstract method, whose parameters name the
    interface."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0].exc))


def test_no_unread_parameter():
    # every parameter of every function is read in its body (or in a
    # function nested in it): a parameter that nothing reads is a dead
    # input that its callers keep passing.  A method's receiver is exempt,
    # and so is a lambda, whose parameters the callback it stands for fixes
    unread = []
    for modname, tree in _source_trees().items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or _only_raises_not_implemented(func):
                continue
            a = func.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if id(func) in methods:
                params = params[1:]
            read = {n.id for stmt in func.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{modname}.{func.name}({p})" for p in params
                       if p not in read]
    assert not unread

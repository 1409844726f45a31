"""The benchmark harness under ``perfbench/`` still resolves.

``perfbench/child.py`` wraps treelevel functions by name with
``tr.install(name, owner, attr)``, some of them in a loop over function
names, and ``perfbench/workloads.py`` imports treelevel names at the
top.  A rename in treelevel would break only the benchmark runs, so
this reads the install calls with ``ast``, without running the harness,
and checks that each target exists and that the workloads import.
"""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def install_targets():
    """``(owner, attr)`` source pairs of every ``tr.install`` call in
    ``install_probes``, a loop variable read as each name it takes."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "install_probes")
    loops = {node.target.id: ast.literal_eval(node.iter)
             for node in ast.walk(func)
             if isinstance(node, ast.For)
             and isinstance(node.target, ast.Name)}
    targets = []
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "install"):
            owner, attr = node.args[1], node.args[2]
            names = ([attr.value] if isinstance(attr, ast.Constant)
                     else loops[attr.id])
            targets += [(ast.unparse(owner), name) for name in names]
    return targets


def test_every_probe_target_exists():
    targets = install_targets()
    assert ("linalg", "smith_normal_form") in targets
    assert ("divrel", "rho_divisor_enumeration") in targets
    for owner, attr in targets:
        module, *rest = owner.split(".")
        obj = importlib.import_module("treelevel." + module)
        for part in rest:
            obj = getattr(obj, part)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"


def test_workloads_import():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"enumerate", "degenerate", "cones",
                                        "calculus"}

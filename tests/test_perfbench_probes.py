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


def load(name):
    """A module of ``perfbench/`` by file name, without running the harness."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import():
    workloads = load("workloads")
    assert set(workloads.WORKLOADS) == {"enumerate", "degenerate", "cones",
                                        "calculus"}


# Term pairs that series._accumulate multiplies in one calculus body at
# seed 1: 109772 with a contraction memo per tensor evaluation, 59164
# with one memo per public call.  The bound leaves room for small changes
# of the calculus but not for losing the shared memo.
CALCULUS_TERM_PAIRS_MAX = 70000


def test_calculus_work_count(monkeypatch):
    from treelevel import cohft, series

    kernel = series._accumulate
    pairs = [0]

    def counted(acc, ring, a, b, num=1, den=1):
        pairs[0] += len(a.coeffs) * len(b.coeffs)
        kernel(acc, ring, a, b, num, den)

    monkeypatch.setattr(series, "_accumulate", counted)
    monkeypatch.setattr(cohft, "_accumulate", counted)
    workload = load("workloads").Calculus(1)
    workload.body(load("spans").NullTracer())
    assert 0 < pairs[0] <= CALCULUS_TERM_PAIRS_MAX

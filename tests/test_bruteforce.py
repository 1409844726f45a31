"""The rooted tree shapes behind the brute-force oracle, checked against
OEIS counts, and the oracle's independence from third-party packages."""

import os
import subprocess
import sys

import pytest

import treelevel
from treelevel.bruteforce import _rooted_shapes

# unlabelled rooted trees, and free trees, on v = 1, 2, ... vertices
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
A000055 = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def neighbours(parents):
    adj = [[] for _ in parents]
    for x, p in enumerate(parents):
        if p is not None:
            adj[x].append(p)
            adj[p].append(x)
    return adj


def ahu_code(adj, x, above=None):
    """The sorted tuple of the codes of the children of ``x``, taking the
    tree as hanging from ``x`` with ``above`` its parent: equal codes
    exactly for isomorphic rooted trees."""
    return tuple(sorted(ahu_code(adj, y, x) for y in adj[x] if y != above))


@pytest.mark.parametrize("v", range(1, len(A000081) + 1))
def test_every_shape_once(v):
    shapes = list(_rooted_shapes(v))
    for parents in shapes:
        assert len(parents) == v and parents[0] is None
        assert all(parents[x] is not None and parents[x] < x
                   for x in range(1, v)), parents
    adjs = [neighbours(parents) for parents in shapes]
    # pairwise distinct, and as many as there are classes: every class
    rooted = {ahu_code(adj, 0) for adj in adjs}
    assert len(rooted) == len(shapes) == A000081[v - 1]
    free = {min(ahu_code(adj, r) for r in range(v)) for adj in adjs}
    assert len(free) == A000055[v - 1]


def test_runs_without_site_packages():
    # -S leaves site-packages off sys.path: no third-party package imports
    code = ("from treelevel.bruteforce import brute_force_strata\n"
            "from treelevel.strata import MULT\n"
            "print(len(brute_force_strata(MULT(4))))\n")
    src = os.path.dirname(os.path.dirname(treelevel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 170

"""``linalg.smith_normal_form`` against a frozen copy of its dense form.

Each row step of the routine touches only the columns where the pivot
row is nonzero.  ``dense_smith_normal_form`` below is the routine as it
was before that change, with every row rebuilt in full; on seeded
random integer matrices the two must return the same ``(D, V)``, entry
for entry, so every pivot choice and every step on V is the same.
"""

import random

from treelevel.linalg import smith_normal_form


def dense_smith_normal_form(mat):
    """The reference: returns (D, V) with U*mat*V = D, rebuilding each
    row in full on every row step."""
    a = [list(map(int, row)) for row in mat]
    r = len(a)
    c = len(a[0]) if r else 0
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    def reduce_from(t):
        # pivot on a smallest nonzero entry of the trailing block and
        # clear its row and column, until the block is diagonal
        while t < min(r, c):
            # the first smallest in row-major order; V depends on it
            pivots = [(abs(a[i][j]), i, j) for i in range(t, r)
                      for j in range(t, c) if a[i][j]]
            if not pivots:
                return
            _, i, j = min(pivots)
            a[t], a[i] = a[i], a[t]
            for row in a + V:
                row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            top = a[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    f = -(a[i][t] // p)
                    a[i] = [x + f * y for x, y in zip(a[i], top)]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, c):
                if top[j] != 0:
                    add_col(t, j, -(top[j] // p))
                    if top[j] != 0:
                        dirty = True
            if not dirty:
                t += 1

    reduce_from(0)
    # enforce the divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(r, c) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di and dj and dj % di != 0:
                add_col(i + 1, i, 1)
                reduce_from(i)
                changed = True
                break
    return a, V


def random_matrix(rng):
    """Up to 6 x 7 integer entries, sparse or dense, small or wide."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    fill, size = rng.random(), rng.choice((1, 3, 12))
    return [[rng.randint(-size, size) if rng.random() < fill else 0
             for _ in range(cols)] for _ in range(rows)]


def test_matches_the_dense_routine_on_random_matrices():
    rng = random.Random(2302)
    mats = [random_matrix(rng) for _ in range(20000)]
    assert [m for m in mats
            if smith_normal_form(m) != dense_smith_normal_form(m)] == []
    # not only unit diagonals
    diagonals = [[d[i][i] for i in range(min(len(d), len(d[0])))]
                 for d, _ in map(smith_normal_form, mats)]
    assert sum(any(x > 1 for x in diag) for diag in diagonals) > 1000


def test_relation_rows_of_a_star_match():
    # the shape MAX_CONE_EDGES is set by: colored leaves under one
    # infinite vertex, one row e_i - e_0 per leaf but the first
    rows = [[-1] + [int(j == i) for j in range(1, 40)] for i in range(1, 40)]
    assert smith_normal_form(rows) == dense_smith_normal_form(rows)

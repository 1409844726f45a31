"""The full check that ``graphs.validate`` ran before it became one walk,
kept verbatim as the reference its problem lists must equal.

:func:`reference` returns, for any graph, the list of problems in the
order and wording of that check.  It shares no validation code with
``treelevel.graphs``: only the graph's own ``adjacency`` and
``components`` are used.
"""

from treelevel.graphs import COLORED_KINDS, ROOTED_KINDS, Color, Kind


def _check_references(g, problems):
    vset = set(g.vertex_ids)
    for i, (a, b) in enumerate(g.edges):
        if a not in vset or b not in vset:
            problems.append(f"edge {i} references unknown vertex")
    for l, v in g.legs.items():
        if v not in vset:
            problems.append(f"leg {l} attached to unknown vertex {v}")
        if l < 0:
            problems.append(f"leg label {l} is negative")
    if g.root is not None and g.root not in vset:
        problems.append(f"root {g.root} is not a vertex")


def _parents(adj, top):
    """The parent of each vertex of a tree component hung from ``top``;
    ``top`` itself maps to None.  Walks the component of ``top`` once."""
    parents = {top: None}
    stack = [top]
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in parents:
                parents[x] = w
                stack.append(x)
    return parents


def _path_up(parents, v):
    """Vertices on the path from ``v`` up to the top of ``parents``, both
    included; KeyError when ``v`` is not below that top."""
    path = [v]
    up = parents[v]
    while up is not None:
        path.append(up)
        up = parents[up]
    return path


def _monotone_path_problems(g, leg, parents, problems):
    """Check the color pattern on the path from ``leg``'s vertex up to
    the top of ``parents``.

    Exactly one colored vertex; zero scaling strictly before it and
    infinite scaling strictly after it.
    """
    try:
        path = _path_up(parents, g.legs[leg])
    except KeyError:
        problems.append(f"leg {leg} disconnected from the root side")
        return
    colors = [g.color[v] for v in path]
    hits = [i for i, c in enumerate(colors) if c is Color.COLORED]
    if len(hits) != 1:
        problems.append(
            f"path from leg {leg} crosses {len(hits)} colored vertices")
        return
    p = hits[0]
    for i, c in enumerate(colors):
        if i < p and c is not Color.ZERO:
            problems.append(
                f"vertex {path[i]} on the leg-{leg} side must have zero scaling")
        if i > p and c is not Color.INFINITY:
            problems.append(
                f"vertex {path[i]} on the root side must have infinite scaling")


def _component_edge_rule(g, comp, problems, allowed_zero_infty=()):
    """No zero-infinity and no colored-colored edges inside a component."""
    comp = set(comp)
    for i, (a, b) in enumerate(g.edges):
        if a not in comp:
            continue
        ca, cb = g.color[a], g.color[b]
        if ((ca is Color.ZERO and cb is Color.INFINITY
             or ca is Color.INFINITY and cb is Color.ZERO)
                and (a, b) not in allowed_zero_infty):
            problems.append(f"edge {i} joins zero and infinite scaling")
        if ca is Color.COLORED and cb is Color.COLORED:
            problems.append(f"edge {i} joins two colored vertices")


def _uniform_zero_or_infinite(g, comp):
    """Whether the vertices of ``comp`` all have zero scaling or all
    infinite scaling."""
    first = g.color[comp[0]]
    return (first is not Color.COLORED
            and all(g.color[v] is first for v in comp))


def _is_forest(g, comps):
    """True when there are no loops, parallel edges or cycles;
    ``comps`` are the graph's :meth:`components`."""
    # a forest has #vertices - #components edges; components ignore
    # loops, so a loop, a parallel edge or a cycle leaves more
    return len(g.edges) == len(g.vertex_ids) - len(comps)


def reference(g):
    """The full check: every problem of ``g``, with the colored kinds'
    paths walked leg by leg."""
    problems = []
    _check_references(g, problems)
    if problems:
        return problems

    labels = sorted(g.legs)
    if g.kind is Kind.COLORED_TREE:
        if 0 not in labels:
            problems.append("colored tree is missing the root leg 0")
        if g.root is not None:
            problems.append("colored trees carry leg 0, not a root vertex")
    else:
        if 0 in labels:
            problems.append("leg 0 is reserved for the colored-tree kind")
        if g.kind in ROOTED_KINDS:
            if g.root is None:
                problems.append("rooted kind needs a root vertex")
        elif g.root is not None:
            problems.append("only rooted kinds carry a root vertex")

    # every kind is a forest; one adjacency and one list of components
    # serve every check below
    adj = g.adjacency()
    comps = g.components(adj)
    if not _is_forest(g, comps):
        problems.append("tree kinds must be loop-free, multi-edge-free forests")
        return problems
    if problems or g.kind not in COLORED_KINDS:
        return problems

    if g.kind is Kind.COLORED_TREE:
        v0 = g.legs[0]
        for comp in comps:
            if v0 in comp:
                if g.color[v0] is Color.ZERO:
                    problems.append("leg 0 sits on a zero-scaling vertex")
                parents = _parents(adj, v0)
                for l in g.legs:
                    if l != 0 and g.legs[l] in comp:
                        _monotone_path_problems(g, l, parents, problems)
                _component_edge_rule(g, comp, problems)
            elif not _uniform_zero_or_infinite(g, comp):
                problems.append(
                    f"component {comp} away from leg 0 must be uniformly "
                    "zero or infinite scaling")
        return problems

    # rooted colored tree
    r = g.root
    rc = g.color[r]
    if rc is Color.ZERO:
        problems.append("root vertex must be colored or infinite scaling")
        return problems
    for comp in comps:
        if r not in comp:
            if not _uniform_zero_or_infinite(g, comp):
                problems.append(
                    f"component {comp} away from the root must be uniformly "
                    "zero or infinite scaling")
            continue
        if rc is Color.COLORED:
            for v in comp:
                if v != r and g.color[v] is not Color.ZERO:
                    problems.append(
                        f"vertex {v}: with a colored root all other vertices "
                        "have zero scaling")
        else:
            # root at infinite scaling: each subtree off the root is a
            # colored tree with the attaching edge as its leg 0, or a
            # zero-only tree
            allowed = set()
            parents = _parents(adj, r)
            for w in set(adj[r]):
                sub = _subtree_vertices(r, w, adj)
                if all(g.color[v] is Color.ZERO for v in sub):
                    allowed.add((min(r, w), max(r, w)))
                    continue
                for l, lv in g.legs.items():
                    if lv in sub:
                        _monotone_path_problems(g, l, parents, problems)
            for l, lv in g.legs.items():
                if lv == r:
                    problems.append(
                        f"leg {l} sits on the infinite-scaling root")
            _component_edge_rule(g, comp, problems, allowed_zero_infty=allowed)
    return problems


def _subtree_vertices(root, child, adj):
    """Vertices of the subtree containing ``child`` once ``root`` is removed."""
    seen = {root, child}
    stack = [child]
    while stack:
        w = stack.pop()
        for x in adj[w]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    seen.discard(root)
    return seen

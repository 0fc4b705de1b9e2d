"""Permanents of 0/1 matrices as subtree counts between two trees.

For an n x n 0/1 matrix the gadget tree has one spine path per column
(one spine cell per row), a pendant marker hanging off cell (i, j) for
each 1 entry, a top connector above each spine, a degree-4 hub below it
with three hub leaves, and a root adjacent to all top connectors. For
n >= 5 the root is the unique vertex of degree n and the hubs are exactly
the degree-4 vertices, which pins any embedding of the identity gadget
onto column structure; the number of subtrees of the matrix gadget
isomorphic to the identity gadget then equals the permanent.

Embedding counts between trees take two passes over the pattern rooted
at vertex 0: parents first, collect the (image, parent's image) states
each vertex can take; children first, count each state's maps, its
children going injectively into distinct neighbors of the image other
than the parent's image, combined by subset dynamic programming. On trees
every such locally injective map is globally injective, so this counts
embeddings. Subtree counts divide out the pattern's automorphisms, which
are counted through rooted shapes at the tree's center.

Each public function runs ``check_tree`` once per tree it is given (the
gadget builder on the tree it builds); the private passes behind them
trust their input.
"""

from .errors import HomlatticeError, ParseError, TreeError, _decimal
from .graphs import Graph, _Value, breadth_first, connected_components
from .oracle import _check_matrix, permanent_ryser


def check_tree(graph):
    if graph.n == 0:
        raise TreeError("empty graph is not a tree")
    if not graph.is_loop_free():
        raise TreeError("tree must be loop-free")
    if graph.m != graph.n - 1:
        raise TreeError(f"tree needs {graph.n - 1} edges, found {graph.m}")
    count, _ = connected_components(graph)
    if count != 1:
        raise TreeError("graph is disconnected")


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def parse_matrix(text):
    """Matrix file: first line n, then n rows of n space-separated 0/1."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("empty matrix file")
    n = _decimal(lines[0])
    if n is None:
        raise ParseError(f"bad dimension line: {lines[0]!r}")
    if n < 1:
        raise ParseError("matrix dimension must be positive")
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}")
    matrix = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries in row: {line!r}")
        row = []
        for part in parts:
            if part not in ("0", "1"):
                raise ParseError(f"matrix entries must be 0 or 1: {part!r}")
            row.append(int(part))
        matrix.append(row)
    return matrix


class GadgetTree(_Value):
    """The gadget with a role tag per vertex.

    Roles: ("root",), ("top", j), ("spine", i, j), ("pendant", i, j),
    ("hub", j), ("hub_leaf", j, t) with 1-based i, j.
    """

    __slots__ = _fields = ("graph", "roles", "size")

    def __init__(self, graph, roles, size):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "size", size)

    def vertices_with_role(self, tag):
        return [v for v, role in enumerate(self.roles) if role[0] == tag]


def build_gadget(matrix):
    """Gadget tree of a square 0/1 matrix; any n >= 1 builds."""
    n = _check_matrix(matrix)
    if n == 0:
        raise HomlatticeError("matrix must be nonempty")
    roles = []
    edges = []

    def add(role):
        roles.append(role)
        return len(roles) - 1

    root = add(("root",))
    for j in range(1, n + 1):
        top = add(("top", j))
        edges.append((root, top))
        prev = top
        for i in range(1, n + 1):
            cell = add(("spine", i, j))
            edges.append((prev, cell))
            prev = cell
            if matrix[i - 1][j - 1] == 1:
                pend = add(("pendant", i, j))
                edges.append((cell, pend))
        hub = add(("hub", j))
        edges.append((prev, hub))
        for t in range(3):
            leaf = add(("hub_leaf", j, t))
            edges.append((hub, leaf))
    graph = Graph(len(roles), edges)
    check_tree(graph)
    return GadgetTree(graph, tuple(roles), n)


def _rooted_aut(tree, root):
    """Automorphism count of the tree rooted at root, from AHU shapes."""
    order, parent = breadth_first(tree, root)
    interned = {}
    aut = {}
    shape = {}
    for v in reversed(order):
        total = 1
        by_shape = {}
        for w in tree.neighbors(v):
            if w != parent[v]:
                total *= aut[w]
                by_shape[shape[w]] = by_shape.get(shape[w], 0) + 1
        for mult in by_shape.values():
            for x in range(2, mult + 1):
                total *= x
        aut[v] = total
        shape[v] = interned.setdefault(tuple(sorted(by_shape.items())),
                                       len(interned))
    return aut[root]


def tree_center(tree):
    """The one or two middle vertices of a longest path. A walk from 0
    ends at a vertex farthest from it, which ends a longest path, and a
    walk from that vertex ends at the path's other end."""
    check_tree(tree)
    return _center(tree)


def _center(tree):
    far = breadth_first(tree, 0)[0][-1]
    order, parent = breadth_first(tree, far)
    path = [order[-1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    k = len(path)
    return tuple(sorted(path[(k - 1) // 2:k // 2 + 1]))


def tree_automorphism_count(tree):
    """Exact automorphism count of a tree of any size.

    Automorphisms preserve the center, so they are the rooted
    automorphisms there. A center edge is first subdivided by a new
    vertex, which becomes the single center; the automorphisms that swap
    the edge's halves are the rooted ones that swap its two branches.
    """
    check_tree(tree)
    return _automorphisms(tree)


def _automorphisms(tree):
    center = _center(tree)
    root = center[0]
    if len(center) == 2:
        root = tree.n
        edges = [e for e in tree.edges if e != center]
        tree = Graph(root + 1, edges + [(center[0], root), (root, center[1])])
    return _rooted_aut(tree, root)


def count_tree_embeddings(pattern, host):
    """Number of injective edge-preserving maps between two trees."""
    check_tree(pattern)
    check_tree(host)
    return _embeddings(pattern, host)


def _embeddings(pattern, host):
    """States (image of v, image of v's parent) exist only for pattern
    vertices v with children: a leaf fits on any free neighbour of its
    parent's image. The parent's image, when there is one, neighbours the
    image, so v's image has one free neighbour fewer than its degree. A
    child's counts are dropped once its parent has read them."""
    if pattern.n > host.n:
        return 0
    if pattern.n == 1:
        return host.n
    order, parent = breadth_first(pattern, 0)
    children = [[] for _ in order]
    for v in order[1:]:
        children[parent[v]].append(v)
    inner = [v for v in order if children[v]]
    reach = {v: set() for v in inner}
    reach[0].update((t, None) for t in range(host.n))
    for v in inner:
        kids = [kid for kid in children[v] if children[kid]]
        for target, avoid in reach[v]:
            if host.degree(target) - (avoid is not None) >= len(children[v]):
                for kid in kids:
                    reach[kid].update((t, target)
                                      for t in host.neighbors(target)
                                      if t != avoid)
    counts = {}
    for v in reversed(inner):
        tables = [counts.pop(kid) if children[kid] else None
                  for kid in children[v]]
        found = counts[v] = {}
        for state in reach.pop(v):
            target, avoid = state
            free = [t for t in host.neighbors(target) if t != avoid]
            if len(free) < len(tables):
                continue
            ways = {0: 1}
            for table in tables:
                grown = {}
                for mask, weight in ways.items():
                    for idx, t in enumerate(free):
                        if mask >> idx & 1:
                            continue
                        sub = 1 if table is None else table.get((t, target))
                        if sub:
                            new = mask | 1 << idx
                            grown[new] = grown.get(new, 0) + weight * sub
                ways = grown
                if not ways:
                    break
            if ways:
                found[state] = sum(ways.values())
    return sum(counts[0].values())


def count_subtrees(pattern, host):
    """Number of subtrees of the host isomorphic to the pattern tree."""
    check_tree(pattern)
    check_tree(host)
    return _subtrees(pattern, host)


def _subtrees(pattern, host):
    emb = _embeddings(pattern, host)
    aut = _automorphisms(pattern)
    if emb % aut != 0:
        raise AssertionError("embedding count not divisible by automorphisms")
    return emb // aut


class PermanentCheck(_Value):
    __slots__ = _fields = ("permanent", "subtree_count")

    def __init__(self, permanent, subtree_count):
        object.__setattr__(self, "permanent", permanent)
        object.__setattr__(self, "subtree_count", subtree_count)

    @property
    def match(self):
        return self.permanent == self.subtree_count


def verify_permanent_identity(matrix):
    """Compare the permanent against the gadget subtree count; n >= 5.

    Below n = 5 the root degree no longer dominates the gadget's degree
    profile, so the identity is not claimed there.
    """
    n = len(matrix)
    if n < 5:
        raise HomlatticeError("permanent identity requires n >= 5")
    perm = permanent_ryser(matrix)
    pattern = build_gadget(identity_matrix(n)).graph
    host = build_gadget(matrix).graph
    return PermanentCheck(perm, _subtrees(pattern, host))

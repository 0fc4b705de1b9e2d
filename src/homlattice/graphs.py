"""Graph values and the small-graph toolkit used across the package.

A graph is its vertex count and edge set: vertices are 0..n-1, edges are
sorted pairs with duplicates collapsed. It is stored as adjacency only, a
neighbour frozenset per vertex plus the looped vertices, built in one
pass over the edges; the edge set is derived on first use, and counting,
expansion and canonical search never ask for it. ``selfloops_allowed=True``
only lets the constructor accept selfloops and is not stored, so it
changes no equality. Quotients of loop-free graphs carry a selfloop
whenever an edge is contracted into a block.

Canonical forms are exact: the key of a graph is the lexicographically
minimal adjacency-matrix bit string over all vertex relabelings, with the
diagonal carrying selfloop bits. Two graphs get equal keys exactly when
they are isomorphic. The search for it skips a vertex while a lower twin
(same loop bit, same neighbours apart from each other) is still
unplaced, since swapping twins is an automorphism, so the search on
cliques, stars and bicliques no longer grows factorially.

The search also counts automorphisms: |Aut| is the number of leaves tied
with the minimal key times |C|! per twin class C. Twinship is an
equivalence, every class is a clique or an independent set with one
outside neighbourhood (so permuting it is an automorphism), and the
pruning keeps one leaf per coset of that within-class group.
"""

import math
from operator import index

from .errors import PartitionError, ensure_pattern_size


class _Value:
    """Frozen value object. A subclass names its fields in ``_fields`` and
    stores them in ``__init__`` with ``object.__setattr__``; equality,
    hashing, repr and pickling go through the field tuple."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(_Value):
    """An undirected graph on vertices 0..n-1; its value is n and edges.

    Only the adjacency is stored: a frozenset of neighbours per vertex and
    the set of looped vertices, each built once from the edge list, with
    the edge count and the hash. The edge set is derived from them on
    first use and kept (see ``edges``); equality and hashing compare the
    adjacency, which determines it. Graphs take weak references, so the
    hom-count memo can hold hosts without keeping them alive.
    """

    __slots__ = ("n", "m", "_adj", "_loops", "_edges", "_hash",
                 "__weakref__")
    _fields = ("n", "edges")

    def __init__(self, n, edges=(), selfloops_allowed=False):
        n = index(n)  # an int or integer-like; 2.7 raises TypeError
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        # Neighbours gather in dicts, not lists: a frozenset made from a
        # dict is sized once for its final count, while one made from a
        # list grows as it fills and can keep twice the table.
        adj = [{} for _ in range(n)]
        loops = []
        for u, v in edges:
            u, v = index(u), index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                if not selfloops_allowed:
                    raise ValueError(f"selfloop at {u} in a loop-free graph")
                loops.append(u)
            else:
                adj[u][v] = adj[v][u] = None
        adj = tuple(map(frozenset, adj))
        loops = frozenset(loops)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", sum(map(len, adj)) // 2 + len(loops))
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_loops", loops)
        # Hashed here, in set-up, so a host's first query does not pay it.
        object.__setattr__(self, "_hash", hash((n, adj, loops)))

    @property
    def edges(self):
        """Frozenset of sorted pairs (u, v), u < v, and (v, v) per selfloop,
        derived from the adjacency on first use and kept."""
        try:
            return self._edges
        except AttributeError:
            edges = frozenset(self._pairs())
            object.__setattr__(self, "_edges", edges)
            return edges

    def _pairs(self):
        """The edges as a list: (u, v) with u < v, then (v, v) per
        selfloop."""
        pairs = [(u, v) for u, vs in enumerate(self._adj) for v in vs if u < v]
        pairs += [(v, v) for v in self._loops]
        return pairs

    def neighbors(self, v):
        """Non-loop neighbors of v."""
        return self._adj[v]

    def loops(self):
        """Vertices carrying a selfloop."""
        return self._loops

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        if u == v:
            return u in self._loops
        return v in self._adj[u]

    def is_loop_free(self):
        return not self._loops

    def edge_list(self):
        return sorted(self.edges)

    def adjacency_masks(self):
        """Per-vertex neighbor bitmasks and the loop bitmask."""
        masks = []
        for vs in self._adj:
            mask = 0
            for v in vs:
                mask |= 1 << v
            masks.append(mask)
        loop_mask = 0
        for v in self._loops:
            loop_mask |= 1 << v
        return masks, loop_mask

    def relabeled(self, perm):
        """Return a copy with old vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on the vertex set")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self._pairs()],
                     selfloops_allowed=True)

    def induced(self, vertices):
        """Subgraph induced on the given vertices, relabeled to 0..k-1."""
        verts = sorted(set(vertices))
        if verts and not (0 <= verts[0] and verts[-1] < self.n):
            raise ValueError("vertex out of range")
        index = {v: i for i, v in enumerate(verts)}
        edges = [(index[u], index[v]) for u, v in self._pairs()
                 if u in index and v in index]
        return Graph(len(verts), edges, selfloops_allowed=True)

    def __eq__(self, other):
        # No field tuples: plans and the hom memo compare terms per query.
        if other is self:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self._adj == other._adj
                and self._loops == other._loops)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # The flag readmits a quotient's selfloops; a copy rehashes itself.
        # The edges go out uncached, so a copied host keeps no edge set.
        return Graph, (self.n, self._pairs(), True)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_list()})"


class VertexPartition(_Value):
    """A partition of 0..n-1 into disjoint nonempty blocks.

    Blocks are stored sorted by their minimum element; block_of maps each
    vertex to the index of its block.
    """

    __slots__ = _fields = ("blocks", "block_of")

    def __init__(self, blocks, block_of):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_of", block_of)

    @staticmethod
    def from_blocks(blocks):
        norm = []
        seen = set()
        total = 0
        for block in blocks:
            fs = frozenset(int(v) for v in block)
            if not fs:
                raise PartitionError("empty block in partition")
            if fs & seen:
                raise PartitionError("blocks are not disjoint")
            seen |= fs
            total += len(fs)
            norm.append(fs)
        if seen != set(range(total)):
            raise PartitionError("blocks do not cover 0..n-1 exactly")
        norm.sort(key=min)
        block_of = [0] * total
        for i, fs in enumerate(norm):
            for v in fs:
                block_of[v] = i
        return VertexPartition(tuple(norm), tuple(block_of))

    @staticmethod
    def from_labels(labels):
        """Build from a per-vertex block labeling such as a growth string."""
        groups = {}
        for v, lab in enumerate(labels):
            groups.setdefault(lab, []).append(v)
        return VertexPartition.from_blocks(groups.values())

    @staticmethod
    def singletons(n):
        return VertexPartition.from_blocks([{v} for v in range(n)])

    @property
    def n(self):
        return len(self.block_of)

    def num_blocks(self):
        return len(self.blocks)

    def key(self):
        """Deterministic sort key: blocks as sorted tuples."""
        return tuple(tuple(sorted(b)) for b in self.blocks)


def quotient(graph, partition):
    """Contract each block of the partition to a single vertex.

    Parallel edges collapse; an edge inside a block becomes a selfloop on
    the block's vertex.
    """
    if not isinstance(partition, VertexPartition):
        partition = VertexPartition.from_blocks(partition)
    if partition.n != graph.n:
        raise PartitionError(
            f"partition covers {partition.n} vertices, graph has {graph.n}")
    block_of = partition.block_of
    # A set, so parallel images reach the constructor once.
    edges = {(block_of[u], block_of[v]) for u, vs in enumerate(graph._adj)
             for v in vs if u < v}
    if graph._loops:  # never for the loop-free patterns that expand contracts
        edges.update([(block_of[v], block_of[v]) for v in graph._loops])
    return Graph(partition.num_blocks(), edges, selfloops_allowed=True)


def breadth_first(graph, root):
    """Breadth-first order of root's component and the parent of each of
    its vertices (None for root). Neighbours are visited in ascending
    order, so the walk depends only on the graph's value."""
    if not (0 <= root < graph.n):
        raise ValueError(f"vertex {root} out of range")
    order = [root]
    parent = {root: None}
    for v in order:
        for w in sorted(graph.neighbors(v)):
            if w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent


def bfs_distances(graph, source):
    """Distances from source; unreachable vertices get math.inf."""
    order, parent = breadth_first(graph, source)
    dist = [math.inf] * graph.n
    dist[source] = 0
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return dist


def connected_components(graph):
    """Number of components and a per-vertex component labeling."""
    labels = [-1] * graph.n
    count = 0
    for start in range(graph.n):
        if labels[start] == -1:
            for v in breadth_first(graph, start)[0]:
                labels[v] = count
            count += 1
    return count, labels


def _canonical_search(graph):
    """Minimal adjacency bit string over all relabelings, a witness, and
    the order of the automorphism group.

    Bits are compared position by position: placing a vertex at position k
    contributes the chunk (loop bit, adjacency bits to positions 0..k-1).
    Branch and bound: a partial placement is abandoned as soon as its chunk
    prefix exceeds the best complete key found so far. Candidates are tried
    in ascending chunk order, so the greedy first descent seeds the bound.

    Twins are pruned: u < v are twins when they carry the same loop bit and
    the same neighbours apart from each other, so swapping them is an
    automorphism that fixes every other vertex. While both are unplaced
    they get equal chunks and root mirror-image subtrees, and u's is
    searched first, so v is skipped. The key and the witness are the ones
    the unpruned search finds.

    Only strictly greater prefixes are cut, so every leaf tied with the
    minimal key is visited; unpruned there are |Aut| of them. The group
    order is the tied leaves times |C|! per twin class C, exactly, since
    twinship is an equivalence (no vertex has both a true and a false
    twin), every class is a clique or an independent set with one outside
    neighbourhood (so permuting it is an automorphism), and the pruning
    places each class in ascending order, one leaf per coset of that
    within-class group. The i-th member of a class has i - 1 lower twins.
    """
    n = graph.n
    masks, loop_mask = graph.adjacency_masks()
    lower_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if ((loop_mask >> u) & 1 == (loop_mask >> v) & 1
                    and masks[u] & ~(1 << v) == masks[v] & ~(1 << u)):
                lower_twins[v] |= 1 << u
    best_key = None
    best_perm = None
    ties = 0
    placed = []
    chunks = []

    def extend(depth, free):
        nonlocal best_key, best_perm, ties
        if depth == n:
            key = tuple(chunks)
            if best_key is None or key < best_key:
                best_key = key
                best_perm = list(placed)
                ties = 0
            ties += 1  # the bound keeps every leaf at or below best_key
            return
        options = []
        for v in range(n):
            if not (free >> v) & 1 or lower_twins[v] & free:
                continue
            chunk = (loop_mask >> v) & 1
            for u in placed:
                chunk = (chunk << 1) | ((masks[v] >> u) & 1)
            options.append((chunk, v))
        options.sort()
        for chunk, v in options:
            if best_key is not None:
                prefix = tuple(chunks) + (chunk,)
                if prefix > best_key[:depth + 1]:
                    break
            placed.append(v)
            chunks.append(chunk)
            extend(depth + 1, free ^ (1 << v))
            placed.pop()
            chunks.pop()

    extend(0, (1 << n) - 1)
    del extend  # the closure refers to itself
    aut = ties * math.prod(t.bit_count() + 1 for t in lower_twins)
    return (n,) + best_key, best_perm, aut


def canonical_form(graph, limit=None):
    """Deterministic key equal across graphs exactly when isomorphic."""
    ensure_pattern_size(graph.n, limit)
    key, _, _ = _canonical_search(graph)
    return key


def _placed(graph, perm):
    """The relabeling of the graph that moves perm[i] to vertex i."""
    relabel = [0] * graph.n
    for pos, old in enumerate(perm):
        relabel[old] = pos
    return graph.relabeled(relabel)


def _canonical(graph, seen=()):
    """Canonical key and the relabeling of the graph realizing it, from
    one canonical search. The relabeling is None when the key is already
    in ``seen``, whose representative the caller holds."""
    key, perm, _ = _canonical_search(graph)
    if key in seen:
        return key, None
    return key, _placed(graph, perm)


def canonical_representative(graph, limit=None):
    """Relabeling of the graph realizing its canonical key."""
    ensure_pattern_size(graph.n, limit)
    return _canonical(graph)[1]


def is_isomorphic(a, b, limit=None):
    if a.n != b.n or a.m != b.m or len(a.loops()) != len(b.loops()):
        return False
    return canonical_form(a, limit) == canonical_form(b, limit)


def count_automorphisms(graph, limit=None):
    """Number of edge- and loop-preserving bijections of the graph, read
    off the canonical search (see ``_canonical_search``)."""
    ensure_pattern_size(graph.n, limit)
    _, _, aut = _canonical_search(graph)
    return aut


def path(k):
    """Path on k vertices."""
    if k < 1:
        raise ValueError("path needs k >= 1")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k):
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def clique(k):
    if k < 1:
        raise ValueError("clique needs k >= 1")
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def edgeless(k):
    if k < 0:
        raise ValueError("edgeless needs k >= 0")
    return Graph(k)


def biclique(k):
    """Complete bipartite graph with k vertices per side."""
    if k < 1:
        raise ValueError("biclique needs k >= 1")
    return Graph(2 * k, [(i, k + j) for i in range(k) for j in range(k)])


def star(k):
    """A center (vertex 0) with k pendant leaves."""
    if k < 1:
        raise ValueError("star needs k >= 1")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def windmill_parts(k):
    """Vertex roles of windmill(k): (apex, inner blades, outer blades)."""
    apex = 0
    inner = list(range(1, k + 1))
    outer = list(range(k + 1, 2 * k + 1))
    return apex, inner, outer


def windmill(k):
    """k triangles sharing one apex vertex.

    Blade i is the triangle apex - inner_i - outer_i.
    """
    if k < 1:
        raise ValueError("windmill needs k >= 1")
    apex, inner, outer = windmill_parts(k)
    edges = []
    for i in range(k):
        edges += [(apex, inner[i]), (inner[i], outer[i]), (outer[i], apex)]
    return Graph(2 * k + 1, edges)


def spider_parts(k):
    """Vertex roles of spider(k): (apex, short-leg tips, mids, long-leg
    tips)."""
    apex = 0
    short = list(range(1, k + 1))
    mid = list(range(k + 1, 2 * k + 1))
    tip = list(range(2 * k + 1, 3 * k + 1))
    return apex, short, mid, tip


def spider(k):
    """A tree: one apex with k legs of length 1 and k legs of length 2."""
    if k < 1:
        raise ValueError("spider needs k >= 1")
    apex, short, mid, tip = spider_parts(k)
    edges = []
    for i in range(k):
        edges += [(apex, short[i]), (apex, mid[i]), (mid[i], tip[i])]
    return Graph(3 * k + 1, edges)


_FAMILIES = {
    "path": path,
    "cycle": cycle,
    "clique": clique,
    "edgeless": edgeless,
    "biclique": biclique,
    "star": star,
    "windmill": windmill,
    "spider": spider,
}


def generate(family, k):
    """Build a named parametric graph family member."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}, choose from {sorted(_FAMILIES)}"
        ) from None
    return builder(k)

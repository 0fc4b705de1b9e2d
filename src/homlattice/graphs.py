"""Graph values and the small-graph toolkit used across the package.

Vertices are dense 0-based integers ``0..n-1``. Edges are unordered pairs
stored sorted, with duplicates collapsed. Selfloops are representable only
when a graph is constructed with ``selfloops_allowed=True``; quotients of
loop-free graphs produce such graphs whenever an edge is contracted into a
block.

Canonical forms are exact: the key of a graph is the lexicographically
minimal adjacency-matrix bit string over all vertex relabelings, with the
diagonal carrying selfloop bits. Two graphs get equal keys exactly when
they are isomorphic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PartitionError, ensure_pattern_size


class Graph:
    """An undirected graph on vertices 0..n-1 with an immutable edge set."""

    __slots__ = ("n", "edges", "selfloops_allowed", "_adj", "_loops")

    def __init__(self, n, edges=(), selfloops_allowed=False):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for edge in edges:
            u, v = edge
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                if not selfloops_allowed:
                    raise ValueError(f"selfloop at {u} in a loop-free graph")
                normalized.add((u, u))
            else:
                normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(normalized)
        self.selfloops_allowed = bool(selfloops_allowed)
        adj = [set() for _ in range(n)]
        loops = set()
        for u, v in normalized:
            if u == v:
                loops.add(u)
            else:
                adj[u].add(v)
                adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._loops = frozenset(loops)

    @property
    def m(self):
        return len(self.edges)

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
        masks = [0] * self.n
        for u, v in self.edges:
            if u != v:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        loop_mask = 0
        for v in self._loops:
            loop_mask |= 1 << v
        return masks, loop_mask

    def relabeled(self, perm):
        """Return a copy with old vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on the vertex set")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph(self.n, edges, selfloops_allowed=self.selfloops_allowed)

    def induced(self, vertices):
        """Subgraph induced on the given vertices, relabeled to 0..k-1."""
        verts = sorted(set(vertices))
        if verts and not (0 <= verts[0] and verts[-1] < self.n):
            raise ValueError("vertex out of range")
        index = {v: i for i, v in enumerate(verts)}
        edges = [(index[u], index[v]) for u, v in self.edges
                 if u in index and v in index]
        return Graph(len(verts), edges, selfloops_allowed=self.selfloops_allowed)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.edges == other.edges
                and self.selfloops_allowed == other.selfloops_allowed)

    def __hash__(self):
        return hash((self.n, self.edges, self.selfloops_allowed))

    def __repr__(self):
        flag = ", selfloops" if self.selfloops_allowed else ""
        return f"Graph(n={self.n}, edges={self.edge_list()}{flag})"


@dataclass(frozen=True)
class VertexPartition:
    """A partition of 0..n-1 into disjoint nonempty blocks.

    Blocks are stored sorted by their minimum element; block_of maps each
    vertex to the index of its block.
    """

    blocks: tuple
    block_of: tuple

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
    the block's vertex. The result always permits selfloops.
    """
    if not isinstance(partition, VertexPartition):
        partition = VertexPartition.from_blocks(partition)
    if partition.n != graph.n:
        raise PartitionError(
            f"partition covers {partition.n} vertices, graph has {graph.n}")
    block_of = partition.block_of
    edges = set()
    for u, v in graph.edges:
        edges.add((block_of[u], block_of[v]))
    return Graph(partition.num_blocks(), edges, selfloops_allowed=True)


def bfs_distances(graph, source):
    """Distances from source; unreachable vertices get math.inf."""
    if not (0 <= source < graph.n):
        raise ValueError(f"vertex {source} out of range")
    dist = [math.inf] * graph.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                if dist[w] == math.inf:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def distance(graph, u, v):
    if not (0 <= v < graph.n):
        raise ValueError(f"vertex {v} out of range")
    return bfs_distances(graph, u)[v]


def connected_components(graph):
    """Number of components and a per-vertex component labeling."""
    labels = [-1] * graph.n
    count = 0
    for start in range(graph.n):
        if labels[start] != -1:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if labels[w] == -1:
                    labels[w] = count
                    stack.append(w)
        count += 1
    return count, labels


def component_subgraphs(graph):
    """Induced subgraph per component; a connected graph is returned as
    itself, not rebuilt."""
    count, labels = connected_components(graph)
    if count == 1:
        return [graph]
    verts = [[] for _ in range(count)]
    for v, lab in enumerate(labels):
        verts[lab].append(v)
    return [graph.induced(vs) for vs in verts]


def _invariant_classes(graph):
    """Per-vertex (loop, degree) invariants, used to cut search spaces."""
    loops = graph.loops()
    return [(v in loops, graph.degree(v)) for v in range(graph.n)]


def _canonical_search(graph):
    """Minimal adjacency bit string over all relabelings, plus a witness.

    Bits are compared position by position: placing a vertex at position k
    contributes the chunk (loop bit, adjacency bits to positions 0..k-1).
    Branch and bound: a partial placement is abandoned as soon as its chunk
    prefix exceeds the best complete key found so far. Candidates are tried
    in ascending chunk order, so the greedy first descent seeds the bound.
    """
    n = graph.n
    masks, loop_mask = graph.adjacency_masks()
    best_key = None
    best_perm = None
    placed = []
    chunks = []

    def extend(depth):
        nonlocal best_key, best_perm
        if depth == n:
            key = tuple(chunks)
            if best_key is None or key < best_key:
                best_key = key
                best_perm = list(placed)
            return
        used = set(placed)
        options = []
        for v in range(n):
            if v in used:
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
            extend(depth + 1)
            placed.pop()
            chunks.pop()

    extend(0)
    if best_key is None:
        best_key = ()
        best_perm = []
    return (n,) + best_key, best_perm


def canonical_form(graph, limit=None):
    """Deterministic key equal across graphs exactly when isomorphic."""
    ensure_pattern_size(graph.n, limit)
    key, _ = _canonical_search(graph)
    return key


def canonical_representative(graph, limit=None):
    """Relabeling of the graph realizing its canonical key."""
    ensure_pattern_size(graph.n, limit)
    _, perm = _canonical_search(graph)
    relabel = [0] * graph.n
    for pos, old in enumerate(perm):
        relabel[old] = pos
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges]
    return Graph(graph.n, edges, selfloops_allowed=bool(graph.loops()))


def _labelled_key(graph):
    """Key of the graph's own labelling, built chunk by chunk as in
    ``_canonical_search``; for a canonical representative it is the
    canonical key, so no second search is needed."""
    masks, loop_mask = graph.adjacency_masks()
    chunks = []
    for v in range(graph.n):
        chunk = (loop_mask >> v) & 1
        for u in range(v):
            chunk = (chunk << 1) | ((masks[v] >> u) & 1)
        chunks.append(chunk)
    return (graph.n,) + tuple(chunks)


def _group_quotients(graph, items, limit, bottom=None):
    """Loop-free quotients of the graph grouped by isomorphism class.

    ``items`` yields (partition, value) pairs. Returns a dict from each
    canonical key to [canonical representative, sum of the values of the
    partitions whose quotient falls in the class], in first-seen order.
    Quotients with a selfloop are dropped; each other one takes one
    canonical search, except that a given ``bottom`` (key, representative)
    pair of the graph itself serves the all-singletons partition.
    """
    groups = {}
    for partition, value in items:
        if bottom is not None and partition.num_blocks() == graph.n:
            key, rep = bottom
        else:
            q = quotient(graph, partition)
            if not q.is_loop_free():
                continue
            rep = canonical_representative(q, limit)
            key = _labelled_key(rep)
        group = groups.get(key)
        if group is None:
            groups[key] = [rep, value]
        else:
            group[1] += value
    return groups


def is_isomorphic(a, b, limit=None):
    if a.n != b.n or a.m != b.m or len(a.loops()) != len(b.loops()):
        return False
    if sorted(_invariant_classes(a)) != sorted(_invariant_classes(b)):
        return False
    return canonical_form(a, limit) == canonical_form(b, limit)


def count_automorphisms(graph, limit=None):
    """Number of edge- and loop-preserving bijections of the graph."""
    ensure_pattern_size(graph.n, limit)
    n = graph.n
    if n == 0:
        return 1
    masks, loop_mask = graph.adjacency_masks()
    invar = _invariant_classes(graph)
    candidates = [[w for w in range(n) if invar[w] == invar[v]]
                  for v in range(n)]
    count = 0
    image = [-1] * n
    used = [False] * n

    def place(v):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                if ((masks[v] >> u) & 1) != ((masks[w] >> image[u]) & 1):
                    ok = False
                    break
            if ok:
                used[w] = True
                image[v] = w
                place(v + 1)
                used[w] = False
        return

    place(0)
    return count


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
    """Vertex roles of spider(k): (apex, short-leg tips, mids, long-leg tips)."""
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

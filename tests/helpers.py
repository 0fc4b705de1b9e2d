"""Shared generators for the test suite."""

from functools import lru_cache
from itertools import combinations

from homlattice.flats import blocks_connected, iter_set_partitions, \
    partition_leq
from homlattice.graphs import Graph, VertexPartition, canonical_form, \
    canonical_representative


def random_graph(rng, n, p=0.5):
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_host(rng, n, m):
    """Host with n vertices and m distinct edges."""
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError("too many edges requested")
    edges = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_tree(rng, n):
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


@lru_cache(maxsize=None)
def iso_classes(n):
    """All isomorphism classes of loop-free graphs on exactly n vertices,
    grown one edge at a time from the edgeless graph."""
    seen = {}
    frontier = [Graph(n)]
    seen[canonical_form(frontier[0])] = frontier[0]
    while frontier:
        nxt = []
        for graph in frontier:
            for u, v in combinations(range(n), 2):
                if graph.has_edge(u, v):
                    continue
                grown = canonical_representative(
                    Graph(n, list(graph.edges) + [(u, v)]))
                key = canonical_form(grown)
                if key not in seen:
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    return tuple(seen[key] for key in sorted(seen))


@lru_cache(maxsize=None)
def graphs_up_to(n):
    out = []
    for size in range(1, n + 1):
        out.extend(iso_classes(size))
    return tuple(out)


@lru_cache(maxsize=None)
def edge_graphs(max_edges):
    """Isomorphism classes of graphs with no isolated vertices, keyed by
    edge count 1..max_edges. Every such graph arises from a smaller one by
    adding a disjoint edge, a pendant edge, or a chord."""
    levels = {1: {canonical_form(Graph(2, [(0, 1)])):
                  Graph(2, [(0, 1)])}}
    for m in range(2, max_edges + 1):
        level = {}
        for graph in levels[m - 1].values():
            n = graph.n
            grown = [Graph(n + 2, list(graph.edges) + [(n, n + 1)])]
            for u in range(n):
                grown.append(Graph(n + 1, list(graph.edges) + [(u, n)]))
            for u, v in combinations(range(n), 2):
                if not graph.has_edge(u, v):
                    grown.append(Graph(n, list(graph.edges) + [(u, v)]))
            for candidate in grown:
                rep = canonical_representative(candidate)
                level.setdefault(canonical_form(rep), rep)
        levels[m] = level
    return {m: tuple(level[key] for key in sorted(level))
            for m, level in levels.items()}


@lru_cache(maxsize=None)
def all_trees(max_n):
    """Isomorphism classes of trees on 1..max_n vertices."""
    import networkx as nx

    out = [Graph(1)]
    for n in range(2, max_n + 1):
        for tree in nx.nonisomorphic_trees(n):
            relabel = {v: i for i, v in enumerate(tree.nodes())}
            out.append(Graph(n, [(relabel[u], relabel[v])
                                 for u, v in tree.edges()]))
    return tuple(out)


def flats_by_filter(constraint):
    """Second oracle for ``enumerate_flats``: keep the set partitions whose
    blocks are connected in the constraint graph, sort them by rank, then
    partition key, and fill in mu(bottom, .) by the defining recursion in
    that order. Returns (partition, rank, mu) triples."""
    n = constraint.n
    flats = []
    for labels in iter_set_partitions(n):
        part = VertexPartition.from_labels(labels)
        if blocks_connected(constraint, part):
            flats.append((n - part.num_blocks(), part))
    flats.sort(key=lambda f: (f[0], f[1].key()))
    mobius = []
    for rank, hi in flats:
        below = sum(mu for (_, lo), mu in zip(flats, mobius)
                    if partition_leq(lo, hi))
        mobius.append(1 if rank == 0 else -below)
    return [(part, rank, mu) for (rank, part), mu in zip(flats, mobius)]

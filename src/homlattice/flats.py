"""Lattice of flats of the graphic matroid of a constraint graph.

A flat of the graphic matroid of a loop-free graph F corresponds to a
partition of V(F) whose blocks all induce connected subgraphs of F. The
rank of a flat is |V(F)| minus its number of blocks. Flats are ordered by
refinement; the Mobius function of the lattice (bottom fixed at the
all-singleton flat) drives the signed expansions in the basis module.
Flats are generated directly, block by connected block, and since the
interval below a flat is the product of its blocks' bond lattices (Rota
1964), mu(bottom, flat) is the product of per-block values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import HomlatticeError, ensure_pattern_size
from .graphs import Graph, VertexPartition, connected_components


@dataclass(frozen=True)
class Flat:
    partition: VertexPartition
    rank: int


@dataclass(frozen=True)
class FlatLattice:
    """All flats of one constraint graph, sorted by rank, then by
    ``partition.key()``, with ``mobius`` holding mu(bottom, flat) per flat.

    ``leq[i]`` is a bitmask whose bit j is set when flats[j] <= flats[i];
    it is built on first access.
    """

    constraint: Graph
    flats: tuple
    mobius: tuple

    @cached_property
    def leq(self):
        return tuple(sum(1 << j for j, lo in enumerate(self.flats)
                         if lo.rank <= hi.rank
                         and partition_leq(lo.partition, hi.partition))
                     for hi in self.flats)

    def bottom(self):
        return self.flats[0]

    def __len__(self):
        return len(self.flats)


def iter_set_partitions(n):
    """All partitions of 0..n-1 as restricted growth strings.

    A growth string assigns vertex v a block label a[v] with a[0] = 0 and
    a[v] <= 1 + max(a[:v]).
    """
    if n == 0:
        yield ()
        return
    labels = [0] * n
    maxes = [0] * n
    while True:
        yield tuple(labels)
        v = n - 1
        while v > 0 and labels[v] == maxes[v - 1] + 1:
            v -= 1
        if v == 0:
            return
        labels[v] += 1
        maxes[v] = max(maxes[v - 1], labels[v])
        for w in range(v + 1, n):
            labels[w] = 0
            maxes[w] = maxes[v]


def blocks_connected(graph, partition):
    """Whether every block of the partition induces a connected subgraph."""
    return all(connected_components(graph.induced(block))[0] == 1
               for block in partition.blocks)


def partition_leq(a, b):
    """Refinement order: every block of a is contained in a block of b."""
    if a.n != b.n:
        raise HomlatticeError("partitions over different vertex sets")
    b_of = b.block_of
    for block in a.blocks:
        it = iter(block)
        first = b_of[next(it)]
        for v in it:
            if b_of[v] != first:
                return False
    return True


class _Blocks:
    """Connected vertex sets of one constraint graph, given by adjacency
    bitmasks, and their Mobius values; memoised for one call."""

    def __init__(self, adj):
        self.adj, self.sets, self.values = adj, {}, {}

    def connected(self, allowed):
        """Connected subsets of allowed that hold its lowest vertex; each
        branch takes the lowest candidate or bans it from then on."""
        if allowed not in self.sets:
            adj = self.adj
            found = self.sets[allowed] = []
            low = allowed & -allowed
            stack = [(low, adj[low.bit_length() - 1] & allowed, 0)]
            while stack:
                s, cand, banned = stack.pop()
                found.append(s)
                while cand:
                    w = cand & -cand
                    cand ^= w
                    more = adj[w.bit_length() - 1] & allowed & ~(s | banned)
                    stack.append((s | w, cand | more, banned))
                    banned |= w
        return self.sets[allowed]

    def edgeless(self, mask):
        return not any(self.adj[v] & mask for v in range(len(self.adj))
                       if mask >> v & 1)

    def mu(self, s):
        """mu(S) = -sum mu(T) over connected T strictly inside S that hold
        min(S) and leave S - T edgeless; a single vertex has value 1."""
        if s not in self.values:
            self.values[s] = 1 if s & (s - 1) == 0 else -sum(
                self.mu(t) for t in self.connected(s)
                if t != s and self.edgeless(s & ~t))
        return self.values[s]


def enumerate_flats(constraint, limit=None):
    """Lattice of flats of the graphic matroid of a loop-free graph.

    Builds each flat directly: the block of the lowest uncovered vertex
    runs over its connected sets among the uncovered vertices, the rest is
    partitioned alike, and mu(bottom, flat) multiplies the blocks' values.
    """
    if not constraint.is_loop_free():
        raise HomlatticeError("constraint graph must be loop-free")
    n = constraint.n
    ensure_pattern_size(n, limit)
    blocks = _Blocks(constraint.adjacency_masks()[0])
    rows = []
    stack = [((1 << n) - 1, (), 1)]
    while stack:
        uncovered, chosen, mu = stack.pop()
        if not uncovered:
            key = tuple(tuple(v for v in range(n) if b >> v & 1)
                        for b in chosen)
            rows.append((n - len(chosen), key, mu))
            continue
        for t in blocks.connected(uncovered):
            stack.append((uncovered & ~t, chosen + (t,), mu * blocks.mu(t)))
    rows.sort()
    flats = []
    for rank, key, _ in rows:
        label = {v: i for i, block in enumerate(key) for v in block}
        part = VertexPartition(tuple(map(frozenset, key)),
                               tuple(label[v] for v in range(n)))
        flats.append(Flat(part, rank))
    return FlatLattice(constraint, tuple(flats), tuple(r[2] for r in rows))


def sign_rule_holds(lattice):
    """Whether every mu value is nonzero with sign (-1)^rank."""
    for flat, mu in zip(lattice.flats, lattice.mobius):
        if mu == 0:
            return False
        if (mu > 0) != (flat.rank % 2 == 0):
            return False
    return True

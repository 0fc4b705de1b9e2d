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

from .errors import HomlatticeError, ensure_pattern_size
from .graphs import VertexPartition, _Value, connected_components


class Flat(_Value):
    __slots__ = _fields = ("partition", "rank")

    def __init__(self, partition, rank):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "rank", rank)


class FlatLattice(_Value):
    """All flats of one constraint graph, sorted by rank, then by
    ``partition.key()``, with ``mobius`` holding mu(bottom, flat) per flat.

    ``leq[i]`` is a bitmask whose bit j is set when flats[j] <= flats[i];
    it is built on first access.
    """

    _fields = ("constraint", "flats", "mobius")
    __slots__ = _fields + ("_leq",)

    def __init__(self, constraint, flats, mobius):
        object.__setattr__(self, "constraint", constraint)
        object.__setattr__(self, "flats", flats)
        object.__setattr__(self, "mobius", mobius)

    @property
    def leq(self):
        if not hasattr(self, "_leq"):
            object.__setattr__(self, "_leq", tuple(
                sum(1 << j for j, lo in enumerate(self.flats)
                    if lo.rank <= hi.rank
                    and partition_leq(lo.partition, hi.partition))
                for hi in self.flats))
        return self._leq

    def __len__(self):
        return len(self.flats)


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

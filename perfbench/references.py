"""Reference answers computed from the definitions, apart from homlattice.

Nothing here imports homlattice, its oracle or its test helpers. Graphs
are plain ``(n, edges)`` pairs with 0-based vertices; ``adj`` is a list of
neighbour sets.
"""

from collections import Counter
from itertools import permutations


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------- closed forms

def walks(adj, length):
    """Walks with ``length`` edges: hom count of the path on length+1 vertices."""
    vec = [1] * len(adj)
    for _ in range(length):
        vec = [sum(vec[u] for u in nbrs) for nbrs in adj]
    return sum(vec)


def nonbacktracking_walks(adj, length):
    """Walks with ``length`` edges that never step straight back.

    These are the locally injective homomorphisms of the path on length+1
    vertices: its constrained pairs are exactly the vertices two apart.
    """
    if length == 0:
        return len(adj)
    ending = {(u, v): 1 for u in range(len(adj)) for v in adj[u]}
    for _ in range(length - 1):
        into = [0] * len(adj)
        for (_, v), count in ending.items():
            into[v] += count
        ending = {(v, w): into[v] - ending[(w, v)]
                  for v in range(len(adj)) for w in adj[v]}
    return sum(ending.values())


def _step(row, adj):
    out = Counter()
    for x, count in row.items():
        for w in adj[x]:
            out[w] += count
    return out


def closed_walks(adj, length):
    """Trace of A^length: hom count of the cycle on ``length`` vertices
    (for length 3 also of the triangle under any restriction)."""
    half = length // 2
    total = 0
    for u in range(len(adj)):
        row = {u: 1}
        for _ in range(half):
            row = _step(row, adj)
        other = _step(row, adj) if length - half > half else row
        total += sum(count * other.get(w, 0) for w, count in row.items())
    return total


def falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def star_count(adj, leaves, injective):
    """Maps of a star with ``leaves`` leaves: the centre goes anywhere and
    the leaves to its neighbours, pairwise distinct when ``injective``
    (``li`` and ``emb`` constrain exactly the leaf pairs)."""
    if injective:
        return sum(falling(len(nbrs), leaves) for nbrs in adj)
    return sum(len(nbrs) ** leaves for nbrs in adj)


def c4_injective_count(adj):
    """``li`` and ``emb`` counts of the 4-cycle: opposite corners a != c,
    the other two corners distinct common neighbours of a and c."""
    codegree = Counter()
    for nbrs in adj:
        for a in nbrs:
            for c in nbrs:
                if a != c:
                    codegree[(a, c)] += 1
    return sum(k * (k - 1) for k in codegree.values())


def closed_form(tau, family, k, adj):
    """Restricted count of a named small pattern on the host ``adj``."""
    if family == "path":
        if tau == "hom":
            return walks(adj, k - 1)
        if tau == "li":
            return nonbacktracking_walks(adj, k - 1)
    elif family == "star":
        if tau in ("hom", "li", "emb"):
            return star_count(adj, k, injective=tau != "hom")
    elif family == "cycle":
        if tau == "hom":
            return closed_walks(adj, k)
        if k == 4 and tau in ("li", "emb"):
            return c4_injective_count(adj)
    elif family == "clique" and k == 3:
        return closed_walks(adj, 3)
    raise ValueError(f"no closed form for {tau} {family}({k})")


# ------------------------------------------------------------ from definitions

def distances(n, edges):
    adj = adjacency(n, edges)
    table = []
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        table.append(dist)
    return table


def constraint_edges(tau, n, edges):
    """Pairs a restriction keeps apart.

    ``hom`` none, ``emb`` all, ``li:R`` (``li`` is ``li:1``) every pair
    with a witness vertex at distance 1..R from both.
    """
    if tau == "hom":
        return set()
    if tau == "emb":
        return {(u, w) for u in range(n) for w in range(u + 1, n)}
    radius = 1 if tau == "li" else int(tau.split(":", 1)[1])
    dist = distances(n, edges)
    pairs = set()
    for witness in dist:
        near = sorted(v for v, d in witness.items() if 1 <= d <= radius)
        for i, u in enumerate(near):
            for w in near[i + 1:]:
                pairs.add((u, w))
    return pairs


def restricted_count(n, edges, constraint, host_adj):
    """Maps of the pattern into the host that send edges to edges and keep
    every constrained pair apart, counted by backtracking."""
    size = len(host_adj)
    padj = adjacency(n, edges)
    cadj = adjacency(n, constraint)
    free = [v for v in range(n) if not padj[v] and not cadj[v]]
    order = []
    rest = [v for v in range(n) if padj[v] or cadj[v]]
    while rest:
        placed = set(order)
        best = max(rest, key=lambda v: (len(padj[v] & placed),
                                        len(cadj[v] & placed), -v))
        order.append(best)
        rest.remove(best)
    position = {v: i for i, v in enumerate(order)}
    back_edges = [[u for u in padj[v] if position[u] < i]
                  for i, v in enumerate(order)]
    back_apart = [[u for u in cadj[v] if position[u] < i]
                  for i, v in enumerate(order)]
    image = {}
    everything = set(range(size))

    def candidates(i):
        linked = back_edges[i]
        if linked:
            cand = set(host_adj[image[linked[0]]])
            for u in linked[1:]:
                cand &= host_adj[image[u]]
        else:
            cand = set(everything)
        for u in back_apart[i]:
            cand.discard(image[u])
        return cand

    def extend(i):
        cand = candidates(i)
        if i == len(order) - 1:
            return len(cand)
        total = 0
        for h in cand:
            image[order[i]] = h
            total += extend(i + 1)
        return total

    base = extend(0) if order else 1
    return base * size ** len(free)


def permanent(matrix):
    """Sum over all permutations of the product of chosen entries."""
    n = len(matrix)
    total = 0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= matrix[i][sigma[i]]
            if not prod:
                break
        total += prod
    return total


def independent_partitions(n, edges):
    """a[k] = partitions of the vertex set into k independent blocks.

    The chromatic polynomial is sum_k a[k] q(q-1)...(q-k+1), so two graphs
    agree on every P(q) exactly when their vectors agree.
    """
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << n) - 1
    independent = [True] * (full + 1)
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        independent[s] = independent[rest] and not masks[low] & rest
    table = [None] * (full + 1)
    table[0] = [1]
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        poly = [0] * (bin(s).count("1") + 1)
        sub = rest
        while True:
            block = sub | low
            if independent[block]:
                for k, count in enumerate(table[s ^ block]):
                    poly[k + 1] += count
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[s] = poly
    return table[full] + [0] * (n + 1 - len(table[full]))


def treewidth(n, edges):
    """Exact treewidth: the best elimination order over all orders."""
    if n == 0:
        return -1
    best = n - 1
    for order in permutations(range(n)):
        adj = adjacency(n, edges)
        width = 0
        for v in order:
            nbrs = adj[v]
            width = max(width, len(nbrs))
            if width >= best:
                break
            for u in nbrs:
                adj[u] |= nbrs - {u}
                adj[u].discard(v)
        best = min(best, width)
    return best


def quotient(edges, labels):
    """Contract blocks (vertex -> block label); None when a loop appears."""
    out = set()
    for u, v in edges:
        a, b = labels[u], labels[v]
        if a == b:
            return None
        out.add((min(a, b), max(a, b)))
    return out


def set_partitions(n):
    """All partitions of 0..n-1 as block labels (restricted growth)."""
    if n == 0:
        yield ()
        return
    for smaller in set_partitions(n - 1):
        top = max(smaller, default=-1)
        for label in range(top + 2):
            yield smaller + (label,)


def blocks_connected(labels, adj):
    blocks = {}
    for v, label in enumerate(labels):
        blocks.setdefault(label, []).append(v)
    for members in blocks.values():
        inside = set(members)
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            u = stack.pop()
            for w in adj[u] & inside:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != inside:
            return False
    return True


def loopfree_minors(tau, n, edges):
    """Loop-free quotients along partitions whose blocks are connected in
    the constraint graph, as (vertex count, edge set) pairs, one per
    partition (not yet grouped by isomorphism)."""
    cadj = adjacency(n, constraint_edges(tau, n, edges))
    out = []
    for labels in set_partitions(n):
        if not blocks_connected(labels, cadj):
            continue
        q = quotient(edges, labels)
        if q is not None:
            out.append((max(labels, default=-1) + 1, q))
    return out


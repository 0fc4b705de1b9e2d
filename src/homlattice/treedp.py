"""Exact treewidth and homomorphism counting by bucket elimination.

Each pattern gets one elimination plan, cached per pattern graph: its
connected components, each with an optimal elimination order and that
order's width. A tree is eliminated leaves first, along a breadth-first
order from a vertex of highest degree, reversed. Any other component
takes the order found by dynamic programming over subsets of its
vertices (elimination-order formulation), so patterns must stay within
the global size limit. ``treewidth_exact`` returns the largest width
together with the component orders joined end to end as its witness; no
tree decomposition is built. Homomorphism counts eliminate each
component's vertices along its order (Dechter 1999): each vertex's
bucket of factors, together with its pattern edges to vertices not yet
eliminated, is summed over the host's vertices into one factor on the
remaining neighbours. No scope exceeds the order's width, so a term
costs |V(host)|^(width+1) at most. Buckets of width one pass
length-|V(host)| vectors along host adjacency; a tree's leaves pass
their host degrees without reading the adjacency. Wider buckets join their
factors with forward checking (Haralick and Elliott 1980): each assigned
variable narrows the domains of the later ones at once, so a dead branch
is cut off where it starts. Factors are nested dicts in elimination
order, so each bucket reads its factors as tries without rebuilding
them. Counts are arbitrary-precision integers, so hosts can be large as
long as the width stays small.

``hom_count`` memoises the count of each connected component of its
pattern per host, so the terms of different expansions, the components
of disconnected quotients and the entries of a linear combination on one
host are each counted once. The memo is keyed by the host and then by
the component ``Graph``, both matched by identity first and then by
equality. It holds the ``_MEMO_HOSTS`` most recently used hosts and at
most ``_MEMO_TERMS`` counts per host, each level least recently used
first out, so a stream of large hosts cannot pin memory. The host and
pattern checks run on every call, hit or miss. ``hom_cache_info`` and
``hom_cache_clear`` report on and empty the memo.
"""

from functools import lru_cache

from .cache import CacheInfo, LRUCache
from .errors import HomlatticeError, HostError, ensure_pattern_size
from .graphs import breadth_first, connected_components

_MEMO_HOSTS = 4
_MEMO_TERMS = 1024
# host -> LRUCache(_MEMO_TERMS) of connected component -> hom count
_memo = LRUCache(_MEMO_HOSTS)


def _boundary_size(adj_masks, elim_mask, v):
    """Neighbors of v outside elim_mask, reachable through elim_mask."""
    region = elim_mask | (1 << v)
    comp = 1 << v
    frontier = comp
    boundary = 0
    while frontier:
        grow = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            grow |= adj_masks[low.bit_length() - 1]
        boundary |= grow & ~region
        grow &= region & ~comp
        comp |= grow
        frontier = grow
    return bin(boundary).count("1")


def _exact_order(graph):
    """(width, order) of an optimal elimination order of a loop-free graph.

    Subset dynamic programming over elimination prefixes: the cost of a set
    S is the best possible width of an ordering eliminating S first. Ties
    between eliminated vertices break toward the smallest index, so the
    order is deterministic. It costs 2^n table entries and is not cached
    here: ``_plan`` runs it once per component of a cached pattern.
    """
    n = graph.n
    adj_masks, _ = graph.adjacency_masks()
    full = (1 << n) - 1
    cost = [-1] * (full + 1)
    choice = [-1] * (full + 1)
    for mask in range(1, full + 1):
        best = None
        best_v = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            prev = mask ^ low
            width = max(cost[prev], _boundary_size(adj_masks, prev, v))
            if best is None or width < best:
                best = width
                best_v = v
        cost[mask] = best
        choice[mask] = best_v

    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return cost[full], tuple(order)


def _tree_order(tree):
    """(width, order) of a tree, leaves first: the breadth-first walk
    (``graphs.breadth_first``) from a vertex of highest degree (lowest
    index on ties), reversed. Every vertex but the root then has one
    neighbour later in the order, its parent, so no bucket holds more
    than one variable."""
    root = max(range(tree.n), key=lambda v: (tree.degree(v), -v))
    order, _ = breadth_first(tree, root)
    return min(tree.n - 1, 1), tuple(reversed(order))


@lru_cache(maxsize=1024)
def _plan(graph):
    """Elimination plan of a loop-free graph: ``(width, order, parts)``.

    ``parts`` holds ``(component, width, order)`` per connected component,
    in the component's own labels; the component is None when the graph
    is connected, so callers count the graph object they hold. A tree
    takes ``_tree_order`` and any other component the subset DP's
    optimal order. ``width`` is the largest component width (-1 for the
    empty graph) and ``order`` joins the component orders end to end in
    the graph's labels. Graphs are immutable and hashable, and terms are
    canonical representatives, so repeated queries hit the cache.
    """
    count, labels = connected_components(graph)
    groups = [[] for _ in range(count)]
    for v, lab in enumerate(labels):
        groups[lab].append(v)
    parts = []
    for vs in groups:
        comp = graph if count == 1 else graph.induced(vs)
        order_of = _tree_order if comp.m == comp.n - 1 else _exact_order
        parts.append((None if count == 1 else comp, *order_of(comp)))
    parts = tuple(parts)
    width = max((w for _, w, _ in parts), default=-1)
    order = tuple(vs[u] for vs, (_, _, local) in zip(groups, parts)
                  for u in local)
    return width, order, parts


def treewidth_exact(graph, limit=None):
    """Exact treewidth of a loop-free graph and its witness, an optimal
    elimination order: ``(width, order)``. Eliminating the vertices in
    ``order``, with fill-in, leaves each at most ``width`` neighbours
    later in the order. The order runs through the connected components
    one after another, each leaves first if it is a tree and by the
    subset DP otherwise. The loop-free and size checks run on every call;
    the order itself is cached per pattern (see ``_plan``)."""
    if not graph.is_loop_free():
        raise HomlatticeError("treewidth is defined here for loop-free graphs")
    ensure_pattern_size(graph.n, limit)
    return _plan(graph)[:2]


def _vector_message(pattern, adj, v, scope, bucket):
    """Sum v out of a bucket of unary factors with at most one neighbour
    left: msg[y] is the sum over host neighbours x of y of the product of
    the factors at x. Takes the same arguments as ``_join``."""
    weights = None
    for _, table in bucket:
        weights = table if weights is None else [
            a * b for a, b in zip(weights, table)]
    if not scope:
        return len(adj) if weights is None else sum(weights)
    if weights is None:
        return [len(near) for near in adj]
    at = weights.__getitem__
    return [sum(map(at, near)) for near in adj]


def _join(pattern, adj, v, scope, bucket):
    """Sum v out of any bucket by one join over v and then the scope, with
    forward checking (Haralick and Elliott 1980).

    The join assigns v first and then the scope's variables in order, and
    reads each factor's nested table as a trie along its scope. Assigning
    a level narrows the domain of every later level it constrains: through
    a pattern edge to the host neighbourhood of its image, and through a
    factor to that factor's child trie node. An image that empties a later
    domain is skipped at once, so the last level only meets finished
    domains: it is iterated in place and its weights are added straight
    into the output row. Pattern edges already used by an earlier bucket
    may prune again, since an edge indicator is idempotent.

    Returns the sum for an empty scope, a vector over the host's vertices
    for one variable, and for more, nested dicts of the nonzero entries
    keyed in scope order, like the factors. A factor whose scope is not
    in elimination order would be read along the wrong levels, so it
    raises ``AssertionError``.
    """
    variables = (v,) + scope
    last = len(scope)
    rank = {u: i for i, u in enumerate(variables)}
    # checks[i]: (later level, trie slot or None for a pattern edge) that
    # an image at level i narrows; a factor's trie walks down its slots.
    # ends[i]: the slots whose leaf values an image at level i multiplies.
    checks = [[(j, None) for j in range(i + 1, last + 1)
               if variables[j] in pattern.neighbors(u)]
              for i, u in enumerate(variables)]
    ends = [[] for _ in variables]
    slots = []
    domains = [None] * (last + 1)  # None: every host vertex
    for f_scope, table in bucket:
        levels = [rank[u] for u in f_scope]
        if levels != sorted(levels):
            raise AssertionError("factor scope out of elimination order")
        base = len(slots)
        slots.append({x: c for x, c in enumerate(table) if c}
                     if isinstance(table, list) else table)
        slots.extend([None] * (len(levels) - 1))
        for t in range(len(levels) - 1):
            checks[levels[t]].append((levels[t + 1], base + t))
        ends[levels[-1]].append(base + len(levels) - 1)
        # Every factor holds v, so its top level narrows level 0 only.
        top = slots[base].keys()
        domains[0] = top if domains[0] is None else domains[0] & top
    if domains[0] is None:
        domains[0] = range(len(adj))
    if not scope:  # unary factors only: sum v out directly
        total = 0
        for x in domains[0]:
            w = 1
            for s in ends[0]:
                w *= slots[s][x]
            total += w
        return total
    leaves = ends[last]
    image = [0] * last
    out = {}

    def extend(i, weight, given):
        for x in given[i]:
            narrowed = given[:]
            for j, s in checks[i]:
                if s is None:
                    near = adj[x]
                else:
                    slots[s + 1] = child = slots[s][x]
                    near = child.keys()
                d = narrowed[j]
                d = narrowed[j] = near if d is None else d & near
                if not d:
                    break
            else:
                w = weight
                for s in ends[i]:
                    w *= slots[s][x]
                image[i] = x
                if i + 1 < last:
                    extend(i + 1, w, narrowed)
                    continue
                row = out
                for y in image[1:]:
                    row = row.setdefault(y, {})
                if not leaves:
                    for y in narrowed[last]:
                        row[y] = row.get(y, 0) + w
                    continue
                if len(leaves) == 1:
                    leaf = slots[leaves[0]]
                    for y in narrowed[last]:
                        row[y] = row.get(y, 0) + w * leaf[y]
                    continue
                for y in narrowed[last]:
                    c = w
                    for s in leaves:
                        c *= slots[s][y]
                    row[y] = row.get(y, 0) + c

    extend(0, 1, domains)
    if last > 1:
        return out
    vector = [0] * len(adj)
    for y, c in out.items():
        vector[y] = c
    return vector


def _eliminate(pattern, host, order, width):
    """Homomorphism count by bucket elimination along the given order.

    Factors are (scope, table) pairs: a list over host vertices for one
    variable, and for more, nested dicts keyed by the scope's variables in
    order with the nonzero values at the leaves. Scopes list their
    variables in elimination order, so the bucket that takes a factor,
    that of its first variable, reads the table as it is. Pattern edges
    stay implicit as host adjacency, each used by the bucket of its first
    eliminated endpoint.
    """
    adj = host._adj  # the host's own adjacency tuple, not a copy
    total = 1
    factors = []
    position = {u: i for i, u in enumerate(order)}
    for v in order:
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = {u for u in pattern.neighbors(v) if position[u] > position[v]}
        for f_scope, _ in bucket:
            scope.update(f_scope)
        scope.discard(v)
        if len(scope) > width:
            raise AssertionError("elimination scope exceeds the order's width")
        scope = tuple(sorted(scope, key=position.__getitem__))
        unary = len(scope) <= 1 and all(len(s) == 1 for s, _ in bucket)
        step = _vector_message if unary else _join
        table = step(pattern, adj, v, scope, bucket)
        if not scope:
            total *= table
        elif table:
            factors.append((scope, table))
        else:
            return 0
        if total == 0:
            return 0
    return total


def hom_count(pattern, host, limit=None):
    """Homomorphism count by elimination along each component's order in
    the pattern's cached plan (see ``_plan``).

    Disconnected patterns factor into a product over their components;
    each component's count is memoised per host (see the module notes).
    """
    if not host.is_loop_free():
        raise HostError("host must be loop-free")
    if not pattern.is_loop_free():
        raise HomlatticeError("pattern must be loop-free")
    ensure_pattern_size(pattern.n, limit)
    parts = _plan(pattern)[2]
    if not parts:
        return 1
    counts = _memo.get(host)
    if counts is None:
        counts = LRUCache(_MEMO_TERMS)
        _memo.put(host, counts)
    total = 1
    for comp, width, order in parts:
        if comp is None:
            comp = pattern
        count = counts.get(comp)
        if count is None:
            count = _eliminate(comp, host, order, width)
            counts.put(comp, count)
        total *= count
        if total == 0:
            return 0
    return total


def hom_cache_info():
    """Hits, misses, bound and size of the hom-count memo, over the hosts
    it holds (a host's counts leave with it)."""
    tables = _memo.values()
    return CacheInfo(sum(t.hits for t in tables),
                     sum(t.misses for t in tables),
                     _MEMO_HOSTS * _MEMO_TERMS, sum(map(len, tables)))


def hom_cache_clear():
    """Forget every memoised hom count."""
    _memo.clear()

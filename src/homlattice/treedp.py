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
them. Buckets of the same shape share one table while a factor holds
it, and the last joined bucket adds straight into the count without a
table (see ``_eliminate``). That last join counts each orbit of its
interchangeable levels once: twin levels, which a swap leaves the bucket
unchanged under, take their images in non-decreasing order, and each
assignment weighs as many as its orbit holds (see ``_twins`` and
``_join``), so the triangle meets each host edge in one direction only.
Counts are arbitrary-precision integers, so hosts can be large as long
as the width stays small.

``hom_count`` memoises the count of each connected component of its
pattern per host, so the terms of different expansions, the components
of disconnected quotients and the entries of a linear combination on one
host are each counted once. The memo holds one entry per host, matched
by identity first and then by equality: the host's counts, keyed by
component ``Graph`` and matched the same way, and beside them its store
of the vector messages of its unary buckets, keyed by bucket shape, so
the terms counted on one host rebuild no vector the store still holds,
such as the leaves' degree vector. The memo holds the ``_MEMO_HOSTS``
most recently used hosts; each host at most ``_MEMO_TERMS`` counts and
(n + 2m) // n vectors for n vertices and m edges, so never more vector
entries than its adjacency. Every level is least recently used first
out, so a stream of large hosts cannot pin memory, and a host's counts
and vectors leave together. The host and pattern checks run on every
call, hit or miss. ``hom_cache_info`` reports on the counts, and
``hom_cache_clear`` empties the memo.
"""

from functools import lru_cache
from math import factorial
from operator import mul

from .cache import CacheInfo, LRUCache
from .errors import HomlatticeError, HostError, ensure_pattern_size
from .graphs import breadth_first, connected_components

_MEMO_HOSTS = 4
_MEMO_TERMS = 1024
# host -> (LRUCache(_MEMO_TERMS) of connected component -> hom count,
#          LRUCache((n + 2m) // n) of unary bucket key -> vector message)
_memo = LRUCache(_MEMO_HOSTS)


def _host_caches(host):
    """The host's (counts, vectors) pair in ``_memo``, made on the host's
    first use."""
    caches = _memo.get(host)
    if caches is None:
        caches = (LRUCache(_MEMO_TERMS),
                  LRUCache((host.n + 2 * host.m) // max(host.n, 1)))
        _memo.put(host, caches)
    return caches


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


@lru_cache(maxsize=1024)
def _twins(key):
    """Classes of interchangeable levels of the bucket that ``key``
    describes (see ``_eliminate``): sorted tuples of two or more levels.

    Levels i and j are twins when swapping them maps the bucket's pattern
    edges onto themselves and its factors onto its factors with equal
    keys, each factor's levels read up to its own table's symmetric
    positions. A table's positions are the levels after the first of the
    bucket that built it, and two are symmetric when they are twins there:
    the swap fixes the summed variable, so it leaves the table unchanged.
    The permutations that pass form a group, so twinship is an
    equivalence and every permutation within a class leaves the bucket
    unchanged. The test is sufficient, not necessary: it may miss a
    symmetry, never invent one. Keys name no host, so the classes are
    cached per key, like ``_plan``.
    """
    edges, held = key
    size = 1 + max(max(levels) for levels in edges + tuple(
        levels for _, levels in held))
    # A table's position q is level q + 1 of the bucket that built it.
    positions = {f_key: [group for group in (
        tuple(j - 1 for j in levels if j) for levels in _twins(f_key))
        if len(group) > 1] for f_key, _ in held}

    def shape(perm):
        moved = []
        for f_key, levels in held:
            levels = [perm[j] for j in levels]
            for group in positions[f_key]:
                for q, j in zip(group, sorted(levels[q] for q in group)):
                    levels[q] = j
            moved.append((f_key, tuple(levels)))
        return (sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges),
                sorted(moved))

    same = shape(range(size))
    classes = []
    for i in range(size):
        if any(i in levels for levels in classes):
            continue
        levels = [i]
        for j in range(i + 1, size):
            perm = list(range(size))
            perm[i], perm[j] = j, i
            if shape(perm) == same:
                levels.append(j)
        if len(levels) > 1:
            classes.append(tuple(levels))
    return tuple(classes)


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


def _join(pattern, adj, v, scope, bucket, summed=False, twins=()):
    """Sum v out of a bucket by one join over v and then the scope, with
    forward checking (Haralick and Elliott 1980).

    The join assigns v first and then the scope's variables in order, and
    reads each factor's nested table as a trie along its scope. A factor's
    top level narrows its own first level's domain before the join starts,
    and a table the bucket holds again on the same scope only multiplies
    its values in again. Assigning a level narrows the domain of every
    later level it constrains: through a pattern edge to the host
    neighbourhood of its image, and through a factor to that factor's
    child trie node. A domain is tested for disjointness before it is
    intersected, and an image that empties a later domain is skipped at
    once, so the last level only meets finished domains: it is iterated
    in place and its weights are added straight into the output row, or
    summed into the total when ``summed``. Pattern edges already used by
    an earlier bucket may prune again, since an edge indicator is
    idempotent.

    Returns the sum for an empty scope, a vector over the host's vertices
    for one variable, and for more, nested dicts of the nonzero entries
    keyed in scope order, like the factors. With ``summed`` the scope is
    summed out too, so it returns the total; the bucket may then hold
    factors without v. A factor whose scope is not in elimination order
    would be read along the wrong levels, so it raises ``AssertionError``.

    ``twins``, given with ``summed`` only, holds the bucket's classes of
    interchangeable levels (see ``_twins``), and the join counts once per
    orbit of their permutations. Each class takes its images in
    non-decreasing order, a filter over the domain that leaves the loop
    over the images as it is, and each assignment weighs c! / (m1! m2!
    ...) for a class of c levels whose images repeat m1, m2, ... times.
    That is exact: permuting a class leaves the bucket unchanged, and the
    orbit of each assignment under those permutations holds exactly one
    non-decreasing member and that many members in all. Adjacent twins
    never share an image on a loop-free host, so they weigh c!. The last
    level stays out of its class, so it is still summed in one pass over
    its domain: a bound there would cost a pass of its own and save none
    of the narrowing before it. A tie runs in a call of its own, so a
    level without a twin runs the same loop as without orbits.
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
    placed = {}  # (table id, scope) -> first slot of that factor
    for f_scope, table in bucket:
        levels = [rank[u] for u in f_scope]
        if levels != sorted(levels):
            raise AssertionError("factor scope out of elimination order")
        base = placed.setdefault((id(table), f_scope), len(slots))
        if base < len(slots):  # a shared table again: multiply, no checks
            ends[levels[-1]].append(base + len(levels) - 1)
            continue
        slots.append({x: c for x, c in enumerate(table) if c}
                     if isinstance(table, list) else table)
        slots.extend([None] * (len(levels) - 1))
        for t in range(len(levels) - 1):
            checks[levels[t]].append((levels[t + 1], base + t))
        ends[levels[-1]].append(base + len(levels) - 1)
        top, d = slots[base].keys(), domains[levels[0]]
        domains[levels[0]] = top if d is None else d & top
    if domains[0] is None:
        domains[0] = range(len(adj))
    # below[i]: the twin before level i in its class, whose image bounds
    # i's from below. The last level stays out of its class, so its sum
    # stays one pass.
    below = [None] * last
    weight = 1
    for levels in twins:
        levels = [i for i in levels if i < last]
        for j, i in zip(levels, levels[1:]):
            below[i] = j
        weight *= factorial(len(levels))
    total = 0
    if not scope:  # unary factors only: sum v out directly
        for x in domains[0]:
            w = 1
            for s in ends[0]:
                w *= slots[s][x]
            total += w
        return total
    leaves = ends[last]
    image = [0] * last
    out = {}

    def extend(i, weight, given, tied=False):
        nonlocal total
        domain = given[i]
        j = below[i]
        if j is not None and not tied:  # images above its twin's only
            p = image[j]
            if p in domain:  # never for adjacent twins: p is not near p
                # Or p itself, alone: a run of r equal images weighs 1/r!.
                run = 2
                while below[j] is not None and image[below[j]] == p:
                    run, j = run + 1, below[j]
                alone = given[:]
                alone[i] = (p,)
                extend(i, weight // run, alone, True)
            domain = filter(p.__lt__, domain)
        for x in domain:
            narrowed = given[:]
            for j, s in checks[i]:
                if s is None:
                    near = adj[x]
                else:
                    slots[s + 1] = child = slots[s][x]
                    near = child.keys()
                d = narrowed[j]
                if d is not None:
                    if d.isdisjoint(near):
                        break
                    near = d & near
                elif not near:
                    break
                narrowed[j] = near
            else:
                w = weight
                for s in ends[i]:
                    w *= slots[s][x]
                image[i] = x
                if i + 1 < last:
                    extend(i + 1, w, narrowed)
                    continue
                if summed:
                    ys = narrowed[last]
                    terms = None
                    for s in leaves:
                        at = map(slots[s].__getitem__, ys)
                        terms = at if terms is None else map(mul, terms, at)
                    total += w * (len(ys) if terms is None else sum(terms))
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

    extend(0, weight, domains)
    del extend  # the closure refers to itself; free its slots now
    if summed:
        return total
    if last > 1:
        return out
    vector = [0] * len(adj)
    for y, c in out.items():
        vector[y] = c
    return vector


def _eliminate(pattern, host, order, width):
    """Homomorphism count of a connected pattern by bucket elimination
    along the given order.

    Factors are (scope, table, key) triples. A table is a list over host
    vertices for one variable, and for more, nested dicts keyed by the
    scope's variables in order with the nonzero values at the leaves.
    Scopes list their variables in elimination order, so the bucket that
    takes a factor, that of its first variable, reads the table as it is.
    Pattern edges stay implicit as host adjacency, each used by the bucket
    of its first eliminated endpoint.

    A key describes the bucket that made a table without naming pattern
    vertices: the pattern edges among v and its scope as level pairs, and
    the sorted (key, levels) of the bucket's factors. Every scope variable
    is v's neighbour or in one of those factors, so equal keys give equal
    tables, and a bucket whose key a remaining factor holds takes that
    factor's table as it is. A table is freed when the last factor
    holding it leaves, so no more tables are held than when every bucket
    builds its own. The last join bucket, v with a scope that holds every
    vertex left, joins all remaining factors and returns their sum, so
    ``cycle(4)`` and ``cycle(5)``, canonically labelled, tabulate only
    their common neighbours, once. If that bucket's key is held too, it
    shares the table like any other bucket, and the next vertex's bucket
    sums it against the rest: ``cycle(4)`` sums the square of its
    common-neighbour table. The last join takes the twin classes of its
    whole bucket, that key over every remaining factor (see ``_twins``).

    Unary buckets pass vectors; a tree's root sums its own. Keys name no
    pattern vertex, so equal keys give equal vectors on one host, across
    patterns too. Every unary bucket with a scope looks its key up in the
    host's vector store (see ``_host_caches``) before it computes the
    vector and stores it. Root sums are left to the count memo, and wider
    tables still leave with their last reader.
    """
    adj = host._adj  # the host's own adjacency tuple, not a copy
    vectors = _host_caches(host)[1]
    factors = []
    position = {u: i for i, u in enumerate(order)}
    for i, v in enumerate(order):
        bucket = [f for f in factors if v in f[0]]
        scope = {u for u in pattern.neighbors(v) if position[u] > i}
        for f_scope, _, _ in bucket:
            scope.update(f_scope)
        scope.discard(v)
        if len(scope) > width:
            raise AssertionError("elimination scope exceeds the order's width")
        scope = tuple(sorted(scope, key=position.__getitem__))
        if not scope:
            return _vector_message(pattern, adj, v, scope,
                                   [f[:2] for f in bucket])
        variables = (v,) + scope
        level = {u: j for j, u in enumerate(variables)}
        key = (tuple((j, k) for k, u in enumerate(variables)
                     for j in range(k)
                     if variables[j] in pattern.neighbors(u)),
               tuple(sorted((f_key, tuple(map(level.__getitem__, f_scope)))
                            for f_scope, _, f_key in bucket)))
        table = next((t for _, t, k in factors if k == key), None)
        if table is None:
            unary = len(scope) == 1 and all(len(f[0]) == 1 for f in bucket)
            if not unary and len(scope) == len(order) - i - 1:
                whole = (key[0], tuple(sorted(
                    (f_key, tuple(map(level.__getitem__, f_scope)))
                    for f_scope, _, f_key in factors)))
                return _join(pattern, adj, v, scope,
                             [f[:2] for f in factors], summed=True,
                             twins=_twins(whole))
            table = vectors.get(key) if unary else None
            if table is None:
                step = _vector_message if unary else _join
                table = step(pattern, adj, v, scope, [f[:2] for f in bucket])
                if not table:
                    return 0
                if unary:
                    vectors.put(key, table)
        factors = [f for f in factors if v not in f[0]]
        factors.append((scope, table, key))


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
    counts = _host_caches(host)[0]
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
    it holds (a host's counts leave with it). The vector store each host
    keeps beside its counts, at most (n + 2m) // n vectors, is not
    counted here."""
    counts = [c for c, _ in _memo.values()]
    return CacheInfo(sum(c.hits for c in counts),
                     sum(c.misses for c in counts),
                     _MEMO_HOSTS * _MEMO_TERMS, sum(map(len, counts)))


def hom_cache_clear():
    """Forget every memoised hom count and every stored vector message."""
    _memo.clear()

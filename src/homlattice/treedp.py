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
costs |V(host)|^(width+1) at most. A component's buckets depend on the
pattern alone, so they are worked out once per pattern and order as
steps that name no host (see ``_steps``), and each host replays them
(see ``_eliminate``). Buckets of width one pass length-|V(host)|
vectors along host adjacency; a tree's leaves pass their host degrees
without reading the adjacency. Wider buckets run one kernel per bucket
shape, written as Python source and compiled on the shape's first use
(see ``_kernel``): a nested loop per variable, with forward checking
(Haralick and Elliott 1980) unrolled into ``isdisjoint`` and ``&`` on
named locals, so each image narrows the domains of the later variables
at once and a dead branch is cut off where it starts. Factors are
nested dicts in elimination order, which a kernel descends as tries.
Buckets of the same shape share one table while a factor holds it, and
the last joined bucket adds straight into the count without a table.
That last join counts each orbit of its interchangeable levels once:
twin levels, which a swap leaves the bucket unchanged under, take their
images in non-decreasing order, and each assignment weighs as many as
its orbit holds (see ``_twins`` and ``_source``), so the triangle meets
each host edge in one direction only. Counts are arbitrary-precision
integers, so hosts can be large as long as the width stays small.

``hom_count`` memoises the count of each connected component of its
pattern per host, so the terms of different expansions, the components
of disconnected quotients and the entries of a linear combination on one
host are each counted once. Each host has one store (see ``_Store``),
keyed by the small ints that ``_intern`` gives the host-free step keys
of ``_steps``: a component's count sits under its root step's id, and a
unary bucket's vector message under that bucket's id, so the terms
counted on one host rebuild no vector the store still holds, such as
the leaves' degree vector. A warm term is one hit in a per-pattern list
(see ``_counted``) and one int-keyed lookup per component: no graph is
hashed or compared per component, and a hit moves nothing. A store
holds at most ``_MEMO_TERMS`` counts and (n + 2m) // n vectors for n
vertices and m edges, so never more vector entries than its host's
adjacency. Hosts are held weakly: a store leaves when its host dies, an
equal host finds it while it lives, and at most ``_MEMO_HOSTS`` stores
live, least recently used first out; queries that stay on one host
find its store through its key, ``_newest``, and move nothing.
``hom_count`` and ``basis.evaluate`` both build their plans through
``_sum_plan``, which holds each component's root id and steps, and count
through ``_hom_sum``, which replays a plan: it checks the host and the
largest term's size, reads the newest store straight from ``_memo``
when its host is this one (calling ``_store`` otherwise), looks each
component up by id and replays the component's steps on a miss.
``hom_cache_info`` reports on the counts, and ``hom_cache_clear``
empties every store and forgets the step ids; no id is given out
twice, so the steps and plans cached before a clear stay right.
"""

import itertools
import weakref
from collections import Counter
from functools import lru_cache, reduce
from math import factorial
from operator import mul

from .cache import CacheInfo, LRUCache
from .errors import (DEFAULT_PATTERN_LIMIT, HomlatticeError, HostError,
                     ensure_pattern_size)
from .graphs import breadth_first, connected_components

_MEMO_HOSTS = 4
_MEMO_TERMS = 1024
# weak reference to a host -> its _Store, least recently used first
_memo = {}
# the key of _memo's newest entry, or None; reading it is about 85 ns
# quicker than next(reversed(_memo), None)
_newest = None
# host-free step key -> its id (see _intern); ids are never reused
_ids = LRUCache(4 * _MEMO_TERMS)
_fresh = itertools.count(1)


def _intern(key):
    """The id of a host-free step key (see ``_steps``), shared by equal
    keys while ``_ids`` holds them. An evicted or cleared key takes a new
    id, and no id is ever given to a second key."""
    ident = _ids.get(key)
    if ident is None:
        ident = next(_fresh)
        _ids.put(key, ident)
    return ident


class _Store(dict):
    """One host's memo: step id -> a count or a vector, each kind oldest
    first out. ``ref`` is the host's weak reference that keys the store
    in ``_memo``, and ``watch`` removes that entry when the host dies."""

    __slots__ = ("ref", "watch", "bound", "vectors", "hits", "misses")

    def __init__(self, host, ref):
        super().__init__()
        self.ref = ref
        self.watch = weakref.ref(host, lambda _: _memo.pop(ref, None))
        self.bound = (host.n + 2 * host.m) // max(host.n, 1)
        self.vectors = []  # vector ids, oldest first
        self.hits = self.misses = 0

    def put_vector(self, ident, vector):
        if len(self.vectors) >= self.bound:
            del self[self.vectors.pop(0)]
        self.vectors.append(ident)
        self[ident] = vector

    def put_count(self, ident, value):
        self.misses += 1
        if len(self) - len(self.vectors) >= _MEMO_TERMS:
            del self[next(k for k, v in self.items() if type(v) is int)]
        self[ident] = value


def _store(host):
    """The host's store in ``_memo``, made on its first use and moved to
    the newest place; past ``_MEMO_HOSTS`` stores, the least recently
    used one leaves. ``_hom_sum`` reads the newest store itself when
    ``_newest`` refers to this host (a dead reference refers to none),
    and calls this otherwise."""
    global _newest
    ref = weakref.ref(host)  # the key itself while the store is held
    store = _memo.pop(ref, None)
    if store is None:
        if len(_memo) >= _MEMO_HOSTS:
            del _memo[next(iter(_memo))]
        store = _Store(host, ref)
    _newest = store.ref
    _memo[_newest] = store
    return store


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
    describes (see ``_steps``): sorted tuples of two or more levels.

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


def _vector_message(adj, *tables):
    """Sum v out of a bucket of vectors at v with one neighbour y left:
    msg[y] sums, over the host neighbours x of y, the product of the
    tables at x, or 1 without tables."""
    if not tables:
        return [len(near) for near in adj]
    at = reduce(lambda a, b: list(map(mul, a, b)), tables).__getitem__
    return [sum(map(at, near)) for near in adj]


def _root_sum(adj, *tables):
    """Sum the last vertex out of a bucket of vectors at it."""
    if not tables:
        return len(adj)
    return sum(reduce(lambda a, b: list(map(mul, a, b)), tables))


@lru_cache(maxsize=1024)
def _kernel(shape):
    """The join of a bucket shape as ``join(adj, t0, t1, ...)`` over the
    host's adjacency and the bucket's tables by slot, compiled from
    ``_source`` once per shape: shapes name no host, so hosts share it."""
    namespace = {"mul": mul}
    exec(compile(_source(shape), "<join kernel>", "exec"), namespace)
    return namespace["join"]


def _source(shape):
    """Python source of the join kernel of a bucket shape (see ``_steps``),
    built from the shape's integers and fixed names only.

    Level i is one loop ``for x{i}``, nested in level i - 1's. Vectors
    become dicts of their nonzero entries, and a factor's top keys bound
    its first level's domain before the loops. An image narrows every
    later level it constrains at once: through a pattern edge to its
    host neighbourhood ``a{i}``, and through a factor to the child trie
    node ``n{k}_{t}`` it descends into. A domain is tested with
    ``isdisjoint`` before it is intersected, once for every later level
    that takes the same intersection, and an image that empties a later
    domain is skipped at once. Leaf values multiply into the weight
    ``w{i}``, a factor held twice on the same levels twice. The last
    level only meets finished domains: it adds their ``len``, or the
    ``sum`` of its leaf products, to the total, or adds into the output
    row when tabulating. Edges an earlier bucket used may prune again.

    A twin level takes its images from its class's previous level's up
    (``if x{i} < x{j}: continue``), and each assignment weighs c! / (m1!
    m2! ...) for a class of c levels whose images repeat m1, m2, ...
    times. That is exact: permuting a class leaves the bucket unchanged,
    and each assignment's orbit holds exactly one non-decreasing member
    and that many in all. Adjacent twins never share an image on a
    loop-free host, so without other twins the total is weighed once, at
    the end; otherwise the weight starts at the product of the c! and
    each image divides it by its run counter ``r{i}``, the length of the
    run of equal images it ends. The last level stays out of its class,
    so it is still summed in one pass over its domain.
    """
    last, edges, factors, summed, twins = shape
    slots = 1 + max((s for s, _, _ in factors), default=-1)
    code = [(0, f"def join(adj{''.join(f', t{s}' for s in range(slots))}):")]
    code += [(1, f"t{s} = {{x: c for x, c in enumerate(t{s}) if c}}")
             for s in sorted({s for s, _, vector in factors if vector})]
    # checks[i]: (later level, descent or None, near) that an image at
    # level i narrows; leaves[i]: the trie nodes its leaf values read.
    checks = [[(j, None, f"a{i}") for i_, j in edges if i_ == i]
              for i in range(last + 1)]
    leaves = [[] for _ in range(last + 1)]
    tops = [[] for _ in range(last + 1)]
    first = {}
    for k, (s, levels, _) in enumerate(factors):
        held = first.setdefault((s, levels), k)
        nodes = [f"t{s}"] + [f"n{held}_{t}" for t in range(1, len(levels))]
        if held == k:
            tops[levels[0]].append(f"t{s}.keys()")
            for t in range(len(levels) - 1):
                descent = f"{nodes[t + 1]} = {nodes[t]}[x{levels[t]}]"
                checks[levels[t]].append(
                    (levels[t + 1], descent, f"{nodes[t + 1]}.keys()"))
        leaves[levels[-1]].append(nodes[-1])
    # domains[i]: level i's domain so far; None for every host vertex.
    domains = [f"d{i}" if keys else None for i, keys in enumerate(tops)]
    code += [(1, f"d{i} = {' & '.join(keys)}")
             for i, keys in enumerate(tops) if keys]
    below, orbit = [None] * (last + 1), 1
    for levels in twins:
        levels = [i for i in levels if i < last]
        for j, i in zip(levels, levels[1:]):
            below[i] = j
        orbit *= factorial(len(levels))
    ties = [i for i, j in enumerate(below)
            if j is not None and (j, i) not in edges]
    weight = str(orbit) if ties else None
    runs = [None] * (last + 1)  # None: a run of one
    code.append((1, "total = 0" if summed or not last else
                 "out = [0] * len(adj)" if last == 1 else "out = {}"))
    for i in range(last):
        code.append((i + 1, f"for x{i} in {domains[i] or 'range(len(adj))'}:"))
        body = i + 2
        j = below[i]
        if j is not None:
            code.append((body, f"if x{i} < x{j}: continue"))
        if i in ties:
            code.append((body, f"r{i} = {runs[j] or 1} + 1 if x{i} == x{j}"
                               f" else 1"))
            runs[i] = f"r{i}"
            weight = f"{weight} // r{i}"
        if any(near == f"a{i}" for _, _, near in checks[i]):
            code.append((body, f"a{i} = adj[x{i}]"))
        shared = {}  # (domain, near) -> the name of their intersection
        for later, descent, near in checks[i]:
            if descent:
                code.append((body, descent))
            d = domains[later]
            if d is None:
                if near not in domains:
                    code.append((body, f"if not {near}: continue"))
                domains[later] = near
                continue
            if (d, near) not in shared:
                shared[d, near] = f"d{i}_{len(shared)}"
                code.append((body, f"if {d}.isdisjoint({near}): continue"))
                code.append((body, f"{shared[d, near]} = {d} & {near}"))
            domains[later] = shared[d, near]
        if leaves[i] or i in ties:
            factor = [weight] * bool(weight) + [
                f"{node}[x{i}]" for node in leaves[i]]
            code.append((body, f"w{i} = {' * '.join(factor)}"))
            weight = f"w{i}"
    body = last + 1
    domain = domains[last] or "range(len(adj))"
    if summed or not last:
        at = [f"map({node}.__getitem__, {domain})" for node in leaves[last]]
        term = (f"sum({reduce(lambda a, b: f'map(mul, {a}, {b})', at)})"
                if at else f"len({domain})")
        code.append((body, f"total += {weight} * {term}" if weight
                     else f"total += {term}"))
        code.append((1, f"return {orbit} * total" if orbit > 1 and not ties
                     else "return total"))
    else:
        value = " * ".join([weight] * bool(weight) + [
            f"{node}[y]" for node in leaves[last]]) or "1"
        if last > 1:
            code.append((body, "row = out" + "".join(
                f".setdefault(x{i}, {{}})" for i in range(1, last))))
        code.append((body, f"for y in {domain}:"))
        code.append((body + 1, "out[y] += " + value if last == 1 else
                     f"row[y] = row.get(y, 0) + {value}"))
        code.append((1, "return out"))
    return "".join("    " * depth + line + "\n" for depth, line in code)


@lru_cache(maxsize=1024)
def _steps(pattern, order, width):
    """The elimination of a connected pattern along ``order``, a tuple,
    as ``(root, steps)``: steps that name no host, for ``_eliminate`` to
    replay on each host, and the id that each host's store keeps the
    count under. Cached per pattern and order apart from ``_plan``, so
    ``treewidth_exact`` compiles nothing.

    Factors are (scope, slot, key), scopes in elimination order, so the
    bucket of a factor's first variable reads its table as it is: a
    vector over host vertices for one variable, and for more, nested
    dicts of the nonzero entries keyed in scope order. Each pattern edge
    is read as host adjacency by the bucket of its first eliminated
    endpoint. A bucket that computes is one step ``(run, reads, ident,
    frees)``: step k fills slot k with ``run(adj, *tables)`` over the
    slots in ``reads``, ``ident`` is a unary bucket's id in the host's
    store (None for other buckets; see ``_intern``), and ``frees`` holds
    the slots that no later step reads. The last step's value is the
    count.

    A key describes the bucket that made a table without naming pattern
    vertices: the pattern edges among v and its scope as level pairs,
    and the sorted (key, levels) of the bucket's factors. Every scope
    variable is v's neighbour or in one of those factors, so equal keys
    give equal tables, and a bucket whose key a remaining factor holds
    takes that factor's slot and computes nothing; no more tables are
    held than when every bucket builds its own. Unary buckets pass
    vectors, and the last vertex sums its own. Any other bucket runs
    the kernel (see ``_kernel``) of its shape, built from the same edges
    and levels as its key: the scope's length, the edges, each factor's
    position in ``reads`` (a table held twice is read once), levels and
    kind (vector or dicts), whether it is summed, and its twins. The
    last join bucket, v with a scope that holds every vertex left, sums
    all remaining factors into the count, with the twin classes of that
    whole bucket (see ``_twins``): ``cycle(4)`` and ``cycle(5)``,
    canonically labelled, tabulate only their common neighbours, once.
    If its key is held, it shares that table like any other bucket, and
    ``cycle(4)`` sums its square. The root id interns the whole last
    bucket, its edges and every factor it sums with their levels, so
    equal ids give equal counts; its key alone would not, since it
    names only the factors that hold v.

    A step whose table no later step reads is dropped, latest first, so
    that a step only it read goes too: the bucket that held its factor
    shared an equal table that an earlier bucket built. Kernels are
    compiled for the steps that stay. A scope wider than ``width``, or
    a factor out of elimination order, raises ``AssertionError``.
    """
    position = {u: i for i, u in enumerate(order)}
    factors, steps = [], []
    for i, v in enumerate(order):
        bucket = [f for f in factors if v in f[0]]
        scope = {u for u in pattern.neighbors(v) if position[u] > i}.union(
            *(f[0] for f in bucket)) - {v}
        if len(scope) > width:
            raise AssertionError("elimination scope exceeds the order's width")
        scope = tuple(sorted(scope, key=position.__getitem__))
        variables = (v,) + scope
        level = {u: j for j, u in enumerate(variables)}
        edges = tuple((j, k) for k, u in enumerate(variables) for j in range(k)
                      if variables[j] in pattern.neighbors(u))
        whole = len(scope) == len(order) - i - 1
        group = [(s, f_key, tuple(map(level.__getitem__, f_scope)))
                 for f_scope, s, f_key in (factors if whole else bucket)]
        if any(list(levels) != sorted(levels) for _, _, levels in group):
            raise AssertionError("factor scope out of elimination order")
        held = tuple(sorted(h[1:] for h in group))
        if not scope:
            steps.append((_root_sum, tuple(s for _, s, _ in bucket), None))
            break
        key = (edges, tuple(h for h in held if 0 in h[1]))
        slot = next((s for _, s, k in factors if k == key), None)
        if slot is None:
            slot = len(steps)
            if len(scope) == 1 and all(len(f[0]) == 1 for f in bucket):
                steps.append((_vector_message,
                              tuple(s for _, s, _ in bucket), key))
            else:
                reads = tuple(dict.fromkeys(s for s, _, _ in group))
                twins = _twins((edges, held)) if whole else ()
                steps.append(((len(scope), edges, tuple(
                    (reads.index(s), levels, len(levels) == 1)
                    for s, _, levels in group), whole, twins), reads, None))
                if whole:
                    break
        factors = [f for f in factors if v not in f[0]]
        factors.append((scope, slot, key))
    root = _intern(("count", edges, held))
    readers = Counter(s for _, reads, _ in steps for s in reads)
    for k in range(len(steps) - 2, -1, -1):
        if not readers[k]:
            readers.subtract(steps[k][1])
            steps[k] = None
    renamed, kept = {}, []  # slot -> its step's index among those kept
    last = {}  # kept slot -> the last step that reads it, or fills it
    for k, step in enumerate(steps):
        if step:
            run, reads, key = step
            j = renamed[k] = len(kept)
            reads = tuple(map(renamed.__getitem__, reads))
            last.update(dict.fromkeys(reads + (j,), j))
            kept.append((run if callable(run) else _kernel(run), reads,
                         key and _intern(key)))
    return root, tuple((*step, tuple(s for s, k in last.items() if k == j))
                       for j, step in enumerate(kept))


def _eliminate(steps, host, store):
    """Homomorphism count of a connected pattern on a host: its steps
    (see ``_steps``) replayed in order, each table freed after the last
    step that reads it. A unary bucket's vector is looked up in
    ``store``, the host's store (see ``_store``), before it is computed
    and stored; its id names no pattern vertex, so patterns share
    vectors on one host.
    Root sums and summed joins are left to the caller, and an empty
    table ends the count at 0."""
    adj = host._adj  # the host's own adjacency tuple, not a copy
    tables = []
    for run, reads, ident, frees in steps:
        table = store.get(ident) if ident else None
        if table is None:
            table = run(adj, *map(tables.__getitem__, reads))
            if not table:
                return 0
            if ident:
                store.put_vector(ident, table)
        tables.append(table)
        for s in frees:
            tables[s] = None
    return table


@lru_cache(maxsize=1024)
def _counted(pattern):
    """``(root id, steps)`` of ``_steps`` per component of the pattern's
    plan (see ``_plan``, whose None stands for the pattern itself), kept
    apart from it so ``treewidth_exact`` compiles nothing."""
    return tuple(_steps(pattern if comp is None else comp, order, width)
                 for comp, width, order in _plan(pattern)[2])


def _sum_plan(terms, limit, plan=None):
    """Fill ``plan``, a list (a new one if None), with the plan that
    ``_hom_sum`` replays for ``terms``, (coefficient, pattern) pairs: the
    largest pattern's size and (coefficient, ``_counted(pattern)``) per
    term. Each pattern is checked here only, before ``_counted`` works on
    it. No id the plan holds is ever given to another key, so the plan
    stays right after ``hom_cache_clear``."""
    size, entries = 0, []
    for coefficient, pattern in terms:
        if not pattern.is_loop_free():
            raise HomlatticeError("pattern must be loop-free")
        ensure_pattern_size(pattern.n, limit)
        entries.append((coefficient, _counted(pattern)))
        if pattern.n > size:
            size = pattern.n
    plan = [] if plan is None else plan
    plan[:] = size, entries
    return plan


def hom_count(pattern, host, limit=None):
    """Homomorphism count by elimination along each component's order in
    the pattern's cached plan (see ``_plan``).

    Disconnected patterns factor into a product over their components;
    each component's count is memoised per host (see the module notes).
    This replays the one-term plan of (1, pattern).
    """
    return _hom_sum(_sum_plan(((1, pattern),), limit), host, limit)


def _hom_sum(plan, host, limit=None):
    """Sum of c * hom_count(pattern, host) over a plan's terms: one host
    check, one inline size check, one store fetch and one store lookup
    per component, whose steps a miss replays. ``ensure_pattern_size`` is
    called only to raise, and ``_store`` only when the host is not the
    newest store's, so a warm replay on the host queried last calls no
    other Python function."""
    if host._loops:
        raise HostError("host must be loop-free")
    size, entries = plan
    if size > (DEFAULT_PATTERN_LIMIT if limit is None else limit):
        ensure_pattern_size(size, limit)
    if _newest is not None and _newest() is host:
        store = _memo[_newest]
    else:
        store = _store(host)
    get = store.get
    total = hits = 0
    try:
        for coefficient, components in entries:
            product = 1
            for root, steps in components:
                count = get(root)
                if count is None:
                    count = _eliminate(steps, host, store)
                    store.put_count(root, count)
                else:
                    hits += 1
                product *= count
                if product == 0:
                    break
            total += coefficient * product
    finally:
        store.hits += hits
    return total


def hom_cache_info():
    """Hits, misses, bound and size of the hom counts in the stores of
    the hosts alive and held (a host's counts leave with it). The
    vectors each store keeps beside its counts, at most (n + 2m) // n,
    are not counted here."""
    stores = list(_memo.values())
    return CacheInfo(sum(s.hits for s in stores),
                     sum(s.misses for s in stores),
                     _MEMO_HOSTS * _MEMO_TERMS,
                     sum(len(s) - len(s.vectors) for s in stores))


def hom_cache_clear():
    """Forget every memoised hom count and every stored vector message,
    and the step ids they were stored under. Cached steps, per-pattern
    lists and compiled kernels stay: no id is ever given to a second
    key, so the ids they hold name nothing stored after the clear."""
    global _newest
    _memo.clear()
    _newest = None
    _ids.clear()

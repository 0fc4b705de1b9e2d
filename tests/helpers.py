"""Shared generators and second oracles for the test suite."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import index, mul

from homlattice.errors import HomlatticeError, HostError
from homlattice.flats import blocks_connected, partition_leq
from homlattice.graphs import Graph, VertexPartition, breadth_first, \
    canonical_form, canonical_representative


def reference_graph_edges(n, edges, selfloops_allowed=False):
    """The edge set ``Graph`` stored before it kept only adjacency: each
    edge validated in input order, as sorted pairs with duplicates
    collapsed and (v, v) per selfloop. Raises what the constructor
    raises, on the same edge."""
    n = index(n)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    normalized = set()
    for u, v in edges:
        u, v = index(u), index(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            if not selfloops_allowed:
                raise ValueError(f"selfloop at {u} in a loop-free graph")
            normalized.add((u, u))
        else:
            normalized.add((u, v) if u < v else (v, u))
    return frozenset(normalized)


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
def atlas():
    """Every graph with at most 7 vertices, one per isomorphism class, as
    networkx's atlas lists them: the empty graph first."""
    import networkx as nx

    return tuple(Graph(g.number_of_nodes(), g.edges())
                 for g in nx.graph_atlas_g())


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


def reference_tree_center(tree):
    """The one or two middle vertices found by stripping leaves, layer by
    layer: the centre finder ``permtree.tree_center`` replaced."""
    if tree.n <= 2:
        return tuple(range(tree.n))
    degree = [tree.degree(v) for v in range(tree.n)]
    alive = [True] * tree.n
    layer = [v for v in range(tree.n) if degree[v] == 1]
    remaining = tree.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            alive[v] = False
            for w in tree.neighbors(v):
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(v for v in range(tree.n) if alive[v]))


def reference_tree_embeddings(pattern, host):
    """Tree embeddings by a memoised rooted search run from an explicit
    stack of generator frames: the counter ``permtree._embeddings``
    replaced."""
    if pattern.n > host.n:
        return 0
    if pattern.n == 1:
        return host.n
    root = 0
    order, parent = breadth_first(pattern, root)
    children = {v: [] for v in order}
    for v in order[1:]:
        children[parent[v]].append(v)
    memo = {}

    def maps_below(v, target, avoid):
        """Maps of v's subtree with v at target, children avoiding avoid.

        Yields each child state not yet in the memo and is sent its count,
        so deep patterns are evaluated from an explicit stack.
        """
        kids = children[v]
        targets = [t for t in host.neighbors(target) if t != avoid]
        if len(targets) < len(kids):
            return 0
        ways = {0: 1}
        for kid in kids:
            leaf = not children[kid]
            grown = {}
            for mask, weight in ways.items():
                for idx, t in enumerate(targets):
                    if mask >> idx & 1:
                        continue
                    sub = 1 if leaf else memo.get((kid, t, target))
                    if sub is None:
                        sub = yield kid, t, target
                    if sub:
                        new = mask | 1 << idx
                        grown[new] = grown.get(new, 0) + weight * sub
            ways = grown
            if not ways:
                break
        return sum(ways.values())

    total = 0
    for t in range(host.n):
        stack = [((root, t, None), maps_below(root, t, None))]
        value = None
        while stack:
            state, frame = stack[-1]
            try:
                child = frame.send(value)
            except StopIteration as done:
                value = memo[state] = done.value
                stack.pop()
            else:
                stack.append((child, maps_below(*child)))
                value = None
        total += value
    return total


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


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed 0..k-1 connected by tree edges, hung from root."""

    bags: tuple
    edges: tuple
    root: int = 0

    @property
    def width(self):
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1

    def __len__(self):
        return len(self.bags)


def validate_decomposition(td, graph):
    """Check the three decomposition axioms against the graph."""
    k = len(td.bags)
    if k == 0:
        raise HomlatticeError("decomposition has no nodes")
    if len(td.edges) != k - 1:
        raise HomlatticeError("decomposition is not a tree (wrong edge count)")
    adj = [[] for _ in range(k)]
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k):
            raise HomlatticeError("decomposition edge out of range")
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * k
    stack = [0]
    seen[0] = True
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    if not all(seen):
        raise HomlatticeError("decomposition is not connected")
    covered = set()
    for bag in td.bags:
        for v in bag:
            if not (0 <= v < graph.n):
                raise HomlatticeError(f"bag vertex {v} out of range")
        covered |= set(bag)
    if covered != set(range(graph.n)):
        raise HomlatticeError("bags do not cover the vertex set")
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            raise HomlatticeError(f"edge ({u}, {v}) not inside any bag")
    for v in range(graph.n):
        nodes = [i for i, bag in enumerate(td.bags) if v in bag]
        reach = {nodes[0]}
        stack = [nodes[0]]
        node_set = set(nodes)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in node_set and y not in reach:
                    reach.add(y)
                    stack.append(y)
        if reach != node_set:
            raise HomlatticeError(f"bags containing {v} are not connected")


def decomposition_from_order(graph, order):
    """The tree decomposition an elimination order induces, validated.

    Bag i holds the i-th vertex of the order and its neighbours among
    later vertices after fill-in; its parent is the bag of the earliest of
    those neighbours, or bag i + 1 when there is none. The tree is rooted
    at the last bag. The empty graph gets one empty bag.
    """
    if not order:
        return TreeDecomposition((frozenset(),), ())
    work, _ = graph.adjacency_masks()
    position = {v: i for i, v in enumerate(order)}
    bags = []
    edges = []
    for i, v in enumerate(order):
        neigh = work[v]
        later = []
        rest = neigh
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            later.append(u)
            work[u] |= neigh & ~low
            work[u] &= ~(1 << v)
        bags.append(frozenset([v, *later]))
        if i + 1 < len(order):
            edges.append((i, min((position[u] for u in later),
                                 default=i + 1)))
    td = TreeDecomposition(tuple(bags), tuple(edges), root=len(order) - 1)
    validate_decomposition(td, graph)
    return td


def make_nice(td):
    """Rebuild a decomposition in nice form without increasing the width.

    The result is rooted at an empty bag, every leaf is an empty bag, and
    every internal node either introduces one vertex, forgets one vertex,
    or joins two children with identical bags.
    """
    k = len(td.bags)
    adj = [[] for _ in range(k)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    bags = []
    edges = []

    def new_node(bag):
        bags.append(frozenset(bag))
        return len(bags) - 1

    def chain(child_idx, child_bag, target_bag):
        cur_idx, cur = child_idx, set(child_bag)
        for v in sorted(child_bag - target_bag):
            cur.discard(v)
            idx = new_node(cur)
            edges.append((idx, cur_idx))
            cur_idx = idx
        for v in sorted(target_bag - child_bag):
            cur.add(v)
            idx = new_node(cur)
            edges.append((idx, cur_idx))
            cur_idx = idx
        return cur_idx

    def build(node, parent):
        bag = td.bags[node]
        kids = [c for c in adj[node] if c != parent]
        if not kids:
            leaf = new_node(frozenset())
            return chain(leaf, frozenset(), bag)
        tops = []
        for c in kids:
            ci = build(c, node)
            tops.append(chain(ci, td.bags[c], bag))
        while len(tops) > 1:
            a = tops.pop()
            b = tops.pop()
            j = new_node(bag)
            edges.append((j, a))
            edges.append((j, b))
            tops.append(j)
        return tops[0]

    top = build(td.root if 0 <= td.root < k else 0, -1)
    root_bag = td.bags[td.root if 0 <= td.root < k else 0]
    root = chain(top, root_bag, frozenset())
    return TreeDecomposition(tuple(bags), tuple(edges), root=root)


def _node_kinds(td):
    """Classify each node of a rooted nice decomposition."""
    k = len(td.bags)
    adj = [[] for _ in range(k)]
    for a, b in td.edges:
        adj[a].append(b)
        adj[b].append(a)
    kinds = {}
    order = []
    stack = [(td.root, -1)]
    while stack:
        node, parent = stack.pop()
        kids = [c for c in adj[node] if c != parent]
        order.append((node, kids))
        for c in kids:
            stack.append((c, node))
    for node, kids in order:
        bag = td.bags[node]
        if not kids:
            if bag:
                raise HomlatticeError("nice form violated: nonempty leaf")
            kinds[node] = ("leaf",)
        elif len(kids) == 1:
            child_bag = td.bags[kids[0]]
            if len(bag) == len(child_bag) + 1 and child_bag < bag:
                (v,) = bag - child_bag
                kinds[node] = ("introduce", v)
            elif len(bag) == len(child_bag) - 1 and bag < child_bag:
                (v,) = child_bag - bag
                kinds[node] = ("forget", v)
            else:
                raise HomlatticeError("nice form violated: bad unary node")
        elif len(kids) == 2:
            if td.bags[kids[0]] != bag or td.bags[kids[1]] != bag:
                raise HomlatticeError("nice form violated: join bags differ")
            kinds[node] = ("join",)
        else:
            raise HomlatticeError("nice form violated: node with >2 children")
    return kinds, list(reversed(order))


def nice_dp_count(pattern, host, td):
    """Second oracle for the elimination engine: the homomorphism count by
    the leaf/introduce/forget/join DP over a nice form of a valid
    decomposition of the pattern. Counts are exact Python integers."""
    if not pattern.is_loop_free():
        raise HomlatticeError("pattern must be loop-free")
    if not host.is_loop_free():
        raise HostError("host must be loop-free")
    validate_decomposition(td, pattern)
    nice = make_nice(td)
    kinds, postorder = _node_kinds(nice)
    host_adj = [host.neighbors(v) for v in range(host.n)]
    all_hosts = list(range(host.n))
    tables = {}
    for node, kids in postorder:
        kind = kinds[node]
        if kind[0] == "leaf":
            tables[node] = {(): 1}
        elif kind[0] == "introduce":
            v = kind[1]
            bag = sorted(nice.bags[node])
            pos = bag.index(v)
            child = kids[0]
            child_table = tables.pop(child)
            neigh_pos = []
            for u in pattern.neighbors(v):
                if u in nice.bags[node]:
                    i = bag.index(u)
                    neigh_pos.append(i - 1 if i > pos else i)
            table = {}
            if neigh_pos:
                for key, cnt in child_table.items():
                    candidate_sets = sorted(
                        (host_adj[key[i]] for i in neigh_pos), key=len)
                    base = candidate_sets[0]
                    rest = candidate_sets[1:]
                    for g in base:
                        if all(g in s for s in rest):
                            table[key[:pos] + (g,) + key[pos:]] = cnt
            else:
                for key, cnt in child_table.items():
                    for g in all_hosts:
                        table[key[:pos] + (g,) + key[pos:]] = cnt
            tables[node] = table
        elif kind[0] == "forget":
            v = kind[1]
            child = kids[0]
            child_bag = sorted(nice.bags[child])
            pos = child_bag.index(v)
            table = {}
            for key, cnt in tables.pop(child).items():
                short = key[:pos] + key[pos + 1:]
                table[short] = table.get(short, 0) + cnt
            tables[node] = table
        else:
            a, b = kids
            ta = tables.pop(a)
            tb = tables.pop(b)
            if len(tb) < len(ta):
                ta, tb = tb, ta
            table = {}
            for key, cnt in ta.items():
                other = tb.get(key)
                if other is not None:
                    table[key] = cnt * other
            tables[node] = table
    return tables[nice.root].get((), 0)


def reference_canonical_search(graph):
    """Second oracle for ``graphs._canonical_search``, the search it
    replaced, with no twin pruning: the minimal adjacency bit string over
    all relabelings, plus a witness.

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


def reference_count_automorphisms(graph):
    """Second oracle for ``graphs.count_automorphisms``, the counter it
    replaced: backtrack through the edge- and loop-preserving bijections
    one at a time, mapping each vertex only to vertices of the same loop
    bit and degree."""
    n = graph.n
    masks, loop_mask = graph.adjacency_masks()
    invar = [((loop_mask >> v) & 1, graph.degree(v)) for v in range(n)]
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

    place(0)
    return count


def nonzero_entries(table):
    """A factor table as a dict from key tuples to its nonzero values, be
    it a number (empty scope), a vector, a dict keyed by tuples or nested
    dicts keyed one variable at a time."""
    if isinstance(table, int):
        return {(): table} if table else {}
    if isinstance(table, list):
        return {(x,): c for x, c in enumerate(table) if c}
    entries = {}
    for key, value in table.items():
        if isinstance(value, dict):
            for rest, c in nonzero_entries(value).items():
                entries[(key,) + rest] = c
        elif value:
            entries[key if isinstance(key, tuple) else (key,)] = value
    return entries


def _reference_trie(scope, table, rank):
    """Nested dicts keyed by the scope's variables in rank order, with the
    factor's nonzero values at the leaves."""
    perm = sorted(range(len(scope)), key=lambda j: rank[scope[j]])
    last = perm.pop()
    trie = {}
    for key, value in nonzero_entries(table).items():
        node = trie
        for j in perm:
            node = node.setdefault(key[j], {})
        node[key[last]] = value
    return trie


def reference_join(pattern, adj, v, scope, bucket):
    """Second oracle for the compiled joins (``treedp._kernel``), the join
    they replaced: sum v out of any bucket by one join over v and then the
    scope, with no forward checking. A variable's candidates are the host
    neighbourhoods of its pattern neighbours assigned before it,
    intersected with the trie level of every factor that holds it; a
    branch is found dead only when its last level's candidate set is
    empty. Takes factor tables in any nesting and returns a vector for
    one scope variable, the sum for none, and a dict keyed by scope tuples
    for more."""
    variables = (v,) + scope
    rank = {u: i for i, u in enumerate(variables)}
    earlier = [[j for j in range(i) if variables[j] in pattern.neighbors(u)]
               for i, u in enumerate(variables)]
    # steps[i]: (slot read, slot written or None for a leaf value) per
    # factor holding variable i; a factor's trie walks down its slots.
    steps = [[] for _ in variables]
    slots = []
    for f_scope, table in bucket:
        base = len(slots)
        slots.append(_reference_trie(f_scope, table, rank))
        slots.extend([None] * (len(f_scope) - 1))
        for t, u in enumerate(sorted(f_scope, key=rank.__getitem__)):
            write = base + t + 1 if t + 1 < len(f_scope) else None
            steps[rank[u]].append((base + t, write))
    last = len(variables) - 1
    image = [0] * len(variables)
    out = {}

    def extend(i, weight):
        sets = [adj[image[j]] for j in earlier[i]]
        sets += [slots[read] for read, _ in steps[i]]
        sets.sort(key=len)
        candidates = sets[0] if sets else range(len(adj))
        for other in sets[1:]:
            candidates = (other.keys() & candidates if isinstance(other, dict)
                          else other.intersection(candidates))
        if i == last:
            prefix = tuple(image[1:i])
            leaves = [slots[read] for read, _ in steps[i]]
            for x in candidates:
                w = weight
                for leaf in leaves:
                    w *= leaf[x]
                key = prefix + (x,)
                out[key] = out.get(key, 0) + w
            return
        for x in candidates:
            w = weight
            for read, write in steps[i]:
                if write is None:
                    w *= slots[read][x]
                else:
                    slots[write] = slots[read][x]
            image[i] = x
            extend(i + 1, w)

    extend(0, 1)
    # With an empty scope the keys are v's own values.
    if not scope:
        return sum(out.values())
    if len(scope) == 1:
        vector = [0] * len(adj)
        for (y,), c in out.items():
            vector[y] = c
        return vector
    return out


def interpreted_join(pattern, adj, v, scope, bucket, summed=False,
                     twins=()):
    """Second oracle for the compiled joins (``treedp._kernel``), the
    orbit-aware join they replaced: the arguments of ``reference_join``
    and ``summed`` and ``twins`` as a kernel's shape holds them, but one
    interpreted join that walks the bucket's description per image
    instead of one compiled kernel per bucket shape.

    The join assigns v first and then the scope's variables in order,
    reads each factor's nested table as a trie along its scope and
    narrows every later level's domain as each level is assigned
    (forward checking), testing a domain for disjointness before it is
    intersected. With ``summed`` it returns the total; ``twins``, given
    with ``summed`` only, holds the bucket's classes of interchangeable
    levels, and each class takes its images in non-decreasing order,
    each assignment weighing c! / (m1! m2! ...) for a class of c levels
    whose images repeat m1, m2, ... times. The last level stays out of
    its class, and a tie runs in a call of its own."""
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


def reference_eliminate(pattern, host, order, width):
    """Second oracle for ``treedp._eliminate``, the elimination it
    replaced: every bucket takes the factors holding v and is tabulated
    by ``reference_join`` on its own, no two buckets share a table, and
    the last vertex's bucket is summed the same way. Factors are (scope,
    table) pairs with scopes in elimination order."""
    adj = host._adj
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
        table = reference_join(pattern, adj, v, scope, bucket)
        if not scope:
            total *= table
        elif table:
            factors.append((scope, table))
        else:
            return 0
        if total == 0:
            return 0
    return total

"""Brute-force reference counters.

Everything here enumerates exhaustively, so the fast paths can be
validated against it. It reuses only ``Graph``, ``quotient`` and
``bfs_distances``, and ``apply_restriction`` for the constraint pairs of
custom restrictions and of quotient counts; no flats, expansions or
elimination orders. Built-in restriction kinds are counted from their
definitions (injectivity, neighborhood injectivity) rather than through
constraint graphs. Enumerations refuse to start when the search space
exceeds the budget.
"""

from itertools import combinations, permutations, product

from .errors import BudgetError, HomlatticeError
from .graphs import Graph, bfs_distances, quotient
from .restrictions import apply_restriction

DEFAULT_BUDGET = 10 ** 8


def _check_budget(size, budget):
    if size > budget:
        raise BudgetError(
            f"enumeration of {size} maps exceeds budget {budget}")


def _hom_search(pattern, host, accept_partial, accept_full):
    """Count assignments that are homomorphisms and pass both filters.

    accept_partial(v, image) may prune as vertex v is assigned; the full
    predicate runs on complete maps only.
    """
    n = pattern.n
    if n == 0:
        return 1 if accept_full(()) else 0
    pre_neighbors = [sorted(u for u in pattern.neighbors(v) if u < v)
                     for v in range(n)]
    hosts = range(host.n)
    host_has = host.has_edge
    image = [0] * n
    count = 0

    def walk(v):
        nonlocal count
        for g in hosts:
            ok = True
            for u in pre_neighbors[v]:
                if not host_has(image[u], g):
                    ok = False
                    break
            if not ok:
                continue
            if not accept_partial(v, g, image):
                continue
            image[v] = g
            if v + 1 == n:
                if accept_full(tuple(image)):
                    count += 1
            else:
                walk(v + 1)

    walk(0)
    return count


def _injective(v, g, image):
    return g not in image[:v]


def brute_hom(pattern, host, budget=DEFAULT_BUDGET):
    """Exact homomorphism count by exhaustive search."""
    if not pattern.is_loop_free() or not host.is_loop_free():
        raise HomlatticeError("oracle expects loop-free graphs")
    _check_budget(max(host.n, 1) ** pattern.n, budget)
    return _hom_search(pattern, host,
                       lambda v, g, image: True,
                       lambda image: True)


def brute_restricted(restriction, pattern, host, budget=DEFAULT_BUDGET):
    """Exact restricted homomorphism count from the defining property.

    hom counts every homomorphism; emb the injective ones; li those
    injective on each open neighborhood; li:R those injective on each
    closed radius-R ball. Custom restrictions fall back to the separation
    condition over their constraint edges.
    """
    if not pattern.is_loop_free() or not host.is_loop_free():
        raise HomlatticeError("oracle expects loop-free graphs")
    _check_budget(max(host.n, 1) ** pattern.n, budget)
    kind = restriction.kind
    if kind == "hom":
        return brute_hom(pattern, host, budget)
    if kind == "emb":
        return _hom_search(pattern, host, _injective, lambda image: True)
    if kind == "li":
        if restriction.radius is None:
            zones = [sorted(pattern.neighbors(v)) for v in range(pattern.n)]
        else:
            r = restriction.radius
            zones = []
            for v in range(pattern.n):
                dist = bfs_distances(pattern, v)
                zones.append(sorted(u for u in range(pattern.n)
                                    if dist[u] <= r))

        def injective_on_zones(image):
            for zone in zones:
                seen = set()
                for u in zone:
                    if image[u] in seen:
                        return False
                    seen.add(image[u])
            return True

        return _hom_search(pattern, host,
                           lambda v, g, image: True,
                           injective_on_zones)
    constraint = apply_restriction(restriction, pattern)
    pairs = sorted(constraint.edges)

    def separated(image):
        return all(image[u] != image[v] for u, v in pairs)

    return _hom_search(pattern, host,
                       lambda v, g, image: True,
                       separated)


def brute_subgraphs(pattern, host, budget=DEFAULT_BUDGET):
    """Number of subgraphs of the host isomorphic to the pattern.

    A subgraph is a vertex subset together with an edge subset inside it;
    both sizes must match the pattern before the isomorphism test runs.
    With equal vertex and edge counts an injective homomorphism from the
    pattern is an isomorphism, so the test is one more injective search.
    """
    if not pattern.is_loop_free() or not host.is_loop_free():
        raise HomlatticeError("oracle expects loop-free graphs")
    k = pattern.n
    if k > host.n:
        return 0
    work = 0
    count = 0
    host_edges = host.edge_list()
    for verts in combinations(range(host.n), k):
        vset = set(verts)
        inside = [e for e in host_edges if e[0] in vset and e[1] in vset]
        if len(inside) < pattern.m:
            continue
        work += 2 ** len(inside)
        _check_budget(work, budget)
        index = {v: i for i, v in enumerate(verts)}
        for chosen in combinations(inside, pattern.m):
            candidate = Graph(k, [(index[u], index[v]) for u, v in chosen])
            if _hom_search(pattern, candidate, _injective,
                           lambda image: True):
                count += 1
    return count


def brute_restricted_quotient(restriction, pattern, flat, host,
                              budget=DEFAULT_BUDGET):
    """Homomorphisms from the quotient of the pattern along a flat that
    separate every constrained pair lying in distinct blocks."""
    if not pattern.is_loop_free() or not host.is_loop_free():
        raise HomlatticeError("oracle expects loop-free graphs")
    partition = getattr(flat, "partition", flat)
    q = quotient(pattern, partition)
    _check_budget(max(host.n, 1) ** q.n, budget)
    constraint = apply_restriction(restriction, pattern)
    block_of = partition.block_of
    sep_pairs = sorted({(block_of[u], block_of[v])
                        for u, v in constraint.edges
                        if block_of[u] != block_of[v]})
    q_edges = sorted(q.edges)
    count = 0
    if any(a == b for a, b in q_edges):
        return 0

    def ok(image):
        for a, b in q_edges:
            if not host.has_edge(image[a], image[b]):
                return False
        for a, b in sep_pairs:
            if image[a] == image[b]:
                return False
        return True

    for image in product(range(host.n), repeat=q.n):
        if ok(image):
            count += 1
    return count


def permanent_direct(matrix):
    """Permanent by summing over all permutations; n <= 7."""
    n = _check_matrix(matrix)
    if n > 7:
        raise BudgetError("direct permanent enumeration limited to n <= 7")
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix[i][j]
            if prod == 0:
                break
        total += prod
    return total


def permanent_ryser(matrix):
    """Permanent by inclusion-exclusion over column subsets; n <= 20.

    Subsets are walked in Gray-code order so each step updates the row
    sums by a single column.
    """
    n = _check_matrix(matrix)
    if n > 20:
        raise BudgetError("Ryser permanent limited to n <= 20")
    if n == 0:
        return 1
    row_sums = [0] * n
    total = 0
    prev_gray = 0
    for s in range(1, 1 << n):
        gray = s ^ (s >> 1)
        diff = gray ^ prev_gray
        j = diff.bit_length() - 1
        sign_col = 1 if gray & diff else -1
        for i in range(n):
            row_sums[i] += sign_col * matrix[i][j]
        prev_gray = gray
        prod = 1
        for value in row_sums:
            prod *= value
            if prod == 0:
                break
        if bin(gray).count("1") % 2 == n % 2:
            total += prod
        else:
            total -= prod
    return total


def _check_matrix(matrix):
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise HomlatticeError("matrix must be square")
        for value in row:
            if value not in (0, 1):
                raise HomlatticeError("matrix entries must be 0 or 1")
    return n

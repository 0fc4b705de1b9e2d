import gc
import random
import weakref

import pytest

from homlattice import treedp
from homlattice.basis import count_restricted
from homlattice.cache import LRUCache
from homlattice.errors import HomlatticeError, HostError, PatternSizeError
from homlattice.graphs import (Graph, biclique, canonical_representative,
                               clique, connected_components, cycle, path,
                               star)
from homlattice.oracle import brute_hom, brute_restricted
from homlattice.restrictions import EMB, LI, locally_injective
from homlattice.treedp import hom_count, treewidth_exact
from helpers import (TreeDecomposition, all_trees, atlas,
                     decomposition_from_order,
                     graphs_up_to, make_nice, nice_dp_count, nonzero_entries,
                     random_graph, random_host, random_tree,
                     reference_eliminate, reference_join,
                     validate_decomposition)


def test_exact_treewidth_values():
    for graph, width in [
        (path(4), 1),
        (cycle(5), 2),
        (clique(4), 3),
        (Graph(1), 0),
        (Graph(3), 0),
        (star(3), 1),
        (biclique(3), 3),
    ]:
        got, order = treewidth_exact(graph)
        assert got == width
        assert sorted(order) == list(range(graph.n))
        assert decomposition_from_order(graph, order).width == width


def test_treewidth_respects_pattern_limit():
    with pytest.raises(PatternSizeError):
        treewidth_exact(path(13))
    width, _ = treewidth_exact(path(13), limit=13)
    assert width == 1
    # The order is cached now; the size check still runs on every call.
    with pytest.raises(PatternSizeError):
        treewidth_exact(path(13))
    with pytest.raises(PatternSizeError):
        hom_count(path(13), path(2))


def test_decomposition_validates():
    graph = cycle(4)
    td = decomposition_from_order(graph, treewidth_exact(graph)[1])
    validate_decomposition(td, graph)
    broken = TreeDecomposition(
        tuple(frozenset([0]) for _ in td.bags), td.edges, td.root)
    with pytest.raises(HomlatticeError):
        validate_decomposition(broken, graph)


def test_nice_form_still_validates():
    graph = cycle(5)
    order = treewidth_exact(graph)[1]
    nice = make_nice(decomposition_from_order(graph, order))
    validate_decomposition(nice, graph)
    assert not nice.bags[nice.root]


def test_engine_matches_both_oracles():
    rng = random.Random(31)
    hosts = [Graph(0), Graph(4), Graph(6, [(0, 1), (1, 2), (0, 2)]),
             random_host(rng, 6, 9), random_graph(rng, 5, 0.7)]
    for pattern in (Graph(0),) + graphs_up_to(5):
        width, order = treewidth_exact(pattern)
        td = decomposition_from_order(pattern, order)
        assert td.width == width
        for host in hosts:
            expected = brute_hom(pattern, host)
            assert hom_count(pattern, host) == expected
            assert nice_dp_count(pattern, host, td) == expected


def test_vector_path_matches_general_join(monkeypatch):
    rng = random.Random(37)
    host = random_host(rng, 40, 90)
    join = treedp._join
    joined = []

    def recorded(*args):
        joined.append(args[0])
        return join(*args)

    monkeypatch.setattr(treedp, "_join", recorded)
    trees = all_trees(7)
    vector = [hom_count(tree, host) for tree in trees]
    assert not joined  # every bucket of a tree takes the vector path
    # Recount with every bucket forced through _join, not from the memo.
    treedp.hom_cache_clear()
    monkeypatch.setattr(treedp, "_vector_message", recorded)
    assert [hom_count(tree, host) for tree in trees] == vector
    assert set(joined) == set(trees)
    assert vector == [nice_dp_count(tree, host, decomposition_from_order(
        tree, treewidth_exact(tree)[1])) for tree in trees]


def test_join_matches_reference_join(monkeypatch):
    rng = random.Random(31)
    hosts = [Graph(0), Graph(4), Graph(6, [(0, 1), (1, 2), (0, 2)]),
             random_host(rng, 6, 9), random_graph(rng, 5, 0.7)]
    # 600 edges on the first 180 of 200 vertices: 20 stay isolated.
    hosts.append(Graph(200, random_host(rng, 180, 600).edges))
    join = treedp._join
    calls = []

    def recorded(*args, **kwargs):
        table = join(*args, **kwargs)
        calls.append((args, kwargs.get("summed", False), table))
        return table

    monkeypatch.setattr(treedp, "_join", recorded)
    for host in hosts:
        for pattern in (Graph(0),) + graphs_up_to(5):
            hom_count(pattern, host)
    sizes = {summed: {len(args[3]) for args, kind, _ in calls
                      if kind == summed}
             for summed in (False, True)}
    # A last bucket whose table is live sums that table over its own
    # scope, so a one-variable scope is summed too.
    assert sizes == {False: {1, 2, 3}, True: {1, 2, 3, 4}}
    for args, summed, table in calls:
        expected = nonzero_entries(reference_join(*args))
        if summed:  # the last bucket: v and its scope summed out
            assert table == sum(expected.values())
        else:
            assert nonzero_entries(table) == expected


def _summed_joins(monkeypatch):
    """Record each summed join's arguments, twin classes and total."""
    join = treedp._join
    calls = []

    def recorded(*args, **kwargs):
        table = join(*args, **kwargs)
        if kwargs.get("summed"):
            calls.append((args, kwargs["twins"], table))
        return table

    monkeypatch.setattr(treedp, "_join", recorded)
    return calls


def test_summed_joins_match_reference_join_on_dense_hosts(monkeypatch):
    """Every graph with at most 7 vertices, randomly relabelled, on K6 and
    on random graphs at p = 0.9: dense enough that twins which are not
    adjacent often share an image, so ties are weighed too. The join
    without orbits counts every ordering of the twins."""
    rng = random.Random(83)
    hosts = [clique(6)] + [random_graph(rng, 7, 0.9) for _ in range(3)]
    calls = _summed_joins(monkeypatch)
    for k, pattern in enumerate(atlas()):
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        treedp.hom_cache_clear()
        hom_count(pattern.relabeled(perm), hosts[k % len(hosts)])
    loose = 0  # summed joins whose twins may tie, below the last level
    for (pattern, adj, v, scope, bucket), twins, total in calls:
        variables = (v,) + scope
        loose += any(len([j for j in levels if j < len(scope)]) > 1
                     and variables[levels[1]] not in pattern.neighbors(
                         variables[levels[0]]) for levels in twins)
        assert total == sum(nonzero_entries(
            reference_join(pattern, adj, v, scope, bucket)).values())
    assert len(calls) > 1000 and sum(bool(t) for _, t, _ in calls) > 400
    assert loose > 80


def test_orbit_shapes_and_work(monkeypatch):
    """The canonical K3's summed bucket is one class of three, the
    canonical cycle(4) sums a table symmetric in its two positions, and
    the canonical cycle(7)'s last join has no twins. The K3 join keeps
    its last level out of the class, so it weighs each increasing pair of
    images 2! and examines each host edge once at level 1, where every
    ordering of the twins took both of its directions."""
    host = random_host(random.Random(89), 200, 600)
    calls = _summed_joins(monkeypatch)
    keys = []
    twins_of = treedp._twins
    monkeypatch.setattr(treedp, "_twins",
                        lambda key: keys.append(key) or twins_of(key))
    triangles, four, _ = _traces(host)
    shapes = {}
    for pattern, count, twins in [(clique(3), triangles, ((0, 1, 2),)),
                                  (cycle(4), four, ((0, 1),)),
                                  (cycle(7), None, ())]:
        calls.clear()
        keys.clear()
        treedp.hom_cache_clear()
        total = hom_count(canonical_representative(pattern), host)
        assert count in (None, total)
        assert [t for _, t, _ in calls] == [twins]
        shapes[pattern] = calls[0], keys[0]
    # Both factors of the canonical cycle(4)'s summed bucket hold its one
    # common-neighbour table on levels (0, 1); the swap reads it as
    # T(1, 0), which its symmetric positions make T(0, 1).
    (table_key, levels), = set(shapes[cycle(4)][1][1])
    assert levels == (0, 1)
    assert table_key == (((0, 1), (0, 2)), ())  # v adjacent to both
    assert twins_of(table_key) == ((1, 2),)

    class Counted(frozenset):
        """A neighbourhood that records the images tested against it."""

        def isdisjoint(self, other):
            examined.append(other)
            return frozenset.isdisjoint(self, other)

    examined = []
    adj = tuple(map(Counted, host._adj))
    assert min(map(len, adj)) > 0
    (pattern, _, v, scope, bucket), twins, total = shapes[clique(3)][0]
    # Level 0 leaves level 2 the neighbourhood of its image, and each
    # level-1 image that level 1 takes is tested against it once.
    for classes, images in [(twins, host.m), ((), 2 * host.m)]:
        examined.clear()
        assert treedp._join(pattern, adj, v, scope, bucket, summed=True,
                            twins=classes) == total
        assert len(examined) == images


def _both_eliminations(graph, host):
    """The count of each component by ``_eliminate``, multiplied, and the
    whole graph's count by ``reference_eliminate`` along the plan's
    order."""
    width, order, parts = treedp._plan(graph)
    count = 1
    for comp, comp_width, local in parts:
        comp = graph if comp is None else comp
        count *= treedp._eliminate(comp, host, local, comp_width)
    return count, reference_eliminate(graph, host, order, width)


def test_eliminate_matches_reference_eliminate():
    rng = random.Random(71)
    hosts = [Graph(5), random_host(rng, 12, 30), random_graph(rng, 9, 0.4),
             Graph(14, random_host(rng, 10, 20).edges)]
    small = random_host(rng, 8, 14)
    for pattern in graphs_up_to(6):
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        graph = pattern.relabeled(perm)
        for host in hosts:
            new, old = _both_eliminations(graph, host)
            assert new == old
        if pattern.n > 1 and connected_components(pattern)[0] == 1:
            # Other orders make other buckets, and other tables to share.
            for _ in range(3):
                rng.shuffle(perm)
                assert (treedp._eliminate(graph, small, perm, pattern.n)
                        == reference_eliminate(graph, small, perm,
                                               pattern.n))
    # Eliminating 2, 3, 5 and 6 leaves two buckets with equal edges and
    # equal child tables, held at other levels: their tables differ.
    graph = Graph(7, [(0, 6), (1, 5), (2, 4), (2, 6), (3, 4), (3, 5),
                      (4, 5), (4, 6)])
    order = (2, 3, 5, 6, 0, 4, 1)
    assert (treedp._eliminate(graph, small, order, 7)
            == reference_eliminate(graph, small, order, 7))
    # Buckets 0 and 1 share one triangle table, and buckets 2 and 3 one
    # vector summed from it: 3 is the last join bucket, its scope is 4
    # alone, and the root sums the shared vector's square.
    graph = Graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
    order = (0, 1, 2, 3, 4)
    assert (treedp._eliminate(graph, small, order, 5)
            == reference_eliminate(graph, small, order, 5))
    uniform = random_host(rng, 300, 600)
    # A hub joined to every other vertex makes the widest tables.
    hub = Graph(40, set(random_host(rng, 40, 80).edges)
                | {(0, x) for x in range(1, 40)})
    patterns = [cycle(k) for k in range(4, 8)]
    patterns += [clique(k) for k in range(3, 6)] + [biclique(3)]
    for pattern in patterns:
        for graph in (pattern, canonical_representative(pattern)):
            for host in (uniform, hub):
                new, old = _both_eliminations(graph, host)
                assert new == old


def test_tables_stay_within_the_common_neighbour_bound(monkeypatch):
    host = random_host(random.Random(67), 300, 900)
    bound = sum(host.degree(x) ** 2 for x in range(host.n))
    join = treedp._join
    calls = []

    def recorded(*args, **kwargs):
        table = join(*args, **kwargs)
        calls.append((kwargs.get("summed", False), len(args[3]), table))
        return table

    monkeypatch.setattr(treedp, "_join", recorded)
    # Each cycle's two buckets of common neighbours share one table, and
    # the 3-walk table of the last three vertices is never built. (The
    # default labelling of cycle(5) eliminates two adjacent vertices
    # first, so its second table is the 3-walk table.) The canonical
    # cycle(4)'s last bucket has the shape of its first, so it sums the
    # square of that live table over a one-variable scope.
    triangles, four, five = _traces(host)
    for pattern, tabulated, last_scope, count in [
            (cycle(4), 1, 2, four),
            (canonical_representative(cycle(4)), 1, 1, four),
            (canonical_representative(cycle(5)), 1, 2, five),
            (clique(3), 0, 2, triangles)]:
        calls.clear()
        assert hom_count(pattern, host) == count
        assert [summed for summed, _, _ in calls] == (
            [False] * tabulated + [True])
        assert calls[-1][1:] == (last_scope, count)
        for _, _, table in calls[:-1]:
            assert len(nonzero_entries(table)) <= bound
    vector = treedp._vector_message
    messages = []

    def counted(*args):
        messages.append(args[3])
        return vector(*args)

    monkeypatch.setattr(treedp, "_vector_message", counted)
    # Both leaves share one degree vector and both middle vertices one
    # message; the root sums. hom(path(5)) counts the walks with 4 edges.
    middle = [sum(host.degree(y) for y in host.neighbors(x))
              for x in range(host.n)]
    pattern = canonical_representative(path(5))
    assert hom_count(pattern, host) == sum(c * c for c in middle)
    assert len(messages) == 3


def test_join_tables_leave_with_their_last_reader(monkeypatch):
    """Tables are freed by reference counting alone: with the cyclic
    collector off, each ``_join`` call finds at most one table over two
    or more variables alive, the one its own bucket reads. A recursive
    closure kept alive by its own reference would hold a finished join's
    input tables until the collector ran."""
    host = random_host(random.Random(67), 300, 900)
    join = treedp._join
    tables = []
    alive = []

    class Table(dict):  # a dict that takes weak references
        pass

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in tables))
        table = join(*args, **kwargs)
        if isinstance(table, dict):
            table = Table(table)
            tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(treedp, "_join", tracked)
    gc.collect()
    gc.disable()
    try:
        for pattern in (cycle(6), cycle(7)):
            alive.clear()
            assert hom_count(pattern, host) > 0
            assert len(alive) > 2 and max(alive) == 1
    finally:
        gc.enable()


def _traces(host):
    """tr(A^3), tr(A^4) and tr(A^5) of the host's adjacency matrix A, by
    counting walks: (A^(a+b))_ss is the sum over x of (A^a)_sx (A^b)_sx."""
    traces = [0, 0, 0]
    for s in range(host.n):
        walks = [{s: 1}]
        for _ in range(3):
            step = {}
            for x, c in walks[-1].items():
                for y in host.neighbors(x):
                    step[y] = step.get(y, 0) + c
            walks.append(step)
        _, one, two, three = walks
        traces[0] += sum(c * two.get(x, 0) for x, c in one.items())
        traces[1] += sum(c * c for c in two.values())
        traces[2] += sum(c * three.get(x, 0) for x, c in two.items())
    return traces


def test_cycle_counts_on_large_hosts_are_traces():
    rng = random.Random(53)
    uniform = random_host(rng, 300, 900)
    hub = Graph(300, set(random_host(rng, 300, 800).edges)
                | {(0, x) for x in range(1, 101)})
    patterns = [clique(3), cycle(4), cycle(5)]
    for host in (uniform, hub):
        counts = [hom_count(p, host) for p in patterns]
        assert counts == _traces(host)
        for pattern, count in zip(patterns, counts):
            canonical = canonical_representative(pattern)
            # The cycles' two labellings give other buckets along the
            # order; a labelled triangle is its own form.
            assert (canonical != pattern) == (pattern.m > 3)
            assert hom_count(canonical, host) == count


def test_scope_beyond_width_is_caught():
    _, order = treedp._exact_order(cycle(4))
    with pytest.raises(AssertionError):
        treedp._eliminate(cycle(4), clique(3), order, 1)


def test_factor_out_of_elimination_order_is_caught():
    # Tables nest in scope order, which must be the bucket's level order.
    with pytest.raises(AssertionError):
        treedp._join(cycle(4), (), 0, (1, 3), [((0, 3, 1), {})])


def test_counts_match_brute_force():
    rng = random.Random(13)
    for _ in range(40):
        pattern = random_graph(rng, rng.randrange(1, 6), 0.5)
        host = random_graph(rng, rng.randrange(1, 6), 0.5)
        assert hom_count(pattern, host) == brute_hom(pattern, host)


def test_known_hom_counts():
    assert hom_count(path(3), clique(3)) == 12
    assert hom_count(clique(3), clique(4)) == 24
    assert hom_count(Graph(3), clique(4)) == 64
    assert hom_count(clique(3), cycle(5)) == 0
    assert hom_count(cycle(4), clique(3)) == 18


def test_disjoint_union_multiplies():
    pattern = Graph(5, [(0, 1), (2, 3), (3, 4)])
    host = random_host(random.Random(1), 6, 9)
    assert hom_count(pattern, host) == (
        hom_count(path(2), host) * hom_count(path(3), host))


def test_host_monotone_under_edge_addition():
    rng = random.Random(21)
    pattern = path(4)
    host = random_host(rng, 6, 6)
    more = Graph(6, list(host.edges) + [(0, 5)])
    assert hom_count(pattern, more) >= hom_count(pattern, host)


def test_memo_counts_match_brute_force_cold_and_warm():
    rng = random.Random(41)
    hosts = [random_graph(rng, rng.randrange(1, 7), 0.5) for _ in range(3)]
    patterns = [random_graph(rng, rng.randrange(1, 6), 0.4)
                for _ in range(25)]
    for _ in range(2):  # the first pass fills the memo, the second hits it
        for host in hosts:
            for pattern in patterns:
                assert hom_count(pattern, host) == brute_hom(pattern, host)
                for restriction in (EMB, LI, locally_injective(2)):
                    assert (count_restricted(restriction, pattern, host)
                            == brute_restricted(restriction, pattern, host))
    assert treedp.hom_cache_info().hits > 0


def test_memo_matches_an_equal_host():
    host = random_host(random.Random(5), 8, 12)
    count = hom_count(cycle(4), host)
    copy = Graph(host.n, list(host.edges))
    assert copy is not host and copy == host
    hits = treedp.hom_cache_info().hits
    assert hom_count(cycle(4), copy) == count
    assert treedp.hom_cache_info().hits == hits + 1


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(treedp, "_MEMO_TERMS", 3)
    rng = random.Random(43)
    hosts = [random_host(rng, 7, 10) for _ in range(treedp._MEMO_HOSTS + 2)]
    patterns = [path(2), path(3), star(3), cycle(4), clique(3), cycle(5)]
    for _ in range(2):  # the second pass finds the first hosts evicted
        for host in hosts:
            for pattern in patterns:
                assert hom_count(pattern, host) == brute_hom(pattern, host)
                info = treedp.hom_cache_info()
                assert info.currsize <= info.maxsize == treedp._MEMO_HOSTS * 3
                assert len(treedp._memo) <= treedp._MEMO_HOSTS
                assert all(len(c) <= 3 for c, _ in treedp._memo.values())
    treedp.hom_cache_clear()
    assert treedp.hom_cache_info().currsize == 0


def test_warm_vector_store_matches_the_oracles():
    rng = random.Random(73)
    patterns = all_trees(7) + graphs_up_to(5)
    for host in (random_host(rng, 40, 90), random_host(rng, 9, 16)):
        expected = [nice_dp_count(p, host, decomposition_from_order(
            p, treewidth_exact(p)[1])) for p in patterns]
        if host.n < 10:
            assert expected[-len(graphs_up_to(5)):] == [
                brute_hom(p, host) for p in graphs_up_to(5)]
        indices = list(range(len(patterns)))
        for _ in range(2):  # warm within a pass, cold again in another order
            treedp.hom_cache_clear()
            rng.shuffle(indices)
            for i in indices:
                assert hom_count(patterns[i], host) == expected[i]
            assert treedp._memo.get(host)[1].hits > 0
        # An equal host object shares the memo and the store.
        copy = Graph(host.n, list(host.edges))
        assert [hom_count(p, copy) for p in patterns] == expected
    # Hosts freed and made again reuse the ids of the freed ones, so a
    # store keyed by id() would answer for a host it never saw.
    trees = all_trees(5)
    for _ in range(150):
        host = random_graph(rng, rng.randrange(1, 7), 0.5)
        for tree in trees:
            assert hom_count(tree, host) == brute_hom(tree, host)


def test_vector_store_is_bounded_and_cleared(monkeypatch):
    rng = random.Random(79)
    hosts = [random_host(rng, n, m) for n, m in
             ((7, 6), (8, 12), (9, 20), (10, 30), (12, 11), (6, 15))]
    for host in hosts:
        bound = (host.n + 2 * host.m) // host.n
        for tree in all_trees(7):
            hom_count(tree, host)
            assert len(treedp._memo.get(host)[1]) <= bound
        assert len(treedp._memo.get(host)[1]) == bound  # full, evicting
        assert len(treedp._memo) <= treedp._MEMO_HOSTS
    assert len(treedp._memo) == treedp._MEMO_HOSTS
    treedp.hom_cache_clear()
    assert len(treedp._memo) == 0
    vector = treedp._vector_message
    messages = []

    def counted(*args):
        messages.append(args[3])
        return vector(*args)

    monkeypatch.setattr(treedp, "_vector_message", counted)
    host = random_host(rng, 30, 60)
    middle = [sum(host.degree(y) for y in host.neighbors(x))
              for x in range(host.n)]
    # path(4) stores the degree vector and the 2-walk message; path(5),
    # on the host or on an equal copy of it, needs only its root sum.
    for second in (host, Graph(host.n, list(host.edges))):
        treedp.hom_cache_clear()
        assert hom_count(canonical_representative(path(4)), host) == sum(
            host.degree(x) * c for x, c in enumerate(middle))
        messages.clear()
        assert hom_count(canonical_representative(path(5)), second) == sum(
            c * c for c in middle)
        assert messages == [()]


def test_memo_hits_still_check_limits():
    host = path(3)
    assert hom_count(path(13), host, limit=13) == brute_hom(path(13), host)
    with pytest.raises(PatternSizeError):
        hom_count(path(13), host)
    loopy = Graph(3, [(0, 0), (0, 1), (1, 2)], selfloops_allowed=True)
    counts = LRUCache(treedp._MEMO_TERMS)
    counts.put(path(2), 1)
    # A planted entry must not answer.
    treedp._memo.put(loopy, (counts, LRUCache(1)))
    for pattern in (path(2), Graph(1), Graph(0)):
        with pytest.raises(HostError):
            hom_count(pattern, loopy)


def test_components_are_counted_once_per_host(monkeypatch):
    eliminate = treedp._eliminate
    eliminated = []
    monkeypatch.setattr(
        treedp, "_eliminate",
        lambda comp, *rest: eliminated.append(comp) or eliminate(comp, *rest))
    host = random_host(random.Random(47), 9, 15)
    k2_k1 = Graph(3, [(0, 1)])
    assert hom_count(k2_k1, host) == hom_count(path(2), host) * host.n
    assert hom_count(Graph(4, [(0, 1), (2, 3)]), host) == (2 * host.m) ** 2
    assert eliminated == [path(2), Graph(1)]
    connected = cycle(5)  # counted as itself, not rebuilt
    assert hom_count(connected, host) == brute_hom(connected, host)
    assert eliminated[2] is connected


def _later_neighbours(graph, order):
    """Per vertex of the order, its neighbours later in the order, before
    any fill-in."""
    position = {v: i for i, v in enumerate(order)}
    return [sum(position[u] > position[v] for u in graph.neighbors(v))
            for v in order]


def test_plan_orders_match_the_subset_dp(monkeypatch):
    rng = random.Random(59)
    # Random 7-vertex graphs at p = 0.15 are mostly disconnected; the
    # forests are random trees with one or two edges at vertex 0 cut.
    patterns = list(graphs_up_to(6))
    patterns += [random_graph(rng, 7, p) for p in (0.15, 0.3, 0.5) * 6]
    patterns += [random_tree(rng, 7) for _ in range(6)]
    patterns += [Graph(7, random_tree(rng, 7).edges - {(0, 1), (0, 2)})
                 for _ in range(3)]
    hosts = [random_host(rng, 5, 7), random_host(rng, 6, 9)]
    join = treedp._join
    joined = []

    def checked(*args, **kwargs):
        table = join(*args, **kwargs)
        expected = nonzero_entries(reference_join(*args))
        if kwargs.get("summed"):
            assert table == sum(expected.values())
        else:
            assert nonzero_entries(table) == expected
        joined.append(args[0])
        return table

    monkeypatch.setattr(treedp, "_join", checked)
    split = 0
    for pattern in patterns:
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        graph = pattern.relabeled(perm)
        width, order = treewidth_exact(graph)
        assert width == treedp._exact_order(graph)[0]
        td = decomposition_from_order(graph, order)
        assert td.width == width  # the width under fill-in
        _, _, parts = treedp._plan(graph)
        split += graph.n == 7 and len(parts) > 1
        for comp, comp_width, local in parts:
            comp = graph if comp is None else comp
            assert sorted(local) == list(range(comp.n))
            assert comp_width == treedp._exact_order(comp)[0]
            if comp.m == comp.n - 1:  # a tree: leaves first, root last
                assert _later_neighbours(comp, local) == (
                    [1] * (comp.n - 1) + [0])
                degrees = [comp.degree(v) for v in range(comp.n)]
                assert local[-1] == degrees.index(max(degrees))
        for host in hosts:
            treedp.hom_cache_clear()
            assert hom_count(graph, host) == nice_dp_count(graph, host, td)
    assert split >= 10
    assert joined


def test_warm_plans_still_check_limits_and_loops(monkeypatch):
    host = random_host(random.Random(61), 8, 12)
    pattern = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
    count = hom_count(pattern, host)
    hits = treedp._plan.cache_info().hits
    assert hom_count(pattern, host) == count
    assert treedp._plan.cache_info().hits == hits + 1
    monkeypatch.setenv("HOMLATTICE_LIMIT", "6")  # not read: limit= only
    assert hom_count(pattern, host) == count
    assert treewidth_exact(pattern) == treewidth_exact(pattern, limit=7)
    with pytest.raises(PatternSizeError):
        hom_count(pattern, host, limit=6)
    with pytest.raises(PatternSizeError):
        treewidth_exact(pattern, limit=6)
    assert hom_count(pattern, host, limit=7) == count
    # A plan planted for a loopy pattern must not answer for it.
    loopy = Graph(3, [(0, 0), (0, 1), (1, 2)], selfloops_allowed=True)
    treedp._plan(loopy)
    with pytest.raises(HomlatticeError):
        hom_count(loopy, host)
    with pytest.raises(HomlatticeError):
        treewidth_exact(loopy)
    loopy_host = Graph(host.n, host.edges | {(0, 0)}, selfloops_allowed=True)
    with pytest.raises(HostError):
        hom_count(pattern, loopy_host)

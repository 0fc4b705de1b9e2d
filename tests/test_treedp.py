import random

import pytest

from homlattice import treedp
from homlattice.basis import count_restricted
from homlattice.cache import LRUCache
from homlattice.errors import HomlatticeError, HostError, PatternSizeError
from homlattice.graphs import (Graph, biclique, canonical_representative,
                               clique, cycle, path, star)
from homlattice.oracle import brute_hom, brute_restricted
from homlattice.restrictions import EMB, LI, locally_injective
from homlattice.treedp import hom_count, treewidth_exact
from helpers import (TreeDecomposition, all_trees, decomposition_from_order,
                     graphs_up_to, make_nice, nice_dp_count, nonzero_entries,
                     random_graph, random_host, random_tree, reference_join,
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

    def recorded(*args):
        table = join(*args)
        calls.append((args, table))
        return table

    monkeypatch.setattr(treedp, "_join", recorded)
    for host in hosts:
        for pattern in (Graph(0),) + graphs_up_to(5):
            hom_count(pattern, host)
    assert {len(args[3]) for args, _ in calls} == {1, 2, 3, 4}
    for args, table in calls:
        assert nonzero_entries(table) == nonzero_entries(reference_join(*args))


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
                assert all(len(t) <= 3 for t in treedp._memo.values())
    treedp.hom_cache_clear()
    assert treedp.hom_cache_info().currsize == 0


def test_memo_hits_still_check_limits():
    host = path(3)
    assert hom_count(path(13), host, limit=13) == brute_hom(path(13), host)
    with pytest.raises(PatternSizeError):
        hom_count(path(13), host)
    loopy = Graph(3, [(0, 0), (0, 1), (1, 2)], selfloops_allowed=True)
    table = LRUCache(treedp._MEMO_TERMS)
    table.put(path(2), 1)
    treedp._memo.put(loopy, table)  # a planted entry must not answer
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

    def checked(*args):
        table = join(*args)
        assert nonzero_entries(table) == nonzero_entries(
            reference_join(*args))
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

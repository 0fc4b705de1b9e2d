import ast
import gc
import itertools
import random
import weakref

import pytest

from homlattice import treedp
from homlattice.basis import count_restricted, expand
from homlattice.errors import HomlatticeError, HostError, PatternSizeError
from homlattice.graphs import (Graph, biclique, canonical_representative,
                               clique, connected_components, cycle, path,
                               star)
from homlattice.oracle import brute_hom, brute_restricted
from homlattice.restrictions import EMB, LI, locally_injective
from homlattice.treedp import hom_count, treewidth_exact
from helpers import (TreeDecomposition, all_trees, atlas,
                     decomposition_from_order,
                     graphs_up_to, interpreted_join, make_nice,
                     nice_dp_count, nonzero_entries,
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


def _kernel_runs(monkeypatch):
    """Record every kernel run as (shape, adj, tables, result), on the
    steps built from now on: ``_steps`` asks ``_kernel`` for each
    bucket's kernel when it builds a pattern's steps."""
    kernel = treedp._kernel
    runs = []

    def traced(shape):
        join = kernel(shape)

        def run(adj, *tables):
            result = join(adj, *tables)
            runs.append((shape, adj, tables, result))
            return result
        return run

    monkeypatch.setattr(treedp, "_kernel", traced)
    treedp._steps.cache_clear()
    return runs


def _bucket(shape, adj, tables):
    """The bucket that a kernel run joins, as ``reference_join`` takes it:
    level i is pattern vertex i, v is level 0, and each factor's scope is
    its levels."""
    last, edges, factors, _, _ = shape
    return (Graph(last + 1, edges), adj, 0, tuple(range(1, last + 1)),
            [(levels, tables[slot]) for slot, levels, _ in factors])


def _check_runs(runs):
    """Each recorded kernel run equals ``reference_join`` on its bucket:
    its table, or with ``summed`` the table's total."""
    for shape, adj, tables, result in runs:
        expected = nonzero_entries(reference_join(*_bucket(shape, adj,
                                                           tables)))
        if shape[3]:  # the last bucket: v and its scope summed out
            assert result == sum(expected.values())
        else:
            assert nonzero_entries(result) == expected


def _vector_steps(monkeypatch):
    """Record the name of every vector step run, on the steps built from
    now on."""
    calls = []
    for name in ("_vector_message", "_root_sum"):
        def run(adj, *tables, step=getattr(treedp, name), name=name):
            calls.append(name)
            return step(adj, *tables)
        monkeypatch.setattr(treedp, name, run)
    treedp._steps.cache_clear()
    return calls


def test_vector_path_matches_general_join(monkeypatch):
    rng = random.Random(37)
    host = random_host(rng, 40, 90)
    runs = _kernel_runs(monkeypatch)
    trees = all_trees(7)
    vector = [hom_count(tree, host) for tree in trees]
    assert not runs  # every bucket of a tree takes the vector path
    # Recount with every vector step forced through the compiled join of
    # its bucket, v at level 0 and every table a vector at v, not from
    # the memo.
    forced = []

    def joined(last):
        def run(adj, *tables):
            forced.append(last)
            shape = (last, ((0, 1),) * last,
                     tuple((s, (0,), True) for s in range(len(tables))),
                     False, ())
            return treedp._kernel(shape)(adj, *tables)
        return run

    treedp.hom_cache_clear()
    monkeypatch.setattr(treedp, "_vector_message", joined(1))
    monkeypatch.setattr(treedp, "_root_sum", joined(0))
    treedp._steps.cache_clear()
    treedp._counted.cache_clear()
    assert [hom_count(tree, host) for tree in trees] == vector
    assert forced.count(0) == len(trees) and 1 in forced
    assert len(runs) == len(forced)
    assert vector == [nice_dp_count(tree, host, decomposition_from_order(
        tree, treewidth_exact(tree)[1])) for tree in trees]


def test_join_matches_reference_join(monkeypatch):
    rng = random.Random(31)
    hosts = [Graph(0), Graph(4), Graph(6, [(0, 1), (1, 2), (0, 2)]),
             random_host(rng, 6, 9), random_graph(rng, 5, 0.7)]
    # 600 edges on the first 180 of 200 vertices: 20 stay isolated.
    hosts.append(Graph(200, random_host(rng, 180, 600).edges))
    runs = _kernel_runs(monkeypatch)
    for host in hosts:
        for pattern in (Graph(0),) + graphs_up_to(5):
            hom_count(pattern, host)
    sizes = {summed: {shape[0] for shape, _, _, _ in runs
                      if shape[3] == summed}
             for summed in (False, True)}
    # A last bucket whose table is live sums that table over its own
    # scope, so a one-variable scope is summed too.
    assert sizes == {False: {1, 2, 3}, True: {1, 2, 3, 4}}
    _check_runs(runs)


def test_summed_joins_match_reference_join_on_dense_hosts(monkeypatch):
    """Every graph with at most 7 vertices, randomly relabelled, on K6 and
    on random graphs at p = 0.9: dense enough that twins which are not
    adjacent often share an image, so ties are weighed too. The join
    without orbits counts every ordering of the twins."""
    rng = random.Random(83)
    hosts = [clique(6)] + [random_graph(rng, 7, 0.9) for _ in range(3)]
    runs = _kernel_runs(monkeypatch)
    for k, pattern in enumerate(atlas()):
        perm = list(range(pattern.n))
        rng.shuffle(perm)
        treedp.hom_cache_clear()
        hom_count(pattern.relabeled(perm), hosts[k % len(hosts)])
    calls = [run for run in runs if run[0][3]]
    loose = 0  # summed joins whose twins may tie, below the last level
    for shape, adj, tables, total in calls:
        pattern, adj, v, scope, bucket = _bucket(shape, adj, tables)
        twins = shape[4]
        loose += any(len([j for j in levels if j < len(scope)]) > 1
                     and levels[1] not in pattern.neighbors(levels[0])
                     for levels in twins)
        assert total == sum(nonzero_entries(
            reference_join(pattern, adj, v, scope, bucket)).values())
        # The interpreted join weighs each orbit and tie the same way.
        assert total == interpreted_join(pattern, adj, v, scope, bucket,
                                         summed=True, twins=twins)
    assert len(calls) > 1000 and sum(bool(c[0][4]) for c in calls) > 400
    assert loose > 80


def test_orbit_shapes_and_work(monkeypatch):
    """The canonical K3's summed bucket is one class of three, the
    canonical cycle(4) sums a table symmetric in its two positions, and
    the canonical cycle(7)'s last join has no twins. The K3 join keeps
    its last level out of the class, so it weighs each increasing pair of
    images 2! and examines each host edge once at level 1, where every
    ordering of the twins took both of its directions."""
    host = random_host(random.Random(89), 200, 600)
    runs = _kernel_runs(monkeypatch)
    keys = []
    twins_of = treedp._twins
    monkeypatch.setattr(treedp, "_twins",
                        lambda key: keys.append(key) or twins_of(key))
    triangles, four, _ = _traces(host)
    shapes = {}
    for pattern, count, twins in [(clique(3), triangles, ((0, 1, 2),)),
                                  (cycle(4), four, ((0, 1),)),
                                  (cycle(7), None, ())]:
        runs.clear()
        keys.clear()
        treedp.hom_cache_clear()
        total = hom_count(canonical_representative(pattern), host)
        assert count in (None, total)
        summed = [run for run in runs if run[0][3]]
        assert [run[0][4] for run in summed] == [twins]
        shapes[pattern] = summed[0], keys[0]
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
    (shape, _, tables, total), _ = shapes[clique(3)]
    # Level 0 leaves level 2 the neighbourhood of its image, and each
    # level-1 image that level 1 takes is tested against it once.
    for classes, images in [(shape[4], host.m), ((), 2 * host.m)]:
        examined.clear()
        assert treedp._kernel(shape[:4] + (classes,))(adj, *tables) == total
        assert len(examined) == images


def test_kernels_are_cached_per_shape_and_name_no_host(monkeypatch):
    """The canonical K3's summed join compiles once, on a 6-vertex host,
    and a 200-vertex host runs the same kernel from the cached steps. Its
    source holds no integer literal but the levels 0-2 and the orbit
    weight 2! = 2."""
    source = treedp._source
    sources = []
    monkeypatch.setattr(treedp, "_source", lambda shape: sources.append(
        source(shape)) or sources[-1])
    treedp._kernel.cache_clear()
    rng = random.Random(97)
    small, large = random_host(rng, 6, 9), random_host(rng, 200, 600)
    triangle = canonical_representative(clique(3))
    counts = []
    for host in (small, large):
        counts.append(hom_count(triangle, host))
        info = treedp._kernel.cache_info()
        assert (info.misses, info.hits) == (1, 0)
    assert counts == [brute_hom(triangle, small), _traces(large)[0]]
    (text,) = sources
    literals = {node.value for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Constant) and type(node.value) is int}
    assert literals <= {0, 1, 2}
    assert "2 * total" in text  # no non-adjacent twins: weighed at the end


def test_steps_are_built_once_and_replayed_on_every_host(monkeypatch):
    """Counting one pattern on three hosts builds its steps on the first
    and replays them on the other two, which compile no kernel and find
    no twins: the steps miss once, for the pattern's plan, and no host
    looks them up again, since each replays the steps its plan holds.
    ``treewidth_exact`` builds no steps and compiles nothing."""
    rng = random.Random(101)
    fresh = random_graph(rng, 9, 0.4)
    planned = treedp._plan.cache_info().misses
    sizes = (treedp._kernel.cache_info().currsize,
             treedp._steps.cache_info().currsize)
    treewidth_exact(fresh)
    assert treedp._plan.cache_info().misses == planned + 1
    assert (treedp._kernel.cache_info().currsize,
            treedp._steps.cache_info().currsize) == sizes
    called = []
    for name in ("_kernel", "_twins"):
        def traced(key, real=getattr(treedp, name), name=name):
            called.append(name)
            return real(key)
        monkeypatch.setattr(treedp, name, traced)
    pattern = canonical_representative(cycle(5))
    for k, n in enumerate((12, 30, 60)):
        host = random_host(rng, n, 3 * n)
        called.clear()
        assert hom_count(pattern, host) == _traces(host)[2]
        assert ({"_kernel", "_twins"} <= set(called)) == (k == 0)
        assert called == [] or k == 0
    info = treedp._steps.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def _eliminated(graph, host, order, width):
    """``_eliminate``'s count of a connected graph along ``order``: the
    replay of its ``_steps`` on the host."""
    _, steps = treedp._steps(graph, order, width)
    return treedp._eliminate(steps, host, treedp._store(host))


def _both_eliminations(graph, host):
    """The count of each component by ``_eliminate``, multiplied, and the
    whole graph's count by ``reference_eliminate`` along the plan's
    order."""
    width, order, parts = treedp._plan(graph)
    count = 1
    for comp, comp_width, local in parts:
        count *= _eliminated(graph if comp is None else comp, host, local,
                             comp_width)
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
                order = tuple(perm)
                assert (_eliminated(graph, small, order, pattern.n)
                        == reference_eliminate(graph, small, order,
                                               pattern.n))
    # Eliminating 2, 3, 5 and 6 leaves two buckets with equal edges and
    # equal child tables, held at other levels: their tables differ.
    graph = Graph(7, [(0, 6), (1, 5), (2, 4), (2, 6), (3, 4), (3, 5),
                      (4, 5), (4, 6)])
    order = (2, 3, 5, 6, 0, 4, 1)
    assert (_eliminated(graph, small, order, 7)
            == reference_eliminate(graph, small, order, 7))
    # Buckets 0 and 1 share one triangle table, and buckets 2 and 3 one
    # vector summed from it: 3 is the last join bucket, its scope is 4
    # alone, and the root sums the shared vector's square.
    graph = Graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)])
    order = (0, 1, 2, 3, 4)
    assert (_eliminated(graph, small, order, 5)
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
    runs = _kernel_runs(monkeypatch)
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
        runs.clear()
        assert hom_count(pattern, host) == count
        assert [shape[3] for shape, _, _, _ in runs] == (
            [False] * tabulated + [True])
        assert (runs[-1][0][0], runs[-1][3]) == (last_scope, count)
        for _, _, _, table in runs[:-1]:
            assert len(nonzero_entries(table)) <= bound
    messages = _vector_steps(monkeypatch)
    # Both leaves share one degree vector and both middle vertices one
    # message; the root sums. hom(path(5)) counts the walks with 4 edges.
    middle = [sum(host.degree(y) for y in host.neighbors(x))
              for x in range(host.n)]
    pattern = canonical_representative(path(5))
    assert hom_count(pattern, host) == sum(c * c for c in middle)
    assert messages == ["_vector_message"] * 2 + ["_root_sum"]


def test_join_tables_leave_with_their_last_reader(monkeypatch):
    """Tables are freed by reference counting alone: with the cyclic
    collector off, each kernel run finds at most one table over two or
    more variables alive, the one its own bucket reads. A recursive
    closure kept alive by its own reference would hold a finished join's
    input tables until the collector ran."""
    host = random_host(random.Random(67), 300, 900)
    kernel = treedp._kernel
    tables = []
    alive = []

    class Table(dict):  # a dict that takes weak references
        pass

    def traced(shape):
        join = kernel(shape)

        def tracked(adj, *args):
            alive.append(sum(ref() is not None for ref in tables))
            table = join(adj, *args)
            if isinstance(table, dict):
                table = Table(table)
                tables.append(weakref.ref(table))
            return table
        return tracked

    monkeypatch.setattr(treedp, "_kernel", traced)
    treedp._steps.cache_clear()
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


def test_scope_beyond_width_is_caught(monkeypatch):
    _, order = treedp._exact_order(cycle(4))
    with pytest.raises(AssertionError, match="width"):
        treedp._steps(cycle(4), order, 1)
    # A plan that understates the width is caught before any host counts.
    monkeypatch.setattr(treedp, "_plan",
                        lambda graph: (1, order, ((None, 1, order),)))
    with pytest.raises(AssertionError, match="width"):
        hom_count(cycle(4), clique(3))
    assert treedp._memo == {}


def test_factor_out_of_elimination_order_is_caught():
    # Tables nest in scope order, which must be the bucket's level order.
    # An order that names vertex 2 twice places it by its last position:
    # vertex 1's table nests (0, 2), and vertex 2's bucket reads it along
    # levels (1, 0).
    with pytest.raises(AssertionError, match="out of elimination order"):
        treedp._steps(path(3), (1, 2, 0, 2), 3)


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
                assert all(len(_counts(store)) <= 3
                           for store in treedp._memo.values())
    treedp.hom_cache_clear()
    assert treedp.hom_cache_info().currsize == 0


def _counts(store):
    """The counts a host's store holds, read from its values: a count
    is an int, a vector a list."""
    return [value for value in store.values() if type(value) is int]


def _vectors(host):
    """The vectors the host's store holds."""
    return [v for v in treedp._store(host).values() if isinstance(v, list)]


def test_warm_vector_store_matches_the_oracles(monkeypatch):
    rng = random.Random(73)
    found = []  # per lookup in a store, whether it found a vector

    def get(store, ident, default=None, lookup=dict.get):
        value = lookup(store, ident, default)
        found.append(isinstance(value, list))
        return value
    monkeypatch.setattr(treedp._Store, "get", get)
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
            found.clear()
            for i in indices:
                assert hom_count(patterns[i], host) == expected[i]
            assert any(found)
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
            assert len(_vectors(host)) <= bound
        assert len(_vectors(host)) == bound  # full, evicting
        assert len(treedp._memo) <= treedp._MEMO_HOSTS
    assert len(treedp._memo) == treedp._MEMO_HOSTS
    treedp.hom_cache_clear()
    assert len(treedp._memo) == 0
    messages = _vector_steps(monkeypatch)
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
        assert messages == ["_root_sum"]


def test_memo_hits_still_check_limits():
    host = path(3)
    assert hom_count(path(13), host, limit=13) == brute_hom(path(13), host)
    with pytest.raises(PatternSizeError):
        hom_count(path(13), host)
    loopy = Graph(3, [(0, 0), (0, 1), (1, 2)], selfloops_allowed=True)
    (root, _), = treedp._counted(path(2))
    # A planted entry must not answer.
    treedp._store(loopy)[root] = 1
    for pattern in (path(2), Graph(1), Graph(0)):
        with pytest.raises(HostError):
            hom_count(pattern, loopy)


def test_components_are_counted_once_per_host(monkeypatch):
    """Each component's steps are replayed once per host, whichever
    pattern holds it; a connected pattern is planned as itself, not
    rebuilt, and replays the steps its own plan holds."""
    eliminate = treedp._eliminate
    eliminated = []
    monkeypatch.setattr(
        treedp, "_eliminate",
        lambda steps, *rest: eliminated.append(steps) or eliminate(steps,
                                                                   *rest))
    host = random_host(random.Random(47), 9, 15)
    k2_k1 = Graph(3, [(0, 1)])
    assert hom_count(k2_k1, host) == hom_count(path(2), host) * host.n
    assert hom_count(Graph(4, [(0, 1), (2, 3)]), host) == (2 * host.m) ** 2
    (_, edge), = treedp._counted(path(2))
    (_, vertex), = treedp._counted(Graph(1))
    assert len(eliminated) == 2
    assert eliminated[0] is edge and eliminated[1] is vertex
    connected = cycle(5)
    assert hom_count(connected, host) == brute_hom(connected, host)
    (comp, width, order), = treedp._plan(connected)[2]
    assert comp is None
    assert eliminated[2] is treedp._steps(connected, order, width)[1]


def test_equal_root_ids_give_equal_counts():
    """The id that a component's count is stored under determines the
    count: over every connected graph with at most 6 vertices and its
    canonical representative, counts under one root id agree on a
    random host, and other graphs and labellings do share ids."""
    host = random_host(random.Random(109), 10, 20)
    counts = {}
    shared = 0
    for pattern in graphs_up_to(6):
        if connected_components(pattern)[0] != 1:
            continue
        for graph in (pattern, canonical_representative(pattern)):
            (root, steps), = treedp._counted(graph)
            (comp, width, order), = treedp._plan(graph)[2]
            assert comp is None and (root, steps) == treedp._steps(
                graph, order, width)
            count = treedp._eliminate(steps, host, treedp._store(host))
            shared += root in counts
            assert counts.setdefault(root, count) == count
    assert shared > 100 and len(counts) > 100


def test_no_step_builds_a_table_that_nothing_reads():
    """Only the last step's table may go unread: every other step's slot
    is read by a later step, so none frees its own. Over every graph
    with at most 6 vertices, each component and its canonical
    representative along its plan order, every order of the connected
    graphs with at most 5 vertices, and a 7-vertex graph whose second
    bucket shares an equal table that its first one built, so the table
    of the first bucket's own step is never read; every count equals
    the reference elimination's along the plan order."""
    host = random_host(random.Random(113), 8, 14)
    seven = Graph(7, [(0, 6), (1, 5), (2, 4), (2, 6), (3, 4), (3, 5),
                      (4, 5), (4, 6)])
    cases = {}
    for pattern in graphs_up_to(6) + (seven,):
        for graph in (pattern, canonical_representative(pattern)):
            width, order, parts = treedp._plan(graph)
            expected = reference_eliminate(graph, host, order, width)
            runs = [[(graph if comp is None else comp, local, comp_width)
                     for comp, comp_width, local in parts]]
            if pattern.n <= 5 and len(parts) == 1:
                runs += [[(graph, perm, graph.n)]
                         for perm in itertools.permutations(order)]
            cases[graph] = expected, runs
    cases[seven][1].append([(seven, (2, 6, 3, 5, 4, 1, 0), 7)])
    for expected, runs in cases.values():
        for run in runs:
            count = 1
            for comp, order, width in run:
                _, steps = treedp._steps(comp, order, width)
                assert not any(k in frees for k, (_, _, _, frees)
                               in enumerate(steps[:-1]))
                count *= treedp._eliminate(steps, host, treedp._store(host))
            assert count == expected
    # Vertex 6's bucket takes the table that vertex 2's built: the order
    # runs one vector step and two joins, not two vector steps.
    _, steps = treedp._steps(seven, (2, 6, 3, 5, 4, 1, 0), 7)
    assert [reads for _, reads, _, _ in steps] == [(), (0,), (1,)]


def test_warm_store_compares_no_graphs(monkeypatch):
    """Expansions whose terms include disconnected graphs share
    components with each other and with connected terms, such as K1 and
    K2. A warm pass over them finds every count by its int id, with no
    ``Graph.__eq__`` call."""
    host = random_host(random.Random(127), 9, 15)
    patterns = [Graph(3, [(0, 1)]), Graph(4, [(0, 1)]),
                Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (1, 2), (3, 4)]),
                Graph(5, [(0, 1), (1, 2), (2, 0)]), path(2), path(3)]
    queries = [(tau, p) for tau in (EMB, LI, locally_injective(2))
               for p in patterns]
    values = [count_restricted(tau, p, host) for tau, p in queries]
    terms = {term.graph for tau, p in queries
             for term in expand(tau, p).terms}
    assert sum(connected_components(t)[0] > 1 for t in terms) >= 5
    compared = []
    equal = Graph.__eq__
    monkeypatch.setattr(Graph, "__eq__",
                        lambda a, b: compared.append(a) or equal(a, b))
    info = treedp.hom_cache_info()
    assert [count_restricted(tau, p, host) for tau, p in queries] == values
    assert compared == []
    assert treedp.hom_cache_info().misses == info.misses


def _stores():
    """The per-host stores alive, found by the collector."""
    return [o for o in gc.get_objects() if type(o) is treedp._Store]


def test_store_leaves_with_its_host():
    """A dropped host takes its store with it, counts and vectors, with
    no ``hom_cache_clear``: the store holds the host weakly. An equal
    host finds the same store while the first one lives."""
    rng = random.Random(131)
    host = random_host(rng, 30, 60)
    count = hom_count(canonical_representative(path(5)), host)
    ref = weakref.ref(host)
    store = treedp._store(host)
    assert treedp._memo == {store.ref: store} and len(store) == 3
    copy = Graph(host.n, list(host.edges))
    hits = treedp.hom_cache_info().hits
    assert hom_count(canonical_representative(path(5)), copy) == count
    assert treedp._store(copy) is store
    assert treedp.hom_cache_info().hits == hits + 1
    del host, store
    gc.collect()
    assert ref() is None
    assert treedp._memo == {} and _stores() == []
    assert treedp.hom_cache_info() == (0, 0, treedp._MEMO_HOSTS
                                       * treedp._MEMO_TERMS, 0)
    # The equal copy lives on and counts into a store of its own.
    assert hom_count(canonical_representative(path(5)), copy) == count
    assert list(treedp._memo.values()) == [treedp._store(copy)]


def test_store_bounds_hold_over_many_hosts(monkeypatch):
    """Over many hosts, kept or dropped, at most ``_MEMO_HOSTS`` stores
    live, the least recently used leaving first; each holds at most
    ``_MEMO_TERMS`` counts and (n + 2m) // n vectors; and every dropped
    host's store is gone without a collection."""
    monkeypatch.setattr(treedp, "_MEMO_TERMS", 4)
    rng = random.Random(137)
    patterns = [path(2), path(3), star(3), cycle(4), clique(3), cycle(5),
                Graph(4, [(0, 1), (1, 2)])] + list(all_trees(6))
    kept = [random_host(rng, 8, 12) for _ in range(6)]
    gc.disable()
    try:
        for k in range(40):
            host = kept[k % 6] if k % 2 else random_host(rng, 7, 10)
            for pattern in patterns:
                assert hom_count(pattern, host) == nice_dp_count(
                    pattern, host, decomposition_from_order(
                        pattern, treewidth_exact(pattern)[1]))
                stores = list(treedp._memo.values())
                assert len(stores) <= treedp._MEMO_HOSTS
                for store in stores:
                    vectors = [v for v in store.values()
                               if isinstance(v, list)]
                    assert len(_counts(store)) <= 4
                    assert len(vectors) <= store.bound
                    assert sum(map(len, vectors)) <= store.ref().n + 2 * (
                        store.ref().m)
            assert list(treedp._memo)[-1]() is host
        del host
        # The dropped hosts' stores left when their hosts did.
        assert all(ref() in kept for ref in treedp._memo)
    finally:
        gc.enable()
    info = treedp.hom_cache_info()
    assert info._fields == ("hits", "misses", "maxsize", "currsize")
    assert info.maxsize == treedp._MEMO_HOSTS * 4
    assert info.currsize == sum(map(len, map(_counts, treedp._memo.values())))
    assert info.hits > 0 and info.misses > 0


def test_store_order_follows_every_use():
    """Queries over ``_MEMO_HOSTS + 1`` hosts, the same host twice in a
    row and back to older hosts, keep the stores in the order of their
    hosts' last uses and evict the least recently used one, as a list
    that moves each used host to its end does."""
    rng = random.Random(167)
    hosts = [random_host(rng, 6 + k, 10) for k in range(
        treedp._MEMO_HOSTS + 1)]
    expected = {}
    model = []
    for i in (0, 1, 1, 2, 0, 3, 3, 3, 1, 4, 0, 2, 2, 4, 1, 3, 0, 0, 4):
        host = hosts[i]
        if i not in expected:
            expected[i] = brute_restricted(LI, path(4), host)
        assert count_restricted(LI, path(4), host) == expected[i]
        if i in model:
            model.remove(i)
        elif len(model) == treedp._MEMO_HOSTS:
            del model[0]
        model.append(i)
        assert [ref() for ref in treedp._memo] == [hosts[j] for j in model]
        assert treedp._store(host).ref() is host


def test_a_new_host_after_the_newest_store_died():
    """A host that dies while its store is the newest takes the store
    with it; an equal host made next counts into a store of its own, and
    so does an unequal host made after that one died."""
    rng = random.Random(173)
    host = random_host(rng, 9, 15)
    value = count_restricted(LI, path(4), host)
    assert count_restricted(LI, path(4), host) == value
    edges = sorted(host.edges)
    assert list(treedp._memo)[-1]() is host
    del host
    assert treedp._memo == {}
    equal = Graph(9, edges)
    assert count_restricted(LI, path(4), equal) == value
    assert treedp.hom_cache_info().misses > 0
    assert list(treedp._memo)[-1]() is equal
    del equal
    assert treedp._memo == {}
    for _ in range(5):
        other = random_host(rng, 9, 15)
        assert (count_restricted(LI, path(4), other)
                == brute_restricted(LI, path(4), other))
        assert treedp._store(other).ref() is other


def test_clear_between_warm_queries_forgets_the_counts(monkeypatch):
    """``hom_cache_clear`` between two warm queries on one host forgets
    every count: the next query counts each distinct component again,
    into a new store under the ids its plan already held, and the one
    after it counts none."""
    host = random_host(random.Random(179), 9, 15)
    pattern = Graph(5, [(0, 1), (1, 2), (3, 4)])
    value = count_restricted(EMB, pattern, host)
    assert count_restricted(EMB, pattern, host) == value
    roots = {root for term in expand(EMB, pattern).terms
             for root, _ in treedp._counted(term.graph)}
    old = treedp._store(host)
    treedp.hom_cache_clear()
    eliminated = []
    eliminate = treedp._eliminate
    monkeypatch.setattr(treedp, "_eliminate", lambda *args: eliminated.append(
        args[0]) or eliminate(*args))
    assert count_restricted(EMB, pattern, host) == value
    assert treedp._store(host) is not old
    assert len(eliminated) == treedp.hom_cache_info().misses == len(roots)
    assert {k for k, v in treedp._store(host).items()
            if type(v) is int} == roots
    assert count_restricted(EMB, pattern, host) == value
    assert len(eliminated) == len(roots)


def test_ids_after_a_clear_exceed_every_id_before(monkeypatch):
    """``_intern`` never reissues an id: after ``hom_cache_clear`` the
    same step keys take new ids, each larger than every id given
    before, so a plan built before the clear names nothing stored after
    it."""
    given = {}
    intern = treedp._intern
    monkeypatch.setattr(treedp, "_intern", lambda key: given.setdefault(
        key, intern(key)))
    patterns = [p for p in graphs_up_to(5) if p.m]
    for pattern in patterns:
        treedp._counted(pattern)
    before, given = given, {}
    treedp.hom_cache_clear()
    treedp._steps.cache_clear()
    treedp._counted.cache_clear()
    for pattern in patterns:
        treedp._counted(pattern)
    assert given.keys() == before.keys() and len(given) > 20
    assert min(given.values()) > max(before.values())


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
    runs = _kernel_runs(monkeypatch)
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
    assert runs
    _check_runs(runs)


def test_warm_plans_still_check_limits_and_loops(monkeypatch):
    host = random_host(random.Random(61), 8, 12)
    pattern = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
    count = hom_count(pattern, host)
    hits = treedp._counted.cache_info().hits
    assert hom_count(pattern, host) == count
    assert treedp._counted.cache_info().hits == hits + 1
    monkeypatch.setenv("HOMLATTICE_LIMIT", "6")  # not read: limit= only
    assert hom_count(pattern, host) == count
    assert treewidth_exact(pattern) == treewidth_exact(pattern, limit=7)
    with pytest.raises(PatternSizeError):
        hom_count(pattern, host, limit=6)
    with pytest.raises(PatternSizeError):
        treewidth_exact(pattern, limit=6)
    assert hom_count(pattern, host, limit=7) == count
    # A plan and root ids planted for a loopy pattern must not answer
    # for it.
    loopy = Graph(3, [(0, 0), (0, 1), (1, 2)], selfloops_allowed=True)
    treedp._counted(loopy)
    with pytest.raises(HomlatticeError):
        hom_count(loopy, host)
    with pytest.raises(HomlatticeError):
        treewidth_exact(loopy)
    loopy_host = Graph(host.n, host.edges | {(0, 0)}, selfloops_allowed=True)
    with pytest.raises(HostError):
        hom_count(pattern, loopy_host)

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from homlattice.graphs import (
    Graph,
    VertexPartition,
    _canonical,
    _canonical_search,
    biclique,
    bfs_distances,
    breadth_first,
    canonical_form,
    canonical_representative,
    clique,
    connected_components,
    count_automorphisms,
    cycle,
    edgeless,
    generate,
    is_isomorphic,
    path,
    quotient,
    spider,
    spider_parts,
    star,
    windmill,
    windmill_parts,
)
from homlattice.treedp import hom_count
from helpers import (atlas, iso_classes, random_graph,
                     reference_canonical_search, reference_count_automorphisms)


def test_basic_accessors():
    g = path(3)
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1) == {0, 2}
    assert g.degree(1) == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.is_loop_free()
    assert g.edge_list() == [(0, 1), (1, 2)]


def test_selfloops_rejected_unless_allowed():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    g = Graph(2, [(0, 0), (0, 1)], selfloops_allowed=True)
    assert g.loops() == {0}
    assert not g.is_loop_free()


def test_non_integral_input_rejected():
    # int() would truncate these to Graph(2) and the edge (0, 1).
    for n, edges in [(2.7, ()), (3, [(0, 1.9)]), (3, [(0.0, 1)]),
                     ("3", ()), (3, [("0", 1)])]:
        with pytest.raises(TypeError):
            Graph(n, edges)

    class Vertex:  # an integer-like type, as numpy's are
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    g = Graph(Vertex(3), [(Vertex(2), Vertex(0))])
    assert g == Graph(3, [(0, 2)]) and type(g.n) is int
    assert type(next(iter(g.edges))[0]) is int


def test_quotient_path_endpoints():
    part = VertexPartition.from_blocks([{0, 2}, {1}])
    q = quotient(path(3), part)
    assert q.n == 2 and q.m == 1 and q.is_loop_free()


def test_quotient_contracting_an_edge_makes_a_loop():
    part = VertexPartition.from_blocks([{0, 1}, {2}])
    q = quotient(clique(3), part)
    assert q.loops() == {0}


def test_partition_from_labels_matches_blocks():
    a = VertexPartition.from_labels([0, 1, 0, 2])
    b = VertexPartition.from_blocks([{0, 2}, {1}, {3}])
    assert a == b
    assert a.num_blocks() == 3
    assert VertexPartition.singletons(3).num_blocks() == 3


def test_four_vertex_isomorphism_classes():
    assert len(iso_classes(4)) == 11


def test_automorphism_counts():
    assert count_automorphisms(clique(3)) == 6
    assert count_automorphisms(path(3)) == 2
    assert count_automorphisms(star(3)) == 6
    assert count_automorphisms(cycle(4)) == 8
    assert count_automorphisms(Graph(1)) == 1
    assert count_automorphisms(Graph(0)) == 1
    # Listing these groups map by map would take minutes to hours.
    for g, order in ((clique(12), math.factorial(12)),
                     (edgeless(12), math.factorial(12)),
                     (star(11), math.factorial(11)),
                     (biclique(6), 2 * math.factorial(6) ** 2)):
        start = time.perf_counter()
        assert count_automorphisms(g) == order
        assert time.perf_counter() - start < 1.0


def test_distances():
    g = path(4)
    assert bfs_distances(g, 0)[3] == 3
    assert bfs_distances(g, 0)[2] == 2
    h = Graph(3, [(0, 1)])
    assert bfs_distances(h, 0)[2] == float("inf")
    count, labels = connected_components(h)
    assert count == 2
    assert labels[0] == labels[1] != labels[2]


def test_families():
    assert generate("path", 4) == path(4)
    assert clique(4).m == 6
    assert windmill(3).n == 7 and windmill(3).m == 9
    assert spider(2).n == 7 and spider(2).m == 6
    apex, inner, outer = windmill_parts(3)
    w = windmill(3)
    for a, b in zip(inner, outer):
        assert w.has_edge(apex, a) and w.has_edge(apex, b)
        assert w.has_edge(a, b)
    apex, short, mid, tip = spider_parts(2)
    s = spider(2)
    for leg, middle, end in zip(short, mid, tip):
        assert s.has_edge(apex, leg)
        assert s.has_edge(apex, middle) and s.has_edge(middle, end)


graph_strategy = st.integers(1, 6).flatmap(
    lambda n: st.builds(
        Graph,
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]),
            max_size=12,
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(graph_strategy, st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabeled(perm)) == canonical_form(g)


@settings(max_examples=100, deadline=None)
@given(graph_strategy, st.randoms(use_true_random=False))
def test_is_isomorphic_accepts_relabelings(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert is_isomorphic(g, g.relabeled(perm))
    rep = canonical_representative(g)
    assert canonical_form(rep) == canonical_form(g)


@settings(max_examples=100, deadline=None)
@given(graph_strategy)
def test_representative_spells_out_its_key(g):
    """The key is the representative's own adjacency, so the
    representative is its own canonical relabeling."""
    pairs = VertexPartition.from_labels([v // 2 for v in range(g.n)])
    for h in (g, quotient(g, pairs)):
        key, rep = _canonical(h)
        assert (key, rep) == (canonical_form(h), canonical_representative(h))
        assert _canonical(rep) == (key, rep)
        assert _canonical(h, {key}) == (key, None)


@settings(max_examples=100, deadline=None)
@given(graph_strategy)
def test_singleton_quotient_is_identity(g):
    q = quotient(g, VertexPartition.singletons(g.n))
    assert q == g and hash(q) == hash(g)


def test_the_loop_flag_is_not_part_of_the_value():
    flagged = Graph(2, [(0, 1)], selfloops_allowed=True)
    assert flagged == Graph(2, [(0, 1)])
    assert hash(flagged) == hash(Graph(2, [(0, 1)]))
    assert repr(flagged) == "Graph(n=2, edges=[(0, 1)])"
    assert not hasattr(flagged, "selfloops_allowed")


def test_fields_are_read_only():
    g = path(3)
    assert hom_count(g, clique(4)) == 36
    for name in ("n", "edges", "_adj"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    with pytest.raises(AttributeError):
        g.extra = 1
    assert g == path(3) and g.edge_list() == [(0, 1), (1, 2)]
    assert hom_count(g, clique(4)) == 36


def _loopy_quotients(rng, graphs):
    """Quotients of every fourth graph that carry a selfloop."""
    loopy = []
    for g in graphs[::4]:
        labels = [rng.randrange(max(1, g.n - 2)) for _ in range(g.n)]
        q = quotient(g, VertexPartition.from_labels(labels))
        if not q.is_loop_free():
            loopy.append(q)
    return loopy


def test_twin_pruning_keeps_key_and_witness():
    """The pruned search returns the reference search's key and witness
    permutation on every graph with at most 7 vertices, on random
    8-vertex graphs and on quotients that carry selfloops."""
    graphs = list(atlas())
    rng = random.Random(61)
    graphs += [random_graph(rng, 8, rng.choice((0.2, 0.5, 0.8)))
               for _ in range(150)]
    loopy = _loopy_quotients(rng, graphs)
    assert len(loopy) > 100
    for g in graphs + loopy:
        key, perm, _ = _canonical_search(g)
        assert (key, perm) == reference_canonical_search(g)


def test_automorphism_counts_match_the_backtracker():
    """The tie count agrees with listing the automorphisms one by one on
    every graph with at most 7 vertices, a random relabelling of each,
    quotients that carry selfloops and random 8-9-vertex graphs."""
    graphs = list(atlas())
    rng = random.Random(67)
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabeled(perm))
    graphs += [random_graph(rng, rng.choice((8, 9)),
                            rng.choice((0.2, 0.5, 0.8)))
               for _ in range(100)]
    loopy = _loopy_quotients(rng, graphs)
    assert len(loopy) > 100
    for g in graphs + loopy:
        assert count_automorphisms(g) == reference_count_automorphisms(g)


def test_automorphism_counts_match_networkx():
    """The tie count agrees with networkx's isomorphism matcher, which
    maps selfloops to selfloops, on every graph with at most 6 vertices
    and on quotients that carry selfloops."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = [g for g in atlas() if g.n <= 6]
    loopy = _loopy_quotients(random.Random(71), graphs)
    assert len(loopy) > 20
    for g in graphs + loopy:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        matcher = GraphMatcher(nxg, nxg)
        assert count_automorphisms(g) == sum(
            1 for _ in matcher.isomorphisms_iter())


def test_symmetric_patterns_at_the_limit_canonicalise():
    # Without twin pruning, clique(12) alone has 12! equal leaves to visit.
    assert canonical_representative(clique(12)) == clique(12)
    for g in (clique(12), star(11), biclique(6)):
        key, perm, _ = _canonical_search(g)
        rep = canonical_representative(g)
        assert canonical_form(g) == key
        assert _canonical(rep) == (key, rep)
        assert sorted(perm) == list(range(g.n))


def test_nonisomorphic_pairs_have_distinct_keys():
    keys = [canonical_form(g) for g in iso_classes(5)]
    assert len(set(keys)) == len(keys)


def test_breadth_first_walks_the_root_component():
    """The order holds root's component exactly once, each parent pair is
    an edge met earlier in the order, and distances never decrease."""
    import networkx as nx

    for nxg in nx.graph_atlas_g()[1:]:
        g = Graph(nxg.number_of_nodes(), nxg.edges())
        for root in range(g.n):
            order, parent = breadth_first(g, root)
            assert len(order) == len(set(order))
            assert set(order) == nx.node_connected_component(nxg, root)
            assert set(parent) == set(order) and parent[root] is None
            position = {v: i for i, v in enumerate(order)}
            depth = {root: 0}
            for v in order[1:]:
                assert g.has_edge(parent[v], v)
                assert position[parent[v]] < position[v]
                depth[v] = depth[parent[v]] + 1
            assert [depth[v] for v in order] == sorted(depth.values())
    with pytest.raises(ValueError):
        breadth_first(path(3), 3)
    with pytest.raises(ValueError):
        bfs_distances(path(3), -1)


def test_bfs_distances_match_networkx():
    """Every source of every graph with at most 6 vertices."""
    import networkx as nx

    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
    assert len(atlas) == 209
    for nxg in atlas:
        g = Graph(nxg.number_of_nodes(), nxg.edges())
        for source in range(g.n):
            expected = nx.single_source_shortest_path_length(nxg, source)
            assert bfs_distances(g, source) == [
                expected.get(v, math.inf) for v in range(g.n)]


def test_distance_symmetry_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 7), 0.4)
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        assert bfs_distances(g, u)[v] == bfs_distances(g, v)[u]

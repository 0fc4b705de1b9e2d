import random

import pytest
from hypothesis import given, settings, strategies as st

from homlattice.graphs import (
    Graph,
    VertexPartition,
    _labelled_key,
    bfs_distances,
    canonical_form,
    canonical_representative,
    clique,
    connected_components,
    count_automorphisms,
    cycle,
    distance,
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
from helpers import iso_classes, random_graph


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


def test_distances():
    g = path(4)
    assert distance(g, 0, 3) == 3
    assert bfs_distances(g, 0)[2] == 2
    h = Graph(3, [(0, 1)])
    assert distance(h, 0, 2) == float("inf")
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
    """Quotient grouping reads each class key off the canonical
    representative instead of searching a second time."""
    pairs = VertexPartition.from_labels([v // 2 for v in range(g.n)])
    for h in (g, quotient(g, pairs)):
        rep = canonical_representative(h)
        assert _labelled_key(rep) == canonical_form(h)
        assert rep.loops() or not rep.selfloops_allowed


@settings(max_examples=100, deadline=None)
@given(graph_strategy)
def test_singleton_quotient_is_identity(g):
    q = quotient(g, VertexPartition.singletons(g.n))
    assert q.n == g.n and set(q.edges) == set(g.edges)


def test_nonisomorphic_pairs_have_distinct_keys():
    keys = [canonical_form(g) for g in iso_classes(5)]
    assert len(set(keys)) == len(keys)


def test_distance_symmetry_random():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 7), 0.4)
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        assert distance(g, u, v) == distance(g, v, u)

import random

import pytest

from homlattice.basis import expand
from homlattice.errors import HomlatticeError, ParseError
from homlattice.graphs import (
    Graph,
    canonical_form,
    clique,
    is_isomorphic,
    path,
    quotient,
    spider,
    windmill,
)
from homlattice.restrictions import (
    EMB,
    HOM,
    LI,
    apply_restriction,
    contraction_is_legal,
    custom_restriction,
    locally_injective,
    max_minor_treewidth,
    parse_restriction,
    spider_contraction,
    windmill_apex_deleted,
    windmill_contraction,
)
from helpers import flats_by_filter, graphs_up_to, random_graph


def test_parse_restriction():
    assert parse_restriction("hom") is HOM
    assert parse_restriction("emb") is EMB
    assert parse_restriction("li") is LI
    assert parse_restriction("li:3").radius == 3
    for bad in ("zig", "li:0", "li:x", "li:-1", ""):
        with pytest.raises(ParseError):
            parse_restriction(bad)


def test_labels():
    assert LI.label() == "li"
    assert locally_injective(2).label() == "li:2"


def test_hom_constraint_is_edgeless():
    assert apply_restriction(HOM, clique(4)).m == 0


def test_emb_constraint_is_complete():
    out = apply_restriction(EMB, path(4))
    assert out.m == 6


def test_li_constraint_of_path_joins_common_neighbor_pairs():
    out = apply_restriction(LI, path(3))
    assert out.edge_list() == [(0, 2)]


def test_li_radius_two_on_path_four_is_complete():
    out = apply_restriction(locally_injective(2), path(4))
    assert out.m == 6


def test_li_equals_radius_one():
    one = locally_injective(1)
    assert parse_restriction("li:1") == one
    assert one.label() == "li:1"
    assert one.token() == LI.token()
    # Both build the pairs with a common neighbour, on all 209 graphs
    # with at most 6 vertices.
    for g in (Graph(0),) + graphs_up_to(6):
        common = Graph(g.n, [(u, w) for u in range(g.n)
                             for w in range(u + 1, g.n)
                             if g.neighbors(u) & g.neighbors(w)])
        assert apply_restriction(LI, g) == common
        assert apply_restriction(one, g) == common


def test_li_radius_matches_networkx_shortest_paths():
    """li:R joins u, w when some v has 1 <= d(v, u), d(v, w) <= R, with the
    distances from networkx, on every graph with at most 6 vertices."""
    import networkx as nx

    atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
    assert len(atlas) == 209
    for radius in (1, 2, 3):
        for nxg in atlas:
            dist = dict(nx.all_pairs_shortest_path_length(nxg, cutoff=radius))
            near = [{u for u, d in dist[v].items() if d >= 1} for v in nxg]
            expected = {(u, w) for u in nxg for w in nxg
                        if u < w and any(u in s and w in s for s in near)}
            g = Graph(nxg.number_of_nodes(), nxg.edges())
            out = apply_restriction(locally_injective(radius), g)
            assert out.edges == expected


def test_li_radius_monotone():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 7), 0.35)
        li1 = apply_restriction(LI, g).edges
        li2 = apply_restriction(locally_injective(2), g).edges
        emb = apply_restriction(EMB, g).edges
        assert li1 <= li2 <= emb


def test_custom_restriction_is_validated():
    bad_size = custom_restriction(lambda g: Graph(g.n + 1))
    with pytest.raises(HomlatticeError):
        apply_restriction(bad_size, path(3))
    loopy = custom_restriction(
        lambda g: Graph(g.n, [(0, 0)], selfloops_allowed=True))
    with pytest.raises(HomlatticeError):
        apply_restriction(loopy, path(3))
    mirror = custom_restriction(lambda g: g, name="mirror")
    assert apply_restriction(mirror, path(3)) == path(3)
    assert mirror.label() == "mirror"


def test_hom_minors_are_the_pattern_alone():
    minors = expand(HOM, clique(4))
    assert len(minors) == 1
    assert is_isomorphic(minors.terms[0].graph, clique(4))


def test_minor_sizes_and_treewidth():
    minors = expand(LI, path(3))
    sizes = sorted(term.graph.n for term in minors.terms)
    assert sizes == [2, 3]
    assert max_minor_treewidth(minors) == 1


def test_minors_drop_loopy_quotients():
    minors = expand(EMB, clique(3))
    assert sorted(t.graph.n for t in minors.terms) == [3]
    minors = expand(EMB, Graph(3))
    for term in minors.terms:
        assert term.graph.is_loop_free()
    assert sorted(t.graph.n for t in minors.terms) == [1, 2, 3]


def test_minors_and_coefficients_match_filtered_flats():
    """Every class of loop-free quotients over the filtered set partitions
    of the constraint graph, with mu summed over the class, is a term of
    the expansion with that coefficient, and the terms come largest first,
    then by key. All graphs with at most 5 vertices, under four built-in
    restrictions and a custom one constraining the pattern's non-adjacent
    pairs."""
    complement = custom_restriction(
        lambda g: Graph(g.n, [(u, v) for u in range(g.n)
                              for v in range(u + 1, g.n)
                              if not g.has_edge(u, v)]),
        name="complement")
    restrictions = (HOM, EMB, LI, locally_injective(2), complement)
    for g in (Graph(0),) + graphs_up_to(5):
        for tau in restrictions:
            want = {}
            for part, _, mu in flats_by_filter(apply_restriction(tau, g)):
                q = quotient(g, part)
                if q.is_loop_free():
                    key = canonical_form(q)
                    want[key] = want.get(key, 0) + mu
            terms = expand(tau, g).terms
            assert {t.key: t.coefficient for t in terms} == want
            assert [t.key for t in terms] == sorted(
                want, key=lambda k: (-k[0], k))


def test_windmill_contraction_roundtrip():
    for target in (clique(3), path(4), Graph(4, [(0, 1), (2, 3)])):
        partition, minor = windmill_contraction(target)
        k = target.m
        host = windmill(k)
        assert contraction_is_legal(LI, host, partition)
        assert minor.is_loop_free()
        assert is_isomorphic(windmill_apex_deleted(partition, minor), target)


def test_windmill_contraction_rejects_bad_targets():
    with pytest.raises(HomlatticeError):
        windmill_contraction(Graph(0))
    with pytest.raises(HomlatticeError):
        windmill_contraction(Graph(2))


def test_spider_contraction_gives_windmill():
    for k in (1, 2, 3):
        partition, minor = spider_contraction(k)
        assert contraction_is_legal(locally_injective(2), spider(k),
                                    partition)
        assert is_isomorphic(minor, windmill(k))

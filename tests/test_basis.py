import random
from fractions import Fraction

import pytest

from homlattice import basis, graphs
from homlattice.basis import (
    LinearCombination,
    count_restricted,
    evaluate,
    evaluate_combination,
    expand,
    hom_to_embedding_basis,
    is_congruent,
    serialize_expansion,
)
from homlattice.cache import LRUCache
from homlattice.errors import HomlatticeError, HostError, PatternSizeError
from homlattice.graphs import Graph, clique, cycle, path
from homlattice.oracle import brute_hom, brute_restricted
from homlattice.restrictions import (EMB, HOM, LI, locally_injective,
                                     parse_restriction)
from helpers import random_graph


def test_li_expansion_of_path():
    expansion = expand(LI, path(3))
    assert serialize_expansion(expansion) == "+1\t3\t1-3;2-3\n-1\t2\t1-2"


def test_hom_expansion_is_identity():
    expansion = expand(HOM, clique(3))
    assert len(expansion) == 1
    assert expansion.terms[0].coefficient == 1


def test_emb_expansion_of_edge():
    expansion = expand(EMB, path(2))
    assert serialize_expansion(expansion) == "+1\t2\t1-2"


def test_leading_term_is_the_pattern():
    expansion = expand(LI, cycle(4))
    lead = expansion.terms[0]
    assert lead.coefficient == 1 and lead.graph.n == 4


def test_coefficient_signs_follow_removed_vertices():
    expansion = expand(locally_injective(2), cycle(5))
    for term in expansion.terms:
        removed = 5 - term.graph.n
        assert term.coefficient != 0
        assert (term.coefficient > 0) == (removed % 2 == 0)


def test_evaluate_li_path_triangle():
    expansion = expand(LI, path(3))
    assert evaluate(expansion, clique(3)) == 6


def test_count_restricted_matches_oracle_randomly():
    rng = random.Random(31)
    for _ in range(40):
        pattern = random_graph(rng, rng.randrange(1, 5), 0.5)
        host = random_graph(rng, rng.randrange(1, 6), 0.5)
        for restriction in (HOM, EMB, LI, locally_injective(2)):
            assert (count_restricted(restriction, pattern, host)
                    == brute_restricted(restriction, pattern, host))


def test_expansion_is_cached_per_isomorphism_class():
    first = expand(LI, path(4))
    relabeled = path(4).relabeled([3, 2, 1, 0])
    second = expand(LI, relabeled)
    assert first.terms == second.terms
    assert second.pattern == relabeled


def test_expand_searches_the_pattern_once(monkeypatch):
    searched = []
    search = graphs._canonical_search
    monkeypatch.setattr(graphs, "_canonical_search",
                        lambda g: searched.append(g) or search(g))
    # Every proper quotient of a clique carries a selfloop, so the pattern
    # is the only graph an emb expansion needs to search.
    assert serialize_expansion(expand(EMB, clique(5))) == (
        "+1\t5\t" + ";".join(f"{u + 1}-{v + 1}"
                              for u, v in clique(5).edge_list()))
    assert len(searched) == 1
    expand(EMB, clique(5))
    assert len(searched) == 1  # the labelled pattern is a key of its own
    # K5 equals each of its relabellings, so relabel K5 minus an edge: the
    # copy finds the class key after one search, then its own key.
    almost = Graph(5, [e for e in clique(5).edge_list() if e != (0, 1)])
    first = expand(EMB, almost)
    before = len(searched)
    relabeled = almost.relabeled([4, 3, 2, 1, 0])
    assert relabeled != almost
    assert expand(EMB, relabeled).terms == first.terms
    assert len(searched) == before + 1
    expand(EMB, relabeled)
    assert len(searched) == before + 1


def test_expand_builds_one_representative_per_term(monkeypatch):
    relabeled = []
    relabel = Graph.relabeled
    monkeypatch.setattr(Graph, "relabeled",
                        lambda g, perm: relabeled.append(g) or relabel(g, perm))
    expansion = expand(locally_injective(2), cycle(6))
    assert len(expansion) > 1
    assert len(relabeled) == len(expansion)


def test_expansion_cache_is_bounded(monkeypatch):
    info = basis.expansion_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert info.maxsize == basis._EXPANSION_CACHE_SIZE
    expand(LI, path(4))
    expand(LI, path(4))
    info = basis.expansion_cache_info()
    assert (info.hits, info.currsize) == (1, 2)  # class and labelled keys
    patterns = [path(k) for k in range(1, 6)] + [cycle(4), cycle(5)]
    expected = [expand(LI, pattern).terms for pattern in patterns]
    monkeypatch.setattr(basis, "_expansion_cache", LRUCache(3))
    for _ in range(2):
        for pattern, terms in zip(patterns, expected):
            assert expand(LI, pattern).terms == terms
            assert len(basis._expansion_cache) <= 3
    basis.expansion_cache_clear()
    assert basis.expansion_cache_info() == (0, 0, 3, 0)


def test_li_and_li_one_share_a_cache_entry():
    li = expand(LI, cycle(5))
    size = basis.expansion_cache_info().currsize
    one = expand(parse_restriction("li:1"), cycle(5))
    assert one.terms == li.terms
    assert one.restriction.label() == "li:1"
    info = basis.expansion_cache_info()
    assert (info.hits, info.currsize) == (1, size)


def test_evaluate_rejects_loopy_hosts():
    loopy = Graph(2, [(0, 0), (0, 1)], selfloops_allowed=True)
    with pytest.raises(HostError):
        evaluate(expand(LI, path(3)), loopy)


def test_evaluate_takes_the_limit_from_the_caller(monkeypatch):
    expansion = expand(LI, cycle(5))
    assert len(expansion) > 2
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    value = brute_restricted(LI, cycle(5), host)
    # The limit comes from the caller alone; HOMLATTICE_LIMIT is not read.
    for setting in ("4", "five"):
        monkeypatch.setenv("HOMLATTICE_LIMIT", setting)
        assert evaluate(expansion, host) == value
        assert count_restricted(LI, cycle(5), host) == value
    with pytest.raises(PatternSizeError):
        evaluate(expansion, host, limit=4)
    with pytest.raises(PatternSizeError):
        count_restricted(LI, cycle(5), host, limit=4)
    assert evaluate(expansion, host, limit=5) == value


def test_hom_to_embedding_on_two_isolated_vertices():
    combo = hom_to_embedding_basis(Graph(2))
    assert evaluate_combination(combo, clique(3)) == 9
    sizes = sorted(pattern.n for _, _, pattern in combo.terms)
    assert sizes == [1, 2]


def test_hom_to_embedding_matches_hom_counts():
    rng = random.Random(37)
    for _ in range(25):
        pattern = random_graph(rng, rng.randrange(1, 5), 0.5)
        host = random_graph(rng, rng.randrange(1, 6), 0.5)
        combo = hom_to_embedding_basis(pattern)
        assert evaluate_combination(combo, host) == brute_hom(pattern, host)


def test_combination_build_rejects_bad_weights():
    with pytest.raises(HomlatticeError):
        LinearCombination.build([(0, HOM, path(2))])
    with pytest.raises(HomlatticeError):
        LinearCombination.build([(-1, HOM, path(2))])
    loopy = Graph(1, [(0, 0)], selfloops_allowed=True)
    with pytest.raises(HomlatticeError):
        LinearCombination.build([(1, HOM, loopy)])


def test_combination_evaluation_and_congruence():
    combo = LinearCombination.build([
        (1, HOM, path(3)),
        (1, LI, clique(3)),
        (1, EMB, cycle(3)),
    ])
    assert evaluate_combination(combo, clique(4)) == 84
    assert is_congruent(combo)
    mixed = LinearCombination.build([(1, HOM, path(2)),
                                     (1, HOM, clique(3))])
    assert not is_congruent(mixed)
    assert is_congruent(LinearCombination(()))
    assert evaluate_combination(LinearCombination(()), clique(3)) == 0


def test_fractional_weights_evaluate_exactly():
    combo = LinearCombination.build([(Fraction(1, 3), HOM, path(3))])
    assert evaluate_combination(combo, clique(3)) == Fraction(4)

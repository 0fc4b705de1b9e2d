import random
from collections import Counter

import pytest

from homlattice import permtree
from homlattice.errors import HomlatticeError, ParseError, TreeError
from homlattice.graphs import Graph, count_automorphisms, cycle, path, star
from homlattice.oracle import brute_restricted, brute_subgraphs
from homlattice.permtree import (
    build_gadget,
    check_tree,
    count_subtrees,
    count_tree_embeddings,
    identity_matrix,
    parse_matrix,
    tree_automorphism_count,
    tree_center,
    verify_permanent_identity,
)
from homlattice.restrictions import EMB
from helpers import (
    all_trees,
    random_tree,
    reference_tree_center,
    reference_tree_embeddings,
)

EXAMPLE = [
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 1, 0, 0, 1],
]


def test_check_tree_rejects_non_trees():
    with pytest.raises(TreeError):
        check_tree(cycle(3))
    with pytest.raises(TreeError):
        check_tree(Graph(2))
    with pytest.raises(TreeError):
        check_tree(Graph(0))
    check_tree(path(4))


def test_each_tree_is_checked_once(monkeypatch):
    check = permtree.check_tree
    checked = []

    def counted(graph):
        checked.append(graph.n)
        check(graph)

    monkeypatch.setattr(permtree, "check_tree", counted)
    result = verify_permanent_identity(EXAMPLE)
    assert result.match and result.permanent == 6
    # The identity gadget (56 vertices) and the matrix gadget (62), each
    # once, by build_gadget; the subtree count trusts them.
    assert checked == [56, 62]
    tree = build_gadget(EXAMPLE).graph
    for call, args in [(tree_center, (tree,)),
                       (tree_automorphism_count, (tree,)),
                       (count_tree_embeddings, (path(3), tree)),
                       (count_subtrees, (path(3), tree))]:
        checked.clear()
        call(*args)
        assert checked == [a.n for a in args]
        for bad in (cycle(3), Graph(2)):
            for at in range(len(args)):
                with pytest.raises(TreeError):
                    call(*args[:at], bad, *args[at + 1:])


def test_tree_center_examples():
    assert tree_center(path(4)) == (1, 2)
    assert tree_center(path(5)) == (2,)
    assert tree_center(star(3)) == (0,)
    assert tree_center(Graph(1)) == (0,)


def test_tree_center_matches_leaf_stripping():
    """Every tree on at most 10 vertices, randomly relabelled, and the
    gadget trees of orders 5 and 6."""
    rng = random.Random(53)
    trees = []
    for tree in all_trees(10):
        perm = list(range(tree.n))
        rng.shuffle(perm)
        trees.append(tree.relabeled(perm))
    assert len(trees) == 201
    for n in (5, 6):
        trees.append(build_gadget(identity_matrix(n)).graph)
        trees.append(build_gadget(
            [[int(rng.random() < 0.5) for _ in range(n)]
             for _ in range(n)]).graph)
    trees.append(build_gadget(EXAMPLE).graph)
    for tree in trees:
        assert tree_center(tree) == reference_tree_center(tree)


def test_automorphism_examples():
    assert tree_automorphism_count(path(3)) == 2
    assert tree_automorphism_count(star(3)) == 6
    assert tree_automorphism_count(path(2)) == 2
    assert tree_automorphism_count(Graph(1)) == 1
    # Deep trees with a centre vertex and with a centre edge.
    assert tree_automorphism_count(path(3001)) == 2
    assert tree_automorphism_count(path(3000)) == 2


def test_automorphisms_match_generic_counter():
    rng = random.Random(41)
    for _ in range(60):
        tree = random_tree(rng, rng.randrange(1, 10))
        assert tree_automorphism_count(tree) == count_automorphisms(tree)
    for tree in all_trees(9):
        assert tree_automorphism_count(tree) == count_automorphisms(tree)


def test_automorphisms_match_self_embeddings():
    """Aut(T) = Emb(T, T) on trees past the generic counter's 12-vertex
    limit: random trees, bicentral trees (even paths and double stars with
    equal and unequal arms) and the identity gadgets for n = 5 and 6."""
    rng = random.Random(47)
    trees = [random_tree(rng, rng.randrange(13, 61)) for _ in range(30)]
    trees += [path(k) for k in (2, 4, 14, 40)]
    for left, right in ((1, 1), (4, 4), (6, 6), (2, 5), (1, 7)):
        trees.append(Graph(left + right + 2, [(0, 1)]
                           + [(0, 2 + i) for i in range(left)]
                           + [(1, 2 + left + i) for i in range(right)]))
    trees += [build_gadget(identity_matrix(n)).graph for n in (5, 6)]
    # A broom: five leaves and a 1,200-vertex handle at vertex 0, deeper
    # than the interpreter's recursion limit.
    broom = Graph(1206, [(0, v) for v in range(1, 7)]
                  + [(v, v + 1) for v in range(6, 1205)])
    trees.append(broom)
    assert {len(tree_center(tree)) for tree in trees} == {1, 2}
    for tree in trees:
        assert tree_automorphism_count(tree) == count_tree_embeddings(tree,
                                                                      tree)
    assert tree_automorphism_count(trees[-2]) == 6 ** 6
    assert tree_automorphism_count(broom) == 120


def test_embeddings_match_oracle():
    rng = random.Random(43)
    for _ in range(60):
        pattern = random_tree(rng, rng.randrange(1, 6))
        host = random_tree(rng, rng.randrange(1, 8))
        assert (count_tree_embeddings(pattern, host)
                == brute_restricted(EMB, pattern, host))


def test_subtree_counts():
    assert count_subtrees(path(3), path(3)) == 1
    assert count_subtrees(path(2), path(4)) == 3
    assert count_subtrees(path(5), path(4)) == 0


def test_embeddings_match_reference_search():
    """Every pair of trees on at most 7 and at most 9 vertices, random
    pairs up to 14 and 59 vertices, and the identity and a random matrix
    gadget for n = 5, 6 and 7 in all four directions."""
    pairs = [(pattern, host) for pattern in all_trees(7)
             for host in all_trees(9)]
    assert len(pairs) == 2375
    rng = random.Random(59)
    pairs += [(random_tree(rng, rng.randrange(1, 15)),
               random_tree(rng, rng.randrange(1, 60))) for _ in range(300)]
    for n in (5, 6, 7):
        gadgets = [build_gadget(identity_matrix(n)).graph,
                   build_gadget([[int(rng.random() < 0.6) for _ in range(n)]
                                 for _ in range(n)]).graph]
        pairs += [(pattern, host) for pattern in gadgets for host in gadgets]
    for pattern, host in pairs:
        assert (count_tree_embeddings(pattern, host)
                == reference_tree_embeddings(pattern, host))


def test_embeddings_match_networkx_monomorphisms():
    """Between trees a subgraph monomorphism is an embedding."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    def nx_graph(graph):
        out = nx.Graph()
        out.add_nodes_from(range(graph.n))
        out.add_edges_from(graph.edges)
        return out

    rng = random.Random(61)
    for _ in range(150):
        pattern = random_tree(rng, rng.randrange(1, 9))
        host = random_tree(rng, rng.randrange(1, 15))
        matcher = GraphMatcher(nx_graph(host), nx_graph(pattern))
        expected = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert count_tree_embeddings(pattern, host) == expected


def test_subtree_counts_match_brute_subgraphs():
    rng = random.Random(67)
    for _ in range(80):
        pattern = random_tree(rng, rng.randrange(1, 6))
        host = random_tree(rng, rng.randrange(1, 9))
        assert count_subtrees(pattern, host) == brute_subgraphs(pattern, host)


def test_gadget_sizes():
    assert build_gadget([[1]]).graph.n == 8
    gadget = build_gadget(identity_matrix(5))
    assert gadget.graph.n == 56
    ones = sum(sum(row) for row in EXAMPLE)
    assert build_gadget(EXAMPLE).graph.n == 25 + ones + 5 * 5 + 1


def test_gadget_roles_and_degrees():
    gadget = build_gadget(identity_matrix(5))
    check_tree(gadget.graph)
    root = gadget.vertices_with_role("root")
    assert len(root) == 1
    assert gadget.graph.degree(root[0]) == 5
    for hub in gadget.vertices_with_role("hub"):
        assert gadget.graph.degree(hub) == 4
    profile = Counter(gadget.graph.degree(v)
                      for v in range(gadget.graph.n))
    assert profile == {1: 20, 2: 25, 3: 5, 4: 5, 5: 1}


def test_identity_gadget_automorphisms():
    gadget = build_gadget(identity_matrix(5))
    assert tree_automorphism_count(gadget.graph) == 6 ** 5


def test_permanent_identity_examples():
    check = verify_permanent_identity(identity_matrix(5))
    assert (check.permanent, check.subtree_count, check.match) == (1, 1, True)
    check = verify_permanent_identity([[1] * 5 for _ in range(5)])
    assert (check.permanent, check.subtree_count) == (120, 120)
    check = verify_permanent_identity(EXAMPLE)
    assert (check.permanent, check.subtree_count) == (6, 6)
    check = verify_permanent_identity([[0] * 5 for _ in range(5)])
    assert (check.permanent, check.subtree_count) == (0, 0)


def test_permanent_identity_needs_five_rows():
    with pytest.raises(HomlatticeError):
        verify_permanent_identity(identity_matrix(4))


def test_build_gadget_validates():
    with pytest.raises(HomlatticeError):
        build_gadget([])
    with pytest.raises(HomlatticeError):
        build_gadget([[1, 0]])
    with pytest.raises(HomlatticeError):
        build_gadget([[2]])


def test_parse_matrix():
    assert parse_matrix("2\n1 0\n0 1\n") == [[1, 0], [0, 1]]
    assert parse_matrix("1\n1") == [[1]]
    for bad in ("", "x", "2\n1 0", "2\n1 2\n0 1", "2\n1\n0 1", "0"):
        with pytest.raises(ParseError):
            parse_matrix(bad)

"""Checks of the benchmark's references against brute force.

    python3 -m pytest perfbench/test_references.py -q
"""

import itertools
import random

import pytest

import references as ref
import workloads

TAUS = ("hom", "emb", "li", "li:2")


def random_graph(rng, n, p):
    return n, [(u, v) for u, v in itertools.combinations(range(n), 2)
               if rng.random() < p]


def enumerate_maps(n, edges, constraint, host_n, host_edges):
    """Every map V(pattern) -> V(host), filtered by the definitions."""
    adj = ref.adjacency(host_n, host_edges)
    return sum(1 for f in itertools.product(range(host_n), repeat=n)
               if all(f[v] in adj[f[u]] for u, v in edges)
               and all(f[u] != f[v] for u, v in constraint))


def test_restricted_count_matches_enumeration():
    rng = random.Random(1)
    for _ in range(40):
        pattern = random_graph(rng, rng.randint(0, 4), 0.5)
        host = random_graph(rng, rng.randint(1, 5), 0.6)
        for tau in TAUS:
            constraint = ref.constraint_edges(tau, *pattern)
            want = enumerate_maps(*pattern, constraint, *host)
            got = ref.restricted_count(*pattern, constraint,
                                       ref.adjacency(*host))
            assert got == want, (tau, pattern, host)


def test_constraint_graphs_follow_the_definitions():
    n, edges = workloads.path(5)
    assert ref.constraint_edges("hom", n, edges) == set()
    assert len(ref.constraint_edges("emb", n, edges)) == 10
    assert ref.constraint_edges("li", n, edges) == {(0, 2), (1, 3), (2, 4)}
    assert ref.constraint_edges("li", n, edges) == \
        ref.constraint_edges("li:1", n, edges)
    # Radius 2: witness 2 sees 0, 1, 3, 4; witness 1 sees 0, 2, 3.
    li2 = ref.constraint_edges("li:2", n, edges)
    assert (0, 4) in li2 and (0, 3) in li2 and (1, 4) in li2
    assert ref.constraint_edges("li", 3, []) == set()


@pytest.mark.parametrize("seed", range(6))
def test_closed_forms_match_backtracking(seed):
    rng = random.Random(seed)
    host = random_graph(rng, rng.randint(5, 9), 0.5)
    adj = ref.adjacency(*host)
    cases = [(tau, family, k) for tau, family, k in
             workloads.LIGHT_PATTERNS + workloads.CYCLE_PATTERNS]
    for tau, family, k in cases:
        pattern = workloads.FAMILIES[family](k)
        constraint = ref.constraint_edges(tau, *pattern)
        want = ref.restricted_count(*pattern, constraint, adj)
        assert ref.closed_form(tau, family, k, adj) == want, (tau, family, k)


def test_closed_forms_refuse_unknown_pairs():
    with pytest.raises(ValueError):
        ref.closed_form("emb", "path", 4, ref.adjacency(3, [(0, 1)]))
    with pytest.raises(ValueError):
        ref.closed_form("li", "cycle", 5, ref.adjacency(3, [(0, 1)]))


def laplace_permanent(matrix):
    if not matrix:
        return 1
    return sum(matrix[0][j] * laplace_permanent(
        [row[:j] + row[j + 1:] for row in matrix[1:]])
        for j in range(len(matrix)))


def test_permanent():
    rng = random.Random(2)
    assert ref.permanent([[1, 1, 1]] * 3) == 6
    for n in range(1, 7):
        matrix = [[int(rng.random() < 0.6) for _ in range(n)]
                  for _ in range(n)]
        assert ref.permanent(matrix) == laplace_permanent(matrix)


def test_independent_partitions_give_colouring_counts():
    rng = random.Random(3)
    for _ in range(20):
        n, edges = random_graph(rng, rng.randint(0, 6), 0.4)
        a = ref.independent_partitions(n, edges)
        for q in range(1, 5):
            colourings = sum(
                1 for c in itertools.product(range(q), repeat=n)
                if all(c[u] != c[v] for u, v in edges))
            assert sum(a_k * ref.falling(q, k)
                       for k, a_k in enumerate(a)) == colourings


def test_treewidth():
    assert ref.treewidth(*workloads.path(6)) == 1
    assert ref.treewidth(*workloads.star(5)) == 1
    assert ref.treewidth(*workloads.cycle(5)) == 2
    assert ref.treewidth(*workloads.clique(5)) == 4
    assert ref.treewidth(3, []) == 0
    assert ref.treewidth(*workloads.windmill(2)) == 2


def test_loopfree_minors():
    assert ref.loopfree_minors("emb", *workloads.clique(4)) == \
        [(4, set(workloads.clique(4)[1]))]
    assert len(ref.loopfree_minors("hom", *workloads.cycle(5))) == 1
    # li on P3 merges the two ends: P3 itself and a single edge.
    assert sorted(n for n, _ in ref.loopfree_minors("li", *workloads.path(3))) \
        == [2, 3]


def test_expansion_check():
    p3 = workloads.path(3)
    # li(P3) = hom(P3) - hom(K2): the two ends merge into one vertex.
    good = [(1, 3, [(0, 1), (1, 2)]), (-1, 2, [(0, 1)])]
    assert workloads.expansion_ok(p3, "li", good)
    assert not workloads.expansion_ok(p3, "li", good[:1])
    assert not workloads.expansion_ok(p3, "li", [good[0], (-2, 2, [(0, 1)])])
    assert not workloads.expansion_ok(p3, "li", [good[0], (1, 2, [(0, 1)])])
    assert workloads.expansion_ok(p3, "li", [(1, 3, [(0, 1), (0, 2)]),
                                             good[1]])
    assert not workloads.expansion_ok(
        p3, "li", [(1, 3, [(0, 1), (0, 2), (1, 2)]), good[1]])
    # li(P5): the constraint graph is the forest 0-2-4, 1-3, so every
    # subset S of its edges gives (-1)^|S| hom(P5/S).
    p4, s3 = (4, [(0, 1), (1, 2), (2, 3)]), (4, [(0, 1), (0, 2), (0, 3)])
    p5 = workloads.path(5)
    rest = [(3, 3, [(0, 1), (1, 2)]), (-1, 2, [(0, 1)])]
    assert workloads.expansion_ok(p5, "li", [(1, *p5), (-2, *p4), (-1, *s3)]
                                  + rest)
    # Same chromatic polynomials, a path where the star belongs.
    assert not workloads.expansion_ok(p5, "li", [(1, *p5), (-3, *p4)] + rest)
    k3 = workloads.clique(3)
    assert workloads.expansion_ok(k3, "emb", [(1, 3, k3[1])])
    assert workloads.expansion_ok((0, []), "hom", [(1, 0, [])])


def test_expansion_identity_holds_on_complete_hosts():
    """The identity expansion_ok relies on: restricted counts into K_q are
    proper colourings of the pattern plus its constraint graph."""
    rng = random.Random(4)
    for _ in range(10):
        n, edges = random_graph(rng, rng.randint(1, 5), 0.5)
        for tau in TAUS:
            constraint = ref.constraint_edges(tau, n, edges)
            a = ref.independent_partitions(n, set(edges) | constraint)
            for q in range(1, 5):
                host = ref.adjacency(*workloads.clique(q))
                assert ref.restricted_count(n, edges, constraint, host) == \
                    sum(a_k * ref.falling(q, k) for k, a_k in enumerate(a))


def test_parsers():
    text = "+1\t3\t1-2;2-3\n-1\t2\t1-2\n"
    assert workloads.parse_expansion(text) == [(1, 3, [(0, 1), (1, 2)]),
                                               (-1, 2, [(0, 1)])]
    minors = "3\t1\t1-2;2-3\n2\t1\t1-2\nmax-treewidth: 1\n"
    assert workloads.minors_ok(workloads.path(3), "li", minors)
    assert not workloads.minors_ok(workloads.path(3), "li",
                                   "3\t1\t1-2;2-3\nmax-treewidth: 1\n")
    assert not workloads.minors_ok(workloads.path(3), "li",
                                   minors.replace("3\t1", "3\t2"))


def test_inputs_follow_the_seed():
    a = workloads.build("host-large", 7)
    b = workloads.build("host-large", 7)
    c = workloads.build("host-large", 8)
    assert a.worker_input() == b.worker_input()
    assert a.graphs["U2000"] != c.graphs["U2000"]
    assert len(a.queries) == len(c.queries)
    for name in workloads.BUILDERS:
        deadlines = [q.get("deadline") for q in
                     workloads.build(name, 1).queries]
        assert sum(d is not None for d in deadlines) == (name == "cli")

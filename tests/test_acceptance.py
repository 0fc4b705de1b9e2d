"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

from homlattice.basis import (
    LinearCombination,
    count_restricted,
    evaluate_combination,
    expand,
    expansion_cache_clear,
    hom_to_embedding_basis,
    is_congruent,
)
from homlattice.flats import enumerate_flats, sign_rule_holds
from homlattice.graphs import (
    clique,
    connected_components,
    count_automorphisms,
    cycle,
    is_isomorphic,
    path,
    spider,
    windmill,
)
from homlattice.oracle import (
    brute_hom,
    brute_restricted,
    brute_restricted_quotient,
    brute_subgraphs,
    permanent_direct,
    permanent_ryser,
)
from homlattice.permtree import (
    count_tree_embeddings,
    identity_matrix,
    verify_permanent_identity,
)
from homlattice.restrictions import (
    EMB,
    HOM,
    LI,
    apply_restriction,
    contraction_is_legal,
    locally_injective,
    max_minor_treewidth,
    restriction_minors,
    spider_contraction,
    windmill_apex_deleted,
    windmill_contraction,
)
from homlattice.treedp import hom_cache_clear, hom_count
from helpers import all_trees, edge_graphs, graphs_up_to, random_graph, \
    random_host

EXAMPLE_MATRIX = [
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 1, 0, 0, 1],
]


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_01_basis_counts_equal_oracle_counts():
    rng = random.Random(101)
    hosts = [random_graph(rng, rng.randrange(1, 9), rng.uniform(0.2, 0.8))
             for _ in range(20)]
    taus = (HOM, EMB, LI, locally_injective(2))
    checked = 0
    bad = 0
    for pattern in graphs_up_to(5):
        for tau in taus:
            for host in hosts:
                if (count_restricted(tau, pattern, host)
                        != brute_restricted(tau, pattern, host)):
                    bad += 1
                checked += 1
    _verdict(1, "basis equals oracle", bad == 0,
             f"{checked} instances, {len(graphs_up_to(5))} patterns")


def test_02_mobius_sign_law():
    bad = 0
    for graph in graphs_up_to(6):
        if not sign_rule_holds(enumerate_flats(graph)):
            bad += 1
    _verdict(2, "Mobius sign law", bad == 0,
             f"{len(graphs_up_to(6))} constraint graphs")


def test_03_condensed_coefficients_nonzero_with_sign_pattern():
    taus = (HOM, EMB, LI, locally_injective(2), locally_injective(3))
    checked = 0
    bad = 0
    for pattern in graphs_up_to(6):
        for tau in taus:
            expansion = expand(tau, pattern)
            lead = expansion.terms[0]
            if lead.coefficient != 1 or lead.graph.n != pattern.n:
                bad += 1
            for term in expansion.terms:
                removed = pattern.n - term.graph.n
                if term.coefficient == 0:
                    bad += 1
                elif (term.coefficient > 0) != (removed % 2 == 0):
                    bad += 1
                checked += 1
    _verdict(3, "condensed coefficients", bad == 0,
             f"{checked} coefficients")


def test_04_zeta_identity_over_flats():
    rng = random.Random(104)
    hosts = [random_graph(rng, rng.randrange(1, 6), rng.uniform(0.3, 0.8))
             for _ in range(5)]
    checked = 0
    bad = 0
    for pattern in graphs_up_to(4):
        for tau in (EMB, LI):
            lattice = enumerate_flats(apply_restriction(tau, pattern))
            size = len(lattice.flats)
            for host in hosts:
                restricted = [
                    brute_restricted_quotient(tau, pattern, flat, host)
                    for flat in lattice.flats]
                plain = [
                    brute_restricted_quotient(HOM, pattern, flat, host)
                    for flat in lattice.flats]
                for s in range(size):
                    total = sum(restricted[i] for i in range(size)
                                if lattice.leq[i] >> s & 1)
                    if total != plain[s]:
                        bad += 1
                    checked += 1
    _verdict(4, "zeta identity over flats", bad == 0,
             f"{checked} flat sums")


def test_05_lovasz_identities():
    rng = random.Random(105)
    hosts = [random_graph(rng, rng.randrange(1, 7), rng.uniform(0.3, 0.8))
             for _ in range(5)]
    bad = 0
    for pattern in graphs_up_to(4):
        aut = count_automorphisms(pattern)
        combo = hom_to_embedding_basis(pattern)
        for host in hosts:
            emb = brute_restricted(EMB, pattern, host)
            if emb != aut * brute_subgraphs(pattern, host):
                bad += 1
            hom = brute_hom(pattern, host)
            if evaluate_combination(combo, host) != hom:
                bad += 1
            oracle_side = sum(
                coeff * brute_restricted(EMB, rep, host)
                for coeff, _, rep in combo.terms)
            if oracle_side != hom:
                bad += 1
    _verdict(5, "Lovasz identities", bad == 0,
             f"{len(graphs_up_to(4))} patterns x {len(hosts)} hosts")


def test_06_trees_stay_easy():
    rng = random.Random(106)
    trees = all_trees(8)
    bad = 0
    for tree in trees:
        minors = restriction_minors(LI, tree)
        for term in minors.terms:
            graph = term.graph
            if graph.m != graph.n - 1:
                bad += 1
            if connected_components(graph)[0] != 1:
                bad += 1
        width = max_minor_treewidth(minors)
        if width != (1 if tree.n >= 2 else 0):
            bad += 1
    host = random_host(rng, 500, 1500)
    expansion_cache_clear()  # the minors filled it; time expansions too
    slowest = 0.0
    for tree in trees:
        start = time.perf_counter()
        count_restricted(LI, tree, host)
        slowest = max(slowest, time.perf_counter() - start)
    if slowest >= 10.0:
        bad += 1
    _verdict(6, "trees stay easy", bad == 0,
             f"{len(trees)} trees, slowest count {slowest:.2f}s on 500 hosts")


def test_07_tree_rigidity():
    small = [t for t in all_trees(5)]
    larger = [t for t in all_trees(7)]
    bad = 0
    pairs = 0
    for pattern in small:
        for host in larger:
            if (count_restricted(LI, pattern, host)
                    != count_tree_embeddings(pattern, host)):
                bad += 1
            pairs += 1
    _verdict(7, "tree rigidity", bad == 0, f"{pairs} tree pairs")


def test_08_permanent_identity():
    rng = random.Random(108)
    start = time.perf_counter()
    bad = 0
    fixed = [
        (identity_matrix(5), 1),
        ([[1] * 5 for _ in range(5)], 120),
        (EXAMPLE_MATRIX, 6),
        ([[0] * 5 for _ in range(5)], 0),
    ]
    for matrix, expected in fixed:
        check = verify_permanent_identity(matrix)
        if not check.match or check.permanent != expected:
            bad += 1
        if permanent_direct(matrix) != check.permanent:
            bad += 1
    for _ in range(30):
        n = rng.choice((5, 6))
        matrix = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        check = verify_permanent_identity(matrix)
        if not check.match:
            bad += 1
        if permanent_direct(matrix) != permanent_ryser(matrix):
            bad += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 180:
        bad += 1
    _verdict(8, "permanent identity", bad == 0,
             f"34 matrices in {elapsed:.2f}s")


def test_09_windmill_contractions_realize_all_small_graphs():
    bad = 0
    total = 0
    for m, targets in edge_graphs(4).items():
        for target in targets:
            partition, minor = windmill_contraction(target)
            host = windmill(m)
            if not contraction_is_legal(LI, host, partition):
                bad += 1
            if not minor.is_loop_free():
                bad += 1
            if not is_isomorphic(windmill_apex_deleted(partition, minor),
                                 target):
                bad += 1
            total += 1
    _verdict(9, "windmill contractions", bad == 0,
             f"{total} targets with <= 4 edges")


def test_10_spider_contractions_give_windmills():
    bad = 0
    for k in (1, 2, 3):
        partition, minor = spider_contraction(k)
        if not contraction_is_legal(locally_injective(2), spider(k),
                                    partition):
            bad += 1
        if not is_isomorphic(minor, windmill(k)):
            bad += 1
    _verdict(10, "spider contractions", bad == 0, "k in {1,2,3}")


def test_11_linear_combination_instance():
    combo = LinearCombination.build([
        (1, HOM, path(3)),
        (1, LI, clique(3)),
        (1, EMB, cycle(3)),
    ])
    host = clique(4)
    oracle_total = (brute_restricted(HOM, path(3), host)
                    + brute_restricted(LI, clique(3), host)
                    + brute_restricted(EMB, cycle(3), host))
    engine_total = evaluate_combination(combo, host)
    mixed = LinearCombination.build([(1, HOM, path(2)),
                                     (1, HOM, clique(3))])
    ok = (engine_total == oracle_total == 84
          and is_congruent(combo)
          and not is_congruent(mixed))
    _verdict(11, "linear combinations", ok,
             f"engine {engine_total}, oracle {oracle_total}")


def test_12_host_scaling_envelope():
    rng = random.Random(112)
    pattern = cycle(4)
    host1 = random_host(rng, 1000, 5000)
    host2 = random_host(rng, 2000, 10000)

    def timed(host):
        best = math.inf
        for _ in range(2):
            hom_cache_clear()  # time the elimination, not the memo
            start = time.perf_counter()
            hom_count(pattern, host)
            best = min(best, time.perf_counter() - start)
        return max(best, 1e-3)

    t1 = timed(host1)
    t2 = timed(host2)
    slope = math.log2(t2 / t1)
    ok = t1 < 60 and slope <= 3.5
    _verdict(12, "host scaling envelope", ok,
             f"t1 {t1:.2f}s, t2 {t2:.2f}s, slope {slope:.2f}")

import random

from homlattice.flats import (
    blocks_connected,
    enumerate_flats,
    iter_set_partitions,
    partition_leq,
    sign_rule_holds,
)
from homlattice.graphs import Graph, VertexPartition, clique, cycle, path
from helpers import flats_by_filter, graphs_up_to, random_graph


def test_set_partition_counts_are_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in iter_set_partitions(n)) == bell


def test_clique_flats_are_all_partitions():
    for n, bell in [(3, 5), (4, 15), (5, 52), (6, 203)]:
        assert len(enumerate_flats(clique(n)).flats) == bell


def test_generator_matches_filter_oracle():
    """Flats, ranks and mu agree with filtering all set partitions and
    running the defining recursion, on every graph with at most 6
    vertices."""
    for g in (Graph(0),) + graphs_up_to(6):
        lattice = enumerate_flats(g)
        got = [(flat.partition, flat.rank, mu)
               for flat, mu in zip(lattice.flats, lattice.mobius)]
        assert got == flats_by_filter(g)


def test_large_clique_flats_are_bell_numbers():
    for n, bell in [(7, 877), (8, 4140), (9, 21147)]:
        assert len(enumerate_flats(clique(n)).flats) == bell


def test_sign_rule_on_larger_graphs():
    assert sign_rule_holds(enumerate_flats(clique(8)))
    assert sign_rule_holds(enumerate_flats(cycle(9)))


def test_path_flats_exclude_disconnected_blocks():
    lattice = enumerate_flats(path(3))
    partitions = {flat.partition for flat in lattice.flats}
    assert VertexPartition.from_blocks([{0, 2}, {1}]) not in partitions
    assert len(partitions) == 4


def test_triangle_mobius_values():
    lattice = enumerate_flats(clique(3))
    by_rank = {}
    for flat, mu in zip(lattice.flats, lattice.mobius):
        by_rank.setdefault(flat.rank, []).append(mu)
    assert by_rank[0] == [1]
    assert by_rank[1] == [-1, -1, -1]
    assert by_rank[2] == [2]


def test_k4_top_mobius():
    lattice = enumerate_flats(clique(4))
    top = max(range(len(lattice.flats)),
              key=lambda i: lattice.flats[i].rank)
    assert lattice.mobius[top] == -6


def test_sign_rule_on_small_graphs():
    rng = random.Random(3)
    assert sign_rule_holds(enumerate_flats(clique(4)))
    assert sign_rule_holds(enumerate_flats(path(5)))
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 6), 0.5)
        assert sign_rule_holds(enumerate_flats(g))


def test_mobius_defining_sum():
    """Summing mu over the down-set of any flat gives 1 only at bottom."""
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, rng.randrange(2, 6), 0.6)
        lattice = enumerate_flats(g)
        for i in range(len(lattice.flats)):
            below = lattice.leq[i]
            total = sum(lattice.mobius[j] for j in range(len(lattice.flats))
                        if below >> j & 1)
            assert total == (1 if lattice.flats[i].rank == 0 else 0)


def test_rank_counts_merged_vertices():
    lattice = enumerate_flats(path(4))
    for flat in lattice.flats:
        assert flat.rank == 4 - flat.partition.num_blocks()


def test_leq_is_a_partial_order():
    lattice = enumerate_flats(path(4))
    flats = lattice.flats
    for i, hi in enumerate(flats):
        for j, lo in enumerate(flats):
            expected = partition_leq(lo.partition, hi.partition)
            assert bool(lattice.leq[i] >> j & 1) == expected


def test_blocks_connected():
    g = path(3)
    assert blocks_connected(g, VertexPartition.from_blocks([{0, 1}, {2}]))
    assert not blocks_connected(g, VertexPartition.from_blocks([{0, 2}, {1}]))

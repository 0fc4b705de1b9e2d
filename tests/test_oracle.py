import random
from itertools import product

import pytest

from homlattice.errors import BudgetError, HomlatticeError
from homlattice.flats import enumerate_flats
from homlattice.graphs import VertexPartition, clique, cycle, path, star
from homlattice.oracle import (
    brute_hom,
    brute_restricted,
    brute_restricted_quotient,
    brute_subgraphs,
    permanent_direct,
    permanent_ryser,
)
from homlattice.restrictions import EMB, HOM, LI, locally_injective
from helpers import random_graph


def test_hom_counts():
    assert brute_hom(path(3), clique(3)) == 12
    assert brute_hom(path(3), path(3)) == 6
    assert brute_hom(clique(3), clique(4)) == 24
    assert brute_hom(clique(3), cycle(5)) == 0


def test_restricted_counts():
    assert brute_restricted(HOM, path(3), clique(3)) == 12
    assert brute_restricted(EMB, path(3), clique(3)) == 6
    assert brute_restricted(LI, path(3), clique(3)) == 6
    assert brute_restricted(EMB, clique(2), clique(3)) == 6


def test_li_radius_two_is_stricter_on_paths():
    host = path(5)
    r1 = brute_restricted(LI, path(4), host)
    r2 = brute_restricted(locally_injective(2), path(4), host)
    assert r2 <= r1
    assert r2 == brute_restricted(EMB, path(4), host)


def test_subgraph_counts():
    assert brute_subgraphs(clique(2), clique(3)) == 3
    assert brute_subgraphs(path(3), clique(3)) == 3
    assert brute_subgraphs(clique(3), clique(4)) == 4
    assert brute_subgraphs(path(4), cycle(4)) == 4
    assert brute_subgraphs(star(3), cycle(4)) == 0


def test_budget_exhaustion():
    with pytest.raises(BudgetError):
        brute_hom(path(5), clique(6), budget=100)
    with pytest.raises(BudgetError):
        brute_subgraphs(path(3), clique(6), budget=10)


def test_quotient_oracle_at_bottom_flat_matches_plain_count():
    rng = random.Random(17)
    for _ in range(20):
        pattern = random_graph(rng, rng.randrange(2, 5), 0.5)
        host = random_graph(rng, rng.randrange(1, 5), 0.5)
        bottom = VertexPartition.singletons(pattern.n)
        for restriction in (EMB, LI):
            assert (brute_restricted_quotient(restriction, pattern, bottom,
                                              host)
                    == brute_restricted(restriction, pattern, host))


def test_quotient_oracle_drops_loopy_quotients():
    pattern = clique(3)
    merged = VertexPartition.from_blocks([{0, 1}, {2}])
    assert brute_restricted_quotient(EMB, pattern, merged, clique(4)) == 0


def test_quotient_oracle_accepts_flats():
    lattice = enumerate_flats(clique(3))
    host = clique(3)
    totals = [brute_restricted_quotient(EMB, clique(3), flat, host)
              for flat in lattice.flats]
    assert totals[0] == 6


def test_permanent_small_matrices_exhaustively():
    for n in range(1, 4):
        for bits in product((0, 1), repeat=n * n):
            matrix = [list(bits[i * n:(i + 1) * n]) for i in range(n)]
            assert permanent_direct(matrix) == permanent_ryser(matrix)


def test_permanent_random_agreement():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(4, 8)
        matrix = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        assert permanent_direct(matrix) == permanent_ryser(matrix)


def test_permanent_known_values():
    assert permanent_ryser([[1, 0], [0, 1]]) == 1
    assert permanent_ryser([[1] * 5 for _ in range(5)]) == 120
    example = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 1],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 1, 0, 0, 1],
    ]
    assert permanent_direct(example) == 6
    assert permanent_ryser(example) == 6


def test_permanent_rejects_bad_matrices():
    with pytest.raises(HomlatticeError):
        permanent_ryser([[1, 0]])
    with pytest.raises(HomlatticeError):
        permanent_ryser([[2]])


def test_oracle_takes_only_graph_basics_from_graphs():
    """The oracle stays independent of the canonical search it checks:
    from ``graphs`` it imports the Graph type, distances and quotients
    and nothing else."""
    import ast
    import inspect

    from homlattice import oracle

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("graphs", "homlattice.graphs"):
                imported |= names
            elif node.module in (None, "homlattice"):
                assert "graphs" not in names
        elif isinstance(node, ast.Import):
            assert all("graphs" not in alias.name for alias in node.names)
    assert "Graph" in imported
    assert imported <= {"Graph", "bfs_distances", "quotient"}

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from homlattice import basis, graphs, treedp
from homlattice.basis import (
    BasisExpansion,
    ExpansionTerm,
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
from homlattice.restrictions import (EMB, HOM, LI, apply_restriction,
                                     custom_restriction, locally_injective,
                                     parse_restriction)
from helpers import graphs_up_to, random_graph, random_host


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


def test_class_key_hit_builds_no_representative(monkeypatch):
    """An isomorphic relabelling found under its class key takes the
    cached terms and relabels nothing."""
    expand(LI, cycle(6))
    relabeled = cycle(6).relabeled([1, 0, 2, 3, 4, 5])
    calls = []
    relabel = Graph.relabeled
    monkeypatch.setattr(
        Graph, "relabeled",
        lambda g, perm: calls.append(g) or relabel(g, perm))
    assert expand(LI, relabeled).terms == expand(LI, cycle(6)).terms
    assert calls == []


def test_expand_builds_one_representative_per_term(monkeypatch):
    relabeled = []
    relabel = Graph.relabeled
    monkeypatch.setattr(
        Graph, "relabeled",
        lambda g, perm: relabeled.append(g) or relabel(g, perm))
    expansion = expand(locally_injective(2), cycle(6))
    assert len(expansion) > 1
    assert len(relabeled) == len(expansion)


def test_expansions_share_one_representative_per_class():
    """A class met by two expansions is one Graph object in both, and
    sharing changes no term."""
    li, emb = expand(LI, path(4)), expand(EMB, cycle(4))
    held = {term.key: term.graph for term in li.terms}
    shared = [term for term in emb.terms if term.key in held]
    assert len(shared) >= 2  # the path on three vertices and K2
    assert all(term.graph is held[term.key] for term in shared)
    for restriction, pattern, terms in ((LI, path(4), li.terms),
                                        (EMB, cycle(4), emb.terms)):
        basis.expansion_cache_clear()
        assert len(basis._representatives) == 0
        assert expand(restriction, pattern).terms == terms


def test_warm_requery_compares_no_graphs(monkeypatch):
    """Repeating a count on the same pattern and host finds the
    expansion, every plan and every memoised count by identity: no
    ``Graph.__eq__`` call, one memo hit per term and no miss."""
    # Plans cached by earlier tests hold equal Graphs of their own.
    treedp._plan.cache_clear()
    pattern = cycle(5)
    host = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    value = count_restricted(LI, pattern, host)
    terms = len(expand(LI, pattern))
    before = treedp.hom_cache_info()
    compared = []
    equal = Graph.__eq__
    monkeypatch.setattr(Graph, "__eq__",
                        lambda a, b: compared.append(a) or equal(a, b))
    assert count_restricted(LI, pattern, host) == value
    assert compared == []
    after = treedp.hom_cache_info()
    assert (after.hits - before.hits, after.misses) == (terms, before.misses)


def test_evaluate_checks_every_term_and_the_host():
    """An expansion that ``expand`` did not cache keeps no plan, so every
    call checks each term's loops and size, and the host: a second, warm
    call too, and a hand-built expansion that reuses a cached
    expansion's terms with one term swapped. A cached expansion, warm,
    still checks its largest term and the host."""
    host = cycle(5)
    loopy = Graph(2, [(0, 0), (0, 1)], selfloops_allowed=True)
    fine = ExpansionTerm(1, path(2), None)
    cached = expand(LI, path(4))
    value = evaluate(cached, host)
    assert value == brute_restricted(LI, path(4), host)
    # The last term swapped for path(6), which C5 takes 5 * 2 ** 5 ways.
    swapped = cached.terms[:-1] + (ExpansionTerm(1, path(6), None),)
    extra = 5 * 2 ** 5 - cached.terms[-1].coefficient * brute_hom(
        cached.terms[-1].graph, host)
    cases = [((fine,), 10), (swapped, value + extra)]
    for terms, expected in cases:
        for _ in range(2):
            good = BasisExpansion(path(4), LI, terms)
            assert evaluate(good, host) == expected
            with pytest.raises(HostError):
                evaluate(good, loopy)
            with pytest.raises(HomlatticeError) as caught:
                evaluate(BasisExpansion(path(4), LI, terms[:-1] + (
                    ExpansionTerm(1, loopy, None),) + terms[-1:]), host)
            assert caught.type is HomlatticeError
            big = BasisExpansion(path(4), LI, terms[:-1] + (
                ExpansionTerm(1, path(6), None),))
            assert evaluate(big, host) > 0
            with pytest.raises(PatternSizeError):
                evaluate(big, host, limit=5)
    for _ in range(2):
        assert evaluate(cached, host, limit=4) == value
        with pytest.raises(PatternSizeError):
            evaluate(cached, host, limit=3)
        with pytest.raises(HostError):
            evaluate(cached, loopy)
    with pytest.raises(HostError):
        evaluate(BasisExpansion(Graph(0), HOM, ()), loopy)


def test_expand_does_no_host_side_work(monkeypatch):
    """Building expansions, with the caches cold, over every graph with
    at most 5 vertices under four restrictions, neither lists a term's
    components nor works out or compiles an elimination: the host-side
    work waits for the first evaluation."""
    called = []
    for name in ("_counted", "_steps", "_kernel"):
        monkeypatch.setattr(treedp, name, lambda *args, _name=name,
                            _run=getattr(treedp, name):
                            called.append(_name) or _run(*args))
    for restriction in (HOM, EMB, LI, parse_restriction("li:2")):
        for pattern in graphs_up_to(5):
            expand(restriction, pattern)
    assert called == []
    count_restricted(LI, cycle(5), clique(4))
    assert {"_counted", "_steps", "_kernel"} <= set(called)


def test_warm_query_replays_its_plan(monkeypatch):
    """A warm ``count_restricted`` makes no elimination and lists no
    components: one memo hit per component, whether the pattern is the
    one asked before or an isomorphic relabelling. After
    ``hom_cache_clear`` the first evaluation replays the plan it holds,
    listing no components again, and counts each distinct component
    once; the next counts none, and ``hom_count`` of each term then hits
    the ids that the plan names."""
    host = random_host(random.Random(131), 9, 22)
    pattern = Graph(5, [(0, 1), (1, 2), (3, 4)])
    value = count_restricted(EMB, pattern, host)
    assert value == brute_restricted(EMB, pattern, host)
    expansion = expand(EMB, pattern)
    parts = [part for term in expansion.terms
             for part in treedp._counted(term.graph)]
    assert len(parts) > len({root for root, _ in parts}) > 1
    assert all(treedp.hom_count(term.graph, host)
               for term in expansion.terms)
    calls = Counter()
    counted = treedp._counted
    monkeypatch.setattr(treedp, "_counted", lambda pattern: calls.update(
        ["_counted"]) or counted(pattern))
    eliminate = treedp._eliminate
    monkeypatch.setattr(treedp, "_eliminate", lambda *args: calls.update(
        ["_eliminate"]) or eliminate(*args))
    relabelled = pattern.relabeled((4, 2, 3, 0, 1))
    for asked in (pattern, relabelled, pattern):
        before = treedp.hom_cache_info()
        assert count_restricted(EMB, asked, host) == value
        after = treedp.hom_cache_info()
        assert calls == Counter()
        assert (after.hits - before.hits, after.misses) == (
            len(parts), before.misses)
    treedp.hom_cache_clear()
    assert count_restricted(EMB, pattern, host) == value
    assert calls == Counter(_eliminate=len({root for root, _ in parts}))
    calls.clear()
    assert evaluate(expansion, host) == value
    assert calls["_eliminate"] == 0
    for term in expansion.terms:
        before = treedp.hom_cache_info()
        treedp.hom_count(term.graph, host)
        after = treedp.hom_cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
    assert calls["_eliminate"] == 0


def test_plan_built_before_a_clear_stays_right():
    """An expansion evaluated before ``hom_cache_clear`` replays the plan
    it built then, and gives the oracle's value on a host first seen
    after the clear, even once other patterns have been planned afresh
    and counted on that host: the ids they take name none of the plan's
    components."""
    rng = random.Random(181)
    queries = [(EMB, Graph(5, [(0, 1), (1, 2), (3, 4)])), (LI, path(4)),
               (locally_injective(2), cycle(5))]
    first = random_host(rng, 8, 13)
    expansions = [expand(tau, p) for tau, p in queries]
    for (tau, p), expansion in zip(queries, expansions):
        assert evaluate(expansion, first) == brute_restricted(tau, p, first)
    plans = [list(expansion._plan) for expansion in expansions]
    treedp.hom_cache_clear()
    treedp._steps.cache_clear()
    treedp._counted.cache_clear()
    fresh = random_host(rng, 9, 15)
    for p in graphs_up_to(4):
        assert treedp.hom_count(p, fresh) == brute_hom(p, fresh)
    for (tau, p), expansion, plan in zip(queries, expansions, plans):
        assert evaluate(expansion, fresh) == brute_restricted(tau, p, fresh)
        assert expansion._plan == plan


def test_second_host_replays_the_cached_plan(monkeypatch):
    """Counting a cached expansion on a second host replays the steps its
    plan holds: it counts every component there, and calls neither
    ``_steps`` nor ``_counted``."""
    rng = random.Random(191)
    first, second = random_host(rng, 8, 13), random_host(rng, 10, 18)
    queries = [(EMB, Graph(5, [(0, 1), (1, 2), (3, 4)])), (LI, cycle(5)),
               (locally_injective(2), path(5))]
    for tau, p in queries:
        count_restricted(tau, p, first)
    calls = Counter()
    for name in ("_steps", "_counted", "_eliminate"):
        def traced(*args, real=getattr(treedp, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(treedp, name, traced)
    for tau, p in queries:
        assert count_restricted(tau, p, second) == brute_restricted(
            tau, p, second)
    assert calls["_eliminate"] > len(queries)
    assert calls["_steps"] == calls["_counted"] == 0


def test_warm_query_counts_one_hit_per_probe_and_component():
    """A warm ``count_restricted`` adds one expansion-cache hit and one
    hom-count hit per component of its terms, and no miss, whether the
    query before it was another one or the same; its labelled key is
    then the expansion cache's newest entry."""
    host = random_host(random.Random(139), 8, 13)
    queries = [(LI, path(4)), (EMB, Graph(5, [(0, 1), (2, 3)])),
               (HOM, cycle(4)), (locally_injective(2), path(4)),
               (LI, Graph(4, [(0, 1), (0, 2), (0, 3)]))]
    values = [count_restricted(tau, p, host) for tau, p in queries]
    components = []
    for tau, p in queries:
        terms = expand(tau, p).terms
        assert all(treedp.hom_count(t.graph, host) for t in terms)
        components.append(sum(len(treedp._counted(t.graph)) for t in terms))
    assert max(components) > 3
    order = [0, 1, 2, 3, 4, 4, 4, 2, 0, 0, 3, 1]
    for i in order:
        tau, p = queries[i]
        before = (basis.expansion_cache_info(), treedp.hom_cache_info())
        assert count_restricted(tau, p, host) == values[i]
        after = (basis.expansion_cache_info(), treedp.hom_cache_info())
        assert [a - b for a, b in zip(after[0], before[0])] == [1, 0, 0, 0]
        assert [a - b for a, b in zip(after[1], before[1])] == [
            components[i], 0, 0, 0]
        assert list(basis._expansion_cache._entries)[-1] == (p._hash,
                                                             tau.token())


def test_relabelled_first_query_misses_once_then_hits_its_class():
    """The first query of a relabelled pattern counts one labelled-key
    miss and one class-key hit, moves the class key behind the first
    labelled key and stores its own labelled key as the newest entry;
    its next query is one labelled-key hit."""
    host = random_host(random.Random(157), 8, 13)
    pattern = path(4)
    relabelled = pattern.relabeled((2, 0, 3, 1))
    value = count_restricted(LI, pattern, host)
    labelled = (pattern._hash, LI.token())
    other = (relabelled._hash, LI.token())
    class_key = (graphs.canonical_form(pattern), LI.token())
    assert list(basis._expansion_cache._entries) == [class_key, labelled]
    info = basis.expansion_cache_info()
    assert count_restricted(LI, relabelled, host) == value
    after = basis.expansion_cache_info()
    assert (after.hits - info.hits, after.misses - info.misses,
            after.currsize - info.currsize) == (1, 1, 1)
    assert list(basis._expansion_cache._entries) == [labelled, class_key,
                                                     other]
    assert count_restricted(LI, relabelled, host) == value
    assert basis.expansion_cache_info().hits == after.hits + 1
    assert basis.expansion_cache_info().misses == after.misses


def _python_calls(function, *args):
    """The value of ``function(*args)`` and the qualified names of the
    Python functions it entered, itself first, in order."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        value = function(*args)
    finally:
        sys.setprofile(None)
    return value, names


def test_warm_query_makes_five_python_calls():
    """A warm ``count_restricted`` on the pattern asked before enters
    ``expand``, ``LRUCache.get``, ``evaluate`` and ``_hom_sum`` and no
    other Python function; an equal but distinct pattern object adds one
    ``Graph.__eq__`` and nothing else."""
    host = random_host(random.Random(167), 8, 13)
    pattern = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    value = count_restricted(LI, pattern, host)
    assert len(expand(LI, pattern)) > 1
    warm = ["count_restricted", "expand", "LRUCache.get", "evaluate",
            "_hom_sum"]
    for _ in range(2):
        assert _python_calls(count_restricted, LI, pattern, host) == (
            value, warm)
    twin = Graph(5, pattern.edge_list())
    assert twin == pattern and twin is not pattern
    assert _python_calls(count_restricted, LI, twin, host) == (
        value, warm[:3] + ["Graph.__eq__"] + warm[3:])


def test_patterns_sharing_a_hash_never_share_an_expansion():
    """Two unequal patterns forced onto one stored hash, queried in turn,
    each get their own expansion and oracle value: a labelled entry of the
    other pattern counts as a miss and is replaced, and the query then
    hits its own class key."""
    host = random_host(random.Random(173), 8, 14)
    first = path(4)
    second = Graph(4, [(0, 1), (0, 2), (0, 3)])
    object.__setattr__(second, "_hash", first._hash)
    assert first != second and hash(first) == hash(second)
    patterns = (first, second)
    for tau in (LI, EMB, locally_injective(2)):
        basis.expansion_cache_clear()
        wanted = {p: brute_restricted(tau, p, host) for p in patterns}
        terms = {p: expand(tau, p).terms for p in patterns}
        assert terms[first] != terms[second]
        labelled = (first._hash, tau.token())
        for p in patterns * 3:
            before = basis.expansion_cache_info()
            expansion = expand(tau, p)
            after = basis.expansion_cache_info()
            assert expansion.pattern is p and expansion.terms == terms[p]
            assert (after.hits - before.hits,
                    after.misses - before.misses) == (1, 1)
            assert basis._expansion_cache._entries[labelled].pattern is p
            assert count_restricted(tau, p, host) == wanted[p]
            assert expand(tau, p).pattern is p


def test_custom_restrictions_are_never_cached():
    """A custom restriction's token is None: its expansions are built on
    every call, leave the expansion cache untouched and carry no plan."""
    custom = custom_restriction(lambda pattern: apply_restriction(
        LI, pattern), name="li-copy")
    host = random_host(random.Random(163), 7, 11)
    assert custom.token() is None
    first, second = expand(custom, path(4)), expand(custom, path(4))
    assert first is not second and first.terms == expand(LI, path(4)).terms
    assert first._plan is None and second._plan is None
    basis.expansion_cache_clear()
    for _ in range(2):
        assert (count_restricted(custom, path(4), host)
                == brute_restricted(LI, path(4), host))
    assert basis.expansion_cache_info() == (0, 0, basis._EXPANSION_CACHE_SIZE,
                                            0)


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
    # Cold and warm refusals, by expand or by the plan replay, say one
    # thing.
    refusal = "pattern on 5 vertices exceeds the enumeration limit 4"
    basis.expansion_cache_clear()
    with pytest.raises(PatternSizeError) as cold:
        count_restricted(LI, cycle(5), host, limit=4)
    assert str(cold.value) == refusal
    assert count_restricted(LI, cycle(5), host) == value
    with pytest.raises(PatternSizeError) as warm:
        count_restricted(LI, cycle(5), host, limit=4)
    assert str(warm.value) == refusal
    with pytest.raises(PatternSizeError) as replay:
        evaluate(expansion, host, limit=4)
    assert str(replay.value) == refusal
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

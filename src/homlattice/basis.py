"""Signed expansions of restricted homomorphism counts.

A restricted count expands as a signed integer combination of plain
homomorphism counts of the pattern's contraction minors: sum the Mobius
value of each flat of the constraint graph's matroid, grouped by the
isomorphism class of the quotient, dropping quotients that carry a
selfloop (they admit no homomorphism into a loop-free host). The class
containing the pattern itself always has coefficient +1, every condensed
coefficient is nonzero, and its sign is determined by how many vertices
the contraction removed; these facts are asserted at expansion time
rather than assumed.

Evaluation counts each minor's homomorphisms by bucket elimination along
its exact-treewidth order, so the cost per term is |V(G)|^(width+1);
building an expansion enumerates the constraint graph's flats, which is
bounded by the Bell number of the pattern size. The pattern itself takes
one canonical search, which gives both the cache key and the
representative of its own class.

Expansions under built-in restrictions are cached in one least recently
used cache of at most ``_EXPANSION_CACHE_SIZE`` entries. Each expansion
is stored under its class key (canonical key, restriction token) and
under the labelled key (pattern ``Graph``, token) it was asked for, so a
re-queried labelled pattern needs no canonical search and an isomorphic
relabelling needs one. ``expansion_cache_info`` and
``expansion_cache_clear`` report on and empty the cache.
"""

from .cache import LRUCache
from .errors import HomlatticeError, HostError, ensure_pattern_size
from .flats import enumerate_flats
from .graphs import _Value, _canonical, quotient
from .restrictions import EMB, apply_restriction
from .treedp import hom_count


class ExpansionTerm(_Value):
    """One isomorphism class of minors with its condensed coefficient."""

    __slots__ = _fields = ("coefficient", "graph", "key")

    def __init__(self, coefficient, graph, key):
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "key", key)


class BasisExpansion(_Value):
    __slots__ = _fields = ("pattern", "restriction", "terms")

    def __init__(self, pattern, restriction, terms):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "restriction", restriction)
        object.__setattr__(self, "terms", terms)

    def __len__(self):
        return len(self.terms)


class LinearCombination(_Value):
    """Nonnegative rational weights on (restriction, pattern) pairs."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def build(entries):
        from fractions import Fraction

        norm = []
        for coeff, restriction, pattern in entries:
            coeff = Fraction(coeff)
            if coeff <= 0:
                raise HomlatticeError("combination weights must be positive")
            if not pattern.is_loop_free():
                raise HomlatticeError("combination patterns must be loop-free")
            norm.append((coeff, restriction, pattern))
        return LinearCombination(tuple(norm))

    def __len__(self):
        return len(self.terms)


_EXPANSION_CACHE_SIZE = 2048
_expansion_cache = LRUCache(_EXPANSION_CACHE_SIZE)


def expansion_cache_info():
    """Hits, misses, bound and size of the expansion cache."""
    return _expansion_cache.info()


def expansion_cache_clear():
    """Forget every cached expansion."""
    _expansion_cache.clear()


def _group_quotients(pattern, items, bottom):
    """Loop-free quotients of the pattern grouped by isomorphism class.

    ``items`` yields (partition, value) pairs, and ``bottom`` is the
    pattern's own (canonical key, representative), which serves the
    all-singletons partition. Returns a dict from each canonical key to
    [canonical representative, sum of the values of the partitions whose
    quotient falls in the class], in first-seen order. Quotients with a
    selfloop are dropped; each other one takes one canonical search, and
    only the first of each class builds a representative. No quotient is
    larger than the pattern, whose size the caller checked.
    """
    groups = {}
    for partition, value in items:
        if partition.num_blocks() == pattern.n:
            key, rep = bottom
        else:
            q = quotient(pattern, partition)
            if not q.is_loop_free():
                continue
            key, rep = _canonical(q, groups)
        group = groups.get(key)
        if group is None:
            groups[key] = [rep, value]
        else:
            group[1] += value
    return groups


def expand(restriction, pattern, limit=None):
    """Signed minor expansion of the restricted count for this pattern.

    Results for built-in restrictions are cached per labelled pattern and
    per isomorphism class; custom restrictions are never cached since
    nothing ties their output to the pattern's isomorphism class.
    """
    if not pattern.is_loop_free():
        raise HomlatticeError("pattern must be loop-free")
    ensure_pattern_size(pattern.n, limit)
    token = restriction.token()
    labelled = (pattern, token)
    if token is not None:
        hit = _expansion_cache.get(labelled)
        if hit is not None:
            return BasisExpansion(pattern, restriction, hit)
    bottom = _canonical(pattern)
    class_key = (bottom[0], token)
    if token is not None:
        hit = _expansion_cache.get(class_key)
        if hit is not None:
            _expansion_cache.put(labelled, hit)
            return BasisExpansion(pattern, restriction, hit)
    constraint = apply_restriction(restriction, pattern)
    lattice = enumerate_flats(constraint, limit)
    groups = _group_quotients(
        pattern, zip((flat.partition for flat in lattice.flats),
                     lattice.mobius), bottom)
    terms = []
    for key, (rep, coeff) in groups.items():
        if coeff == 0:
            raise AssertionError("condensed coefficient vanished")
        removed = pattern.n - rep.n
        if (coeff > 0) != (removed % 2 == 0):
            raise AssertionError("condensed coefficient has the wrong sign")
        terms.append(ExpansionTerm(coeff, rep, key))
    terms.sort(key=lambda t: (-t.graph.n, t.key))
    lead = terms[0] if terms else None
    if lead is None or lead.graph.n != pattern.n or lead.coefficient != 1:
        raise AssertionError("leading expansion term is not the pattern")
    terms = tuple(terms)
    if token is not None:
        _expansion_cache.put(class_key, terms)
        _expansion_cache.put(labelled, terms)
    return BasisExpansion(pattern, restriction, terms)


def evaluate(expansion, host, limit=None):
    """Value of the expansion on a loop-free host graph."""
    if not host.is_loop_free():
        raise HostError("host graph must be loop-free")
    total = 0
    for term in expansion.terms:
        total += term.coefficient * hom_count(term.graph, host, limit)
    if total < 0:
        raise AssertionError("restricted count came out negative")
    return total


def count_restricted(restriction, pattern, host, limit=None):
    """Restricted homomorphism count via the minor expansion."""
    return evaluate(expand(restriction, pattern, limit), host, limit)


def evaluate_combination(combination, host, limit=None):
    """Exact rational value of a linear combination on a host."""
    if not host.is_loop_free():
        raise HostError("host graph must be loop-free")
    from fractions import Fraction

    total = Fraction(0)
    for coeff, restriction, pattern in combination.terms:
        total += coeff * evaluate(expand(restriction, pattern, limit),
                                  host, limit)
    return total


def is_congruent(combination):
    """Whether all pattern vertex counts share one parity.

    Empty and single-term combinations qualify trivially.
    """
    parities = {pattern.n % 2 for _, _, pattern in combination.terms}
    return len(parities) <= 1


def hom_to_embedding_basis(pattern, limit=None):
    """Plain homomorphism count as a sum of embedding counts of quotients.

    Runs over the flats of the complete graph, which are all partitions
    of the vertex set: merging any vertex subset is allowed as long as
    the quotient stays loop-free. Multiplicities count the partitions
    landing in each isomorphism class, so all weights are positive.
    """
    if not pattern.is_loop_free():
        raise HomlatticeError("pattern must be loop-free")
    lattice = enumerate_flats(apply_restriction(EMB, pattern), limit)
    groups = _group_quotients(
        pattern, ((flat.partition, 1) for flat in lattice.flats),
        _canonical(pattern))
    classes = sorted(groups.items(), key=lambda kv: (-kv[1][0].n, kv[0]))
    return LinearCombination.build(
        [(count, EMB, rep) for _, (rep, count) in classes])


def serialize_expansion(expansion):
    """One line per term: signed coefficient, vertex count, edge list.

    Fields are tab-separated; edges are semicolon-separated ``u-v`` pairs
    of the canonical representative, printed 1-based. Terms are sorted by
    descending vertex count, then canonical key, so output is stable.
    """
    lines = []
    for term in expansion.terms:
        edges = ";".join(f"{u + 1}-{v + 1}" for u, v in term.graph.edge_list())
        lines.append(f"{term.coefficient:+d}\t{term.graph.n}\t{edges}")
    return "\n".join(lines)

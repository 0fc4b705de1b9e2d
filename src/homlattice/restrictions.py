"""Constraint-graph builders and contraction minors.

A restriction maps a loop-free pattern H to a constraint graph on the same
vertex set; a homomorphism respects the restriction when the endpoints of
every constraint edge get distinct images. Built-in kinds:

  hom    no constraints (edgeless constraint graph), plain homomorphisms
  emb    all pairs constrained (complete constraint graph), embeddings
  li     pairs with a common neighbor, locally injective homomorphisms
  li:R   pairs with a witness vertex at distance 1..R from both endpoints

``li`` is ``li:1``: a common neighbour is a witness at distance 1, so
both build the radius-1 witness graph and share one cache token, and
their expansions share a cache entry; only ``label`` tells them apart.
Custom restrictions supply their own builder and are validated for vertex
preservation and loop-freeness.

The contraction minors of a restriction are the terms of the pattern's
signed expansion, ``basis.expand``: every condensed coefficient is nonzero, so no class of
loop-free quotients drops out of it.
"""

from itertools import combinations

from .errors import HomlatticeError, ParseError
from .flats import blocks_connected
from .graphs import (Graph, VertexPartition, _Value, bfs_distances, quotient,
                     spider, spider_parts, windmill, windmill_parts)
from .treedp import treewidth_exact


class Restriction(_Value):
    __slots__ = _fields = ("kind", "radius", "name", "build")

    def __init__(self, kind, radius=None, name=None, build=None):
        if kind not in ("hom", "emb", "li", "custom"):
            raise ValueError(f"unknown restriction kind {kind!r}")
        if radius is not None and (kind != "li" or radius < 1):
            raise ValueError("radius applies to li and must be >= 1")
        if kind == "custom" and build is None:
            raise ValueError("custom restriction needs a build callable")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "build", build)

    def token(self):
        """Cache token; None when results must not be cached."""
        if self.kind == "custom":
            return None
        return (self.kind, None if self.radius == 1 else self.radius)

    def label(self):
        if self.kind == "li" and self.radius is not None:
            return f"li:{self.radius}"
        if self.kind == "custom":
            return self.name or "custom"
        return self.kind


HOM = Restriction("hom")
EMB = Restriction("emb")
LI = Restriction("li")


def locally_injective(radius=None):
    return Restriction("li", radius=radius)


def custom_restriction(build, name=None):
    return Restriction("custom", build=build, name=name)


def parse_restriction(spec):
    """Parse a restriction spec string: hom, emb, li, or li:R."""
    spec = spec.strip()
    if spec == "hom":
        return HOM
    if spec == "emb":
        return EMB
    if spec == "li":
        return LI
    if spec.startswith("li:"):
        try:
            radius = int(spec[3:])
        except ValueError:
            radius = 0
        if radius < 1:
            raise ParseError(f"bad restriction spec {spec!r}")
        return locally_injective(radius)
    raise ParseError(f"bad restriction spec {spec!r}")


def _radius_witness_edges(pattern, radius):
    """Every pair of vertices at distance 1..radius from a common one."""
    edges = set()
    for v in range(pattern.n):
        dist = bfs_distances(pattern, v)
        sphere = [u for u in range(pattern.n) if 1 <= dist[u] <= radius]
        edges.update(combinations(sphere, 2))
    return edges


def apply_restriction(restriction, pattern):
    """Constraint graph of the restriction on the pattern's vertex set."""
    if not pattern.is_loop_free():
        raise HomlatticeError("restrictions are defined on loop-free patterns")
    kind = restriction.kind
    if kind == "hom":
        return Graph(pattern.n)
    if kind == "emb":
        return Graph(pattern.n, [(u, v) for u in range(pattern.n)
                                 for v in range(u + 1, pattern.n)])
    if kind == "li":
        return Graph(pattern.n,
                     _radius_witness_edges(pattern, restriction.radius or 1))
    out = restriction.build(pattern)
    if not isinstance(out, Graph) or out.n != pattern.n:
        raise HomlatticeError(
            "custom restriction must return a graph on the same vertices")
    if not out.is_loop_free():
        raise HomlatticeError("custom restriction produced selfloops")
    return out


def max_minor_treewidth(minors, limit=None):
    """Largest exact treewidth over the minor representatives, the terms
    of ``basis.expand``."""
    best = -1
    for term in minors.terms:
        width, _ = treewidth_exact(term.graph, limit)
        best = max(best, width)
    return best


def windmill_contraction(target):
    """Contraction of a windmill realizing an arbitrary loop-free target.

    For a target with k >= 1 edges and no isolated vertices, blade i of
    windmill(k) is matched to the i-th target edge in sorted order; blade
    endpoints mapped to the same target vertex share a block. The apex
    stays alone. Returns the partition over the windmill's vertices and
    the resulting quotient; deleting the apex block from the quotient
    recovers the target. Edge orientation within a blade is immaterial,
    any choice yields the same partition.
    """
    if target.n == 0 or target.m == 0:
        raise HomlatticeError("target needs at least one edge")
    if not target.is_loop_free():
        raise HomlatticeError("target must be loop-free")
    for v in range(target.n):
        if target.degree(v) == 0:
            raise HomlatticeError(f"target has an isolated vertex {v}")
    k = target.m
    apex, inner, outer = windmill_parts(k)
    assigned = {v: [] for v in range(target.n)}
    for i, (x, y) in enumerate(target.edge_list()):
        assigned[x].append(inner[i])
        assigned[y].append(outer[i])
    blocks = [{apex}] + [set(vs) for vs in assigned.values()]
    partition = VertexPartition.from_blocks(blocks)
    minor = quotient(windmill(k), partition)
    return partition, minor


def windmill_apex_deleted(partition, minor):
    """Drop the block holding the windmill apex from a contraction minor."""
    apex_block = partition.block_of[0]
    keep = [b for b in range(minor.n) if b != apex_block]
    return minor.induced(keep)


def spider_contraction(k):
    """Merge each long-leg tip of spider(k) with a distinct short leg.

    Every merged pair is joined in the radius-2 constraint graph of the
    spider (the apex witnesses both at distance 1 and 2), and the quotient
    is the windmill with k blades.
    """
    if k < 1:
        raise HomlatticeError("spider contraction needs k >= 1")
    apex, short, mid, tip = spider_parts(k)
    blocks = [{apex}] + [{m} for m in mid] + \
        [{short[i], tip[i]} for i in range(k)]
    partition = VertexPartition.from_blocks(blocks)
    minor = quotient(spider(k), partition)
    return partition, minor


def contraction_is_legal(restriction, pattern, partition):
    """Whether every block is connected in the pattern's constraint graph."""
    constraint = apply_restriction(restriction, pattern)
    return blocks_connected(constraint, partition)

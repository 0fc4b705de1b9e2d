"""Counting restricted graph homomorphisms through the lattice of flats
of the pattern's constraint graph."""

from .basis import (
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
from .errors import (
    BudgetError,
    DEFAULT_PATTERN_LIMIT,
    HomlatticeError,
    HostError,
    ParseError,
    PartitionError,
    PatternSizeError,
    TreeError,
)
from .flats import FlatLattice, Flat, enumerate_flats
from .graphs import (
    Graph,
    VertexPartition,
    biclique,
    canonical_form,
    canonical_representative,
    clique,
    count_automorphisms,
    cycle,
    edgeless,
    generate,
    is_isomorphic,
    path,
    quotient,
    spider,
    star,
    windmill,
)
from .restrictions import (
    EMB,
    HOM,
    LI,
    Restriction,
    apply_restriction,
    custom_restriction,
    locally_injective,
    max_minor_treewidth,
    parse_restriction,
    spider_contraction,
    windmill_contraction,
)
from .treedp import hom_count, treewidth_exact

__version__ = "0.1.0"

# The brute-force oracle and the permanent gadget of the trees hardness
# proof are not part of the counting engine, so their names load on first
# access (PEP 562) and `import homlattice` compiles only the engine.
_ORACLE = ("brute_hom", "brute_restricted", "brute_restricted_quotient",
           "brute_subgraphs", "permanent_direct", "permanent_ryser")
_PERMTREE = ("GadgetTree", "build_gadget", "count_subtrees",
             "count_tree_embeddings", "identity_matrix",
             "tree_automorphism_count", "verify_permanent_identity")
_SUBMODULES = ("oracle", "permtree")
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += _ORACLE + _PERMTREE


def __getattr__(name):
    # A plain import of the submodule: ``from . import`` would look the
    # submodule's name up here first, and so call this hook again.
    if name in _ORACLE or name == "oracle":
        import homlattice.oracle as module
    elif name in _PERMTREE or name == "permtree":
        import homlattice.permtree as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = module if name in _SUBMODULES else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORACLE, *_PERMTREE, *_SUBMODULES})

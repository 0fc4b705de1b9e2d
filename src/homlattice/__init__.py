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
    resolve_limit,
)
from .flats import FlatLattice, Flat, compute_mobius, enumerate_flats
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
from .oracle import (
    brute_hom,
    brute_restricted,
    brute_restricted_quotient,
    brute_subgraphs,
    permanent_direct,
    permanent_ryser,
)
from .permtree import (
    GadgetTree,
    build_gadget,
    count_subtrees,
    count_tree_embeddings,
    identity_matrix,
    tree_automorphism_count,
    verify_permanent_identity,
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
    restriction_minors,
    spider_contraction,
    windmill_contraction,
)
from .treedp import (
    TreeDecomposition,
    count_homomorphisms,
    hom_count,
    make_nice,
    treewidth_exact,
    validate_decomposition,
)

__version__ = "0.1.0"

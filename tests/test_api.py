"""The public names of ``homlattice``, pinned so that any change to the
API shows up in this file's diff."""

import types

import homlattice

PUBLIC = [
    "BasisExpansion",
    "BudgetError",
    "DEFAULT_PATTERN_LIMIT",
    "EMB",
    "ExpansionTerm",
    "Flat",
    "FlatLattice",
    "GadgetTree",
    "Graph",
    "HOM",
    "HomlatticeError",
    "HostError",
    "LI",
    "LinearCombination",
    "ParseError",
    "PartitionError",
    "PatternSizeError",
    "Restriction",
    "TreeError",
    "VertexPartition",
    "apply_restriction",
    "biclique",
    "brute_hom",
    "brute_restricted",
    "brute_restricted_quotient",
    "brute_subgraphs",
    "build_gadget",
    "canonical_form",
    "canonical_representative",
    "clique",
    "count_automorphisms",
    "count_restricted",
    "count_subtrees",
    "count_tree_embeddings",
    "custom_restriction",
    "cycle",
    "edgeless",
    "enumerate_flats",
    "evaluate",
    "evaluate_combination",
    "expand",
    "generate",
    "hom_count",
    "hom_to_embedding_basis",
    "identity_matrix",
    "is_congruent",
    "is_isomorphic",
    "locally_injective",
    "max_minor_treewidth",
    "parse_restriction",
    "path",
    "permanent_direct",
    "permanent_ryser",
    "quotient",
    "resolve_limit",
    "restriction_minors",
    "serialize_expansion",
    "spider",
    "spider_contraction",
    "star",
    "tree_automorphism_count",
    "treewidth_exact",
    "verify_permanent_identity",
    "windmill",
    "windmill_contraction",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(homlattice).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC

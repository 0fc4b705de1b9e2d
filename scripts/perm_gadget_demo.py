"""Walk through the permanent-to-subtree-count reduction on one matrix.

Builds the gadget trees for a 0/1 matrix and for the identity matrix of
the same order, prints their shapes, and confirms that the number of
copies of the identity gadget inside the matrix gadget equals the
permanent. A matrix file (same format as the CLI) can be supplied;
otherwise a built-in 5x5 sample is used.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

# The package's sources, wherever the script is run from.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlattice.oracle import permanent_ryser
from homlattice.permtree import (
    build_gadget,
    count_subtrees,
    identity_matrix,
    parse_matrix,
    tree_automorphism_count,
    verify_permanent_identity,
)

SAMPLE = [
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 0],
    [0, 1, 0, 1, 0],
    [0, 1, 0, 0, 1],
]


def degree_profile(graph):
    return dict(sorted(Counter(graph.degree(v)
                               for v in range(graph.n)).items()))


def describe(label, gadget):
    tree = gadget.graph
    print(f"{label}: {tree.n} vertices, degree profile "
          f"{degree_profile(tree)}, automorphisms "
          f"{tree_automorphism_count(tree)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--matrix", help="matrix file; built-in sample "
                        "if omitted")
    args = parser.parse_args(argv)
    if args.matrix:
        with open(args.matrix, encoding="utf-8") as handle:
            matrix = parse_matrix(handle.read())
    else:
        matrix = SAMPLE
    n = len(matrix)
    print(f"matrix order {n}, permanent {permanent_ryser(matrix)}")

    pattern = build_gadget(identity_matrix(n))
    host = build_gadget(matrix)
    describe("identity gadget", pattern)
    describe("matrix gadget", host)
    print(f"identity-gadget copies inside matrix gadget: "
          f"{count_subtrees(pattern.graph, host.graph)}")

    check = verify_permanent_identity(matrix)
    verdict = "agree" if check.match else "DISAGREE"
    print(f"permanent {check.permanent} vs subtree count "
          f"{check.subtree_count}: {verdict}")
    return 0 if check.match else 1


if __name__ == "__main__":
    raise SystemExit(main())
